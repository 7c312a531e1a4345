"""Gradient and invariant suites behind the `check` CLI command.

Each suite returns a list of (name, worst_error, limit) triples; a check
passes when worst_error < limit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .config import TrainConfig
from .diffusion import (NoiseApproximatorParams, diffusion_loss,
                        forward_noise, vp_schedule)
from .dt3 import ContextBatch, DT3Params, predict_coarse_actions_batch
from .training import dt3_loss, unified_loss


def _rand(rng, *shape, bound=2.0):
    return DArray(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def check_primitives(rng=None, trials=100):
    """Finite-difference checks, one `primitive.<name>` line for each
    recorded primitive of `autodiff`."""
    rng = rng or np.random.default_rng(0)
    worst = {}

    def check(name, f, params):
        worst[name] = max(worst.get(name, 0.0), ad.check_gradients(f, params))

    def sq(t):
        return ad.sum_all(ad.square(t))

    # Row 0 pads its first token (a fully padded query) and masks key 2.
    key_mask = np.array([[False, True, False, True],
                         [True, True, True, True]])
    for _ in range(trials):
        a, w, b = _rand(rng, 3, 4), _rand(rng, 4, 2), _rand(rng, 2)
        check("affine", lambda: sq(ad.affine(a, w, b)), [a, w, b])
        a3 = _rand(rng, 2, 3, 4)
        check("affine", lambda: sq(ad.affine(a3, w, b)), [a3, w, b])
        x, y = _rand(rng, 2, 5), _rand(rng, 2, 5)
        check("add", lambda: sq(x + y), [x, y])
        check("sub", lambda: sq(x - y), [x, y])
        check("mul", lambda: sq(ad.mul(x, y)), [x, y])
        check("scale", lambda: ad.sum_all(ad.scale(ad.square(x), 1.7)), [x])
        g, bias = _rand(rng, 5), _rand(rng, 5)
        check("layer_norm", lambda: sq(ad.layer_norm(x, g, bias)),
              [x, g, bias])
        check("layer_norm",
              lambda: sq(ad.layer_norm(x, g, bias, residual=y)),
              [x, g, bias, y])
        check("gelu", lambda: ad.sum_all(ad.gelu(x)), [x])
        check("absval", lambda: ad.sum_all(ad.absval(ad.square(x) + 0.5)),
              [x])
        check("square", lambda: sq(x), [x])
        check("sum_all", lambda: ad.square(ad.sum_all(x)), [x])
        check("reshape", lambda: sq(ad.reshape(x, (5, 2))), [x])
        check("concat", lambda: sq(ad.concat([x, y], axis=-1)), [x, y])
        check("take_slice", lambda: sq(x[:, 1:4]), [x])
        # Two modalities over two rows of 3 steps into a 6-row table: row 0
        # has a one-step padded prefix (timestep 0, as `context_windows`
        # leaves it), row 1 repeats a timestep.
        table = _rand(rng, 6, 3)
        steps = rng.integers(0, 6, size=(2, 3))
        steps[0, 0], steps[1, 2] = 0, steps[1, 0]
        inputs = (rng.uniform(-2, 2, (2, 3, 1)), rng.uniform(-2, 2, (2, 3, 2)))
        inputs[0][0, 0] = inputs[1][0, 0] = 0.0
        proj_w = [_rand(rng, 1, 3), _rand(rng, 2, 3)]
        proj_b = [_rand(rng, 3), _rand(rng, 3)]
        check("embed_tokens",
              lambda: sq(ad.embed_tokens(inputs, proj_w, proj_b, table,
                                         steps)),
              proj_w + proj_b + [table])
        # Two sequences of 4 tokens, the first with a 2-token padded prefix;
        # small inputs keep the inner recurrence well inside its stable range.
        seq = _rand(rng, 2, 4, 3, bound=0.5)
        ttt = [_rand(rng, 3, 3, bound=0.5) for _ in range(4)]
        mask = np.array([[0, 0, 1, 1], [1, 1, 1, 1]], dtype=np.float64)
        c = rng.uniform(0.5, 2.0) * mask
        check("ttt_linear", lambda: sq(ad.ttt_linear(seq, *ttt, c)),
              [seq] + ttt)
        # Read out at the state tokens only, as dt3 does: two sequences of
        # 6 tokens (two steps), the first with a 3-token padded prefix.
        seq6 = _rand(rng, 2, 6, 3, bound=0.5)
        mask6 = np.array([[0, 0, 0, 1, 1, 1], [1, 1, 1, 1, 1, 1]],
                         dtype=np.float64)
        c6 = rng.uniform(0.5, 2.0) * mask6
        check("ttt_linear",
              lambda: sq(ad.ttt_linear(seq6, *ttt, c6, slice(1, None, 3))),
              [seq6] + ttt)
        # Two heads over two sequences of 4 tokens, d = 4.
        tokens = _rand(rng, 2, 4, 4, bound=1.0)
        attn = [_rand(rng, *shape, bound=1.0)
                for shape in ((4, 12), (12,), (4, 4), (4,))]
        check("causal_attention",
              lambda: sq(ad.causal_attention(tokens, *attn, key_mask, 2)),
              [tokens] + attn)
    return [(f"primitive.{name}", worst[name], 1e-4) for name in sorted(worst)]


def _tiny_config(d=8, k=3, n=3):
    return TrainConfig(
        context_len=k, embed_dim=d, n_heads=2, inner_lr=0.5,
        max_episode_len=16, n_diffusion_steps=n, cond_hidden=8,
        time_embed_dim=4, mlp_expansion=2, batch_size=4,
    ).validate()


def _tiny_batch(rng, k=3, d_s=3, d_a=2, b=2):
    mask = np.ones((b, k), dtype=bool)
    mask[0, 0] = False
    rtgs = rng.uniform(-1, 1, size=(b, k))
    states = rng.uniform(-1, 1, size=(b, k, d_s))
    actions = rng.uniform(-1, 1, size=(b, k, d_a))
    rtgs[0, 0] = 0.0
    states[0, 0] = 0.0
    actions[0, 0] = 0.0
    steps = np.tile(np.arange(k), (b, 1))
    steps[0, 0] = 0
    return ContextBatch(rtgs, states, actions, steps, mask)


def check_dt3_gradients(seed=0):
    """Full-model check: gradients through attention and the fast-weight
    inner update on a small model."""
    rng = np.random.default_rng(seed)
    cfg = _tiny_config()
    dt3 = DT3Params(rng, 3, 2, cfg)
    batch = _tiny_batch(rng, k=cfg.context_len)
    target = rng.uniform(-1, 1, size=(2, cfg.context_len, 2))

    def f():
        pred = predict_coarse_actions_batch(batch, dt3)
        return dt3_loss(pred, target, batch.pad_mask, 1.0, norm="l2")

    err = ad.check_gradients(f, dt3.parameters())
    return [("dt3.full_model", err, 1e-3)]


def check_noise_gradients(seed=0, variant="full"):
    rng = np.random.default_rng(seed)
    d_a = 2
    noise = NoiseApproximatorParams(d_a, 8, 4, 2, variant, rng)
    sched = vp_schedule(3)
    a0 = rng.uniform(-1, 1, size=(4, d_a))
    cond = DArray(rng.uniform(-1, 1, size=(4, d_a)), requires_grad=True)
    i = rng.integers(1, 4, size=4)
    eps = rng.standard_normal((4, d_a))

    def f():
        return diffusion_loss(a0, cond, i, eps, noise, sched)

    err = ad.check_gradients(f, noise.parameters() + [cond])
    return [(f"diffusion.noise_approx[{variant}]", err, 1e-3)]


def check_unified_gradients(seed=0):
    """Gradient of the full unified loss on a 4-sample batch, d=8, K=3, N=3."""
    rng = np.random.default_rng(seed)
    cfg = _tiny_config()
    d_s, d_a, b = 3, 2, 4
    dt3 = DT3Params(rng, d_s, d_a, cfg)
    noise = NoiseApproximatorParams(d_a, cfg.cond_hidden, cfg.time_embed_dim,
                                    cfg.mlp_expansion, "full", rng)
    sched = vp_schedule(cfg.n_diffusion_steps)
    batch = _tiny_batch(rng, k=cfg.context_len, b=b)
    target = rng.uniform(-1, 1, size=(b, cfg.context_len, d_a))
    i = rng.integers(1, cfg.n_diffusion_steps + 1, size=b)
    eps = rng.standard_normal((b, d_a))

    def f():
        pred = predict_coarse_actions_batch(batch, dt3)
        l_dt3 = dt3_loss(pred, target, batch.pad_mask, 1.0, norm="l2")
        cond = ad.reshape(pred[:, cfg.context_len - 1, :], (b, d_a))
        l_diff = diffusion_loss(target[:, -1, :], cond, i, eps, noise, sched)
        return unified_loss(l_diff, l_dt3, 0.2)

    params = dt3.parameters() + noise.parameters()
    err = ad.check_gradients(f, params)
    return [("unified.full_loss", err, 1e-3)]


def check_schedule_invariants():
    results = []
    worst = 0.0
    for n in (1, 5, 20):
        for bmin, bmax in ((0.1, 10.0), (1.0, 1.0)):
            s = vp_schedule(n, bmin, bmax)
            worst = max(worst, np.abs(s.beta - (1.0 - s.alpha)).max())
            worst = max(worst, np.abs(s.alpha_bar - np.cumprod(s.alpha)).max())
            if np.any(s.beta <= 0) or np.any(s.beta >= 1):
                worst = max(worst, 1.0)
            if n > 1 and np.any(np.diff(s.alpha_bar) >= 0):
                worst = max(worst, 1.0)
    results.append(("diffusion.schedule_invariants", worst, 1e-12))

    # N=1 round trip: denoising with the true noise recovers a0 exactly.
    s = vp_schedule(1, 0.1, 10.0)
    rng = np.random.default_rng(1)
    a0 = rng.uniform(-1, 1, size=3)
    eps = rng.standard_normal(3)
    a1 = forward_noise(a0, 1, eps, s)
    rec = (a1 - (1 - s.alpha[0]) / np.sqrt(1 - s.alpha_bar[0]) * eps) \
        / np.sqrt(s.alpha[0])
    results.append(("diffusion.n1_round_trip", np.abs(rec - a0).max(), 1e-12))
    return results


SCOPES = {
    "numerics": lambda: check_primitives(trials=20),
    "dt3": lambda: check_dt3_gradients(),
    "diffusion": lambda: (check_noise_gradients()
                          + check_schedule_invariants()),
}


def run_checks(scope="all"):
    names = list(SCOPES) if scope == "all" else [scope]
    results = []
    for name in names:
        results.extend(SCOPES[name]())
    if scope == "all":
        results.extend(check_unified_gradients())
    return results
