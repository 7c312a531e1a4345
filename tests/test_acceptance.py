"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the stitching criterion trains two full bundles and takes ~1.5 min
(89 s on a 2-vCPU VM), and the two-mode sampler criterion takes ~30 s.
`pytest -m "not slow"` leaves both out.
"""

import time

import numpy as np
import pytest

from drdt3 import autodiff as ad
from drdt3.autodiff import DArray
from drdt3.bundle import fresh_bundle, load_bundle, save_bundle
from drdt3.checks import run_checks
from drdt3.config import TrainConfig
from drdt3.diffusion import (NoiseApproximatorParams, condition,
                             denoise_step, diffusion_loss, sample_action,
                             vp_schedule)
from drdt3.dt3 import (ContextBatch, TTTLinearLayer, predict_coarse_actions_batch,
                       ttt_forward)
from drdt3.envs import generate_dataset
from drdt3.store_io import load_store, save_store
from drdt3.training import (AdamW, dt3_loss, evaluate_bundle,
                            sample_context_batch, train, unified_loss)


def _report(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def tiny_config(**kw):
    base = dict(embed_dim=8, n_heads=1, cond_hidden=8, time_embed_dim=4,
                mlp_expansion=2, max_episode_len=32, batch_size=8,
                epochs=1, updates_per_epoch=30, eval_episodes=0, seed=0)
    base.update(kw)
    return TrainConfig(**base).validate()


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = run_checks("all")
    elapsed = time.time() - t0
    bad = [(n, e, lim) for n, e, lim in results if not e < lim]
    ok = not bad and elapsed < 120.0
    for n, e, lim in results:
        print(f"  {n}: {e:.3e} (limit {lim:.0e})")
    print(f"  runtime {elapsed:.1f}s")
    _report(1, "gradient suite", ok)


# ---------------------------------------------------------------------------
# 2. TTT mechanics
# ---------------------------------------------------------------------------

def test_criterion_2_ttt_mechanics():
    rng = np.random.default_rng(0)
    d, k = 4, 5

    # (a) inner_lr = 0: a fixed linear map, exactly.
    w0 = rng.normal(size=(d, d))
    thetas = [rng.normal(size=(d, d)) for _ in range(3)]
    layer = TTTLinearLayer(DArray(w0), DArray(thetas[0]), DArray(thetas[1]),
                           DArray(thetas[2]), inner_lr=0.0)
    x = rng.normal(size=(1, k, d))
    out = ttt_forward(DArray(x), layer, np.ones((1, k), dtype=bool)).data
    expected = np.stack([
        (w0 @ (thetas[0] @ x[0, t][:, None]))[:, 0] for t in range(k)
    ])[None]
    frozen_ok = np.array_equal(out, expected)

    # (b) one recorded update descends the token reconstruction loss for
    # 1000 random unit-norm tokens at inner_lr <= 1e-2, and the oracle
    # update rule matches the implementation.
    eta = 1e-2
    tk, tv, tq = (rng.normal(size=(d, d)) for _ in range(3))
    descent_ok = True
    for _ in range(1000):
        x_t = rng.normal(size=d)
        x_t /= np.linalg.norm(x_t)
        w = rng.normal(size=(d, d)) * 0.5
        kt, vt = tk @ x_t, tv @ x_t
        loss_before = np.sum((w @ kt - vt) ** 2)
        w1 = w - eta * 2.0 * np.outer(w @ kt - vt, kt)
        loss_after = np.sum((w1 @ kt - vt) ** 2)
        if loss_after > loss_before + 1e-15:
            descent_ok = False
            break
    # tie the oracle to the code: two-token sequence, second output uses W_1
    layer2 = TTTLinearLayer(DArray(np.zeros((d, d))), DArray(tq), DArray(tk),
                            DArray(tv), inner_lr=eta)
    xs = rng.normal(size=(1, 2, d))
    z = ttt_forward(DArray(xs), layer2, np.ones((1, 2), dtype=bool)).data
    w_oracle = np.zeros((d, d))
    for t in range(2):
        kt, vt = tk @ xs[0, t], tv @ xs[0, t]
        w_oracle = w_oracle - eta * 2.0 * np.outer(w_oracle @ kt - vt, kt)
    match_ok = np.abs(z[0, 1] - w_oracle @ tq @ xs[0, 1]).max() < 1e-12

    # (c) d=1 hand-derived case: W_1 = 2 * inner_lr.
    eta1 = 0.3
    one = lambda: DArray(np.ones((1, 1)))
    layer1 = TTTLinearLayer(DArray(np.zeros((1, 1))), one(), one(), one(),
                            inner_lr=eta1)
    z1 = ttt_forward(DArray(np.ones((1, 1, 1))), layer1,
                     np.ones((1, 1), dtype=bool)).data
    hand_ok = abs(z1[0, 0, 0] - 2.0 * eta1) < 1e-12

    _report(2, "TTT mechanics", frozen_ok and descent_ok and match_ok
            and hand_ok)


# ---------------------------------------------------------------------------
# 3. Diffusion identities
# ---------------------------------------------------------------------------

def test_criterion_3_diffusion_identities():
    rng = np.random.default_rng(0)

    # (a) N=1 round trip to 1e-12.
    s1 = vp_schedule(1, 0.1, 10.0)
    a0 = rng.uniform(-1, 1, size=3)
    eps = rng.standard_normal(3)
    a1 = np.sqrt(s1.alpha_bar[0]) * a0 + np.sqrt(1 - s1.alpha_bar[0]) * eps
    rec = (a1 - (1 - s1.alpha[0]) / np.sqrt(1 - s1.alpha_bar[0]) * eps) \
        / np.sqrt(s1.alpha[0])
    round_ok = np.abs(rec - a0).max() < 1e-12

    # (b) eps_theta == 0 telescoping: a_0 = a_N / sqrt(abar_N) to 1e-10.
    sched = vp_schedule(5, 0.1, 10.0)
    zero = NoiseApproximatorParams(2, 8, 4, 2, "plain", rng)
    for name, p in zero.named():
        if name.endswith(("out.w", "out.b")):
            p.data[:] = 0.0
    a = rng.standard_normal((1, 2))
    a_n = a.copy()
    for i in range(5, 0, -1):
        a, _ = denoise_step(a, condition(np.zeros((1, 2)), i, zero), i, zero,
                            sched, np.zeros((1, 2)))
    tele_ok = np.abs(a - a_n / np.sqrt(sched.alpha_bar[-1])).max() < 1e-10

    # (c) schedule invariants across the grid.
    grid_ok = True
    for n in (1, 5, 20):
        for bmin, bmax in ((0.1, 10.0), (1.0, 1.0)):
            s = vp_schedule(n, bmin, bmax)
            grid_ok &= np.abs(s.beta - (1 - s.alpha)).max() < 1e-12
            grid_ok &= np.abs(s.alpha_bar - np.cumprod(s.alpha)).max() < 1e-12
            grid_ok &= bool(np.all((s.beta > 0) & (s.beta < 1)))
            if n > 1:
                grid_ok &= bool(np.all(np.diff(s.alpha_bar) < 0))

    _report(3, "diffusion identities", round_ok and tele_ok and grid_ok)


# ---------------------------------------------------------------------------
# 4. Generative sanity
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_two_mode_sampler():
    t0 = time.time()
    rng = np.random.default_rng(0)
    n = 20  # fine reverse chain; the residual per-step noise stays small
    sched = vp_schedule(n, 0.1, 10.0)
    params = NoiseApproximatorParams(1, 32, 8, 2, "full", rng)
    opt = AdamW(*ad.flatten(params.parameters()), lr=1e-3)
    cond = np.zeros((256, 1))
    for _ in range(3000):
        a0 = rng.choice([-0.8, 0.8], size=(256, 1))
        i = rng.integers(1, n + 1, size=256)
        eps = rng.standard_normal((256, 1))
        loss = diffusion_loss(a0, cond, i, eps, params, sched)
        ad.zero_grads(params.parameters())
        ad.backward(loss)
        opt.step()
    samples = np.array([
        sample_action(np.zeros(1), params, sched, rng)[0]
        for _ in range(10_000)
    ])
    lo, hi = samples[samples < 0.0], samples[samples >= 0.0]
    elapsed = time.time() - t0
    print(f"  modes: {lo.mean():.3f} / {hi.mean():.3f} "
          f"(sizes {lo.size}/{hi.size}), runtime {elapsed:.0f}s")
    ok = (lo.size > 1000 and hi.size > 1000
          and abs(lo.mean() + 0.8) < 0.1 and abs(hi.mean() - 0.8) < 0.1
          and elapsed < 300.0)
    _report(4, "generative sanity", ok)


# ---------------------------------------------------------------------------
# 5. Causality & padding
# ---------------------------------------------------------------------------

def test_criterion_5_causality_and_padding():
    rng = np.random.default_rng(0)
    cfg = tiny_config()
    store = generate_dataset("stitchchain", "stitch", 6, seed=0)
    bundle = fresh_bundle(cfg, store)
    from drdt3.envs import make_env_spec
    spec = make_env_spec("stitchchain")
    batch, _ = sample_context_batch(store, cfg.context_len, 4, rng, spec)

    base = predict_coarse_actions_batch(batch, bundle.dt3).data.copy()
    # perturb the final step's tokens; all earlier predictions must be
    # bitwise unchanged
    batch.rtgs[:, -1] += 10.0
    batch.states[:, -1] += 10.0
    pert = predict_coarse_actions_batch(batch, bundle.dt3).data
    causal_ok = np.array_equal(base[:, :-1], pert[:, :-1])

    # padding invariance: same real steps under 0..3 pad rows agree to 1e-10
    k = cfg.context_len
    real = 3
    rtgs = rng.uniform(-1, 1, size=real)
    states = rng.uniform(-1, 1, size=(real, store.d_s))
    actions = rng.uniform(-1, 1, size=(real, store.d_a))
    outs = []
    for pad in range(k - real + 1):
        n = pad + real
        b = ContextBatch(
            np.concatenate([np.zeros(k - n), np.zeros(pad), rtgs])[None],
            np.concatenate([np.zeros((k - real, store.d_s)), states])[None],
            np.concatenate([np.zeros((k - real, store.d_a)), actions])[None],
            np.concatenate([np.zeros(k - real, dtype=int),
                            np.arange(real)])[None],
            np.concatenate([np.zeros(k - real, dtype=bool),
                            np.ones(real, dtype=bool)])[None],
        )
        outs.append(predict_coarse_actions_batch(b, bundle.dt3).data[0, -real:])
    pad_ok = all(np.abs(o - outs[0]).max() < 1e-10 for o in outs[1:])

    _report(5, "causality & padding", causal_ok and pad_ok)


# ---------------------------------------------------------------------------
# 6. Unified objective
# ---------------------------------------------------------------------------

def test_criterion_6_unified_objective():
    store = generate_dataset("stitchchain", "stitch", 6, seed=0)
    cfg = tiny_config(updates_per_epoch=50)
    _, log = train(cfg, store, eval_each_epoch=False)
    decomp_ok = all(abs(l_total - (l_diff + cfg.zeta * l_dt3)) < 1e-12
                    for _, l_diff, l_dt3, l_total in log.updates)

    # both parameter groups get nonzero gradients at update 1 with zeta=0.2
    from drdt3.envs import make_env_spec
    spec = make_env_spec("stitchchain")
    rng = np.random.default_rng(cfg.seed)
    bundle = fresh_bundle(cfg, store)
    sched = vp_schedule(cfg.n_diffusion_steps, cfg.beta_min, cfg.beta_max)
    batch, targets = sample_context_batch(store, cfg.context_len,
                                          cfg.batch_size, rng, spec)
    pred = predict_coarse_actions_batch(batch, bundle.dt3)
    l_dt3 = dt3_loss(pred, targets, batch.pad_mask, spec.a_max)
    cond = ad.reshape(pred[:, cfg.context_len - 1, :],
                      (cfg.batch_size, store.d_a))
    i = rng.integers(1, cfg.n_diffusion_steps + 1, size=cfg.batch_size)
    eps = rng.standard_normal((cfg.batch_size, store.d_a))
    l_diff = diffusion_loss(targets[:, -1, :], cond, i, eps, bundle.noise,
                            sched)
    loss = unified_loss(l_diff, l_dt3, 0.2)
    params = bundle.parameters()
    ad.zero_grads(params)
    ad.backward(loss)
    dt3_norm = sum(np.linalg.norm(p.grad) for n, p in bundle.named()
                   if n.startswith("dt3."))
    noise_norm = sum(np.linalg.norm(p.grad) for n, p in bundle.named()
                     if n.startswith("noise."))
    joint_ok = dt3_norm > 0 and noise_norm > 0

    _report(6, "unified objective", decomp_ok and joint_ok)


# ---------------------------------------------------------------------------
# 7. Stitching
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_stitching():
    t0 = time.time()
    store = generate_dataset("stitchchain", "stitch", 40, seed=1)
    from_zero = max(t.ret for t in store.trajectories
                    if t.states[0, 0] == 0.0)
    assert from_zero == 0.0  # no dataset trajectory solves it from the start

    # Desk-scale stitching protocol: 20 epochs x 200 updates. The batch here
    # is 32x smaller than the reference setup, so the step size and the
    # sequence-loss weight are scaled to keep joint training stable.
    def cfg(objective, rtg=True):
        return TrainConfig(
            embed_dim=32, epochs=20, updates_per_epoch=200, batch_size=64,
            max_episode_len=32, eval_episodes=0, seed=7,
            learning_rate=1e-4, zeta=1.0, objective=objective,
            condition_on_rtg=rtg,
        ).validate()

    bundle, _ = train(cfg("unified"), store, eval_each_epoch=False)
    bc_bundle, _ = train(cfg("dt3_only", rtg=False), store,
                         eval_each_epoch=False)

    _, succ_drdt3, _ = evaluate_bundle(bundle, episodes=50, seed=7,
                                       mode="drdt3")
    _, succ_dt3, _ = evaluate_bundle(bundle, episodes=50, seed=7,
                                     mode="dt3-only")
    _, succ_bc, _ = evaluate_bundle(bc_bundle, episodes=50, seed=7,
                                    mode="dt3-only")
    elapsed = time.time() - t0
    print(f"  success: drdt3 {succ_drdt3:.2f}, dt3-only {succ_dt3:.2f}, "
          f"bc {succ_bc:.2f}; runtime {elapsed:.0f}s")
    ok = (succ_drdt3 > 0.0
          and succ_drdt3 >= succ_dt3
          and succ_drdt3 > succ_bc and succ_dt3 > succ_bc
          and elapsed < 900.0)
    _report(7, "stitching", ok)


# ---------------------------------------------------------------------------
# 8. Ablation plumbing
# ---------------------------------------------------------------------------

def test_criterion_8_ablation_plumbing():
    store = generate_dataset("stitchchain", "stitch", 6, seed=0)
    variants = [{"noise_approx_variant": v}
                for v in ("full", "no_adaln", "no_gated_mlp", "plain")]
    variants += [{"dt3_loss_norm": "l2"}]
    logs = []
    finite_ok = True
    repro_ok = True
    for kw in variants:
        log1 = train(tiny_config(**kw), store, eval_each_epoch=False)[1]
        log2 = train(tiny_config(**kw), store, eval_each_epoch=False)[1]
        finite_ok &= all(np.isfinite(row[3]) for row in log1.updates)
        repro_ok &= log1.updates == log2.updates
        logs.append(tuple(log1.updates))
    distinct_ok = len(set(logs)) == len(logs)
    _report(8, "ablation plumbing", finite_ok and repro_ok and distinct_ok)


# ---------------------------------------------------------------------------
# 9. Determinism & persistence
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_persistence(tmp_path):
    store = generate_dataset("stitchchain", "stitch", 6, seed=0)
    cfg = tiny_config(updates_per_epoch=10, eval_episodes=2)
    b1, log1 = train(cfg, store)
    b2, log2 = train(cfg, store)
    logs_ok = log1.updates == log2.updates and log1.evals == log2.evals

    # byte-identical round trips
    p1, p2 = tmp_path / "a.drdt3", tmp_path / "b.drdt3"
    save_bundle(b1, p1)
    save_bundle(load_bundle(p1), p2)
    bundle_rt_ok = p1.read_bytes() == p2.read_bytes()

    s1, s2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_store(store, s1)
    save_store(load_store(s1), s2)
    store_rt_ok = s1.read_bytes() == s2.read_bytes()

    # reloaded bundle evaluates identically
    eval_ok = (evaluate_bundle(load_bundle(p1), episodes=3, seed=5)
               == evaluate_bundle(b1, episodes=3, seed=5))

    # identical eval CSVs via the CLI
    from drdt3.cli import main
    c1, c2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    for c in (c1, c2):
        assert main(["eval", "--bundle", str(p1), "--episodes", "2",
                     "--seed", "3", "--out", str(c)]) == 0
    csv_ok = c1.read_bytes() == c2.read_bytes()

    _report(9, "determinism & persistence",
            logs_ok and bundle_rt_ok and store_rt_ok and eval_ok and csv_ok)
