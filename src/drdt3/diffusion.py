"""Conditional denoising diffusion policy.

A variance-preserving schedule drives an N-step chain that refines Gaussian
noise into an action, conditioned on the coarse action prediction from the
sequence model. The noise approximator is a gated MLP with adaptive layer
norm conditioning; ablation variants share the same call signature. It is
split in two: `condition` computes what depends only on (step, coarse
action), and `predict_noise` runs the a_i stream on those rows.

The reverse step adds noise scaled by beta_i, following the source method's
stated update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DArray, Linear

VARIANTS = ("full", "no_adaln", "no_gated_mlp", "plain")


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

@dataclass
class DiffusionSchedule:
    n_steps: int
    beta: np.ndarray        # (N,), beta[i-1] is beta_i
    alpha: np.ndarray
    alpha_bar: np.ndarray


def vp_schedule(n_steps, beta_min=0.1, beta_max=10.0):
    """Variance-preserving schedule:
    beta_i = 1 - exp(-beta_min/N - 0.5*(beta_max-beta_min)*(2i-1)/N^2).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not (0 < beta_min <= beta_max):
        raise ValueError("need 0 < beta_min <= beta_max")
    i = np.arange(1, n_steps + 1, dtype=np.float64)
    beta = 1.0 - np.exp(-beta_min / n_steps
                        - 0.5 * (beta_max - beta_min) * (2 * i - 1) / n_steps ** 2)
    alpha = 1.0 - beta
    return DiffusionSchedule(n_steps, beta, alpha, np.cumprod(alpha))


def forward_noise(a0, i, eps, sched):
    """a_i = sqrt(abar_i) a0 + sqrt(1 - abar_i) eps, for one step i or for
    an array of steps over the leading axes of a0, each abar_i broadcast
    over the trailing axes."""
    _check_step(i, sched)
    a0 = np.asarray(a0)
    ab = sched.alpha_bar[np.asarray(i) - 1]
    ab = np.reshape(ab, np.shape(ab) + (1,) * (a0.ndim - np.ndim(ab)))
    return np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * np.asarray(eps)


def _check_step(i, sched):
    if isinstance(i, (int, np.integer)):
        lo = hi = i
    else:
        i = np.asarray(i)
        lo, hi = i.min(), i.max()
    if lo < 1 or hi > sched.n_steps:
        raise IndexError(f"diffusion step out of range 1..{sched.n_steps}")


# ---------------------------------------------------------------------------
# Noise approximator
# ---------------------------------------------------------------------------

class NoiseApproximatorParams(ad.Params):
    """Gated-MLP epsilon model conditioned on (timestep embedding, coarse action).

    variant:
      full          adaLN conditioning + gated MLP branch
      no_adaln      condition concatenated into the input stream, plain LN
      no_gated_mlp  adaLN conditioning + plain two-layer MLP
      plain         concatenated condition + plain two-layer MLP
    """

    def __init__(self, d_a, d_h, d_c, expansion, variant, rng):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.d_a, self.d_h, self.d_c = d_a, d_h, d_c
        self.expansion = expansion
        self.variant = variant
        self.cond_proj = Linear.init(rng, d_c + d_a, d_h)
        if self._uses_adaln():
            # Zero init: the conditioning starts as an identity-like residual.
            self.adaln = Linear(
                DArray(np.zeros((d_h, 3 * d_h)), requires_grad=True),
                DArray(np.zeros(3 * d_h), requires_grad=True),
            )
            self.in_proj = Linear.init(rng, d_a, d_h)
        else:
            self.adaln = None
            self.in_proj = Linear.init(rng, d_a + d_h, d_h)
        self.ln_g = DArray(np.ones(d_h), requires_grad=True)
        self.ln_b = DArray(np.zeros(d_h), requires_grad=True)
        m = expansion * d_h
        self.branch_a = Linear.init(rng, d_h, m)
        self.branch_b = Linear.init(rng, d_h, m) if self._gated() else None
        self.down = Linear.init(rng, m, d_h)
        self.out = Linear.init(rng, d_h, d_a)

    def _uses_adaln(self):
        return self.variant in ("full", "no_gated_mlp")

    def _gated(self):
        return self.variant in ("full", "no_adaln")


def sinusoidal_embedding(i, dim):
    """Standard sin/cos embedding of integer diffusion timesteps."""
    i = np.atleast_1d(np.asarray(i, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = i[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def condition(cond_action, i, params):
    """The part of the epsilon model that does not see a_i, for a batch:
    cond_action (B,d_a) and steps i (B,).

    Returns a tuple of (B, d_h) DArrays: the adaLN modulation
    (gamma, shift, gate) for the adaLN variants, or (c,) for the others.
    It depends only on (i, cond_action), so the sampler computes it once per
    action, one row per reverse step. Callers range-check `i`.
    """
    cond = cond_action if isinstance(cond_action, DArray) \
        else DArray(np.atleast_2d(cond_action))
    temb = DArray(sinusoidal_embedding(i, params.d_c))
    c = ad.gelu(params.cond_proj(ad.concat([temb, cond], axis=-1)))
    if not params._uses_adaln():
        return (c,)
    mod = params.adaln(c)
    d = params.d_h
    return mod[:, :d], mod[:, d:2 * d], mod[:, 2 * d:]


def predict_noise(a_i, conditioning, params):
    """Epsilon prediction for a batch: a_i (B,d_a) and the rows of
    `condition(cond_action, i, params)` for the same B samples.

    Accepts a DArray or ndarray a_i; returns a DArray (B, d_a).
    """
    a_i = a_i if isinstance(a_i, DArray) else DArray(np.atleast_2d(a_i))
    if params._uses_adaln():
        gamma, shift, gate = conditioning
        h = params.in_proj(a_i)
        normed = ad.layer_norm(h, params.ln_g, params.ln_b)
        stream = normed + ad.mul(normed, gamma) + shift
    else:
        (c,) = conditioning
        h = params.in_proj(ad.concat([a_i, c], axis=-1))
        stream = ad.layer_norm(h, params.ln_g, params.ln_b)
        gate = None

    if params._gated():
        mlp = params.down(
            ad.mul(ad.gelu(params.branch_a(stream)), params.branch_b(stream))
        )
    else:
        mlp = params.down(ad.gelu(params.branch_a(stream)))

    if gate is not None:
        h = h + ad.mul(gate, mlp)
    else:
        h = h + mlp
    return params.out(h)


# ---------------------------------------------------------------------------
# Reverse process
# ---------------------------------------------------------------------------

def denoise_step(a_i, conditioning, i, params, sched, noise):
    """One reverse step, on plain arrays and without recording a graph:
    a_{i-1} = (a_i - (1-alpha_i)/sqrt(1-abar_i) * eps_hat)/sqrt(alpha_i)
              + beta_i * noise,
    where `conditioning` holds the rows of `condition(cond_action, i,
    params)` for the rows of a_i.
    """
    _check_step(i, sched)
    noise = np.asarray(noise, dtype=np.float64)
    if i == 1 and np.any(noise != 0.0):
        raise ValueError("reverse noise must be zero at step i=1")
    a_i = np.atleast_2d(np.asarray(a_i, dtype=np.float64))
    alpha = sched.alpha[i - 1]
    abar = sched.alpha_bar[i - 1]
    beta = sched.beta[i - 1]
    with ad.no_grad():
        eps_hat = predict_noise(a_i, conditioning, params).data
    mean = (a_i - (1.0 - alpha) / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)
    return mean + beta * noise, eps_hat


def sample_action(cond_action, params, sched, rng, action_bound=None):
    """Run the full reverse chain from Gaussian noise: one (d_a,) action
    for a (d_a,) condition, or (B, d_a) actions for B condition rows.

    The conditioning is computed once, for all N steps in one call: block k
    of its rows serves step N - k.
    """
    cond = np.atleast_2d(np.asarray(cond_action, dtype=np.float64))
    b, n = cond.shape[0], sched.n_steps
    with ad.no_grad():
        conditioning = condition(np.tile(cond, (n, 1)),
                                 np.repeat(np.arange(n, 0, -1), b), params)
    a = rng.standard_normal(cond.shape)
    for k, i in enumerate(range(n, 0, -1)):
        rows = tuple(DArray(x.data[k * b:(k + 1) * b]) for x in conditioning)
        noise = rng.standard_normal(cond.shape) if i > 1 else np.zeros_like(a)
        a, _ = denoise_step(a, rows, i, params, sched, noise)
    if action_bound is not None:
        a = np.clip(a, -action_bound, action_bound)
    return a if np.ndim(cond_action) == 2 else a[0]


def diffusion_loss(a0, cond, i, eps, params, sched):
    """Mean squared error between eps and the model's prediction at the
    noised action. Differentiable in both the model parameters and `cond`.
    """
    a0 = np.asarray(a0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    i = np.asarray(i)
    cond_data = cond.data if isinstance(cond, DArray) else np.asarray(cond)
    if not (a0.shape[0] == cond_data.shape[0] == i.shape[0] == eps.shape[0]):
        raise ad.ShapeError(
            f"batch sizes disagree: a0 {a0.shape}, cond {cond_data.shape}, "
            f"i {i.shape}, eps {eps.shape}"
        )
    a_i = DArray(forward_noise(a0, i, eps, sched))
    eps_hat = predict_noise(a_i, condition(cond, i, params), params)
    sq = ad.square(eps_hat - DArray(eps))
    # Mean over the batch of per-sample squared norms.
    return ad.scale(ad.sum_all(sq), 1.0 / a0.shape[0])
