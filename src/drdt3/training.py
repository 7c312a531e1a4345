"""Unified single-stage training: diffusion loss + zeta * sequence-model loss.

Both parameter groups are updated jointly from the first step; the diffusion
loss conditions on the newest coarse action so its gradient reaches the
sequence model through the condition path even at zeta = 0.

Evaluation runs the inference procedure (`rollout_policy`) as the policy of
the model-free episode loop `envs.rollout`.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DArray
from .bundle import fresh_bundle, save_bundle
from .diffusion import diffusion_loss, sample_action, vp_schedule
from .dt3 import ContextBatch, predict_coarse_actions_batch
from .envs import (initial_rtg, make_env, make_env_spec, normalized_score,
                   rollout)


class TrainingAborted(RuntimeError):
    """Raised when the loss turns non-finite; the last checkpoint survives."""


class DatasetRejected(ValueError):
    """Raised when `train` cannot use its dataset with the given config."""


@dataclass
class MetricsLog:
    updates: list = field(default_factory=list)   # (idx, l_diff, l_dt3, l_total)
    evals: list = field(default_factory=list)     # (epoch, mean_ret, succ, norm)

    def log_update(self, idx, l_diff, l_dt3, l_total):
        for v in (l_diff, l_dt3, l_total):
            if not np.isfinite(v):
                raise TrainingAborted(f"non-finite loss at update {idx}")
        self.updates.append((idx, float(l_diff), float(l_dt3), float(l_total)))

    def log_eval(self, epoch, mean_ret, succ, norm):
        self.evals.append((epoch, float(mean_ret), float(succ), float(norm)))

    @classmethod
    def read_csv(cls, out_dir):
        """The log that `write_csv` left in `out_dir`; a row without four
        parseable fields raises ValueError naming its file and line."""
        log = cls()
        for name, rows in (("updates.csv", log.updates),
                           ("evals.csv", log.evals)):
            path = os.path.join(out_dir, name)
            if rows is log.evals and not os.path.exists(path):
                continue
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                next(reader, None)
                for row in reader:
                    try:
                        if len(row) != 4:
                            raise ValueError(f"{len(row)} fields, not 4")
                        rows.append((int(row[0]), *map(float, row[1:])))
                    except ValueError as e:
                        raise ValueError(f"{path}, line {reader.line_num}: "
                                         f"{e}") from None
        return log

    def write_csv(self, out_dir):
        with open(os.path.join(out_dir, "updates.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["update_idx", "l_diff", "l_dt3", "l_total"])
            w.writerows(
                (i, repr(a), repr(b), repr(c)) for i, a, b, c in self.updates
            )
        with open(os.path.join(out_dir, "evals.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "mean_return", "success_rate", "norm_score"])
            w.writerows(
                (e, repr(a), repr(b), repr(c)) for e, a, b, c in self.evals
            )


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def dt3_loss(pred, target, pad_mask, a_max, norm="l1"):
    """Masked sequence action loss, scaled by 1 / (K * a_max).

    pred/target: (K, d_a) or (B, K, d_a) with pad_mask (K,) or (B, K);
    batched inputs average over the batch.
    """
    if a_max <= 0:
        raise ValueError("a_max must be positive")
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ad.ShapeError(f"pred {pred.shape} vs target {target.shape}")
    pad_mask = np.asarray(pad_mask, dtype=bool)
    k = pred.shape[-2]
    batch = pred.shape[0] if pred.ndim == 3 else 1
    diff = pred - DArray(target)
    penalty = ad.absval(diff) if norm == "l1" else ad.square(diff)
    masked = ad.mul(penalty, DArray(pad_mask[..., None].astype(np.float64)))
    return ad.scale(ad.sum_all(masked), 1.0 / (k * a_max * batch))


def unified_loss(l_diff, l_dt3, zeta):
    return l_diff + ad.scale(l_dt3, zeta)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

# Elements per pass of `AdamW.step`: a block's temporaries stay in cache,
# where whole-vector temporaries of a default-scale model do not.
_ADAM_BLOCK = 1 << 14


class AdamW:
    """Adaptive-moment update with decoupled weight decay, on a parameter
    vector `data` and its gradient vector `grad` (as `autodiff.flatten`
    returns them), updated in place."""

    def __init__(self, data, grad, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.data, self.grad = data, grad
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)

    def step(self):
        """One update from `grad`, block by block; every element sees the
        arithmetic of a per-array update."""
        if not np.isfinite(self.grad).all():
            raise TrainingAborted("non-finite gradient")
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for lo in range(0, self.data.size, _ADAM_BLOCK):
            block = slice(lo, lo + _ADAM_BLOCK)
            p, g = self.data[block], self.grad[block]
            m, v = self.m[block], self.v[block]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_grad_norm(params, max_norm):
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > max_norm > 0:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad *= scale
    return total


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------

def sample_context_batch(store, k, batch_size, rng, spec):
    """Subtrajectory batch: trajectory chosen proportional to its length,
    end index uniform; windows near episode start get a zero-padded prefix.

    The layout is `ContextBatch.set_row`'s, filled for all rows by one
    gather from the store's concatenated steps. Row j draws its trajectory
    and then its end index from `rng`, the same draws, in the same order,
    as `rng.choice(count, p=lengths / lengths.sum())` followed by
    `rng.integers(length)`.
    """
    probs = store.lengths / store.lengths.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    firsts = np.empty(batch_size, dtype=np.int64)   # trajectory's first row
    ends = np.empty(batch_size, dtype=np.int64)     # window's last step
    for j in range(batch_size):
        ti = cdf.searchsorted(rng.random(), side="right")
        firsts[j] = store.offsets[ti]
        ends[j] = rng.integers(store.lengths[ti])
    timesteps = ends[:, None] + np.arange(1 - k, 1)    # (B, K); < 0 is padding
    pad = timesteps < 0
    timesteps[pad] = 0
    rows = firsts[:, None] + timesteps

    rtgs = store.step_rtgs[rows] / store.max_abs_return
    states = (store.step_states[rows] - store.state_mean) / store.state_std
    targets = store.step_actions[rows]
    rtgs[pad] = 0.0
    states[pad] = 0.0
    targets[pad] = 0.0
    actions = targets.copy()
    actions[:, -1] = 0.0
    return ContextBatch(rtgs, states, actions, timesteps, ~pad), targets


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# The largest normalized starting RTG that evaluation accepts. Every
# forward product is at most quadratic in the RTG token (the attention
# scores, the layer norm's mean of squares), so the RTG must stay well below
# sqrt(float64 max) ~ 1.3e154. A fresh d=128 bundle, a d=32 stitch bundle
# after 4000 updates and a d=128 pointreach bundle after 300 all first
# overflow at a start of 1e155. 1e100 leaves the RTG token's weights room to
# grow by a factor of 1e54.
MAX_RTG_START = 1e100


def starting_rtg(bundle, rtg_scale):
    """`initial_rtg(bundle.initial_return, rtg_scale)`, or ValueError if it
    is more than MAX_RTG_START in the units the model sees (divided by
    `bundle.rtg_norm`). A bundle with `condition_on_rtg` off never sees the
    RTG, so any start is accepted."""
    g0 = initial_rtg(bundle.initial_return, rtg_scale)
    if bundle.config.condition_on_rtg and \
            not abs(g0 / bundle.rtg_norm) <= MAX_RTG_START:
        raise ValueError(
            f"rtg scale eta {rtg_scale:g} starts the return-to-go at {g0:g}, "
            f"{g0 / bundle.rtg_norm:g} after normalization; the model "
            f"represents at most {MAX_RTG_START:g}")
    return g0


def rollout_policy(bundle, g0, rng, mode="drdt3"):
    """The inference procedure as an `envs.rollout` policy: a sliding
    K-step context in `ContextBatch.set_row`'s layout, with the RTG starting
    at g0 and decremented by each observed reward, and the coarse action of
    the newest step, refined by the diffusion chain (mode "drdt3", drawing
    from `rng`) or clipped to the action box (mode "dt3-only"). No autodiff
    graph is recorded."""
    if mode not in ("drdt3", "dt3-only"):
        raise ValueError(f"unknown rollout mode {mode!r}")
    spec = make_env_spec(bundle.env_id)
    cfg = bundle.config
    k = cfg.context_len
    sched = vp_schedule(cfg.n_diffusion_steps, cfg.beta_min, cfg.beta_max)
    rtgs = np.zeros(spec.t_max)

    def act(states, actions, rewards, t):
        # One subtraction per observed reward, in step order: a running
        # `g -= r`.
        rtgs[t] = g0 if t == 0 else rtgs[t - 1] - rewards[t - 1]
        start = max(0, t - k + 1)
        steps = slice(start, t + 1)
        batch = ContextBatch.zeros(1, k, spec.d_s, spec.d_a)
        batch.set_row(0, start, rtgs[steps], states[steps], actions[steps],
                      bundle.rtg_norm, bundle.state_mean, bundle.state_std)
        if not cfg.condition_on_rtg:
            batch.rtgs[:] = 0.0
        # Steps past the timestep table reuse its last row.
        np.minimum(batch.timesteps, cfg.max_episode_len - 1,
                   out=batch.timesteps)
        with ad.no_grad():
            coarse = predict_coarse_actions_batch(batch, bundle.dt3).data[0, -1]
        if mode == "dt3-only":
            return np.clip(coarse, -spec.a_max, spec.a_max)
        return sample_action(coarse, bundle.noise, sched, rng,
                             action_bound=spec.a_max)
    return act


def evaluate_episodes(bundle, episodes, seed, rtg_scale=1.0, mode="drdt3"):
    """Per-episode returns, success flags (1.0 or 0.0) and starting RTGs,
    as three float arrays. Every episode starts at `starting_rtg(bundle,
    rtg_scale)` and runs `rollout_policy`; episode `ep` draws from
    `default_rng((seed, ep))`.

    Success on a sparse-reward env is any reward; on a dense-reward env it is
    a return at or above the env's expert score.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    spec = make_env_spec(bundle.env_id)
    g0 = starting_rtg(bundle, rtg_scale)
    returns = np.zeros(episodes)
    for ep in range(episodes):
        policy = rollout_policy(bundle, g0, np.random.default_rng((seed, ep)),
                                mode)
        returns[ep] = rollout(make_env(bundle.env_id), policy).ret
    hit = returns > 0.0 if spec.reward_kind == "sparse" \
        else returns >= spec.expert_score
    return returns, hit.astype(np.float64), np.full(episodes, g0)


def evaluate_bundle(bundle, episodes, seed, rtg_scale=1.0, mode="drdt3"):
    """Mean return, success rate, and normalized score over seeded episodes."""
    returns, successes, _ = evaluate_episodes(bundle, episodes, seed,
                                              rtg_scale, mode)
    spec = make_env_spec(bundle.env_id)
    return (float(returns.mean()), float(successes.mean()),
            normalized_score(returns.mean(), spec))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def train(config, store, out_dir=None, eval_each_epoch=True, bundle=None,
          log=None):
    """Joint single-stage training per the unified objective.

    Returns (PolicyBundle, MetricsLog). With objective="dt3_only" the loss is
    zeta * L_dt3 alone and the diffusion parameters are left at
    initialization; combined with condition_on_rtg=False this is a
    behavior-cloning-style ablation (no return conditioning at all).

    Pass an existing (bundle, log) pair to resume from a checkpoint:
    update indices and epoch numbers continue from where the log stops.
    """
    config.validate()
    if store.count == 0:
        raise DatasetRejected("dataset is empty")
    spec = make_env_spec(store.env_id)
    if store.max_length() > config.max_episode_len:
        raise DatasetRejected(
            f"max_episode_len {config.max_episode_len} is shorter than the "
            f"longest trajectory ({store.max_length()})"
        )
    resuming = bundle is not None
    if resuming and (bundle.env_id, bundle.d_s, bundle.d_a) != \
            (store.env_id, store.d_s, store.d_a):
        raise DatasetRejected(
            f"the checkpoint is for {bundle.env_id} (d_s={bundle.d_s}, "
            f"d_a={bundle.d_a}), the dataset for {store.env_id} "
            f"(d_s={store.d_s}, d_a={store.d_a})"
        )
    log = log if log is not None else MetricsLog()
    update_idx = log.updates[-1][0] + 1 if log.updates else 0
    epoch0 = update_idx // config.updates_per_epoch
    rng = np.random.default_rng(
        config.seed if update_idx == 0 else (config.seed, update_idx)
    )
    if not resuming:
        bundle = fresh_bundle(config, store)
    if eval_each_epoch and config.eval_episodes > 0:
        try:
            starting_rtg(bundle, config.rtg_scale)
        except ValueError as e:
            raise DatasetRejected(e) from None
    sched = vp_schedule(config.n_diffusion_steps, config.beta_min,
                        config.beta_max)
    params = bundle.parameters()
    n_opt = bundle.data.size
    if config.objective == "dt3_only":
        # Optimize only the dt3 prefix of the parameter vector: weight decay
        # would otherwise shrink the untouched diffusion parameters.
        n_opt = sum(p.data.size for p in bundle.dt3.parameters())
    opt = AdamW(bundle.data[:n_opt], bundle.grad[:n_opt],
                config.learning_rate, weight_decay=config.weight_decay)
    k = config.context_len
    n = config.n_diffusion_steps

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    def checkpoint():
        if out_dir is not None:
            save_bundle(bundle, os.path.join(out_dir, "bundle.drdt3"))
            log.write_csv(out_dir)

    for epoch in range(epoch0, epoch0 + config.epochs):
        for _ in range(config.updates_per_epoch):
            batch, targets = sample_context_batch(
                store, k, config.batch_size, rng, spec
            )
            if not config.condition_on_rtg:
                batch.rtgs[:] = 0.0
            pred = predict_coarse_actions_batch(batch, bundle.dt3)
            l_dt3 = dt3_loss(pred, targets, batch.pad_mask, spec.a_max,
                             norm=config.dt3_loss_norm)

            if config.objective == "unified":
                # Condition only on the newest coarse action of each window.
                cond = ad.reshape(
                    pred[:, k - 1, :], (config.batch_size, store.d_a)
                )
                a0 = targets[:, -1, :]
                i = rng.integers(1, n + 1, size=config.batch_size)
                eps = rng.standard_normal(a0.shape)
                l_diff = diffusion_loss(a0, cond, i, eps, bundle.noise, sched)
                loss = unified_loss(l_diff, l_dt3, config.zeta)
                l_diff_val = float(l_diff.data)
            else:
                loss = ad.scale(l_dt3, config.zeta)
                l_diff_val = 0.0

            bundle.grad.fill(0.0)
            ad.backward(loss)
            clip_grad_norm(params, config.grad_clip)
            try:
                opt.step()
                log.log_update(update_idx, l_diff_val, float(l_dt3.data),
                               float(loss.data))
            except TrainingAborted:
                checkpoint()
                raise
            update_idx += 1

        if eval_each_epoch and config.eval_episodes > 0:
            mean_ret, succ, norm = evaluate_bundle(
                bundle, config.eval_episodes, seed=config.seed,
                rtg_scale=config.rtg_scale,
                mode="drdt3" if config.objective == "unified" else "dt3-only",
            )
            log.log_eval(epoch, mean_ret, succ, norm)
        checkpoint()

    return bundle, log
