"""Workloads: seeded set-up, a timed closed loop, and output checks.

Each workload calls drdt3's public functions the way a user does. The only
hooks are clocks: the `log` argument of `training.train` and the env class's
`reset`/`step`, which time-stamp each finished operation and check its
output. All calls go through module attributes (`training.train`, not a
bound name), so the tracer in `tracing.py` can wrap them.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from types import SimpleNamespace

import numpy as np

from drdt3 import autodiff, bundle, diffusion, dt3, envs, training
from drdt3.config import TrainConfig

from .tracing import patched

N_TRAJ = 40
DECOMPOSITION_TOL = 1e-12  # |l_total - (l_diff + zeta * l_dt3)|
GRADCHECK_LIMIT = 1e-3

# The criterion-7 recipe of the acceptance suite.
STITCH_SCALE = dict(embed_dim=32, batch_size=64, context_len=6,
                    max_episode_len=32, learning_rate=1e-4, zeta=1.0)
# The tiny model of `drdt3 check`'s unified-loss suite.
TINY_SCALE = dict(embed_dim=8, context_len=3, n_diffusion_steps=3,
                  batch_size=4, n_heads=2, inner_lr=0.5, max_episode_len=32,
                  cond_hidden=8, time_embed_dim=4, mlp_expansion=2)


class _Deadline(Exception):
    """Ends a training run from its log once the run has lasted long enough."""


@dataclasses.dataclass
class Measured:
    """What one timed loop did. Times are perf_counter seconds."""

    op: str                                          # what one operation is
    stamps: list = dataclasses.field(default_factory=list)  # op end times
    latencies: list = dataclasses.field(default_factory=list)
    warmup: int = 1          # leading ops left out of latency and throughput
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    loss_final: float = math.nan
    elapsed: float = 0.0     # wall time of the ops after the warm-up

    @property
    def ops(self):
        return len(self.latencies) - self.warmup

    def fail(self, what, count=1):
        self.failed += count
        self.problems.append(what)

    def throughput(self):
        return self.ops / self.elapsed if self.ops > 0 else math.nan

    def percentile_ms(self, q):
        if self.ops <= 0:
            return math.nan
        return 1e3 * float(np.percentile(self.latencies[self.warmup:], q))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def bad_update_rows(rows, zeta):
    """Indices of logged updates whose losses are non-finite or do not
    decompose as l_total = l_diff + zeta * l_dt3."""
    bad = []
    for idx, l_diff, l_dt3, l_total in rows:
        finite = all(math.isfinite(v) for v in (l_diff, l_dt3, l_total))
        gap = abs(l_total - (l_diff + zeta * l_dt3))
        if not finite or gap > DECOMPOSITION_TOL:
            bad.append(idx)
    return bad


def action_ok(action, d_a, a_max):
    """A rollout action is finite, has the env's shape and is within a_max."""
    a = np.asarray(action, dtype=np.float64)
    return a.shape == (d_a,) and bool(np.all(np.isfinite(a))) \
        and bool(np.all(np.abs(a) <= a_max))


def gradcheck_ok(err):
    return math.isfinite(err) and err < GRADCHECK_LIMIT


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _dataset(env_id, tier, seed):
    # make_env_spec caches per process; clear it so that every repeated
    # set-up pays for the reference scores as the first one does.
    envs._SPEC_CACHE.clear()
    return envs.generate_dataset(env_id, tier, N_TRAJ, seed)


def _train_config(scale, seed, updates):
    return TrainConfig(**scale, seed=seed, epochs=1, updates_per_epoch=updates,
                       eval_episodes=0).validate()


def _setup_train(env_id, tier, scale, loss_updates):
    def setup(seed, workdir):
        store = _dataset(env_id, tier, seed)
        # updates_per_epoch only bounds the run; the clock ends it earlier.
        cfg = _train_config(scale, seed, 10 ** 9)
        return SimpleNamespace(seed=seed, store=store, cfg=cfg,
                               spec=envs.make_env_spec(env_id),
                               bundle=bundle.fresh_bundle(cfg, store),
                               loss_updates=loss_updates)
    return setup


def _setup_eval(seed, workdir):
    store = _dataset("stitchchain", "stitch", seed)
    cfg = _train_config(STITCH_SCALE, seed, EVAL_SETUP_UPDATES)
    trained, log = training.train(cfg, store, eval_each_epoch=False)
    path = os.path.join(workdir, "bundle.drdt3")
    bundle.save_bundle(trained, path)
    loaded = bundle.load_bundle(path)
    return SimpleNamespace(
        seed=seed, store=store, cfg=cfg, bundle=loaded,
        spec=envs.make_env_spec("stitchchain"),
        setup_rows=log.updates,
        loss_final=_loss_final(log.updates, EVAL_SETUP_UPDATES),
    )


def _setup_gradcheck(seed, workdir):
    store = _dataset("stitchchain", "stitch", seed)
    cfg = _train_config(TINY_SCALE, seed, 1)
    b = bundle.fresh_bundle(cfg, store)
    spec = envs.make_env_spec("stitchchain")
    rng = np.random.default_rng(seed)
    k, n_b, n = cfg.context_len, cfg.batch_size, cfg.n_diffusion_steps
    sched = diffusion.vp_schedule(n, cfg.beta_min, cfg.beta_max)

    def sampled_loss(rng):
        """A loss closure over one sampled batch: the update's unified loss,
        with the smooth l2 sequence loss so that central differences are
        exact to O(step^2)."""
        batch, targets = training.sample_context_batch(store, k, n_b, rng,
                                                       spec)
        i = rng.integers(1, n + 1, size=n_b)
        eps = rng.standard_normal((n_b, store.d_a))

        def loss():
            pred = dt3.predict_coarse_actions_batch(batch, b.dt3)
            l_dt3 = training.dt3_loss(pred, targets, batch.pad_mask,
                                      spec.a_max, norm="l2")
            cond = autodiff.reshape(pred[:, k - 1, :], (n_b, store.d_a))
            l_diff = diffusion.diffusion_loss(targets[:, -1, :], cond, i, eps,
                                              b.noise, sched)
            return training.unified_loss(l_diff, l_dt3, cfg.zeta)
        return loss

    return SimpleNamespace(seed=seed, store=store, cfg=cfg, bundle=b,
                           spec=spec, params=b.parameters(),
                           loss=sampled_loss(np.random.default_rng(seed)),
                           sampled_loss=sampled_loss)


# ---------------------------------------------------------------------------
# Timed loops
# ---------------------------------------------------------------------------

class _UpdateClock(training.MetricsLog):
    """Time-stamps each finished update; ends the run at the deadline."""

    def __init__(self, deadline, min_updates):
        super().__init__()
        self.deadline = deadline
        self.min_updates = min_updates
        self.stamps = []

    def log_update(self, idx, l_diff, l_dt3, l_total):
        super().log_update(idx, l_diff, l_dt3, l_total)
        now = time.perf_counter()
        self.stamps.append(now)
        if len(self.stamps) >= self.min_updates and now >= self.deadline:
            raise _Deadline


def run_train(state, seconds, min_ops):
    """Joint training through `training.train`, one uninterrupted run."""
    m = Measured("update")
    t0 = time.perf_counter()
    clock = _UpdateClock(t0 + seconds, max(min_ops, m.warmup + 1))
    try:
        training.train(state.cfg, state.store, bundle=state.bundle, log=clock,
                       eval_each_epoch=False)
    except _Deadline:
        pass
    except Exception as e:  # a failed update ends the run; it is counted
        m.attempted += 1
        m.fail(f"update {len(clock.updates)}: {e!r}")
    rows = clock.updates
    m.attempted += len(rows)
    for idx in bad_update_rows(rows, state.cfg.zeta):
        m.fail(f"update {idx}: losses non-finite or not decomposed")
    m.stamps = clock.stamps
    m.latencies = list(np.diff([t0] + clock.stamps))
    if m.stamps:
        m.elapsed = m.stamps[-1] - ([t0] + m.stamps)[m.warmup]
    if len(rows) >= state.loss_updates:
        m.loss_final = _loss_final(rows, state.loss_updates)
    return m


EVAL_EPISODES_PER_CALL = 4


def run_eval(state, seconds, min_ops):
    """drdt3-mode rollouts through `training.evaluate_bundle`, until the
    deadline. The env class's reset/step are clocked for the run."""
    m = Measured("env-step")
    spec = state.spec
    env_name = type(envs.make_env(state.bundle.env_id)).__name__
    last = [0.0]

    def clocked(name, fn):
        if name.endswith(".reset"):
            def reset(self, *args, **kwargs):
                out = fn(self, *args, **kwargs)
                last[0] = time.perf_counter()
                return out
            return reset

        def step(self, action):
            m.attempted += 1
            if not action_ok(action, spec.d_a, spec.a_max):
                m.fail(f"env-step {m.attempted}: action {action!r}")
            out = fn(self, action)
            now = time.perf_counter()
            m.latencies.append(now - last[0])
            m.stamps.append(now)
            last[0] = now
            return out
        return step

    targets = [("envs", f"{env_name}.reset"), ("envs", f"{env_name}.step")]
    t0 = time.perf_counter()
    calls = 0
    t_warm = None
    with patched(targets, clocked):
        while True:
            try:
                training.evaluate_bundle(
                    state.bundle, EVAL_EPISODES_PER_CALL,
                    seed=state.seed * 100_000 + calls, mode="drdt3")
            except Exception as e:  # a failed rollout ends the run; counted
                m.attempted += 1
                m.fail(f"rollout call {calls}: {e!r}")
                break
            calls += 1
            now = time.perf_counter()
            if calls == 1:
                # The first call is the warm-up.
                t_warm, m.warmup = now, len(m.latencies)
            elif calls >= min_ops and now - t0 >= seconds:
                break
    if t_warm is not None:
        m.elapsed = time.perf_counter() - t_warm
    m.loss_final = state.loss_final
    return m


def run_gradcheck(state, seconds, min_ops):
    """Whole `autodiff.check_gradients` calls until the deadline; one
    operation is one evaluation of the loss."""
    m = Measured("loss-eval", warmup=0)

    def f():
        t = time.perf_counter()
        loss = state.loss()
        now = time.perf_counter()
        m.latencies.append(now - t)
        m.stamps.append(now)
        return loss

    t0 = time.perf_counter()
    checks = 0
    while True:
        n0 = len(m.latencies)
        try:
            err = autodiff.check_gradients(f, state.params)
        except Exception as e:  # counted as failed, never dropped
            m.attempted += max(len(m.latencies) - n0, 1)
            m.fail(f"check {checks}: {e!r}", max(len(m.latencies) - n0, 1))
            break
        evals = len(m.latencies) - n0
        m.attempted += evals
        if not gradcheck_ok(err):
            m.fail(f"check {checks}: gradient error {err!r}", evals)
        checks += 1
        if checks >= min_ops and time.perf_counter() - t0 >= seconds:
            break
    m.elapsed = time.perf_counter() - t0
    return m


def gradcheck_loss_final(state):
    """Mean unified loss of the tiny model over many seeded batches. The loss
    of the one batch of 4 the check uses varies several-fold between seeds;
    this mean is steady. Kept out of `run_gradcheck`, so traced runs do not
    count these evaluations."""
    rng = np.random.default_rng((state.seed, 1))
    return float(np.mean([state.sampled_loss(rng)().data
                          for _ in range(GRADCHECK_LOSS_BATCHES)]))


def _loss_final(rows, n):
    """Mean l_total over the second half of the first n updates. n is fixed,
    so the value does not depend on how fast the updates run."""
    return float(np.mean([r[3] for r in rows[n // 2:n]]))


# A training run lasts at least this many updates, for loss_final.
STITCH_LOSS_UPDATES = 60
DEFAULT_LOSS_UPDATES = 16
EVAL_SETUP_UPDATES = 30
GRADCHECK_LOSS_BATCHES = 256

# Names are fixed; BENCHMARK.json gives the reason for each workload.
# `min_ops` is the fewest rounds a run makes however fast it is: updates,
# evaluate_bundle calls (the first is the warm-up) or whole gradient checks.
# `loss_final`, where set, computes that metric after the timed loop.
WORKLOADS = {
    "train-stitch": SimpleNamespace(
        setup=_setup_train("stitchchain", "stitch", STITCH_SCALE,
                           STITCH_LOSS_UPDATES),
        run=run_train, min_ops=STITCH_LOSS_UPDATES, family="train",
        loss_final=None),
    "train-default": SimpleNamespace(
        setup=_setup_train("pointreach", "medium", {}, DEFAULT_LOSS_UPDATES),
        run=run_train, min_ops=DEFAULT_LOSS_UPDATES, family="train",
        loss_final=None),
    "eval-stitch": SimpleNamespace(
        setup=_setup_eval, run=run_eval, min_ops=2, family="eval",
        loss_final=None),
    "gradcheck": SimpleNamespace(
        setup=_setup_gradcheck, run=run_gradcheck, min_ops=1,
        family="gradcheck", loss_final=gradcheck_loss_final),
}
