import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdt3 import autodiff as ad
from drdt3 import checks, diffusion, training
from drdt3.autodiff import DArray
from drdt3.bundle import fresh_bundle, load_bundle, save_bundle
from drdt3.config import ConfigError, TrainConfig, parse_config_text
from drdt3.diffusion import diffusion_loss, vp_schedule
from drdt3.dt3 import predict_coarse_actions_batch
from drdt3.envs import (generate_dataset, initial_rtg, make_env,
                        make_env_spec, rollout)
from drdt3.training import (_ADAM_BLOCK, MAX_RTG_START, AdamW,
                            DatasetRejected, TrainingAborted, clip_grad_norm,
                            dt3_loss, evaluate_episodes, rollout_policy,
                            sample_context_batch, starting_rtg, train,
                            unified_loss)

from context_oracle import assert_same_batch, stack, trajectory_context


@pytest.fixture(scope="module")
def store():
    return generate_dataset("stitchchain", "stitch", 8, seed=0)


def tiny_config(**kw):
    base = dict(embed_dim=8, n_heads=1, cond_hidden=8, time_embed_dim=4,
                mlp_expansion=2, max_episode_len=32, batch_size=8,
                epochs=1, updates_per_epoch=10, eval_episodes=0, seed=0)
    base.update(kw)
    return TrainConfig(**base).validate()


# ---------------------------------------------------------------------------
# dt3_loss
# ---------------------------------------------------------------------------

class TestDT3Loss:
    def test_zero_when_pred_equals_target(self):
        t = np.arange(12.0).reshape(6, 2)
        l = dt3_loss(DArray(t.copy()), t, np.ones(6, dtype=bool), 1.0)
        assert l.data == 0.0

    def test_single_step_example(self):
        # K=1, d_a=1, a_max=1, target=1, pred=0.5 -> 0.5
        l = dt3_loss(DArray(np.array([[0.5]])), np.array([[1.0]]),
                     np.array([True]), 1.0)
        assert l.data == pytest.approx(0.5)

    def test_doubling_a_max_halves_loss(self):
        rng = np.random.default_rng(0)
        p, t = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        m = np.ones(6, dtype=bool)
        l1 = dt3_loss(DArray(p), t, m, 1.0).data
        l2 = dt3_loss(DArray(p), t, m, 2.0).data
        assert l2 == pytest.approx(l1 / 2.0)

    def test_nonpositive_a_max_rejected(self):
        with pytest.raises(ValueError):
            dt3_loss(DArray(np.zeros((1, 1))), np.zeros((1, 1)),
                     np.array([True]), 0.0)

    def test_padded_rows_do_not_contribute(self):
        p = DArray(np.zeros((4, 1)))
        t = np.array([[100.0], [1.0], [1.0], [1.0]])
        m = np.array([False, True, True, True])
        l = dt3_loss(p, t, m, 1.0)
        assert l.data == pytest.approx(3.0 / 4.0)

    def test_l2_variant_squares(self):
        p = DArray(np.array([[0.5]]))
        t = np.array([[1.0]])
        m = np.array([True])
        assert dt3_loss(p, t, m, 1.0, norm="l2").data == pytest.approx(0.25)

    @pytest.mark.parametrize("norm", ["L1", "l1 ", "huber", None])
    def test_unknown_norm_rejected(self, norm):
        with pytest.raises(ValueError, match="norm"):
            dt3_loss(DArray(np.zeros((1, 1))), np.zeros((1, 1)),
                     np.array([True]), 1.0, norm=norm)

    def test_batched_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(3, 6, 2))
        t = rng.normal(size=(3, 6, 2))
        m = rng.random((3, 6)) > 0.3
        m[:, -1] = True
        batched = dt3_loss(DArray(p), t, m, 1.0).data
        singles = [dt3_loss(DArray(p[i]), t[i], m[i], 1.0).data
                   for i in range(3)]
        assert batched == pytest.approx(np.mean(singles), abs=1e-12)

    def test_l1_gradient_is_sign(self):
        p = DArray(np.array([[0.5], [-0.5]]), requires_grad=True)
        l = dt3_loss(p, np.zeros((2, 1)), np.ones(2, dtype=bool), 1.0)
        ad.backward(l)
        assert np.allclose(p.grad, np.array([[0.5], [-0.5]]))


# ---------------------------------------------------------------------------
# unified_loss
# ---------------------------------------------------------------------------

class TestUnifiedLoss:
    def test_zeta_zero_is_l_diff(self):
        l = unified_loss(DArray(np.array(2.5)), DArray(np.array(7.0)), 0.0)
        assert l.data == pytest.approx(2.5)

    def test_arithmetic_example(self):
        l = unified_loss(DArray(np.array(1.0)), DArray(np.array(0.5)), 0.2)
        assert l.data == pytest.approx(1.1)

    def test_default_zeta_is_point_two(self):
        assert TrainConfig().zeta == 0.2

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_combination(self, a, b, z):
        l = unified_loss(DArray(np.array(a)), DArray(np.array(b)), z)
        assert l.data == pytest.approx(a + z * b, abs=1e-12)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

class PerArrayAdamW:
    """The per-array AdamW that the blocked vector step replaced, kept as
    its oracle: one update per parameter array, from each `.grad` (its
    finite check left out)."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class TestAdamW:
    def test_zero_grads_zero_decay_leave_params_unchanged(self):
        p = DArray(np.ones(4), requires_grad=True)
        opt = AdamW(*ad.flatten([p]), lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.ones(4))

    def test_constant_grad_step_size_approaches_lr(self):
        p = DArray(np.zeros(1), requires_grad=True)
        opt = AdamW(*ad.flatten([p]), lr=0.01)
        prev = p.data.copy()
        for _ in range(200):
            p.grad[:] = 3.7
            prev = p.data.copy()
            opt.step()
        # steady state: m/sqrt(v) = g/|g| regardless of |g|
        assert abs(prev[0] - p.data[0]) == pytest.approx(0.01, rel=1e-3)

    def test_weight_decay_only_shrinks_params(self):
        p = DArray(np.full(3, 2.0), requires_grad=True)
        opt = AdamW(*ad.flatten([p]), lr=0.1, weight_decay=0.5)
        opt.step()
        assert np.allclose(p.data, 2.0 * (1 - 0.1 * 0.5))

    def test_nonfinite_grad_aborts(self):
        p = DArray(np.zeros(2), requires_grad=True)
        opt = AdamW(*ad.flatten([p]), lr=0.1)
        p.grad[:] = [1.0, np.nan]
        with pytest.raises(TrainingAborted):
            opt.step()

    @pytest.mark.parametrize("embed_dim", [32, 128])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("dt3_prefix", [False, True],
                             ids=["all", "dt3-prefix"])
    def test_blocked_step_matches_per_array_oracle(self, store, embed_dim,
                                                   weight_decay, dt3_prefix):
        """200 steps of random gradients: the blocked vector step leaves
        every parameter bitwise equal to the per-array oracle's."""
        cfg = TrainConfig(embed_dim=embed_dim).validate()
        ref, new = fresh_bundle(cfg, store), fresh_bundle(cfg, store)
        assert new.data.size > 2 * _ADAM_BLOCK    # several blocks
        params = ref.dt3.parameters() if dt3_prefix else ref.parameters()
        n = sum(p.data.size for p in params)
        oracle = PerArrayAdamW(params, lr=1e-3, weight_decay=weight_decay)
        opt = AdamW(new.data[:n], new.grad[:n], lr=1e-3,
                    weight_decay=weight_decay)
        rng = np.random.default_rng(embed_dim)
        for _ in range(200):
            g = rng.standard_normal(ref.grad.size) * rng.uniform(1e-4, 1e2)
            ref.grad[:] = g
            new.grad[:] = g
            oracle.step()
            opt.step()
        assert ref.data.tobytes() == new.data.tobytes()
        assert not np.array_equal(ref.data[:n],
                                  fresh_bundle(cfg, store).data[:n])

    def test_clip_grad_norm_scales_to_max(self):
        grad = np.full(4, 3.0)
        total = clip_grad_norm(grad, 1.0)
        assert total == pytest.approx(6.0)
        assert np.linalg.norm(grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_below_threshold(self):
        grad = np.array([0.1, 0.1])
        clip_grad_norm(grad, 1.0)
        assert np.allclose(grad, [0.1, 0.1])

    @pytest.mark.parametrize("embed_dim", [32, 128])
    def test_clip_total_matches_per_array_sum(self, store, embed_dim):
        """The norm of the flat vector is the per-array sum of squares it
        replaced, to 1e-14 relative; only the summation order differs."""
        b = fresh_bundle(TrainConfig(embed_dim=embed_dim).validate(), store)
        b.grad[:] = np.random.default_rng(embed_dim).standard_normal(
            b.grad.size)
        want = np.sqrt(sum(float((p.grad ** 2).sum())
                           for p in b.parameters()))
        before = b.grad.copy()
        total = clip_grad_norm(b.grad, 0.25)
        assert abs(total - want) <= 1e-14 * want
        assert np.abs(b.grad - before * (0.25 / (want + 1e-12))).max() \
            <= 1e-14 * np.abs(before).max()

    def test_clip_total_independent_of_blas_threads(self):
        """A BLAS dot splits its sum across threads, so its last bits
        follow the thread count; the clip norm must not."""
        code = ("import numpy as np; from drdt3.training import "
                "clip_grad_norm; g = np.random.default_rng(0)"
                ".standard_normal(201026); print(repr(clip_grad_norm(g, 0)))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        totals = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            totals.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(totals) == 1, totals


def test_parameters_stay_views_into_the_bundle_vectors(store, tmp_path):
    """After fresh_bundle, load_bundle, check_gradients and a 3-update
    train, every parameter's .data and .grad share memory with the
    bundle's data and grad vectors."""
    def assert_views(bundle):
        for name, p in bundle.named():
            assert np.shares_memory(p.data, bundle.data), name
            assert np.shares_memory(p.grad, bundle.grad), name

    cfg = tiny_config(updates_per_epoch=3)
    bundle = fresh_bundle(cfg, store)
    assert_views(bundle)
    path = tmp_path / "b.drdt3"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert_views(loaded)
    assert loaded.data.tobytes() == bundle.data.tobytes()

    spec = make_env_spec(store.env_id)
    batch, targets = sample_context_batch(store, cfg.context_len, 2,
                                          np.random.default_rng(0), spec)

    def f():
        pred = predict_coarse_actions_batch(batch, loaded.dt3)
        return dt3_loss(pred, targets, batch.pad_mask, spec.a_max, norm="l2")

    small = [p for p in loaded.parameters() if p.data.size <= 8]
    assert ad.check_gradients(f, small) < 1e-4
    assert_views(loaded)

    trained, log = train(cfg, store, bundle=loaded, eval_each_epoch=False)
    assert trained is loaded and len(log.updates) == 3
    assert_views(loaded)
    assert loaded.data.tobytes() != bundle.data.tobytes()


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------

class TestSampleContextBatch:
    def test_shapes_and_invariants(self, store):
        spec = make_env_spec(store.env_id)
        rng = np.random.default_rng(0)
        batch, targets = sample_context_batch(store, 6, 32, rng, spec)
        assert batch.states.shape == (32, 6, store.d_s)
        assert targets.shape == (32, 6, store.d_a)
        # padding is a prefix: mask is nondecreasing along the window
        for row in batch.pad_mask:
            assert row[-1]
            assert np.all(np.diff(row.astype(int)) >= 0)

    def test_current_action_zeroed(self, store):
        spec = make_env_spec(store.env_id)
        rng = np.random.default_rng(1)
        batch, targets = sample_context_batch(store, 6, 16, rng, spec)
        assert np.all(batch.actions[:, -1, :] == 0.0)
        # but the target for that position is the real action
        assert np.any(targets[:, -1, :] != 0.0)

    def test_timesteps_consecutive_where_unpadded(self, store):
        spec = make_env_spec(store.env_id)
        rng = np.random.default_rng(2)
        batch, _ = sample_context_batch(store, 6, 16, rng, spec)
        for ts, m in zip(batch.timesteps, batch.pad_mask):
            real = ts[m]
            assert np.all(np.diff(real) == 1)


def _per_row_sampler(store, k, batch_size, rng):
    """The batch sampler as a per-row loop over the reference builder."""
    lengths = np.array([t.length for t in store.trajectories], dtype=np.float64)
    probs = lengths / lengths.sum()
    rows = []
    for _ in range(batch_size):
        traj = store.trajectories[rng.choice(len(store.trajectories), p=probs)]
        end = int(rng.integers(traj.length))
        rows.append(trajectory_context(
            k, traj.rtgs, traj.states, traj.actions, end,
            store.max_abs_return, store.state_mean, store.state_std))
    return stack(rows)


@pytest.mark.parametrize("env_id, tier", [("stitchchain", "stitch"),
                                          ("pointreach", "medium"),
                                          ("pointreach", "medium-replay")])
@pytest.mark.parametrize("seed", range(3))
def test_sampler_bitwise_equals_per_row_loop(env_id, tier, seed):
    store = generate_dataset(env_id, tier, 7, seed=seed)
    spec = make_env_spec(env_id)
    # K = 60 is longer than every episode, so every window is padded.
    for k in (1, 6, 60):
        rng_new = np.random.default_rng((seed, k))
        rng_old = np.random.default_rng((seed, k))
        for _ in range(3):       # consecutive batches share one stream
            batch, targets = sample_context_batch(store, k, 33, rng_new, spec)
            old, old_targets = _per_row_sampler(store, k, 33, rng_old)
            assert_same_batch(batch, old)
            assert targets.tobytes() == old_targets.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


def _unified_loss_graph(store, cfg, seed):
    """A fresh bundle and the recorded unified loss of one sampled batch."""
    spec = make_env_spec(store.env_id)
    rng = np.random.default_rng(seed)
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
    return bundle, unified_loss(l_diff, l_dt3, cfg.zeta)


def test_no_adjoint_writes_into_its_incoming_gradient(store):
    """`backward` keeps the first gradient a node receives without a copy,
    which is safe only while no adjoint writes into its `g`. Here every
    adjoint of a full unified-loss graph gets a read-only `g`, so one that
    writes raises; the gradients must equal an unguarded run's, bitwise."""
    cfg = tiny_config(n_heads=2, embed_dim=8)
    ran = set()

    def read_only(bwd):
        def guarded(g, acc):
            ran.add(bwd.__qualname__.split(".")[0])
            g = np.array(g)
            g.setflags(write=False)
            bwd(g, acc)
        return guarded

    grads = []
    for guard in (False, True):
        bundle, loss = _unified_loss_graph(store, cfg, seed=4)
        seen, stack = set(), [loss]
        while guard and stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if node._backward is not None:
                    node._backward = read_only(node._backward)
                stack.extend(node._parents)
        ad.zero_grads(bundle.parameters())
        ad.backward(loss)
        grads.append([p.grad.tobytes() for p in bundle.parameters()])
    assert grads[0] == grads[1]
    # Every recorded primitive of the engine took part.
    assert ran == {name.removeprefix("primitive.")
                   for name, _, _ in checks.check_primitives(trials=1)}


# One update at library defaults (d=128, B=64, K=6) peaked at 36.1 MiB of
# traced allocations while the graph kept every embedding intermediate and
# pre-norm sum; at 29.1 MiB with one embedding node, residual norms and the
# TTT layer's copied keys; and at 25.2 MiB since backward frees each node's
# saved arrays once its adjoint has run.
UPDATE_PEAK_MIB = 27.0


def test_default_scale_update_memory_peak():
    """The tracemalloc peak of one default-scale update on a fresh bundle,
    after a warm-up update, stays under UPDATE_PEAK_MIB."""
    import tracemalloc
    default_store = generate_dataset("pointreach", "medium", 40, seed=1)
    cfg = TrainConfig(seed=1, epochs=1, updates_per_epoch=1,
                      eval_episodes=0).validate()
    assert (cfg.embed_dim, cfg.batch_size, cfg.context_len) == (128, 64, 6)

    def one_update():
        train(cfg, default_store, bundle=fresh_bundle(cfg, default_store),
              eval_each_epoch=False)

    one_update()
    tracemalloc.start()
    try:
        one_update()
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < UPDATE_PEAK_MIB


# Minor page faults per default-scale update, after 5 warm-up updates, in a
# process of its own. Backward frees ~15 MiB in the middle of each update;
# with glibc's default thresholds that memory went back to the OS and was
# faulted in again (~1000 faults per update while the graph lived to the end
# of the update, ~5000 with early freeing alone); with the thresholds that
# autodiff fixes at import it is reused (0 here).
UPDATE_FAULTS = 100
_FAULT_SCRIPT = """
import resource
from drdt3.config import TrainConfig
from drdt3.envs import generate_dataset
from drdt3.training import MetricsLog, train

class FaultLog(MetricsLog):
    faults = []

    def log_update(self, *row):
        super().log_update(*row)
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

store = generate_dataset("pointreach", "medium", 40, seed=1)
cfg = TrainConfig(seed=1, epochs=1, updates_per_epoch=15,
                  eval_episodes=0).validate()
train(cfg, store, eval_each_epoch=False, log=FaultLog())
print((FaultLog.faults[-1] - FaultLog.faults[4]) / 10)
"""


@pytest.mark.skipif(not ad._KEEPS_FREED_MEMORY,
                    reason="libc has no mallopt")
def test_default_scale_update_reuses_freed_memory():
    """Minor page faults per update, over 10 default-scale updates after 5
    warm-up updates, stay under UPDATE_FAULTS."""
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    assert float(out.stdout) < UPDATE_FAULTS


# ---------------------------------------------------------------------------
# Weight gradients on backward's worker thread (autodiff's overlap rule)
# ---------------------------------------------------------------------------

MULTI_CPU = (hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) > 1)


def _stitch_scale():
    """Criterion 7's recipe (d=32, B=64, K=6), one update."""
    return (generate_dataset("stitchchain", "stitch", 40, seed=1),
            TrainConfig(embed_dim=32, batch_size=64, max_episode_len=32,
                        learning_rate=1e-4, zeta=1.0, seed=7, epochs=1,
                        updates_per_epoch=1, eval_episodes=0).validate())


def _default_scale():
    """Library defaults (d=128, B=64, K=6) on pointreach, one update."""
    return (generate_dataset("pointreach", "medium", 40, seed=1),
            TrainConfig(seed=1, epochs=1, updates_per_epoch=1,
                        eval_episodes=0).validate())


def _one_update(scale):
    data, cfg = scale()
    bundle = fresh_bundle(cfg, data)
    train(cfg, data, bundle=bundle, eval_each_epoch=False)
    return bundle


@pytest.mark.parametrize("scale", [_stitch_scale, _default_scale])
def test_deferred_weight_gradients_equal_inline_ones(scale, monkeypatch):
    """One update's gradient vector and parameters are the same bits with
    every weight product deferred, none, and the gated default. At the
    default scale the gate also splits the attention and TTT forwards into
    batch halves, so this compares split forwards with inline ones too."""
    runs = {}
    for gate in (1 << 62, 0, ad._DEFER_MIN_MACS):
        monkeypatch.setattr(ad, "_DEFER_MIN_MACS", gate)
        bundle = _one_update(scale)
        runs[gate] = (bundle.grad.tobytes(), bundle.data.tobytes())
    assert len(set(runs.values())) == 1


def test_stitch_scale_update_and_check_start_no_thread(monkeypatch):
    monkeypatch.setattr(ad, "_worker", None)
    threads = threading.active_count()
    _one_update(_stitch_scale)
    assert all(e < lim for _, e, lim in checks.run_checks("all"))
    assert ad._worker is None and threading.active_count() == threads


def test_default_scale_rollout_starts_no_thread(monkeypatch):
    """A rollout step reads one window (B=1), so at d=128 its attention
    and TTT forwards still run inline."""
    monkeypatch.setattr(ad, "_worker", None)
    threads = threading.active_count()
    data, cfg = _default_scale()
    bundle = fresh_bundle(cfg, data)
    policy = rollout_policy(bundle, starting_rtg(bundle, 1.0),
                            np.random.default_rng(0))
    assert rollout(make_env(bundle.env_id), policy).length > 0
    assert ad._worker is None and threading.active_count() == threads


@pytest.mark.skipif(not MULTI_CPU, reason="one CPU: products run inline")
def test_default_scale_update_starts_one_thread(monkeypatch):
    monkeypatch.setattr(ad, "_worker", None)
    threads = threading.active_count()
    try:
        _one_update(_default_scale)
        _one_update(_default_scale)
        assert threading.active_count() == threads + 1
    finally:
        if ad._worker is not None:
            ad._worker.shutdown()


_FORK_SCRIPT = """
import os, signal
from drdt3 import autodiff as ad
from drdt3.config import TrainConfig
from drdt3.envs import generate_dataset
from drdt3.training import train

store = generate_dataset("pointreach", "medium", 40, seed=1)
cfg = TrainConfig(seed=1, epochs=1, updates_per_epoch=1,
                  eval_episodes=0).validate()
train(cfg, store, eval_each_epoch=False)
parent_worker = ad._worker
assert parent_worker is not None
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    train(cfg, store, eval_each_epoch=False)
    os._exit(0 if ad._worker not in (None, parent_worker) else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not MULTI_CPU, reason="one CPU: no worker to fork")
def test_forked_child_runs_backward_with_a_worker_of_its_own():
    """The child of a process whose worker has run gets no copy of that
    thread; its own backward starts a new one and finishes."""
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FORK_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["0"]


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

class TestConfigValidate:
    """The time table needs at least one row, or no timestep fits it."""

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_episode_len_below_one_rejected(self, value):
        with pytest.raises(ConfigError, match="max_episode_len"):
            TrainConfig(max_episode_len=value).validate()
        assert TrainConfig(max_episode_len=1,
                           context_len=1).validate().max_episode_len == 1

    def test_parser_rejects_zero_max_episode_len(self):
        with pytest.raises(ConfigError, match="max_episode_len"):
            parse_config_text("embed_dim = 8\nmax_episode_len = 0\n")


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------

class TestTrain:
    def test_descent_smoke(self, store):
        cfg = tiny_config(epochs=1, updates_per_epoch=100, batch_size=16)
        _, log = train(cfg, store, eval_each_epoch=False)
        first = log.updates[0][3]
        last = log.updates[-1][3]
        assert last < first

    def test_loss_decomposition_to_1e12(self, store):
        cfg = tiny_config(updates_per_epoch=20)
        _, log = train(cfg, store, eval_each_epoch=False)
        for _, l_diff, l_dt3, l_total in log.updates:
            assert abs(l_total - (l_diff + cfg.zeta * l_dt3)) < 1e-12

    def test_same_seed_identical_logs(self, store):
        cfg = tiny_config(updates_per_epoch=5)
        _, log1 = train(cfg, store, eval_each_epoch=False)
        _, log2 = train(cfg, store, eval_each_epoch=False)
        assert log1.updates == log2.updates

    def test_different_seed_differs(self, store):
        _, log1 = train(tiny_config(updates_per_epoch=5, seed=0), store,
                        eval_each_epoch=False)
        _, log2 = train(tiny_config(updates_per_epoch=5, seed=1), store,
                        eval_each_epoch=False)
        assert log1.updates != log2.updates

    def test_both_param_groups_get_grads_at_update_one(self, store):
        bundle, loss = _unified_loss_graph(store, tiny_config(), seed=0)
        ad.zero_grads(bundle.parameters())
        ad.backward(loss)
        norms = {n: np.linalg.norm(p.grad)
                 for n, p in bundle.named()}
        assert norms["dt3.head.w"] > 0
        assert norms["noise.in_proj.w"] > 0

    def test_zeta_zero_still_reaches_action_head(self, store):
        """With zeta=0 the only path into the sequence model is the
        diffusion condition; its action head must still get gradient.
        The conditioning head is zero-initialized, so probe after a few
        updates once those weights have moved off zero."""
        cfg = tiny_config(zeta=0.0, updates_per_epoch=5)
        spec = make_env_spec(store.env_id)
        rng = np.random.default_rng(3)
        bundle, _ = train(cfg, store, eval_each_epoch=False)
        sched = vp_schedule(cfg.n_diffusion_steps, cfg.beta_min, cfg.beta_max)
        batch, targets = sample_context_batch(store, cfg.context_len,
                                              cfg.batch_size, rng, spec)
        pred = predict_coarse_actions_batch(batch, bundle.dt3)
        cond = ad.reshape(pred[:, cfg.context_len - 1, :],
                          (cfg.batch_size, store.d_a))
        i = rng.integers(1, cfg.n_diffusion_steps + 1, size=cfg.batch_size)
        eps = rng.standard_normal((cfg.batch_size, store.d_a))
        l_diff = diffusion_loss(targets[:, -1, :], cond, i, eps,
                                bundle.noise, sched)
        params = bundle.parameters()
        ad.zero_grads(params)
        ad.backward(l_diff)
        head = dict(bundle.named())["dt3.head.w"]
        assert np.linalg.norm(head.grad) > 0

    def test_dt3_only_leaves_diffusion_at_init(self, store):
        cfg = tiny_config(objective="dt3_only", updates_per_epoch=5)
        bundle, _ = train(cfg, store, eval_each_epoch=False)
        ref = fresh_bundle(cfg, store)
        ref_params = dict(ref.named())
        for name, p in bundle.named():
            if name.startswith("noise."):
                assert np.array_equal(p.data, ref_params[name].data), name

    def test_condition_on_rtg_false_changes_training(self, store):
        log_a = train(tiny_config(updates_per_epoch=5), store,
                      eval_each_epoch=False)[1]
        log_b = train(tiny_config(updates_per_epoch=5,
                                  condition_on_rtg=False), store,
                      eval_each_epoch=False)[1]
        assert log_a.updates != log_b.updates

    def test_l1_vs_l2_logs_differ(self, store):
        log_a = train(tiny_config(updates_per_epoch=5), store,
                      eval_each_epoch=False)[1]
        log_b = train(tiny_config(updates_per_epoch=5, dt3_loss_norm="l2"),
                      store, eval_each_epoch=False)[1]
        assert log_a.updates != log_b.updates

    def test_empty_dataset_rejected(self):
        from drdt3.envs import TrajectoryStore
        with pytest.raises(ValueError, match="empty"):
            train(tiny_config(), TrajectoryStore("stitchchain", 1, 1))

    def test_checkpoint_files_written(self, store, tmp_path):
        cfg = tiny_config(updates_per_epoch=3, eval_episodes=1)
        train(cfg, store, out_dir=str(tmp_path))
        assert (tmp_path / "bundle.drdt3").exists()
        assert (tmp_path / "updates.csv").exists()
        assert (tmp_path / "evals.csv").exists()

    def test_nonfinite_loss_aborts_before_its_step(self, store, tmp_path,
                                                   monkeypatch):
        """A loss that overflows at update 2 while its gradient stays finite
        (the l1 adjoint is a sign): the kept checkpoint is the 2-update
        run's, bitwise, and the log lists updates 0 and 1."""
        losses = []

        def overflowing(l_diff, l_dt3, zeta):
            losses.append(unified_loss(l_diff, l_dt3, zeta))
            if len(losses) == 3:
                return losses[-1] + DArray(np.array(np.inf))
            return losses[-1]

        monkeypatch.setattr(training, "unified_loss", overflowing)
        with pytest.raises(TrainingAborted, match="at update 2"):
            train(tiny_config(updates_per_epoch=3, batch_size=4), store,
                  out_dir=str(tmp_path), eval_each_epoch=False)
        monkeypatch.undo()
        two, _ = train(tiny_config(updates_per_epoch=2, batch_size=4), store,
                       eval_each_epoch=False)
        assert load_bundle(tmp_path / "bundle.drdt3").data.tobytes() == \
            two.data.tobytes()
        log = training.MetricsLog.read_csv(tmp_path)
        assert [row[0] for row in log.updates] == [0, 1]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

ROLLOUT_CASES = [("stitchchain", "stitch"), ("pointreach", "medium")]


def _eval_bundle(env_id, tier, cfg=None):
    """A fresh bundle for a 2-trajectory dataset, tiny unless `cfg` says."""
    store = generate_dataset(env_id, tier, 2, seed=0)
    cfg = cfg or TrainConfig(embed_dim=8, cond_hidden=8, time_embed_dim=4,
                             mlp_expansion=2).validate()
    return fresh_bundle(cfg, store)


def _recording(outputs, fn):
    def wrapper(*args, **kwargs):
        outputs.append(fn(*args, **kwargs))
        return outputs[-1]
    return wrapper


class TestEvaluate:
    @pytest.mark.parametrize("env_id,tier", ROLLOUT_CASES)
    def test_rollout_starts_from_initial_rtg(self, env_id, tier, monkeypatch):
        """The first context's RTG is initial_rtg's target, and each later
        one is lowered by the rewards observed so far, in step order."""
        bundle = _eval_bundle(env_id, tier)
        # stitch's best return is +1 (multiplied), pointreach's is < 0 (divided)
        assert (bundle.initial_return > 0) == (env_id == "stitchchain")
        newest_rtgs, trajs = [], []
        predict = training.predict_coarse_actions_batch

        def recording_predict(batch, params):
            newest_rtgs.append(batch.rtgs[0, -1])
            return predict(batch, params)

        monkeypatch.setattr(training, "predict_coarse_actions_batch",
                            recording_predict)
        monkeypatch.setattr(training, "rollout",
                            _recording(trajs, training.rollout))
        _, _, g0s = evaluate_episodes(bundle, 1, seed=0, rtg_scale=1.5,
                                      mode="dt3-only")
        g = initial_rtg(bundle.initial_return, 1.5)
        assert g0s[0] == g
        assert len(newest_rtgs) == trajs[0].length
        for rtg, r in zip(newest_rtgs, trajs[0].rewards):
            assert rtg == g / bundle.rtg_norm
            g -= r

    @pytest.mark.parametrize("env_id,tier", ROLLOUT_CASES)
    @pytest.mark.parametrize("mode", ["drdt3", "dt3-only"])
    @pytest.mark.parametrize("max_episode_len", [64, 8])
    def test_every_step_context_equals_the_oracle(
            self, env_id, tier, mode, max_episode_len, monkeypatch):
        """At every step the model reads the reference builder's window of
        the episode so far, bitwise; timesteps past the table (at
        max_episode_len 8) reuse its last row."""
        cfg = TrainConfig(embed_dim=8, cond_hidden=8, time_embed_dim=4,
                          mlp_expansion=2,
                          max_episode_len=max_episode_len).validate()
        bundle = _eval_bundle(env_id, tier, cfg)
        batches, trajs = [], []
        predict = training.predict_coarse_actions_batch

        def recording_predict(batch, params):
            batches.append(batch)
            return predict(batch, params)

        monkeypatch.setattr(training, "predict_coarse_actions_batch",
                            recording_predict)
        monkeypatch.setattr(training, "rollout",
                            _recording(trajs, training.rollout))
        evaluate_episodes(bundle, 1, seed=0, rtg_scale=1.5, mode=mode)
        traj = trajs[0]
        rtgs = np.empty(traj.length)
        rtgs[0] = initial_rtg(bundle.initial_return, 1.5)
        for t in range(1, traj.length):
            rtgs[t] = rtgs[t - 1] - traj.rewards[t - 1]
        assert len(batches) == traj.length
        for t, batch in enumerate(batches):
            want, _ = stack([trajectory_context(
                cfg.context_len, rtgs, traj.states, traj.actions, t,
                bundle.rtg_norm, bundle.state_mean, bundle.state_std)])
            np.minimum(want.timesteps, max_episode_len - 1,
                       out=want.timesteps)
            assert_same_batch(batch, want)

    @pytest.mark.parametrize("env_id,tier", ROLLOUT_CASES)
    def test_drdt3_episode_records_no_graph(self, env_id, tier, monkeypatch):
        bundle = _eval_bundle(env_id, tier)
        cfg = bundle.config
        outputs = []
        monkeypatch.setattr(
            training, "predict_coarse_actions_batch",
            _recording(outputs, training.predict_coarse_actions_batch))
        monkeypatch.setattr(diffusion, "predict_noise",
                            _recording(outputs, diffusion.predict_noise))
        monkeypatch.setattr(diffusion, "condition",
                            _recording(outputs, diffusion.condition))
        policy = rollout_policy(bundle, starting_rtg(bundle, 1.0),
                                np.random.default_rng(0), mode="drdt3")
        traj = rollout(make_env(env_id), policy)
        # one coarse prediction, one conditioning of all N reverse steps and
        # N noise predictions per env-step
        conditionings = [out for out in outputs if isinstance(out, tuple)]
        assert len(conditionings) == traj.length
        assert len(outputs) == traj.length * (2 + cfg.n_diffusion_steps)
        assert all(row.shape[0] == cfg.n_diffusion_steps
                   for out in conditionings for row in out)
        arrays = [x for out in outputs
                  for x in (out if isinstance(out, tuple) else (out,))]
        assert all(x._parents == () for x in arrays)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown rollout mode"):
            evaluate_episodes(_eval_bundle("stitchchain", "stitch"), 1, 0,
                              mode="greedy")

    @pytest.mark.parametrize("eta", [1.01 * MAX_RTG_START, 1e308])
    def test_start_beyond_bound_rejected_before_any_forward(self, eta,
                                                            monkeypatch):
        bundle = _eval_bundle("stitchchain", "stitch")
        monkeypatch.setattr(training, "predict_coarse_actions_batch",
                            None)  # must not run
        with pytest.raises(ValueError, match="represents at most 1e\\+100"):
            evaluate_episodes(bundle, 1, seed=0, rtg_scale=eta)

    @pytest.mark.filterwarnings("error")
    def test_bc_bundle_accepts_any_start(self):
        """With condition_on_rtg off the model never sees the RTG, so a
        start past the bound is used, and acts as any other start."""
        cfg = TrainConfig(embed_dim=8, cond_hidden=8, time_embed_dim=4,
                          mlp_expansion=2, objective="dt3_only",
                          condition_on_rtg=False).validate()
        bundle = _eval_bundle("stitchchain", "stitch", cfg)
        eta = 1e100 * MAX_RTG_START
        far = starting_rtg(bundle, eta)
        assert far == initial_rtg(bundle.initial_return, eta)
        evaluate_episodes(bundle, 1, seed=0, rtg_scale=eta, mode="dt3-only")
        actions = [rollout(make_env("stitchchain"), rollout_policy(
            bundle, g0, np.random.default_rng(0), "dt3-only")).actions
            for g0 in (far, starting_rtg(bundle, 1.0))]
        assert np.array_equal(*actions)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("env_id,tier", ROLLOUT_CASES)
    @pytest.mark.parametrize("mode", ["drdt3", "dt3-only"])
    def test_default_scale_start_at_bound_gives_finite_actions(
            self, env_id, tier, mode):
        """A fresh d=128 bundle started at +-MAX_RTG_START (model units)
        acts finitely, with no numpy warning."""
        bundle = _eval_bundle(env_id, tier, TrainConfig().validate())
        assert bundle.config.embed_dim == 128
        best, norm = bundle.initial_return, bundle.rtg_norm
        # stitch multiplies its best return (+1) by eta; pointreach divides
        # its best (< 0) by eta. Either way |g0| / rtg_norm lands on the bound.
        eta = MAX_RTG_START * norm / best if best > 0 else \
            -best / (MAX_RTG_START * norm)
        g0 = starting_rtg(bundle, eta)
        assert abs(g0 / norm) == pytest.approx(MAX_RTG_START, rel=1e-15)
        traj = rollout(make_env(env_id), rollout_policy(
            bundle, g0, np.random.default_rng(0), mode))
        assert np.isfinite(traj.actions).all()

    def test_train_rejects_start_beyond_bound_before_first_update(
            self, store, tmp_path):
        cfg = tiny_config(eval_episodes=1, rtg_scale=1e101)
        with pytest.raises(DatasetRejected, match="represents at most"):
            train(cfg, store, out_dir=str(tmp_path))
        assert not (tmp_path / "updates.csv").exists()
        # Without per-epoch evaluation the start is never used.
        train(cfg, store, eval_each_epoch=False)
        # Nor is it seen without return conditioning.
        train(tiny_config(eval_episodes=1, rtg_scale=1e101,
                          condition_on_rtg=False), store)

