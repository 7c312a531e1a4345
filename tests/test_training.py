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
from drdt3.dt3 import ContextBatch, predict_coarse_actions_batch
from drdt3.envs import (generate_dataset, initial_rtg, make_env,
                        make_env_spec, rollout)
from drdt3.training import (_ADAM_BLOCK, MAX_RTG_START, AdamW,
                            DatasetRejected, TrainingAborted, clip_grad_norm,
                            dt3_loss, evaluate_episodes, rollout_policy,
                            sample_context_batch, starting_rtg, train,
                            unified_loss)


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
        p = DArray(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 3.0)
        total = clip_grad_norm([p], 1.0)
        assert total == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_below_threshold(self):
        p = DArray(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], 1.0)
        assert np.allclose(p.grad, [0.1, 0.1])


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
    """The batch sampler as a per-row loop over `ContextBatch.set_row`."""
    lengths = np.array([t.length for t in store.trajectories], dtype=np.float64)
    probs = lengths / lengths.sum()
    batch = ContextBatch.zeros(batch_size, k, store.d_s, store.d_a)
    targets = np.zeros((batch_size, k, store.d_a))
    for j in range(batch_size):
        traj = store.trajectories[rng.choice(len(store.trajectories), p=probs)]
        end = int(rng.integers(traj.length))
        start = max(0, end - k + 1)
        steps = slice(start, end + 1)
        batch.set_row(j, start, traj.rtgs[steps], traj.states[steps],
                      traj.actions[steps], store.max_abs_return,
                      store.state_mean, store.state_std)
        targets[j, batch.pad_mask[j]] = traj.actions[steps]
    return batch, targets


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
            for name in ("rtgs", "states", "actions", "timesteps",
                         "pad_mask"):
                got, want = getattr(batch, name), getattr(old, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
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
# pre-norm sum; it peaks at 29.1 MiB with one embedding node, residual norms
# and the TTT layer's copied keys.
UPDATE_PEAK_MIB = 32.0


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


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

class TestConfigValidate:
    """The time table needs at least one row, or no timestep fits it."""

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_episode_len_below_one_rejected(self, value):
        with pytest.raises(ConfigError, match="max_episode_len"):
            TrainConfig(max_episode_len=value).validate()
        assert TrainConfig(max_episode_len=1).validate().max_episode_len == 1

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

