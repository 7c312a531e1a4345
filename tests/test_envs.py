import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdt3 import diffusion, envs
from drdt3.bundle import fresh_bundle
from drdt3.config import TrainConfig
from drdt3.envs import (StitchChain, PointReach, Trajectory, TrajectoryStore,
                        compute_rtg, generate_dataset, initial_rtg, make_env,
                        make_env_spec, normalized_score, rollout)


class TestComputeRtg:
    def test_suffix_sums(self):
        assert np.array_equal(compute_rtg([1, 2, 3]), [6, 5, 3])

    def test_all_zero(self):
        assert np.array_equal(compute_rtg([0, 0, 0]), [0, 0, 0])

    def test_single_reward(self):
        assert np.array_equal(compute_rtg([2.5]), [2.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_rtg([])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, rewards):
        got = compute_rtg(rewards)
        expect = [sum(rewards[t:]) for t in range(len(rewards))]
        assert np.allclose(got, expect, atol=1e-9)


class TestInitialRtg:
    def test_positive_return_scaled_up(self):
        assert initial_rtg(100.0, 1.1) == pytest.approx(110.0)

    def test_negative_return_divided(self):
        assert initial_rtg(-10.0, 2.0) == pytest.approx(-5.0)

    def test_identity_eta(self):
        assert initial_rtg(7.0, 1.0) == 7.0

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan")])
    def test_nonpositive_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta"):
            initial_rtg(1.0, eta)

    @pytest.mark.parametrize("best", [0.0, 1.0, -1.0])
    def test_infinite_eta_rejected(self, best):
        # At best return 0 an infinite eta would give a NaN target.
        with pytest.raises(ValueError, match="finite"):
            initial_rtg(best, float("inf"))

    @pytest.mark.parametrize("env_id,tier", [("stitchchain", "stitch"),
                                             ("pointreach", "medium")])
    def test_rollout_starts_from_initial_rtg(self, env_id, tier):
        store = generate_dataset(env_id, tier, 2, seed=0)
        cfg = TrainConfig(embed_dim=8, cond_hidden=8, time_embed_dim=4,
                          mlp_expansion=2).validate()
        bundle = fresh_bundle(cfg, store)
        # stitch's best return is +1 (multiplied), pointreach's is < 0 (divided)
        assert (bundle.initial_return > 0) == (env_id == "stitchchain")
        _, _, g0 = rollout(bundle, make_env(env_id), 1.5,
                           np.random.default_rng(0), mode="dt3-only")
        assert g0 == initial_rtg(bundle.initial_return, 1.5)


class TestRollout:
    @pytest.mark.parametrize("env_id,tier", [("stitchchain", "stitch"),
                                             ("pointreach", "medium")])
    def test_drdt3_episode_records_no_graph(self, env_id, tier, monkeypatch):
        store = generate_dataset(env_id, tier, 2, seed=0)
        cfg = TrainConfig(embed_dim=8, cond_hidden=8, time_embed_dim=4,
                          mlp_expansion=2).validate()
        bundle = fresh_bundle(cfg, store)
        outputs = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                outputs.append(fn(*args, **kwargs))
                return outputs[-1]
            return wrapper

        monkeypatch.setattr(envs, "predict_coarse_actions_batch",
                            recording(envs.predict_coarse_actions_batch))
        monkeypatch.setattr(diffusion, "predict_noise",
                            recording(diffusion.predict_noise))
        monkeypatch.setattr(diffusion, "condition",
                            recording(diffusion.condition))
        _, traj, _ = rollout(bundle, make_env(env_id), 1.0,
                             np.random.default_rng(0), mode="drdt3")
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


class TestEnvs:
    def test_stitchchain_reward_at_goal(self):
        env = StitchChain()
        env.reset(start=7.5)
        state, reward, done = env.step(np.array([1.0]))
        assert state[0] == 8.0 and reward == 1.0 and done

    def test_stitchchain_zero_actions_return_zero(self):
        env = StitchChain()
        env.reset()
        total, done = 0.0, False
        while not done:
            _, r, done = env.step(np.array([0.0]))
            total += r
        assert total == 0.0

    def test_stitchchain_reward_paid_once(self):
        env = StitchChain()
        env.reset(start=7.5)
        _, r1, _ = env.step(np.array([1.0]))
        assert r1 == 1.0
        env.rewarded = True  # already consumed
        _, r2, _ = env.step(np.array([0.1]))
        assert r2 == 0.0

    def test_pointreach_stationary_constant_reward(self):
        env = PointReach()
        env.reset()
        _, r1, _ = env.step(np.zeros(2))
        _, r2, _ = env.step(np.zeros(2))
        assert r1 == r2 == -np.linalg.norm(env.goal)


class TestEnvSpec:
    def test_reference_scores_ordering(self):
        for env_id in ("pointreach", "stitchchain"):
            spec = make_env_spec(env_id)
            assert spec.expert_score > spec.random_score

    def test_unknown_env(self):
        with pytest.raises(ValueError):
            make_env("labyrinth")


class TestNormalizedScore:
    def test_expert_is_100(self):
        spec = make_env_spec("pointreach")
        assert normalized_score(spec.expert_score, spec) == pytest.approx(100.0)

    def test_random_is_0(self):
        spec = make_env_spec("pointreach")
        assert normalized_score(spec.random_score, spec) == pytest.approx(0.0)

    def test_midpoint(self):
        spec = make_env_spec("stitchchain")
        spec2 = type(spec)(**{**spec.__dict__, "random_score": 0.0,
                              "expert_score": 10.0})
        assert normalized_score(5.0, spec2) == pytest.approx(50.0)

    def test_affine_invariance(self):
        spec = make_env_spec("stitchchain")
        raws = [0.1, 0.9, 0.4]
        norms = [normalized_score(r, spec) for r in raws]
        assert np.argmax(raws) == np.argmax(norms)


class TestGenerateDataset:
    def test_stitch_no_full_solution(self):
        store = generate_dataset("stitchchain", "stitch", 20, seed=0)
        assert not any(t.states[0, 0] == 0.0 and t.ret > 0.0
                       for t in store.trajectories)

    def test_stitch_best_return_from_true_start_is_zero(self):
        store = generate_dataset("stitchchain", "stitch", 20, seed=0)
        from_start = [t.ret for t in store.trajectories
                      if t.states[0, 0] == 0.0]
        assert from_start and max(from_start) == 0.0

    def test_stitch_contains_goal_reaching_family(self):
        store = generate_dataset("stitchchain", "stitch", 20, seed=0)
        assert any(t.ret == 1.0 for t in store.trajectories)

    def test_medium_pointreach_near_one_third_score(self):
        store = generate_dataset("pointreach", "medium", 30, seed=0)
        spec = make_env_spec("pointreach")
        mean_ret = np.mean([t.ret for t in store.trajectories])
        target = spec.random_score + (spec.expert_score - spec.random_score) / 3
        span = spec.expert_score - spec.random_score
        assert abs(mean_ret - target) < 0.15 * abs(span)

    def test_invalid_tier(self):
        with pytest.raises(ValueError):
            generate_dataset("pointreach", "stitch", 5, seed=0)
        with pytest.raises(ValueError):
            generate_dataset("pointreach", "expert", 5, seed=0)

    def test_n_traj_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_dataset("pointreach", "medium", 0, seed=0)

    def test_rtg_consistency(self):
        store = generate_dataset("stitchchain", "stitch", 10, seed=1)
        for t in store.trajectories:
            assert np.array_equal(t.rtgs,
                                  np.cumsum(t.rewards[::-1])[::-1])
            assert t.rtgs[-1] == t.rewards[-1]

    def test_stats_recomputed_on_mutation(self):
        store = generate_dataset("stitchchain", "stitch", 4, seed=2)
        before = store.max_abs_return
        t = Trajectory(np.full((3, 1), 2.0), np.zeros((3, 1)),
                       np.array([1.0, 1.0, 1.0]))
        store = TrajectoryStore(store.env_id, store.d_s, store.d_a,
                                store.trajectories + [t])
        assert store.max_abs_return == 3.0 and before != 3.0
