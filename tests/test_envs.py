import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdt3 import envs
from drdt3.envs import (StitchChain, PointReach, Trajectory, TrajectoryStore,
                        compute_rtg, generate_dataset, initial_rtg, make_env,
                        make_env_spec, normalized_score, rollout)


# ---------------------------------------------------------------------------
# Oracles: the one-episode environments and the sequential scorer as they
# were before the batched dynamics and the lockstep lanes. The scorer and
# the noisy-expert recorder step one episode at a time, and each episode
# reads its own block of t_max steps' draws: after it ends, the policy is
# still called until step t_max and what it draws is discarded.
# ---------------------------------------------------------------------------

class SequentialPointReach(PointReach):
    def step(self, action):
        a = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
        pos, vel = self.state[:2], self.state[2:]
        vel = vel + self.dt * a
        pos = pos + self.dt * vel
        self.state = np.concatenate([pos, vel])
        self.t += 1
        reward = -float(np.linalg.norm(pos - self.goal))
        return self.state.copy(), reward, self.t >= 50

    def expert_action(self, state, rng=None, sigma=0.0):
        pos, vel = state[:2], state[2:]
        a = 4.0 * (self.goal - pos) - 3.0 * vel
        if sigma > 0.0:
            a = a + rng.normal(0.0, sigma, size=2)
        return np.clip(a, -1.0, 1.0)


class SequentialStitchChain(StitchChain):
    def reset(self, start=None):
        self.pos = 0.0 if start is None else float(start)
        self.t = 0
        self.rewarded = False
        return np.array([self.pos])

    def step(self, action):
        a = float(np.clip(np.asarray(action).reshape(-1)[0], -1.0, 1.0))
        self.pos = float(np.clip(self.pos + a, 0.0, 8.0))
        self.t += 1
        reward = 0.0
        if self.pos >= 8.0 and not self.rewarded:
            reward = 1.0
            self.rewarded = True
        done = self.rewarded or self.t >= 20
        return np.array([self.pos]), reward, done

    def expert_action(self, state, rng=None, sigma=0.0):
        a = 1.0
        if sigma > 0.0:
            a = a + rng.normal(0.0, sigma)
        return np.array([np.clip(a, -1.0, 1.0)])


SEQUENTIAL = {"pointreach": SequentialPointReach,
              "stitchchain": SequentialStitchChain}


def sequential_run_policy(env, policy, rng, episodes):
    total = 0.0
    for _ in range(episodes):
        state = env.reset()
        done = False
        while not done:
            state, r, done = env.step(policy(state, rng))
            total += r
        for _ in range(env.t, env.t_max):
            policy(state, rng)
    return total / episodes


def sequential_sigma_returns(env_id, rng, episodes=40):
    returns = []
    for sigma in np.linspace(0.0, 30.0, 31):
        env = SEQUENTIAL[env_id]()
        returns.append(sequential_run_policy(
            env, lambda s, g: env.expert_action(s, g, sigma),
            np.random.default_rng(rng.integers(2**32)), episodes,
        ))
    return returns


def sequential_record_episode(env, policy, rng, start=None, block=False):
    """One episode, one `env.step` at a time. With `block`, it reads its
    whole block of t_max steps' draws."""
    states, actions, rewards = [], [], []
    state = env.reset(start=start)
    done = False
    while not done:
        a = policy(state, rng)
        states.append(state)
        actions.append(np.atleast_1d(a))
        state, r, done = env.step(a)
        rewards.append(r)
    if block:
        for _ in range(env.t, env.t_max):
            policy(state, rng)
    return Trajectory(np.array(states), np.array(actions), np.array(rewards))


def sequential_generate_dataset(env_id, tier, n_traj, seed):
    """Every tier recorded one episode at a time from one shared stream,
    each noisy-expert episode reading its own block of it. The sigma
    calibration is the lockstep one, which
    `TestLockstepLanes` holds equal to `sequential_calibrate`."""
    rng = np.random.default_rng(seed)
    spec = make_env_spec(env_id)
    env_cls = SEQUENTIAL[env_id]
    trajs = []
    if tier == "stitch":
        for j in range(n_traj):
            if j % 2 == 0:
                def policy(s, g):
                    pos = s[0]
                    if pos < 4.0 and g.uniform() < 0.97:
                        return np.array([1.0])
                    return np.array([np.clip(g.normal(0.0, 0.25), -0.45, 0.45)
                                     if pos < 4.5 else
                                     np.clip(g.normal(-0.2, 0.2), -0.45, 0.1)])
                trajs.append(sequential_record_episode(env_cls(), policy, rng))
            else:
                trajs.append(sequential_record_episode(
                    env_cls(), lambda s, g: np.array([1.0]), rng, start=4.0))
    else:
        target = spec.random_score + (spec.expert_score
                                      - spec.random_score) / 3.0
        sigma = envs._calibrate_medium_sigma(env_id, rng, target)
        sigmas = ([sigma] * n_traj if tier == "medium" else
                  list(np.linspace(max(2 * sigma, 1.0), sigma, n_traj)))
        for sigma_j in sigmas:
            env = env_cls()
            trajs.append(sequential_record_episode(
                env, lambda s, g: env.expert_action(s, g, sigma_j), rng,
                block=True))
    return TrajectoryStore(env_id, spec.d_s, spec.d_a, trajs)


def sequential_calibrate(env_id, rng, target):
    best_sigma, best_gap = 0.0, np.inf
    for sigma, r in zip(np.linspace(0.0, 30.0, 31),
                        sequential_sigma_returns(env_id, rng)):
        gap = abs(r - target)
        if gap < best_gap:
            best_sigma, best_gap = sigma, gap
    return best_sigma


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


class TestRollout:
    @pytest.mark.parametrize("env_cls, policy", [
        (PointReach, "expert"), (StitchChain, "expert"),
        (PointReach, "random"), (StitchChain, "random"),
    ], ids=["PointReach", "StitchChain", "PointReach-random",
            "StitchChain-random"])
    def test_expert_episode_equals_lockstep_record(self, env_cls, policy):
        """`rollout` under the scripted expert, or under uniform random
        actions from a seeded generator, records bitwise the episode that
        `run_lockstep` records for one lane. A random stitchchain episode
        runs to t_max."""
        if policy == "expert":
            def act(obs, t):
                return env_cls.expert_actions(obs)
        else:
            draws = np.random.default_rng(11).uniform(
                -env_cls.a_max, env_cls.a_max, (env_cls.t_max, 1, env_cls.d_a))

            def act(obs, t):
                return draws[t]
        traj = rollout(env_cls(), lambda states, actions, rewards, t:
                       act(states[t:t + 1], t)[0])
        rewards, lengths, observations, actions = envs.run_lockstep(
            env_cls, act, 1, record=True)
        m = lengths[0]
        assert traj.length == m
        assert np.array_equal(traj.states, observations[0, :m])
        assert np.array_equal(traj.actions, actions[0, :m])
        assert np.array_equal(traj.rewards, rewards[0, :m])
        if policy == "random":
            assert m == env_cls.t_max

    def test_every_env_binds_the_shared_reset_and_step(self):
        """No env class writes its own episode code: each binds the
        module's one `reset` and `step`."""
        for cls in envs.ENVS.values():
            assert vars(cls)["reset"] is envs._reset, cls.__name__
            assert vars(cls)["step"] is envs._step, cls.__name__
            assert "__init__" not in vars(cls), cls.__name__

    def test_policy_sees_the_episode_so_far(self):
        """At step t the policy reads the state to act on in row t and the
        earlier steps' actions and rewards in rows < t."""
        seen = []

        def policy(states, actions, rewards, t):
            seen.append((states[t, 0], actions[:t, 0].copy(),
                         rewards[:t].copy()))
            return np.array([1.0])

        traj = rollout(StitchChain(), policy)
        assert traj.length == 8 and traj.ret == 1.0
        for t, (state, past_actions, past_rewards) in enumerate(seen):
            assert state == float(t)
            assert np.array_equal(past_actions, np.ones(t))
            assert np.array_equal(past_rewards, traj.rewards[:t])


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
        env.state[1] = 1.0  # already consumed
        _, r2, _ = env.step(np.array([0.1]))
        assert r2 == 0.0

    def test_pointreach_stationary_constant_reward(self):
        env = PointReach()
        env.reset()
        _, r1, _ = env.step(np.zeros(2))
        _, r2, _ = env.step(np.zeros(2))
        assert r1 == r2 == -np.linalg.norm(env.goal)

    @pytest.mark.parametrize("env_cls, action", [
        (PointReach, np.array([0.5])),
        (PointReach, 0.5),
        (StitchChain, np.array([0.5, 9.0])),
    ], ids=["pointreach-one-component", "pointreach-scalar",
            "stitchchain-extra-component"])
    def test_malformed_action_rejected(self, env_cls, action):
        env = env_cls()
        env.reset()
        with pytest.raises(ValueError, match="action must have shape"):
            env.step(action)
        assert env.t == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("env_cls", [PointReach, StitchChain])
    def test_nonfinite_action_rejected(self, env_cls, bad):
        """A NaN or infinite entry would reach the state or the reward."""
        env = env_cls()
        env.reset()
        action = np.zeros(env.d_a)
        action[-1] = bad
        with pytest.raises(ValueError, match="action must be finite"):
            env.step(action)
        assert env.t == 0


class TestBatchedDynamics:
    def random_batch(self, env_id, rng, n=400):
        """Start states anywhere in reach, some actions outside the box."""
        if env_id == "pointreach":
            states = rng.uniform(-3.0, 3.0, (n, 4))
        else:
            states = np.stack([rng.uniform(0.0, 8.0, n),
                               rng.integers(0, 2, n).astype(float)], axis=1)
            states[: n // 4, 0] = rng.choice([0.0, 7.0, 7.5, 8.0], n // 4)
        actions = rng.uniform(-2.5, 2.5, (n, SEQUENTIAL[env_id].d_a))
        return states, rng.integers(0, 60, n), actions

    @pytest.mark.parametrize("env_id", ["pointreach", "stitchchain"])
    def test_rows_equal_sequential_step(self, env_id):
        rng = np.random.default_rng(5)
        states, t, actions = self.random_batch(env_id, rng)
        cls = envs.env_class(env_id)
        got_states, got_r, got_done = cls.dynamics(states, t, actions)
        assert np.abs(actions).max() > 1.0
        for e in range(len(states)):
            env = SEQUENTIAL[env_id]()
            if env_id == "pointreach":
                env.reset(states[e])
            else:
                env.reset(states[e, 0])
                env.rewarded = bool(states[e, 1])
            env.t = int(t[e])
            s, r, done = env.step(actions[e])
            assert got_states[e, :cls.d_s].tobytes() == s.tobytes()
            assert got_r[e] == r and np.signbit(got_r[e]) == np.signbit(r)
            assert bool(got_done[e]) == done
            if env_id == "stitchchain":
                assert bool(got_states[e, 1]) == env.rewarded
        if env_id == "stitchchain":
            assert got_r.sum() > 0 and got_done.any() and not got_done.all()

    @pytest.mark.parametrize("env_id", ["pointreach", "stitchchain"])
    def test_step_and_expert_equal_sequential(self, env_id):
        """Whole noisy-expert episodes, the expert acting on (1, d_s) rows:
        the same states, actions, rewards, done flags and draws as the
        one-episode oracle."""
        for sigma in (0.0, 0.7):
            new, old = make_env(env_id), SEQUENTIAL[env_id]()
            g_new, g_old = (np.random.default_rng(3) for _ in range(2))
            s_new, s_old = new.reset(), old.reset()
            done = False
            while not done:
                noise = (g_new.normal(0.0, sigma, size=(1, new.d_a))
                         if sigma > 0.0 else None)
                a_new = new.expert_actions(s_new[None], noise)[0]
                a_old = old.expert_action(s_old, g_old, sigma)
                assert a_new.tobytes() == a_old.tobytes()
                s_new, r_new, done = new.step(a_new)
                s_old, r_old, done_old = old.step(a_old)
                assert s_new.tobytes() == s_old.tobytes()
                assert (r_new, done) == (r_old, done_old)
            assert g_new.bit_generator.state == g_old.bit_generator.state


class TestLockstepLanes:
    @pytest.mark.parametrize("env_id", ["pointreach", "stitchchain"])
    @pytest.mark.parametrize("seed", range(6))
    def test_sigma_returns_bitwise_equal_sequential(self, env_id, seed):
        rng_new, rng_old = (np.random.default_rng(seed) for _ in range(2))
        _, got = envs._sigma_returns(env_id, rng_new)
        want = sequential_sigma_returns(env_id, rng_old)
        assert got.tobytes() == np.array(want).tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        spec = make_env_spec(env_id)
        target = spec.random_score + (spec.expert_score
                                      - spec.random_score) / 3.0
        assert (envs._calibrate_medium_sigma(
                    env_id, np.random.default_rng(seed), target)
                == sequential_calibrate(
                    env_id, np.random.default_rng(seed), target))

    @pytest.mark.parametrize("env_id", ["pointreach", "stitchchain"])
    def test_reference_scores_bitwise_equal_sequential(self, env_id):
        env = SEQUENTIAL[env_id]()
        random_score = sequential_run_policy(
            env, lambda s, r: r.uniform(-1.0, 1.0, size=env.d_a),
            np.random.default_rng(0), 100)
        expert_score = sequential_run_policy(
            env, lambda s, r: env.expert_action(s), np.random.default_rng(0),
            100)
        spec = make_env_spec(env_id)
        assert (spec.random_score, spec.expert_score) == (random_score,
                                                          expert_score)

    def test_variable_length_lanes_read_their_own_blocks(self):
        """Lanes whose episodes end at different steps: each lane's mean
        matches the sequential scorer on its own stream, each episode
        reading its own block of it."""
        cls, episodes = StitchChain, 7
        noise = np.random.default_rng(11).uniform(
            -0.2, 1.0, size=(4, episodes * cls.t_max, 1))
        got = envs.lane_returns(cls, lambda s, u: u, noise, episodes)
        for lane in range(4):
            steps = iter(noise[lane])
            want = sequential_run_policy(
                SequentialStitchChain(), lambda s, r: next(steps), None,
                episodes)
            assert got[lane] == want
        assert len(set(got.tolist())) > 1

    def test_episodes_are_independent_of_each_others_lengths(self):
        """An episode's return depends on its own block of t_max rows
        only: the rows after its end are read by no one, and another
        episode's block does not move it."""
        cls, lanes, episodes = StitchChain, 4, 7
        t_max = cls.t_max
        noise = np.random.default_rng(11).uniform(
            -0.2, 1.0, size=(lanes, episodes * t_max, 1))
        # Lane 0 stands still, but for episode 2, which goes full speed and
        # reaches the goal after 8 of its t_max steps.
        noise[0] = 0.0
        noise[0, 2 * t_max:2 * t_max + 8] = 1.0

        def lane_means(noise):
            return envs.lane_returns(cls, lambda s, u: u, noise, episodes)

        def block_returns(noise):
            """Each block run alone, as a lane of one episode."""
            return envs.lane_returns(
                cls, lambda s, u: u, noise.reshape(-1, t_max, 1), 1
            ).reshape(lanes, episodes)

        _, lengths = envs.run_lockstep(
            cls, lambda s, t: noise.reshape(-1, t_max, 1)[:, t],
            lanes * episodes)
        assert lengths[:4].tolist() == [t_max, t_max, 8, t_max]
        assert len(set(lengths.tolist())) > 2
        means = lane_means(noise)
        # Full speed in the rows after episode 2's end would carry an
        # episode that started there to the goal.
        tail = noise.copy()
        tail[0, 2 * t_max + 8:3 * t_max] = 1.0
        assert lane_means(tail).tobytes() == means.tobytes()

        each = block_returns(noise)
        assert each[0].tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert means.tobytes() == (each.sum(axis=1) / episodes).tobytes()
        # Episode 1 now reaches the goal after 8 steps; episode 2 and every
        # other one keep their returns.
        other = noise.copy()
        other[0, t_max:2 * t_max] = 1.0
        moved = each.copy()
        moved[0, 1] = 1.0
        assert block_returns(other).tobytes() == moved.tobytes()
        assert (lane_means(other).tobytes()
                == (moved.sum(axis=1) / episodes).tobytes())


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
    # Every (env, tier) pair that generate_dataset and `drdt3 gen-data`
    # accept.
    @pytest.mark.parametrize("env_id,tier", [
        (env_id, tier) for env_id, cls in envs.ENVS.items()
        for tier in cls.tiers])
    @pytest.mark.parametrize("n_traj", [1, 7, 40])
    def test_bitwise_equal_sequential_recorder(self, env_id, tier, n_traj):
        for seed in range(5):
            got = generate_dataset(env_id, tier, n_traj, seed)
            want = sequential_generate_dataset(env_id, tier, n_traj, seed)
            assert got.lengths.tobytes() == want.lengths.tobytes(), seed
            for field in ("step_states", "step_actions", "step_rtgs"):
                assert (getattr(got, field).tobytes()
                        == getattr(want, field).tobytes()), (seed, field)

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
