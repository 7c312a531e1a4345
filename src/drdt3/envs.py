"""Toy environments, offline dataset generation, and the episode loop.

PointReach: 2-D point mass steered toward a fixed goal (dense reward).
StitchChain: 1-D corridor with a single sparse reward at the far end; its
"stitch" dataset splits the route into two trajectory families so that no
single dataset episode solves the task from the true start.

Each env class declares its action bound `a_max` and the dataset `tiers`
it offers, and owns any recipe beyond the shared noisy-expert tiers. Each
has one batched `dynamics` over (E, .) states; `step` is its one-episode
case. Offline episodes (the reference scores, the sigma calibration and
every dataset tier) are stepped by one loop, `run_lockstep`. A scored or
noisy-expert episode reads its own block of t_max rows of its stream,
whether or not it lasts that long, so all of them run as one batch on
draws made up front. The stitch tier's family A, whose draws depend on
its state, runs one episode at a time.
`rollout` steps one episode of an env under any policy. The module knows
nothing of the model: the evaluation policy lives in `training`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class EnvSpec:
    env_id: str
    d_s: int
    d_a: int
    a_max: float
    t_max: int
    reward_kind: str                 # dense | sparse
    random_score: float
    expert_score: float

    def validate(self):
        if self.a_max <= 0 or self.t_max < 1:
            raise ValueError("invalid EnvSpec bounds")
        if self.expert_score <= self.random_score:
            raise ValueError("expert_score must exceed random_score")
        return self


@dataclass
class Trajectory:
    states: np.ndarray       # (T, d_s)
    actions: np.ndarray      # (T, d_a)
    rewards: np.ndarray      # (T,)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        if not (len(self.states) == len(self.actions) == len(self.rewards)):
            raise ValueError("trajectory field lengths disagree")
        self.rtgs = compute_rtg(self.rewards)

    @property
    def length(self):
        return len(self.rewards)

    @property
    def ret(self):
        return float(self.rewards.sum())


class TrajectoryStore:
    """A dataset's trajectories and what is derived from them once, when the
    store is built: state mean and std, the largest absolute return, and
    every trajectory's steps concatenated into `step_rtgs`, `step_states`
    and `step_actions`, where trajectory i starts at row `offsets[i]` and
    has `lengths[i]` rows."""

    def __init__(self, env_id, d_s, d_a, trajectories=()):
        self.env_id = env_id
        self.d_s = d_s
        self.d_a = d_a
        self.trajectories = list(trajectories)
        for t in self.trajectories:
            if t.states.shape[1] != d_s or t.actions.shape[1] != d_a:
                raise ValueError("trajectory dims do not match store")
        self.lengths = np.array([t.length for t in self.trajectories],
                                dtype=np.int64)
        self.offsets = np.cumsum(self.lengths) - self.lengths
        if not self.trajectories:
            self.step_rtgs = np.zeros(0)
            self.step_states = np.zeros((0, d_s))
            self.step_actions = np.zeros((0, d_a))
            self.state_mean = np.zeros(d_s)
            self.state_std = np.ones(d_s)
            self.max_abs_return = 1.0
            return
        self.step_rtgs = np.concatenate([t.rtgs for t in self.trajectories])
        self.step_states = np.concatenate([t.states for t in self.trajectories])
        self.step_actions = np.concatenate(
            [t.actions for t in self.trajectories])
        self.state_mean = self.step_states.mean(axis=0)
        self.state_std = np.maximum(self.step_states.std(axis=0), 1e-6)
        self.max_abs_return = max(
            1e-8, max(abs(t.ret) for t in self.trajectories)
        )

    @property
    def count(self):
        return len(self.trajectories)

    def max_return(self):
        return max(t.ret for t in self.trajectories)

    def max_length(self):
        return max(t.length for t in self.trajectories)


def compute_rtg(rewards):
    """Undiscounted suffix sums of the reward sequence."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size == 0:
        raise ValueError("compute_rtg needs at least one reward")
    return np.cumsum(rewards[::-1])[::-1].copy()


def initial_rtg(best_return, eta):
    """Target return for an evaluation episode: the best dataset return
    scaled by a finite eta > 0, multiplied if it is >= 0 and divided if it
    is < 0, so that eta > 1 always asks for more."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"rtg scale eta must be finite and > 0, got {eta!r}")
    return eta * best_return if best_return >= 0 else best_return / eta


def normalized_score(raw, spec):
    if spec.expert_score <= spec.random_score:
        raise ValueError("degenerate EnvSpec reference scores")
    return 100.0 * (raw - spec.random_score) / (spec.expert_score - spec.random_score)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

class ActionError(ValueError):
    """An env step was given a malformed or non-finite action."""


def _check_action(action, d_a):
    """Reject what `dynamics` would broadcast or truncate without a word,
    and NaN or infinite entries, which it would carry into the state or
    the reward."""
    if np.shape(action) != (d_a,):
        raise ActionError(f"action must have shape ({d_a},), got "
                          f"{np.shape(action)}")
    if not np.isfinite(action).all():
        raise ActionError(f"action must be finite, got {np.asarray(action)}")


class PointReach:
    """2-D point mass: state (pos, vel) in R^4, action = acceleration in
    [-a_max, a_max]^2, Euler step dt=0.1, reward -|pos - goal|, horizon 50."""

    env_id = "pointreach"
    d_s, d_a, t_max = 4, 2, 50
    a_max = 1.0
    d_state = 4              # the batched state is the observation
    reward_kind = "dense"
    tiers = ("medium", "medium-replay")
    dt = 0.1
    goal = np.array([1.0, 1.0])

    def __init__(self):
        self.state = None
        self.t = 0

    def reset(self, start=None):
        self.state = np.zeros(4) if start is None else np.array(start, dtype=float)
        self.t = 0
        return self.state.copy()

    @classmethod
    def dynamics(cls, state, t, action):
        """One step of E episodes at once: state (E, 4), t the steps each
        has taken, action an (E, 2) array. Returns the next state, the
        reward (E,) and done (E,)."""
        vel = state[:, 2:] + cls.dt * action.clip(-cls.a_max, cls.a_max)
        pos = state[:, :2] + cls.dt * vel
        d = pos - cls.goal
        # sqrt(vecdot) is np.linalg.norm's arithmetic on one vector;
        # norm(axis=-1) rounds differently.
        return (np.concatenate([pos, vel], axis=1), -np.sqrt(np.vecdot(d, d)),
                np.full(len(state), t + 1 >= cls.t_max))

    def step(self, action):
        _check_action(action, self.d_a)
        state, reward, _ = self.dynamics(
            self.state[None], self.t, np.asarray(action, dtype=float)[None])
        self.state = state[0]
        self.t += 1
        return self.state.copy(), float(reward[0]), self.t >= self.t_max

    @classmethod
    def expert_actions(cls, states, noise=None):
        """The expert controller on (E, 4) states, plus optional (E, 2)
        action noise, clipped to the action box."""
        a = 4.0 * (cls.goal - states[:, :2]) - 3.0 * states[:, 2:]
        if noise is not None:
            a = a + noise
        return np.clip(a, -cls.a_max, cls.a_max)


class StitchChain:
    """1-D corridor on [0, 8]: the action shifts the position, reward 1.0 is
    paid once upon first reaching pos >= 8, horizon 20, episodes start at 0."""

    env_id = "stitchchain"
    d_s, d_a, t_max = 1, 1, 20
    a_max = 1.0
    d_state = 2              # the observation, then whether the reward is paid
    reward_kind = "sparse"
    tiers = ("medium", "medium-replay", "stitch")

    def __init__(self):
        self.pos = 0.0
        self.t = 0
        self.rewarded = False

    def reset(self, start=None):
        self.pos = 0.0 if start is None else float(start)
        self.t = 0
        self.rewarded = False
        return np.array([self.pos])

    @classmethod
    def dynamics(cls, state, t, action):
        """One step of E episodes at once: state (E, 2) holds the position
        and 1.0 once the reward has been paid, t the steps each episode has
        taken, action an (E, 1) array. Returns the next state, the reward
        (E,) and done (E,)."""
        nxt = state.copy()
        nxt[:, 0] = (state[:, 0] + action[:, 0].clip(-cls.a_max, cls.a_max)
                     ).clip(0.0, 8.0)
        # 1.0 at the goal unless already paid
        reward = (nxt[:, 0] >= 8.0) * (1.0 - state[:, 1])
        nxt[:, 1] += reward
        return nxt, reward, (nxt[:, 1] == 1.0) | (t + 1 >= cls.t_max)

    def step(self, action):
        _check_action(action, self.d_a)
        state, reward, done = self.dynamics(
            np.array([[self.pos, float(self.rewarded)]]), self.t,
            np.asarray(action, dtype=float)[None])
        self.pos, self.rewarded = float(state[0, 0]), bool(state[0, 1])
        self.t += 1
        return state[0, :1], float(reward[0]), bool(done[0])

    @classmethod
    def expert_actions(cls, states, noise=None):
        """Full speed ahead for (E, 1) states, plus optional (E, 1) action
        noise, clipped to the action box."""
        a = np.ones((len(states), 1))
        if noise is not None:
            a = a + noise
        return np.clip(a, -cls.a_max, cls.a_max)

    @classmethod
    def stitch_dataset(cls, n_traj, rng):
        """The `stitch` tier's n_traj trajectories, drawn from `rng`: two
        families, alternating, that solve the task only when composed."""
        # Family A: 0 -> 4, then wander below 5. Return 0. Its draws depend
        # on the state, and each episode continues the stream where the one
        # before stopped, so its episodes run one at a time, in order.
        full_speed = np.ones((1, 1))

        def family_a(obs, t):
            pos = obs[0, 0]
            if pos < 4.0 and rng.uniform() < 0.97:
                return full_speed
            # min(max(...)) is np.clip on one float, at a quarter the cost.
            return np.array([[min(max(rng.normal(0.0, 0.25), -0.45), 0.45)
                              if pos < 4.5 else
                              min(max(rng.normal(-0.2, 0.2), -0.45), 0.1)]])

        trajs = [None] * n_traj
        trajs[0::2] = [_record(cls, family_a, 1)[0]
                       for _ in range(0, n_traj, 2)]
        # Family B: teleported start at 4, straight to 8. Return 1. It draws
        # nothing, so all its episodes run as one batch.
        n_b = n_traj // 2
        trajs[1::2] = _record(cls, lambda obs, t: np.ones((n_b, 1)), n_b,
                              start=np.full((n_b, 1), 4.0))
        assert all(t.ret == 0.0 for t in trajs[0::2]), \
            "family A must never reach the goal"
        assert all(t.ret == 1.0 for t in trajs[1::2])
        assert not any(t.states[0, 0] == 0.0 and t.ret > 0.0 for t in trajs), \
            "stitch dataset must not contain a full solution"
        return trajs


ENVS = {"pointreach": PointReach, "stitchchain": StitchChain}
_SPEC_CACHE = {}


def env_class(env_id):
    try:
        return ENVS[env_id]
    except KeyError:
        raise ValueError(f"unknown env {env_id!r}") from None


def make_env(env_id):
    return env_class(env_id)()


def run_lockstep(env_cls, policy, n, start=None, record=False):
    """Step n episodes in lockstep with one batched `env_cls.dynamics` call
    per step; `policy(observations, t)` gives the (n, d_a) actions of step
    t. Episodes start from the (n, d_s) observations `start`, or from the
    env's start state. An episode that is done takes no further reward.
    Returns the (n, t_max) rewards, a transposed view of the (t_max, n)
    array that each step fills one contiguous row of, and the (n,) episode
    lengths; with `record`, also the (n, t_max, d_s) observations each step
    acted on and the (n, t_max, d_a) actions, of which episode j's first
    `lengths[j]` rows are its own."""
    d_s, t_max = env_cls.d_s, env_cls.t_max
    state = np.zeros((n, env_cls.d_state))
    if start is not None:
        state[:, :d_s] = start
    rewards = np.zeros((t_max, n))
    lengths = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    if record:
        observations = np.zeros((n, t_max, d_s))
        actions = np.zeros((n, t_max, env_cls.d_a))
    for t in range(t_max):
        obs = state[:, :d_s]
        action = policy(obs, t)
        if record:
            observations[:, t], actions[:, t] = obs, action
        state, r, done = env_cls.dynamics(state, t, action)
        np.copyto(rewards[t], r, where=alive)
        lengths += alive
        alive &= ~done
        if not alive.any():
            break
    if record:
        return rewards.T, lengths, observations, actions
    return rewards.T, lengths


def lane_returns(env_cls, policy, noise, episodes):
    """Mean return of `episodes` back-to-back episodes in each lane.

    Lane l is one random stream: `noise[l]` holds its draws, one row per
    step, and episode k reads rows k * t_max to (k + 1) * t_max - 1 of it,
    whether or not it lasts that long. Every episode of every lane runs at
    once under `run_lockstep`, where `policy(observations, rows)` acts on
    them, and each lane's rewards are summed in step order, as `total += r`
    sums them.
    """
    n_lanes, t_max = len(noise), env_cls.t_max
    blocks = noise.reshape(n_lanes * episodes, t_max, noise.shape[2])
    rewards, _ = run_lockstep(
        env_cls, lambda obs, t: policy(obs, blocks[:, t]), len(blocks))
    return np.cumsum(rewards.reshape(n_lanes, -1), axis=1)[:, -1] / episodes


def make_env_spec(env_id):
    """EnvSpec with reference scores measured from in-repo random and expert
    controllers over 100 seeded episodes (cached per env)."""
    if env_id in _SPEC_CACHE:
        return _SPEC_CACHE[env_id]
    env = env_class(env_id)
    episodes = 100
    steps = episodes * env.t_max
    random_score = lane_returns(
        env, lambda s, u: u,
        np.random.default_rng(0).uniform(-env.a_max, env.a_max,
                                         size=(1, steps, env.d_a)),
        episodes)[0]
    expert_score = lane_returns(
        env, lambda s, u: env.expert_actions(s), np.zeros((1, steps, 0)),
        episodes)[0]
    spec = EnvSpec(
        env_id=env_id, d_s=env.d_s, d_a=env.d_a, a_max=env.a_max,
        t_max=env.t_max,
        reward_kind=env.reward_kind,
        random_score=float(random_score), expert_score=float(expert_score),
    ).validate()
    _SPEC_CACHE[env_id] = spec
    return spec


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def _record(env_cls, policy, n, start=None):
    """n episodes recorded in lockstep by `run_lockstep`, as Trajectories."""
    rewards, lengths, observations, actions = run_lockstep(
        env_cls, policy, n, start, record=True)
    return [Trajectory(observations[j, :m], actions[j, :m], rewards[j, :m])
            for j, m in enumerate(lengths)]


def _sigma_returns(env_id, rng, episodes=40):
    """Mean return of the noisy expert at each candidate sigma. Each sigma
    is one lane with its own stream, seeded from `rng` in sigma order; all
    lanes run in lockstep. At sigma 0 the drawn zeros change no reward."""
    env = env_class(env_id)
    sigmas = np.linspace(0.0, 30.0, 31)
    noise = np.stack([
        np.random.default_rng(rng.integers(2**32)).normal(
            0.0, sigma, size=(episodes * env.t_max, env.d_a))
        for sigma in sigmas])
    return sigmas, lane_returns(env, env.expert_actions, noise, episodes)


def _calibrate_medium_sigma(env_id, rng, target):
    """Pick the expert-noise sigma whose mean return is closest to target
    (the first of any tie)."""
    sigmas, returns = _sigma_returns(env_id, rng)
    return sigmas[np.argmin(np.abs(returns - target))]


def generate_dataset(env_id, tier, n_traj, seed):
    """Offline dataset tiers: medium (noisy expert at ~1/3 score),
    medium-replay (mixture from poor to medium), and any tier of the env
    class's own, such as StitchChain's `stitch`. An env offers the tiers
    its class lists in `tiers`."""
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    env = env_class(env_id)
    if tier not in env.tiers:
        raise ValueError(f"{env_id} has no tier {tier!r}; it offers "
                         f"{', '.join(env.tiers)}")
    rng = np.random.default_rng(seed)
    spec = make_env_spec(env_id)
    if tier == "stitch":
        return TrajectoryStore(env_id, spec.d_s, spec.d_a,
                               env.stitch_dataset(n_traj, rng))

    target_medium = spec.random_score + (spec.expert_score - spec.random_score) / 3.0
    sigma = _calibrate_medium_sigma(env_id, rng, target_medium)
    if tier == "medium":
        sigmas = [sigma] * n_traj
    else:                                                  # medium-replay
        sigmas = list(np.linspace(max(2 * sigma, 1.0), sigma, n_traj))

    # Each episode reads its own block of t_max rows, drawn in episode
    # order; -0.0 is the exact additive identity for a sigma that draws
    # nothing.
    noise = np.full((n_traj, env.t_max, env.d_a), -0.0)
    for j, sigma_j in enumerate(sigmas):
        if sigma_j > 0.0:
            noise[j] = rng.normal(0.0, sigma_j, size=(env.t_max, env.d_a))
    trajs = _record(
        env, lambda obs, t: env.expert_actions(obs, noise[:, t]), n_traj)
    return TrajectoryStore(env_id, spec.d_s, spec.d_a, trajs)


# ---------------------------------------------------------------------------
# One episode under any policy
# ---------------------------------------------------------------------------

def rollout(env, policy):
    """One episode of `env` from its start state, as a Trajectory. At step
    t, `policy(states, actions, rewards, t)` returns the action; it sees the
    episode so far in the (t_max, .) arrays: rows < t, and the state to act
    on in `states[t]`."""
    states = np.zeros((env.t_max, env.d_s))
    actions = np.zeros((env.t_max, env.d_a))
    rewards = np.zeros(env.t_max)
    state = env.reset()
    t = 0
    done = False
    while not done:
        states[t] = state
        actions[t] = action = policy(states, actions, rewards, t)
        state, rewards[t], done = env.step(action)
        t += 1
    return Trajectory(states[:t], actions[:t], rewards[:t])
