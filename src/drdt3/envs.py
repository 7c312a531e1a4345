"""Toy environments, offline dataset generation, and rollout evaluation.

PointReach: 2-D point mass steered toward a fixed goal (dense reward).
StitchChain: 1-D corridor with a single sparse reward at the far end; its
"stitch" dataset splits the route into two trajectory families so that no
single dataset episode solves the task from the true start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dt3 import ContextBatch, predict_coarse_actions_batch
from .diffusion import sample_action, vp_schedule


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

class PointReach:
    """2-D point mass: state (pos, vel) in R^4, action = acceleration in
    [-1,1]^2, Euler step dt=0.1, reward -|pos - goal|, horizon 50."""

    env_id = "pointreach"
    d_s, d_a, t_max = 4, 2, 50
    d_state = 4              # the batched state is the observation
    reward_kind = "dense"
    fixed_length = True      # every episode lasts t_max steps
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
        vel = state[:, 2:] + cls.dt * action.clip(-1.0, 1.0)
        pos = state[:, :2] + cls.dt * vel
        d = pos - cls.goal
        # sqrt(vecdot) is np.linalg.norm's arithmetic on one vector;
        # norm(axis=-1) rounds differently.
        return (np.concatenate([pos, vel], axis=1), -np.sqrt(np.vecdot(d, d)),
                np.full(len(state), t + 1 >= cls.t_max))

    def step(self, action):
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
        return np.clip(a, -1.0, 1.0)

    def expert_action(self, state, rng=None, sigma=0.0):
        noise = rng.normal(0.0, sigma, size=(1, 2)) if sigma > 0.0 else None
        return self.expert_actions(np.asarray(state)[None], noise)[0]


class StitchChain:
    """1-D corridor on [0, 8]: the action shifts the position, reward 1.0 is
    paid once upon first reaching pos >= 8, horizon 20, episodes start at 0."""

    env_id = "stitchchain"
    d_s, d_a, t_max = 1, 1, 20
    d_state = 2              # the observation, then whether the reward is paid
    reward_kind = "sparse"
    fixed_length = False

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
        nxt[:, 0] = (state[:, 0] + action[:, 0].clip(-1.0, 1.0)).clip(0.0, 8.0)
        # 1.0 at the goal unless already paid
        reward = (nxt[:, 0] >= 8.0) * (1.0 - state[:, 1])
        nxt[:, 1] += reward
        return nxt, reward, (nxt[:, 1] == 1.0) | (t + 1 >= cls.t_max)

    def step(self, action):
        state, reward, done = self.dynamics(
            np.array([[self.pos, float(self.rewarded)]]), self.t,
            np.asarray(action, dtype=float).reshape(1, -1)[:, :1])
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
        return np.clip(a, -1.0, 1.0)

    def expert_action(self, state, rng=None, sigma=0.0):
        noise = rng.normal(0.0, sigma, size=(1, 1)) if sigma > 0.0 else None
        return self.expert_actions(np.asarray(state).reshape(1, 1), noise)[0]


_ENVS = {"pointreach": PointReach, "stitchchain": StitchChain}
_SPEC_CACHE = {}


def env_class(env_id):
    try:
        return _ENVS[env_id]
    except KeyError:
        raise ValueError(f"unknown env {env_id!r}") from None


def make_env(env_id):
    return env_class(env_id)()


def run_lockstep(env_cls, policy, n):
    """Step n episodes from the start state in lockstep with one batched
    `env_cls.dynamics` call per step; `policy(observations, t)` gives the
    (n, d_a) actions of step t. An episode that is done takes no further
    reward. Returns the (n, t_max) rewards and the (n,) episode lengths."""
    state = np.zeros((n, env_cls.d_state))
    rewards = np.zeros((n, env_cls.t_max))
    lengths = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(env_cls.t_max):
        state, r, done = env_cls.dynamics(
            state, t, policy(state[:, :env_cls.d_s], t))
        rewards[:, t] = np.where(alive, r, 0.0)
        lengths += alive
        alive &= ~done
        if not alive.any():
            break
    return rewards, lengths


def lane_returns(env_cls, policy, noise, episodes):
    """Mean return of `episodes` back-to-back episodes in each lane.

    Lane l is one random stream: `noise[l]` holds its draws, one row per
    step (`episodes * t_max` rows, in the order a sequential loop consumes
    them), and `policy(observations, rows)` acts on them. Where an episode
    starts in the stream depends on how long the earlier ones lasted, so
    every episode a lane could start runs at once under `run_lockstep`:
    one from every t_max-th row for a fixed-length env, else one from
    every row. Each lane then follows its own chain of episode ends, and
    its rewards are summed in step order, as `total += r` sums them.
    """
    n_lanes, t_max = len(noise), env_cls.t_max
    stride = t_max if env_cls.fixed_length else 1
    starts = np.arange(0, (episodes - 1) * t_max + 1, stride)
    rows = n_lanes * len(starts)
    rewards, lengths = run_lockstep(
        env_cls,
        lambda obs, t: policy(obs, noise[:, starts + t].reshape(
            rows, noise.shape[2])),
        rows)
    rewards = rewards.reshape(n_lanes, len(starts), t_max)
    lengths = lengths.reshape(n_lanes, len(starts))
    lane = np.arange(n_lanes)
    chain = np.zeros((n_lanes, episodes), dtype=np.int64)
    for k in range(1, episodes):
        chain[:, k] = chain[:, k - 1] + lengths[lane, chain[:, k - 1]] // stride
    total = np.cumsum(rewards[lane[:, None], chain].reshape(n_lanes, -1),
                      axis=1)[:, -1]
    return total / episodes


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
        np.random.default_rng(0).uniform(-1.0, 1.0, size=(1, steps, env.d_a)),
        episodes)[0]
    expert_score = lane_returns(
        env, lambda s, u: env.expert_actions(s), np.zeros((1, steps, 0)),
        episodes)[0]
    spec = EnvSpec(
        env_id=env_id, d_s=env.d_s, d_a=env.d_a, a_max=1.0, t_max=env.t_max,
        reward_kind=env.reward_kind,
        random_score=float(random_score), expert_score=float(expert_score),
    ).validate()
    _SPEC_CACHE[env_id] = spec
    return spec


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def _record_episode(env, policy, rng, start=None):
    states, actions, rewards = [], [], []
    state = env.reset(start=start)
    done = False
    while not done:
        a = policy(state, rng)
        states.append(state)
        actions.append(np.atleast_1d(a))
        state, r, done = env.step(a)
        rewards.append(r)
    return Trajectory(np.array(states), np.array(actions), np.array(rewards))


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
    medium-replay (mixture from poor to medium), stitch (StitchChain only:
    two families that only solve the task when composed)."""
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    rng = np.random.default_rng(seed)
    spec = make_env_spec(env_id)
    trajs = []

    if tier == "stitch":
        if env_id != "stitchchain":
            raise ValueError("stitch tier is only defined for stitchchain")
        for j in range(n_traj):
            env = make_env(env_id)
            if j % 2 == 0:
                # Family A: 0 -> 4, then wander below 5. Return 0.
                def policy(s, g):
                    pos = s[0]
                    if pos < 4.0 and g.uniform() < 0.97:
                        return np.array([1.0])
                    return np.array([np.clip(g.normal(0.0, 0.25), -0.45, 0.45)
                                     if pos < 4.5 else
                                     np.clip(g.normal(-0.2, 0.2), -0.45, 0.1)])
                traj = _record_episode(env, policy, rng)
                assert traj.ret == 0.0, "family A must never reach the goal"
            else:
                # Family B: teleported start at 4, straight to 8. Return 1.
                traj = _record_episode(
                    env, lambda s, g: np.array([1.0]), rng, start=4.0
                )
                assert traj.ret == 1.0
            trajs.append(traj)
        assert not any(t.states[0, 0] == 0.0 and t.ret > 0.0 for t in trajs), \
            "stitch dataset must not contain a full solution"
        return TrajectoryStore(env_id, spec.d_s, spec.d_a, trajs)

    target_medium = spec.random_score + (spec.expert_score - spec.random_score) / 3.0
    if tier == "medium":
        sigma = _calibrate_medium_sigma(env_id, rng, target_medium)
        sigmas = [sigma] * n_traj
    elif tier == "medium-replay":
        sigma = _calibrate_medium_sigma(env_id, rng, target_medium)
        sigmas = list(np.linspace(max(2 * sigma, 1.0), sigma, n_traj))
    else:
        raise ValueError(f"unknown tier {tier!r} for env {env_id!r}")

    for sigma_j in sigmas:
        env = make_env(env_id)
        trajs.append(_record_episode(
            env, lambda s, g: env.expert_action(s, g, sigma_j), rng
        ))
    return TrajectoryStore(env_id, spec.d_s, spec.d_a, trajs)


# ---------------------------------------------------------------------------
# Rollout (inference loop)
# ---------------------------------------------------------------------------

def rollout(bundle, env, rtg_scale, rng, mode="drdt3"):
    """One evaluated episode following the inference procedure: sliding
    K-step context, RTG starting at `initial_rtg(bundle.initial_return,
    rtg_scale)` and decremented by observed rewards, coarse prediction
    optionally refined by the diffusion chain. No autodiff graph is
    recorded. Returns (return, trajectory, starting RTG)."""
    spec = make_env_spec(env.env_id)
    cfg = bundle.config
    k = cfg.context_len
    sched = vp_schedule(cfg.n_diffusion_steps, cfg.beta_min, cfg.beta_max)

    g0 = initial_rtg(bundle.initial_return, rtg_scale)

    # The raw episode so far; row t is step t.
    states = np.zeros((spec.t_max, spec.d_s))
    actions = np.zeros((spec.t_max, spec.d_a))
    rewards = np.zeros(spec.t_max)
    rtgs = np.zeros(spec.t_max)
    state = env.reset()
    g = g0
    done = False
    t = 0
    with ad.no_grad():
        while not done:
            states[t], rtgs[t] = state, g
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
            coarse = predict_coarse_actions_batch(batch, bundle.dt3).data[0, -1]
            if mode == "drdt3":
                action = sample_action(coarse, bundle.noise, sched, rng,
                                       action_bound=spec.a_max)
            elif mode == "dt3-only":
                action = np.clip(coarse, -spec.a_max, spec.a_max)
            else:
                raise ValueError(f"unknown rollout mode {mode!r}")

            actions[t] = action
            state, r, done = env.step(action)
            rewards[t] = r
            g -= r
            t += 1

    traj = Trajectory(states[:t], actions[:t], rewards[:t])
    return traj.ret, traj, g0
