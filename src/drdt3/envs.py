"""Toy environments, offline dataset generation, and rollout evaluation.

PointReach: 2-D point mass steered toward a fixed goal (dense reward).
StitchChain: 1-D corridor with a single sparse reward at the far end; its
"stitch" dataset splits the route into two trajectory families so that no
single dataset episode solves the task from the true start.
"""

from __future__ import annotations

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
    scaled by eta > 0, multiplied if it is >= 0 and divided if it is < 0,
    so that eta > 1 always asks for more."""
    if not eta > 0:
        raise ValueError(f"rtg scale eta must be > 0, got {eta!r}")
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
    dt = 0.1
    goal = np.array([1.0, 1.0])

    def __init__(self):
        self.state = None
        self.t = 0

    def reset(self, start=None):
        self.state = np.zeros(4) if start is None else np.array(start, dtype=float)
        self.t = 0
        return self.state.copy()

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


class StitchChain:
    """1-D corridor on [0, 8]: the action shifts the position, reward 1.0 is
    paid once upon first reaching pos >= 8, horizon 20, episodes start at 0."""

    env_id = "stitchchain"

    def __init__(self):
        self.pos = 0.0
        self.t = 0
        self.rewarded = False

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


_ENVS = {"pointreach": PointReach, "stitchchain": StitchChain}
_SPEC_CACHE = {}


def make_env(env_id):
    try:
        return _ENVS[env_id]()
    except KeyError:
        raise ValueError(f"unknown env {env_id!r}") from None


def _run_policy(env, policy, rng, episodes):
    total = 0.0
    for _ in range(episodes):
        state = env.reset()
        done = False
        while not done:
            state, r, done = env.step(policy(state, rng))
            total += r
    return total / episodes


def make_env_spec(env_id):
    """EnvSpec with reference scores measured from in-repo random and expert
    controllers over 100 seeded episodes (cached per env)."""
    if env_id in _SPEC_CACHE:
        return _SPEC_CACHE[env_id]
    env = make_env(env_id)
    d_a = 2 if env_id == "pointreach" else 1
    d_s = 4 if env_id == "pointreach" else 1
    random_score = _run_policy(
        env, lambda s, r: r.uniform(-1.0, 1.0, size=d_a),
        np.random.default_rng(0), 100,
    )
    expert_score = _run_policy(
        env, lambda s, r: env.expert_action(s), np.random.default_rng(0), 100
    )
    spec = EnvSpec(
        env_id=env_id, d_s=d_s, d_a=d_a, a_max=1.0,
        t_max=50 if env_id == "pointreach" else 20,
        reward_kind="dense" if env_id == "pointreach" else "sparse",
        random_score=random_score, expert_score=expert_score,
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


def _calibrate_medium_sigma(env_id, rng, target, episodes=40):
    """Pick the expert-noise sigma whose mean return is closest to target."""
    best_sigma, best_gap = 0.0, np.inf
    for sigma in np.linspace(0.0, 30.0, 31):
        env = make_env(env_id)
        r = _run_policy(
            env, lambda s, g: env.expert_action(s, g, sigma),
            np.random.default_rng(rng.integers(2**32)), episodes,
        )
        gap = abs(r - target)
        if gap < best_gap:
            best_sigma, best_gap = sigma, gap
    return best_sigma


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
