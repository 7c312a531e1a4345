"""A reference context builder for the tests: one row at a time, in plain
numpy, from a trajectory's raw steps. `dt3.context_windows` builds every
context the model reads, for training and for rollouts; the tests compare
it with this builder bitwise."""

import numpy as np

from drdt3.dt3 import ContextBatch


def context_row(k, start, rtgs, states, actions, rtg_norm, state_mean,
                state_std):
    """One context from the raw steps start .. start+n-1 (n = len(rtgs)
    <= k), after a zero-padded prefix of k - n steps: returns-to-go divided
    by `rtg_norm`, states as (s - state_mean) / state_std and the newest
    action zeroed. Returns the five ContextBatch fields of the row and its
    targets, the actions with the newest one kept."""
    n, pad = len(rtgs), k - len(rtgs)
    row_rtgs = np.zeros(k)
    row_states = np.zeros((k, states.shape[1]))
    targets = np.zeros((k, actions.shape[1]))
    timesteps = np.zeros(k, dtype=np.int64)
    pad_mask = np.zeros(k, dtype=bool)
    row_rtgs[pad:] = rtgs / rtg_norm
    row_states[pad:] = (states - state_mean) / state_std
    targets[pad:] = actions
    timesteps[pad:] = np.arange(start, start + n)
    pad_mask[pad:] = True
    row_actions = targets.copy()
    row_actions[-1] = 0.0
    return (row_rtgs, row_states, row_actions, timesteps, pad_mask), targets


def trajectory_context(k, traj_rtgs, traj_states, traj_actions, end, *norm):
    """`context_row` for the window of a trajectory's steps that ends at
    step `end`; `norm` is (rtg_norm, state_mean, state_std)."""
    start = max(0, end - k + 1)
    steps = slice(start, end + 1)
    return context_row(k, start, traj_rtgs[steps], traj_states[steps],
                       traj_actions[steps], *norm)


def stack(rows):
    """A ContextBatch and the (B, K, d_a) targets from `context_row`
    results."""
    fields, targets = zip(*rows)
    return ContextBatch(*map(np.stack, zip(*fields))), np.stack(targets)


FIELDS = ("rtgs", "states", "actions", "timesteps", "pad_mask")


def assert_same_batch(got, want):
    """Two ContextBatches agree in every field: dtype, shape and bytes."""
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
