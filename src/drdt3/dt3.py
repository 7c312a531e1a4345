"""Decision-TTT sequence model.

Embeds K-step (return-to-go, state, action) contexts, runs them through an
attention + fast-weight block, and reads coarse action predictions off the
state-token positions. The fast-weight sub-layer updates its hidden matrix W
by one gradient step per real token (the delta rule), evaluated in parallel
form by the single recorded primitive `autodiff.ttt_linear`; outer-loop
gradients flow through the inner update. Attention is one recorded
primitive too, `autodiff.causal_attention`, and so is the embedding,
`autodiff.embed_tokens`: the three modality projections, the timestep
lookup and the interleave. The head records one `autodiff.affine`. Each
sub-layer ends in one `autodiff.layer_norm` with its residual operand.
Attention and the fast weight's writes span all 3K tokens; its read-out and
the norms after it run only at the K state tokens, the rows the head reads.

One function, `context_windows`, builds every context the model reads,
training batches and rollout steps alike, by one gather over concatenated
step arrays: a zero-padded prefix, then the newest n <= K steps, with
returns-to-go divided by the dataset's largest absolute return,
standardized states, consecutive timesteps, and the newest action zeroed.
The model applies `condition_on_rtg` itself: with it off, the embedding
reads zeros in place of the returns-to-go.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DArray, Linear


# Tokens per step: (return-to-go, state, action).
TOKENS_PER_STEP = 3
# The state tokens, where the head reads each step's action. A basic slice,
# whose adjoint assigns where an index array would scatter.
STATE_ROWS = slice(1, None, TOKENS_PER_STEP)


class TimestepRangeError(IndexError):
    """A context timestep falls outside the learned embedding table."""


# ---------------------------------------------------------------------------
# Context containers
# ---------------------------------------------------------------------------

class ContextBatch:
    """Stacked contexts: rtgs (B,K), states (B,K,d_s), actions (B,K,d_a),
    timesteps (B,K) and pad_mask (B,K), True for a real step."""

    def __init__(self, rtgs, states, actions, timesteps, pad_mask):
        self.rtgs = np.asarray(rtgs, dtype=np.float64)
        self.states = np.asarray(states, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.float64)
        self.timesteps = np.asarray(timesteps, dtype=np.int64)
        self.pad_mask = np.asarray(pad_mask, dtype=bool)


def context_windows(rtgs, states, actions, firsts, ends, k, rtg_norm,
                    state_mean, state_std):
    """The K-step contexts that end at step `ends[j]` of the trajectory whose
    first row is `firsts[j]` in the concatenated step arrays rtgs (N,),
    states (N, d_s) and actions (N, d_a), gathered in one pass.

    Row j holds steps max(0, ends[j] - K + 1) .. ends[j] after a zero-padded
    prefix. Returns-to-go are divided by `rtg_norm`, states become
    (s - state_mean) / state_std, and the newest action is zeroed: it is
    unknown at prediction time. Returns (ContextBatch, targets), where
    targets (B, K, d_a) are the window's actions, the newest included.
    """
    timesteps = ends[:, None] + np.arange(1 - k, 1)    # (B, K); < 0 is padding
    pad = timesteps < 0
    timesteps[pad] = 0
    rows = firsts[:, None] + timesteps
    rtgs = rtgs.take(rows)
    rtgs /= rtg_norm
    states = states.take(rows, axis=0)
    states -= state_mean
    states /= state_std
    targets = actions.take(rows, axis=0)
    rtgs[pad] = 0.0
    states[pad] = 0.0
    targets[pad] = 0.0
    actions = targets.copy()
    actions[:, -1] = 0.0
    return ContextBatch(rtgs, states, actions, timesteps, ~pad), targets


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

class TTTLinearLayer(ad.Params):
    """Fast-weight layer: W starts at W0 each sequence and takes one
    gradient step on the token reconstruction loss per real token."""

    def __init__(self, w0, theta_q, theta_k, theta_v, inner_lr):
        self.w0 = w0
        self.theta_q = theta_q
        self.theta_k = theta_k
        self.theta_v = theta_v
        self.inner_lr = float(inner_lr)

    @classmethod
    def init(cls, rng, d, inner_lr, std=0.02):
        def proj():
            return DArray(rng.normal(0.0, std, size=(d, d)), requires_grad=True)
        w0 = DArray(np.zeros((d, d)), requires_grad=True)
        return cls(w0, proj(), proj(), proj(), inner_lr)


class AttentionTTTBlock(ad.Params):
    def __init__(self, rng, d, n_heads, inner_lr):
        if d % n_heads != 0:
            raise ValueError(f"embed dim {d} not divisible by {n_heads} heads")
        # W_q, W_k and W_v side by side: three (d, d) draws, then W_o's.
        w_qkv = np.hstack([rng.normal(0.0, 0.02, size=(d, d))
                           for _ in range(3)])
        self.qkv = Linear(DArray(w_qkv, requires_grad=True),
                          DArray(np.zeros(3 * d), requires_grad=True))
        self.wo = Linear.init(rng, d, d)
        self.n_heads = n_heads
        self.ln1_g = DArray(np.ones(d), requires_grad=True)
        self.ln1_b = DArray(np.zeros(d), requires_grad=True)
        self.ttt = TTTLinearLayer.init(rng, d, inner_lr)
        self.ln2_g = DArray(np.ones(d), requires_grad=True)
        self.ln2_b = DArray(np.zeros(d), requires_grad=True)


class DT3Params(ad.Params):
    def __init__(self, rng, d_s, d_a, cfg):
        d = cfg.embed_dim
        self.proj_rtg = Linear.init(rng, 1, d)
        self.proj_state = Linear.init(rng, d_s, d)
        self.proj_action = Linear.init(rng, d_a, d)
        self.time_table = DArray(
            rng.normal(0.0, 0.02, size=(cfg.max_episode_len, d)),
            requires_grad=True)
        self.block = AttentionTTTBlock(rng, d, cfg.n_heads, cfg.inner_lr)
        self.lnf_g = DArray(np.ones(d), requires_grad=True)
        self.lnf_b = DArray(np.zeros(d), requires_grad=True)
        self.head = Linear.init(rng, d, d_a)
        self.dt_mode = cfg.dt_mode
        self.condition_on_rtg = cfg.condition_on_rtg


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------

def embed_context(batch, params):
    """Project each modality, add timestep embeddings, interleave per step,
    in one recorded `autodiff.embed_tokens`. Without `condition_on_rtg`
    the returns-to-go are read as zeros.

    Returns (tokens, token_mask): tokens (B, 3K, d) with per-step order
    (rtg, state, action); token_mask (B, 3K) bool.
    """
    # Indexing would wrap a negative timestep silently; reject it here.
    if batch.timesteps.min() < 0 or \
            batch.timesteps.max() >= params.time_table.shape[0]:
        raise TimestepRangeError(
            f"timesteps outside embedding table of length "
            f"{params.time_table.shape[0]}"
        )
    rtgs = batch.rtgs if params.condition_on_rtg else np.zeros_like(batch.rtgs)
    proj = (params.proj_rtg, params.proj_state, params.proj_action)
    tokens = ad.embed_tokens(
        (rtgs[..., None], batch.states, batch.actions),
        [p.w for p in proj], [p.b for p in proj], params.time_table,
        batch.timesteps)
    token_mask = np.repeat(batch.pad_mask, TOKENS_PER_STEP, axis=1)
    return tokens, token_mask


def causal_attention(x, block, token_mask):
    """Masked multi-head attention with residual add + layer norm.

    Masked keys get exactly zero weight, so outputs at earlier positions are
    bitwise independent of later tokens. Fully padded queries attend to
    themselves only (their outputs are never read). The attention itself,
    output projection included, is one recorded primitive,
    `autodiff.causal_attention`.
    """
    attn = ad.causal_attention(x, block.qkv.w, block.qkv.b, block.wo.w,
                               block.wo.b, token_mask, block.n_heads)
    return ad.layer_norm(attn, block.ln1_g, block.ln1_b, residual=x)


def ttt_forward(x, layer, token_mask, rows=slice(None)):
    """Fast-weight pass: the TTT layer's outputs z (B, len(rows), d) at the
    token positions `rows`, no residual.

    Per real token t: W <- W - inner_lr * 2 (W k_t - v_t) k_t^T with
    k_t = theta_K x_t, v_t = theta_V x_t; output z_t = W theta_Q x_t.
    Padded tokens leave W untouched. The recurrence is one recorded
    primitive, `autodiff.ttt_linear`, so gradients reach theta_K / theta_V
    through the inner update.
    """
    c = 2.0 * layer.inner_lr * token_mask.astype(np.float64)
    return ad.ttt_linear(x, layer.w0, layer.theta_q, layer.theta_k,
                         layer.theta_v, c, rows)


def ttt_sublayer(x, block, token_mask):
    """Fast-weight sub-layer with residual add + layer norm, read out at the
    state tokens only: (B, K, d). Every token of x still writes W."""
    z = ttt_forward(x, block.ttt, token_mask, STATE_ROWS)
    return ad.layer_norm(z, block.ln2_g, block.ln2_b,
                         residual=x[:, STATE_ROWS])


def forward_hidden(batch, params):
    """Final hidden states (B, K, d) at the state tokens. Attention runs
    over all 3K tokens; everything after it only where the head reads."""
    tokens, token_mask = embed_context(batch, params)
    h = causal_attention(tokens, params.block, token_mask)
    if params.dt_mode:
        h = h[:, STATE_ROWS]
    else:
        h = ttt_sublayer(h, params.block, token_mask)
    return ad.layer_norm(h, params.lnf_g, params.lnf_b)


def predict_coarse_actions_batch(batch, params):
    """Coarse action sequence (B, K, d_a), read at state-token positions."""
    return params.head(forward_hidden(batch, params))
