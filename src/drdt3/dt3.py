"""Decision-TTT sequence model.

Embeds K-step (return-to-go, state, action) contexts, runs them through an
attention + fast-weight block, and reads coarse action predictions off the
state-token positions. The fast-weight sub-layer updates its hidden matrix W
by one gradient step per real token (the delta rule), evaluated in parallel
form by the single recorded primitive `autodiff.ttt_linear`; outer-loop
gradients flow through the inner update.

The context layout is defined once, by `ContextBatch.set_row`, which fills
both training batches and the rollout's context: a zero-padded prefix, then
the newest n <= K steps, with returns-to-go divided by the dataset's largest
absolute return, standardized states, consecutive timesteps, and the newest
action zeroed.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DArray


# Tokens per step: (return-to-go, state, action).
TOKENS_PER_STEP = 3


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

    @classmethod
    def zeros(cls, b, k, d_s, d_a):
        """B all-padding rows of K steps, to be filled by `set_row`."""
        return cls(np.zeros((b, k)), np.zeros((b, k, d_s)),
                   np.zeros((b, k, d_a)), np.zeros((b, k), dtype=np.int64),
                   np.zeros((b, k), dtype=bool))

    def set_row(self, j, start, rtgs, states, actions, rtg_norm, state_mean,
                state_std):
        """Fill row j from the raw steps start .. start+n-1 (n = len(rtgs)
        <= K), after a zero-padded prefix of K - n steps. Returns-to-go are
        divided by `rtg_norm`, states become (s - state_mean) / state_std,
        and the newest action is zeroed: it is unknown at prediction time.
        """
        pad = self.context_len - len(rtgs)
        self.rtgs[j, pad:] = rtgs / rtg_norm
        self.states[j, pad:] = (states - state_mean) / state_std
        self.actions[j, pad:] = actions
        self.actions[j, -1] = 0.0
        self.timesteps[j, pad:] = np.arange(start, start + len(rtgs))
        self.pad_mask[j, pad:] = True

    @property
    def size(self):
        return self.rtgs.shape[0]

    @property
    def context_len(self):
        return self.rtgs.shape[1]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

class Linear:
    def __init__(self, w, b):
        self.w = w
        self.b = b

    @classmethod
    def init(cls, rng, d_in, d_out, std=0.02):
        return cls(
            DArray(rng.normal(0.0, std, size=(d_in, d_out)), requires_grad=True),
            DArray(np.zeros(d_out), requires_grad=True),
        )

    def __call__(self, x):
        return ad.matmul(x, self.w) + self.b

    def named(self, prefix):
        return [(prefix + ".w", self.w), (prefix + ".b", self.b)]


class TTTLinearLayer:
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

    def named(self, prefix):
        return [(prefix + ".w0", self.w0),
                (prefix + ".theta_q", self.theta_q),
                (prefix + ".theta_k", self.theta_k),
                (prefix + ".theta_v", self.theta_v)]


class AttentionTTTBlock:
    def __init__(self, wq, wk, wv, wo, n_heads, ln1_g, ln1_b, ttt, ln2_g, ln2_b):
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo
        self.n_heads = n_heads
        self.ln1_g, self.ln1_b = ln1_g, ln1_b
        self.ttt = ttt
        self.ln2_g, self.ln2_b = ln2_g, ln2_b

    @classmethod
    def init(cls, rng, d, n_heads, inner_lr):
        if d % n_heads != 0:
            raise ValueError(f"embed dim {d} not divisible by {n_heads} heads")
        mk = lambda: Linear.init(rng, d, d)
        ones = lambda: DArray(np.ones(d), requires_grad=True)
        zeros = lambda: DArray(np.zeros(d), requires_grad=True)
        return cls(mk(), mk(), mk(), mk(), n_heads, ones(), zeros(),
                   TTTLinearLayer.init(rng, d, inner_lr), ones(), zeros())

    def named(self, prefix):
        out = []
        for n, lin in (("wq", self.wq), ("wk", self.wk),
                       ("wv", self.wv), ("wo", self.wo)):
            out += lin.named(f"{prefix}.{n}")
        out += [(f"{prefix}.ln1_g", self.ln1_g), (f"{prefix}.ln1_b", self.ln1_b)]
        out += self.ttt.named(f"{prefix}.ttt")
        out += [(f"{prefix}.ln2_g", self.ln2_g), (f"{prefix}.ln2_b", self.ln2_b)]
        return out


class DT3Params:
    def __init__(self, proj_rtg, proj_state, proj_action, time_table, block,
                 lnf_g, lnf_b, head, dt_mode=False):
        self.proj_rtg = proj_rtg
        self.proj_state = proj_state
        self.proj_action = proj_action
        self.time_table = time_table
        self.block = block
        self.lnf_g, self.lnf_b = lnf_g, lnf_b
        self.head = head
        self.dt_mode = dt_mode

    @classmethod
    def init(cls, rng, d_s, d_a, cfg):
        d = cfg.embed_dim
        return cls(
            Linear.init(rng, 1, d),
            Linear.init(rng, d_s, d),
            Linear.init(rng, d_a, d),
            DArray(rng.normal(0.0, 0.02, size=(cfg.max_episode_len, d)),
                   requires_grad=True),
            AttentionTTTBlock.init(rng, d, cfg.n_heads, cfg.inner_lr),
            DArray(np.ones(d), requires_grad=True),
            DArray(np.zeros(d), requires_grad=True),
            Linear.init(rng, d, d_a),
            dt_mode=cfg.dt_mode,
        )

    def named(self):
        out = []
        out += self.proj_rtg.named("proj_rtg")
        out += self.proj_state.named("proj_state")
        out += self.proj_action.named("proj_action")
        out.append(("time_table", self.time_table))
        out += self.block.named("block")
        out += [("lnf_g", self.lnf_g), ("lnf_b", self.lnf_b)]
        out += self.head.named("head")
        return out

    def parameters(self):
        return [p for _, p in self.named()]


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------

def embed_context(batch, params):
    """Project each modality, add timestep embeddings, interleave per step.

    Returns (tokens, token_mask): tokens (B, 3K, d) with per-step order
    (rtg, state, action); token_mask (B, 3K) bool.
    """
    b, k = batch.rtgs.shape
    # Indexing would wrap a negative timestep silently; reject it here.
    if batch.timesteps.min() < 0 or \
            batch.timesteps.max() >= params.time_table.shape[0]:
        raise TimestepRangeError(
            f"timesteps outside embedding table of length "
            f"{params.time_table.shape[0]}"
        )
    temb = params.time_table[batch.timesteps]                    # (B,K,d)
    tok_rtg = params.proj_rtg(DArray(batch.rtgs[..., None])) + temb
    tok_state = params.proj_state(DArray(batch.states)) + temb
    tok_action = params.proj_action(DArray(batch.actions)) + temb
    m = TOKENS_PER_STEP
    d = params.time_table.shape[1]
    stacked = ad.concat([ad.reshape(t, (b, k, 1, d))
                         for t in (tok_rtg, tok_state, tok_action)], axis=2)
    tokens = ad.reshape(stacked, (b, m * k, d))
    token_mask = np.repeat(batch.pad_mask, m, axis=1)
    return tokens, token_mask


def causal_attention(x, block, token_mask):
    """Masked multi-head attention with residual add + layer norm.

    Masked keys get exactly zero weight, so outputs at earlier positions are
    bitwise independent of later tokens. Fully padded queries attend to
    themselves only (their outputs are never read).
    """
    b, s, d = x.shape
    h = block.n_heads
    dh = d // h

    def split_heads(t):
        return ad.transpose(ad.reshape(t, (b, s, h, dh)), (0, 2, 1, 3))

    q = split_heads(block.wq(x))
    kk = split_heads(block.wk(x))
    v = split_heads(block.wv(x))
    scores = ad.scale(ad.matmul(q, ad.transpose(kk)), 1.0 / np.sqrt(dh))

    causal = np.tril(np.ones((s, s), dtype=bool))
    mask = causal[None, None] & token_mask[:, None, None, :]
    idx = np.arange(s)
    mask[:, :, idx, idx] = True
    attn = ad.masked_softmax(scores, mask)

    out = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (b, s, d))
    return ad.layer_norm(x + block.wo(out), block.ln1_g, block.ln1_b)


def ttt_forward(x, layer, token_mask):
    """Fast-weight pass: the TTT layer's outputs z (B, s, d), no residual.

    Per real token t: W <- W - inner_lr * 2 (W k_t - v_t) k_t^T with
    k_t = theta_K x_t, v_t = theta_V x_t; output z_t = W theta_Q x_t.
    Padded tokens leave W untouched. The recurrence is one recorded
    primitive, `autodiff.ttt_linear`, so gradients reach theta_K / theta_V
    through the inner update.
    """
    c = 2.0 * layer.inner_lr * token_mask.astype(np.float64)
    return ad.ttt_linear(x, layer.w0, layer.theta_q, layer.theta_k,
                         layer.theta_v, c)


def ttt_sublayer(x, block, token_mask):
    z = ttt_forward(x, block.ttt, token_mask)
    return ad.layer_norm(x + z, block.ln2_g, block.ln2_b)


def forward_hidden(batch, params):
    tokens, token_mask = embed_context(batch, params)
    h = causal_attention(tokens, params.block, token_mask)
    if not params.dt_mode:
        h = ttt_sublayer(h, params.block, token_mask)
    return ad.layer_norm(h, params.lnf_g, params.lnf_b), token_mask


def predict_coarse_actions_batch(batch, params):
    """Coarse action sequence (B, K, d_a), read at state-token positions."""
    h, _ = forward_hidden(batch, params)
    state_pos = np.arange(batch.context_len) * TOKENS_PER_STEP + 1
    return params.head(h[:, state_pos])
