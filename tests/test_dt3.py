import numpy as np
import pytest

from drdt3 import autodiff as ad
from drdt3.autodiff import DArray
from drdt3.config import TrainConfig
from drdt3.diffusion import (NoiseApproximatorParams, condition,
                             predict_noise)
from drdt3.dt3 import (STATE_ROWS, AttentionTTTBlock, ContextBatch,
                       DT3Params, Linear, TTTLinearLayer, TimestepRangeError,
                       causal_attention, context_windows,
                       embed_context, predict_coarse_actions_batch,
                       ttt_forward)

from context_oracle import assert_same_batch, stack, trajectory_context


def tiny_cfg(**kw):
    base = dict(context_len=3, embed_dim=8, n_heads=2, inner_lr=0.5,
                max_episode_len=16, batch_size=2)
    base.update(kw)
    return TrainConfig(**base).validate()


def make_batch(k=3, d_s=3, d_a=2, pad=0, rng=None, t0=0):
    """One context: `pad` zero rows, then k - pad random real steps."""
    rng = rng or np.random.default_rng(0)
    n = k - pad
    return ContextBatch(
        rtgs=[np.concatenate([np.zeros(pad), rng.uniform(-1, 1, n)])],
        states=[np.concatenate([np.zeros((pad, d_s)),
                                rng.uniform(-1, 1, (n, d_s))])],
        actions=[np.concatenate([np.zeros((pad, d_a)),
                                 rng.uniform(-1, 1, (n, d_a))])],
        timesteps=[np.concatenate([np.zeros(pad, dtype=int),
                                   np.arange(t0, t0 + n)])],
        pad_mask=[np.concatenate([np.zeros(pad, bool), np.ones(n, bool)])],
    )


def predict_one(batch, params):
    """Coarse actions (K, d_a) of a one-context batch."""
    return predict_coarse_actions_batch(batch, params).data[0]


NORM = (2.0, np.full(3, 0.5), np.full(3, 4.0))  # rtg_norm, state mean, std


class TestContextWindows:
    """`context_windows` lays out contexts from concatenated raw steps."""

    @staticmethod
    def _trajectories(lengths=(3, 9, 1)):
        rng = np.random.default_rng(26)
        return [(rng.uniform(-3, 3, n), rng.uniform(-3, 3, (n, 3)),
                 rng.uniform(-1, 1, (n, 2))) for n in lengths]

    def _windows(self, trajs, picks, k):
        """Windows ending at (trajectory index, step) `picks`."""
        steps = [np.concatenate(f) for f in zip(*trajs)]
        offsets = np.cumsum([0] + [len(t[0]) for t in trajs])
        firsts = np.array([offsets[i] for i, _ in picks])
        ends = np.array([end for _, end in picks])
        return context_windows(*steps, firsts, ends, k, *NORM)

    def test_padding_is_a_contiguous_prefix(self):
        batch, _ = self._windows(self._trajectories(), [(1, 1), (1, 5)], 4)
        assert batch.pad_mask[0].tolist() == [False, False, True, True]
        assert batch.pad_mask[1].all()

    def test_padded_rows_are_zero(self):
        batch, targets = self._windows(self._trajectories(), [(1, 0)], 4)
        for field in (batch.rtgs, batch.states, batch.actions,
                      batch.timesteps, targets):
            assert not field[0, :3].any()

    def test_real_timesteps_increase_by_one(self):
        batch, _ = self._windows(self._trajectories(), [(1, 2), (1, 7)], 4)
        assert batch.timesteps.tolist() == [[0, 0, 1, 2], [4, 5, 6, 7]]

    def test_normalizes_and_zeroes_newest_action(self):
        trajs = self._trajectories()
        rtgs, states, actions = trajs[1]
        batch, targets = self._windows(trajs, [(1, 1)], 4)
        assert np.array_equal(batch.rtgs[0, 2:], rtgs[:2] / 2.0)
        assert np.array_equal(batch.states[0, 2:], (states[:2] - 0.5) / 4.0)
        assert np.array_equal(batch.actions[0, 2], actions[0])
        assert not batch.actions[0, 3].any()
        assert np.array_equal(targets[0, 2:], actions[:2])

    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_equals_per_row_oracle(self, k):
        """Every window of every trajectory, K past the longest included,
        matches the per-row builder bitwise."""
        trajs = self._trajectories()
        picks = [(i, end) for i, t in enumerate(trajs)
                 for end in range(len(t[0]))]
        batch, targets = self._windows(trajs, picks, k)
        want, want_targets = stack(
            [trajectory_context(k, *trajs[i], end, *NORM)
             for i, end in picks])
        assert_same_batch(batch, want)
        assert targets.tobytes() == want_targets.tobytes()


class TestConditionOnRtg:
    """The model applies `condition_on_rtg`: with it off, the embedding
    reads zeros wherever the batch holds returns-to-go."""

    def _with_rtgs(self, batch, rtgs):
        return ContextBatch(rtgs, batch.states, batch.actions,
                            batch.timesteps, batch.pad_mask)

    @pytest.mark.parametrize("dt_mode", [False, True])
    def test_off_ignores_the_rtgs(self, dt_mode):
        params = DT3Params(np.random.default_rng(29), 3, 2,
                           tiny_cfg(condition_on_rtg=False, dt_mode=dt_mode))
        batch = make_batch(pad=1, rng=np.random.default_rng(30))
        zeroed = self._with_rtgs(batch, np.zeros_like(batch.rtgs))
        other = self._with_rtgs(batch, batch.rtgs * 1e3 - 7.0)
        out = predict_one(batch, params).tobytes()
        assert predict_one(zeroed, params).tobytes() == out
        assert predict_one(other, params).tobytes() == out

    def test_off_equals_on_with_rtgs_zeroed_by_hand(self):
        params = DT3Params(np.random.default_rng(31), 3, 2,
                           tiny_cfg(condition_on_rtg=False))
        batch = make_batch(pad=1, rng=np.random.default_rng(32))
        off = predict_one(batch, params).copy()
        params.condition_on_rtg = True
        assert not np.array_equal(predict_one(batch, params), off)
        zeroed = self._with_rtgs(batch, np.zeros_like(batch.rtgs))
        assert predict_one(zeroed, params).tobytes() == off.tobytes()


class TestEmbedContext:
    def test_zero_context_zero_projections_leaves_time_embeddings(self):
        rng = np.random.default_rng(1)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        for lin in (params.proj_rtg, params.proj_state, params.proj_action):
            lin.w.data[:] = 0.0
            lin.b.data[:] = 0.0
        batch = make_batch()
        batch.rtgs[:] = 0
        batch.states[:] = 0
        batch.actions[:] = 0
        tokens, _ = embed_context(batch, params)
        expect = params.time_table.data[batch.timesteps[0]]
        for t in range(3):
            for m in range(3):
                assert np.array_equal(tokens.data[0, 3 * t + m], expect[t])

    def test_mask_layout_with_two_real_steps(self):
        rng = np.random.default_rng(2)
        cfg = tiny_cfg(context_len=6)
        params = DT3Params(rng, 3, 2, cfg)
        _, mask = embed_context(make_batch(k=6, pad=4, rng=rng), params)
        assert not mask[0, :12].any()
        assert mask[0, 12:].all()

    def test_state_projection_linearity(self):
        rng = np.random.default_rng(3)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        batch = make_batch(rng=np.random.default_rng(4))
        t1, _ = embed_context(batch, params)
        params.proj_state.w.data *= 2.0
        params.proj_state.b.data *= 2.0
        t2, _ = embed_context(batch, params)
        diff = t2.data - t1.data
        # only state-token rows (offset 1 of each step) change
        for t in range(3):
            assert np.allclose(diff[0, 3 * t], 0.0)
            assert np.allclose(diff[0, 3 * t + 2], 0.0)
            state_contrib = t1.data[0, 3 * t + 1] \
                - params.time_table.data[batch.timesteps[0, t]]
            assert np.allclose(diff[0, 3 * t + 1], state_contrib)

    def test_timestep_out_of_range(self):
        rng = np.random.default_rng(5)
        params = DT3Params(rng, 3, 2, tiny_cfg(max_episode_len=4))
        with pytest.raises(TimestepRangeError):
            embed_context(make_batch(t0=3), params)


class TestCausalAttention:
    def _setup(self, s=4, d=8, seed=6):
        rng = np.random.default_rng(seed)
        block = AttentionTTTBlock(rng, d, 2, 0.5)
        x = DArray(rng.uniform(-1, 1, (1, s, d)))
        return block, x

    def test_qkv_weight_is_three_draws_then_output_projection(self):
        """The (d, 3d) QKV weight holds the draws that W_q, W_k and W_v
        took as three (d, d) weights, and W_o the next one."""
        d = 8
        block = AttentionTTTBlock(np.random.default_rng(5), d, 2, 0.5)
        rng = np.random.default_rng(5)
        draws = [rng.normal(0.0, 0.02, (d, d)) for _ in range(4)]
        assert block.qkv.w.data.tobytes() == \
            np.concatenate(draws[:3], axis=1).tobytes()
        assert block.wo.w.data.tobytes() == draws[3].tobytes()
        assert not block.qkv.b.data.any() and block.qkv.b.shape == (3 * d,)

    def test_single_real_token_is_value_then_output_projection(self):
        block, x = self._setup(s=1)
        out = causal_attention(x, block, np.ones((1, 1), bool))
        d = x.shape[-1]
        v = x.data @ block.qkv.w.data[:, 2 * d:] + block.qkv.b.data[2 * d:]
        proj = v @ block.wo.w.data + block.wo.b.data
        expect = x.data + proj
        mu = expect.mean(-1, keepdims=True)
        sd = np.sqrt(((expect - mu) ** 2).mean(-1, keepdims=True) + 1e-5)
        assert np.allclose(out.data, (expect - mu) / sd * block.ln1_g.data
                           + block.ln1_b.data)

    def test_future_perturbation_leaves_past_bitwise_unchanged(self):
        block, x = self._setup()
        mask = np.ones((1, 4), bool)
        out1 = causal_attention(x, block, mask).data.copy()
        x2 = DArray(x.data.copy())
        x2.data[0, 3] += 10.0
        out2 = causal_attention(x2, block, mask).data
        assert np.array_equal(out1[0, :3], out2[0, :3])

    def test_self_only_mask_matches_single_token_case(self):
        block, x = self._setup()
        # mask out every key: the diagonal guard leaves self-attention only
        out = causal_attention(x, block, np.zeros((1, 4), bool)).data
        for j in range(4):
            solo = causal_attention(
                DArray(x.data[:, j:j + 1]), block, np.ones((1, 1), bool)
            ).data
            assert np.allclose(out[0, j], solo[0, 0], atol=1e-12)


# The composed attention the model recorded before `autodiff.causal_attention`
# and `autodiff.affine` fused it: three test-only primitives with their
# original adjoints, and the graph built from them, with Q, K and V each
# from its own slice of the QKV weight and bias.

def _matmul(a, b):
    def bwd(g, acc):
        acc(a, ad._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                               a.shape))
        acc(b, ad._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                               b.shape))
    return ad._node(np.matmul(a.data, b.data), (a, b), bwd)


def _transpose(a, axes=None):
    if axes is None:
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)

    def bwd(g, acc):
        acc(a, np.transpose(g, np.argsort(axes)))
    return ad._node(np.transpose(a.data, axes), (a,), bwd)


def _masked_softmax(a, mask):
    mask = np.broadcast_to(mask, a.data.shape)
    logits = np.where(mask, a.data, -np.inf)
    e = np.where(mask, np.exp(logits - logits.max(axis=-1, keepdims=True)),
                 0.0)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g, acc):
        acc(a, s * (g - (g * s).sum(axis=-1, keepdims=True)))
    return ad._node(s, (a,), bwd)


def _composed_linear(x, lin):
    return _matmul(x, lin.w) + lin.b


def _composed_attention(x, block, token_mask):
    b, s, d = x.shape
    h = block.n_heads
    dh = d // h

    def split_heads(t):
        return _transpose(ad.reshape(t, (b, s, h, dh)), (0, 2, 1, 3))

    q, kk, v = (split_heads(_matmul(x, block.qkv.w[:, j * d:(j + 1) * d])
                            + block.qkv.b[j * d:(j + 1) * d])
                for j in range(3))
    scores = ad.scale(_matmul(q, _transpose(kk)), 1.0 / np.sqrt(dh))
    mask = np.tril(np.ones((s, s), bool))[None, None] \
        & token_mask[:, None, None, :]
    idx = np.arange(s)
    mask[:, :, idx, idx] = True
    out = ad.reshape(_transpose(_matmul(_masked_softmax(scores, mask), v),
                                (0, 2, 1, 3)), (b, s, d))
    return ad.layer_norm(x + _composed_linear(out, block.wo), block.ln1_g,
                         block.ln1_b)


def _outputs_and_grads(f, inputs, cotangent):
    """f's output and the gradients of <f, cotangent> for every input."""
    ad.zero_grads(inputs)
    out = f()
    ad.backward(ad.sum_all(ad.mul(out, DArray(cotangent))))
    return [out.data] + [p.grad.copy() for p in inputs]


def _assert_close(got, want, rel=1e-12):
    """Each array within `rel` of its own largest entry. An array below 1e-3
    of the largest entry over all of them is compared at that floor: a
    gradient that is zero analytically, such as the key block of the QKV
    bias's (each softmax row absorbs the shift), is only rounding noise on
    both paths."""
    floor = 1e-3 * max(np.abs(w).max() for w in want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= rel * max(np.abs(w).max(), floor)


class TestFusedEqualsComposed:
    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_attention(self, n_heads, seed):
        rng = np.random.default_rng(seed)
        b, s, d = 3, 7, 8
        block = AttentionTTTBlock(rng, d, n_heads, 0.5)
        params = [p for name, p in block.named("blk")
                  if not name.startswith(("blk.ttt", "blk.ln2"))]
        for p in params:
            p.data = p.data + rng.normal(0.0, 0.3, p.shape)
        x = DArray(rng.uniform(-1, 1, (b, s, d)), requires_grad=True)
        mask = np.ones((b, s), bool)
        mask[0, :3] = False       # a padded prefix: fully padded queries
        mask[1, 4] = False        # a masked key inside the window
        inputs = [x] + params
        cot = rng.standard_normal((b, s, d))
        fused = _outputs_and_grads(
            lambda: causal_attention(x, block, mask), inputs, cot)
        composed = _outputs_and_grads(
            lambda: _composed_attention(x, block, mask), inputs, cot)
        _assert_close(fused, composed)

    @pytest.mark.parametrize("lead", [(5,), (3, 4)])
    def test_affine(self, lead):
        rng = np.random.default_rng(len(lead))
        lin = Linear.init(rng, 6, 4, std=1.0)
        lin.b.data = rng.normal(size=4)
        x = DArray(rng.uniform(-1, 1, lead + (6,)), requires_grad=True)
        inputs = [x, lin.w, lin.b]
        cot = rng.standard_normal(lead + (4,))
        fused = _outputs_and_grads(lambda: lin(x), inputs, cot)
        composed = _outputs_and_grads(lambda: _composed_linear(x, lin),
                                      inputs, cot)
        assert fused[0].tobytes() == composed[0].tobytes()
        _assert_close(fused, composed)

    def test_attention_records_one_node(self):
        rng = np.random.default_rng(3)
        block = AttentionTTTBlock(rng, 8, 2, 0.5)
        x = DArray(rng.uniform(-1, 1, (2, 5, 8)), requires_grad=True)
        mask = np.ones((2, 5), bool)
        # the fused primitive and the layer norm with its residual operand
        assert _count_nodes(causal_attention(x, block, mask)) == 2
        assert _count_nodes(_composed_attention(x, block, mask)) == 29


class TestTTTForward:
    def test_zero_inner_lr_is_fixed_linear_map(self):
        rng = np.random.default_rng(7)
        d = 6
        layer = TTTLinearLayer.init(rng, d, inner_lr=0.0)
        layer.w0.data = rng.uniform(-1, 1, (d, d))
        x = DArray(rng.uniform(-1, 1, (2, 5, d)))
        z = ttt_forward(x, layer, np.ones((2, 5), bool)).data
        tq = layer.theta_q.data
        for b in range(2):
            for t in range(5):
                expect = layer.w0.data @ (tq @ x.data[b, t])
                assert np.allclose(z[b, t], expect, atol=1e-12)

    def test_d1_hand_derivation(self):
        layer = TTTLinearLayer(
            w0=DArray(np.zeros((1, 1)), requires_grad=True),
            theta_q=DArray(np.ones((1, 1))),
            theta_k=DArray(np.ones((1, 1))),
            theta_v=DArray(np.ones((1, 1))),
            inner_lr=0.1,
        )
        x = DArray(np.ones((1, 1, 1)))
        z = ttt_forward(x, layer, np.ones((1, 1), bool)).data
        # grad = 2(0-1)*1 = -2, W1 = 0.2, z1 = 0.2
        assert abs(z[0, 0, 0] - 2 * 0.1) < 1e-12

    def test_descent_property(self):
        rng = np.random.default_rng(8)
        d = 4
        layer = TTTLinearLayer.init(rng, d, inner_lr=1e-2, std=0.5)
        w = np.zeros((d, d))
        for _ in range(1000):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            k = layer.theta_k.data @ x
            v = layer.theta_v.data @ x
            before = np.sum((w @ k - v) ** 2)
            w = w - 1e-2 * 2 * np.outer(w @ k - v, k)
            after = np.sum((w @ k - v) ** 2)
            assert after <= before + 1e-15

    def test_padded_tokens_leave_fast_weight_untouched(self):
        rng = np.random.default_rng(9)
        d = 4
        layer = TTTLinearLayer.init(rng, d, inner_lr=0.5)
        x = DArray(rng.uniform(-1, 1, (1, 3, d)))
        mask = np.array([[False, True, True]])
        z_masked = ttt_forward(x, layer, mask).data
        z_real = ttt_forward(
            DArray(x.data[:, 1:]), layer, np.ones((1, 2), bool)
        ).data
        assert np.allclose(z_masked[0, 1:], z_real[0], atol=1e-14)


def _per_token_oracle(x, layer, mask):
    """The fast-weight update rule, one token at a time, in plain numpy."""
    tq, tk, tv = layer.theta_q.data, layer.theta_k.data, layer.theta_v.data
    z = np.empty_like(x)
    for b in range(x.shape[0]):
        w = layer.w0.data.copy()
        for t in range(x.shape[1]):
            k, v = tk @ x[b, t], tv @ x[b, t]
            if mask[b, t]:
                w = w - layer.inner_lr * 2.0 * np.outer(w @ k - v, k)
            z[b, t] = w @ (tq @ x[b, t])
    return z


class TestTTTOracle:
    @pytest.mark.parametrize("inner_lr", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_token_update_rule(self, seed, inner_lr):
        """Every row, and the state rows alone, as dt3 reads them."""
        rng = np.random.default_rng(seed)
        b, s, d = (int(n) for n in rng.integers(1, [5, 13, 9], endpoint=True))
        layer = TTTLinearLayer.init(rng, d, inner_lr, std=0.5 / np.sqrt(d))
        layer.w0.data = rng.normal(0.0, 0.5 / np.sqrt(d), (d, d))
        x = rng.uniform(-1, 1, (b, s, d))
        mask = np.ones((b, s), bool)
        for row, pad in enumerate(rng.integers(0, s, size=b, endpoint=True)):
            mask[row, :pad] = False
        oracle = _per_token_oracle(x, layer, mask)
        for rows in (slice(None), slice(1, None, 3)):
            z = ttt_forward(DArray(x), layer, mask, rows).data
            assert z.shape == oracle[:, rows].shape
            assert np.abs(z - oracle[:, rows]).max(initial=0.0) < 1e-12


def _composed_predict(batch, params):
    """The all-rows composition: the TTT read-out and both norms at all 3K
    tokens, then the head's slice of the state tokens."""
    tokens, mask = embed_context(batch, params)
    h = causal_attention(tokens, params.block, mask)
    if not params.dt_mode:
        z = ttt_forward(h, params.block.ttt, mask)
        h = ad.layer_norm(h + z, params.block.ln2_g, params.block.ln2_b)
    h = ad.layer_norm(h, params.lnf_g, params.lnf_b)
    return params.head(h[:, 1::3])


class TestStateRowsEqualAllRows:
    """`predict_coarse_actions_batch` runs the TTT read-out and the norms
    after it only at the state tokens; the all-rows composition is its
    oracle."""

    @pytest.mark.parametrize("dt_mode", [False, True], ids=["ttt", "dt"])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_predictions_and_gradients(self, k, dt_mode):
        rng = np.random.default_rng(40 + k)
        params = DT3Params(rng, 3, 2, tiny_cfg(context_len=k,
                                               dt_mode=dt_mode))
        for p in params.parameters():
            p.data[...] += rng.normal(0.0, 0.3, p.shape)
        b = 4
        pad_mask = np.arange(k) >= rng.integers(0, k, size=b)[:, None]
        batch = ContextBatch(rng.uniform(-1, 1, (b, k)),
                             rng.uniform(-1, 1, (b, k, 3)),
                             rng.uniform(-1, 1, (b, k, 2)),
                             np.tile(np.arange(k), (b, 1)), pad_mask)
        inputs = params.parameters()
        cot = rng.standard_normal((b, k, 2))
        fast = _outputs_and_grads(
            lambda: predict_coarse_actions_batch(batch, params), inputs, cot)
        full = _outputs_and_grads(
            lambda: _composed_predict(batch, params), inputs, cot)
        if k == 6:
            assert fast[0].tobytes() == full[0].tobytes()
        _assert_close(fast, full)


# The embedding and the residual adds the model recorded before
# `autodiff.embed_tokens` and the `residual` operand of `autodiff.layer_norm`:
# a test-only row gather with the `np.add.at` adjoint that `take_slice` had,
# and the 12-node embedding built from it.

def _gather_rows(table, idx):
    def bwd(g, acc):
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        acc(table, buf)
    return ad._node(table.data[idx], (table,), bwd)


def _composed_embed(batch, params):
    b, k = batch.rtgs.shape
    d = params.time_table.shape[1]
    temb = _gather_rows(params.time_table, batch.timesteps)
    toks = [lin(DArray(x)) + temb for lin, x in (
        (params.proj_rtg, batch.rtgs[..., None]),
        (params.proj_state, batch.states),
        (params.proj_action, batch.actions))]
    stacked = ad.concat([ad.reshape(t, (b, k, 1, d)) for t in toks], axis=2)
    return ad.reshape(stacked, (b, 3 * k, d))


def _composed_residual_predict(batch, params):
    """`predict_coarse_actions_batch` with the composed embedding and each
    sub-layer's norm over an explicit residual add."""
    blk = params.block
    x = _composed_embed(batch, params)
    mask = np.repeat(batch.pad_mask, 3, axis=1)
    attn = ad.causal_attention(x, blk.qkv.w, blk.qkv.b, blk.wo.w, blk.wo.b,
                               mask, blk.n_heads)
    h = ad.layer_norm(x + attn, blk.ln1_g, blk.ln1_b)
    if params.dt_mode:
        h = h[:, 1::3]
    else:
        z = ttt_forward(h, blk.ttt, mask, slice(1, None, 3))
        h = ad.layer_norm(h[:, 1::3] + z, blk.ln2_g, blk.ln2_b)
    return params.head(ad.layer_norm(h, params.lnf_g, params.lnf_b))


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


class TestFusedEmbeddingAndResidualNorms:
    """`embed_tokens` and `layer_norm(..., residual=)` do the composed
    graph's arithmetic in its order: outputs and gradients are bitwise
    equal."""

    @pytest.mark.parametrize("dt_mode", [False, True], ids=["ttt", "dt"])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_embedding_and_model(self, k, dt_mode):
        rng = np.random.default_rng(60 + k)
        params = DT3Params(rng, 3, 2, tiny_cfg(context_len=k,
                                               dt_mode=dt_mode))
        for p in params.parameters():
            p.data[...] += rng.normal(0.0, 0.3, p.shape)
        b = 5
        # Padded prefixes of every length, zeroed as `context_windows` leaves
        # them, and timesteps drawn from 3 values, so that they repeat.
        pad_mask = np.arange(k) >= rng.integers(0, k + 1, size=b)[:, None]
        pad_mask[0] = True
        batch = ContextBatch(rng.uniform(-1, 1, (b, k)) * pad_mask,
                             rng.uniform(-1, 1, (b, k, 3)) * pad_mask[..., None],
                             rng.uniform(-1, 1, (b, k, 2)) * pad_mask[..., None],
                             rng.integers(0, 3, (b, k)) * pad_mask, pad_mask)
        assert any(len(set(row)) < k for row in batch.timesteps) or k == 1
        embed = [params.proj_rtg.w, params.proj_rtg.b, params.proj_state.w,
                 params.proj_state.b, params.proj_action.w,
                 params.proj_action.b, params.time_table]
        cot = rng.standard_normal((b, 3 * k, params.time_table.shape[1]))
        fused = _outputs_and_grads(
            lambda: embed_context(batch, params)[0], embed, cot)
        composed = _outputs_and_grads(
            lambda: _composed_embed(batch, params), embed, cot)
        assert _bytes(fused) == _bytes(composed)

        inputs = params.parameters()
        cot = rng.standard_normal((b, k, 2))
        fused = _outputs_and_grads(
            lambda: predict_coarse_actions_batch(batch, params), inputs, cot)
        composed = _outputs_and_grads(
            lambda: _composed_residual_predict(batch, params), inputs, cot)
        assert _bytes(fused) == _bytes(composed)

    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 8)])
    def test_layer_norm_residual(self, shape):
        rng = np.random.default_rng(len(shape))
        x, y = (DArray(rng.uniform(-2, 2, shape), requires_grad=True)
                for _ in range(2))
        g, bias = (DArray(rng.uniform(-2, 2, shape[-1]), requires_grad=True)
                   for _ in range(2))
        inputs = [x, y, g, bias]
        cot = rng.standard_normal(shape)
        fused = _outputs_and_grads(
            lambda: ad.layer_norm(x, g, bias, residual=y), inputs, cot)
        composed = _outputs_and_grads(
            lambda: ad.layer_norm(x + y, g, bias), inputs, cot)
        assert _bytes(fused) == _bytes(composed)

    def test_residual_shape_mismatch_rejected(self):
        one = DArray(np.ones(4))
        with pytest.raises(ad.ShapeError, match="residual"):
            ad.layer_norm(DArray(np.ones((2, 4))), one, one,
                          residual=DArray(np.ones((1, 4))))

    def test_embedding_records_one_node(self):
        rng = np.random.default_rng(61)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        batch = make_batch(pad=1)
        assert _count_nodes(embed_context(batch, params)[0]) == 1
        assert _count_nodes(_composed_embed(batch, params)) == 12


# Each dense product once ran as a broadcast `np.matmul` of the (B, s, m)
# activation against the shared 2-D weight, one small GEMM per batch row.
# `autodiff._gemm` folds the leading dims into one 2-D GEMM; patched back to
# `np.matmul`, the same primitives are the oracle of the fold.

FOLD_SHAPES = [(d, b) for d in (8, 32, 128) for b in (1, 4, 64)]


def _activation(rng, b, s, m, strided):
    """A (b, s, m) input in [-0.5, 0.5]: contiguous, or the strided view
    h[:, 1::3] of a (b, 3s, m) array, as the state rows are read."""
    h = rng.uniform(-0.5, 0.5, (b, 3 * s, m))[:, 1::3]
    return h if strided else np.ascontiguousarray(h)


def _weights(rng, *shapes, bound):
    return [DArray(rng.uniform(-bound, bound, shape), requires_grad=True)
            for shape in shapes]


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous",
                                                        "strided"])
@pytest.mark.parametrize("d, b", FOLD_SHAPES)
class TestOneGemmPerProduct:
    """Outputs and every gradient of the folded primitives are within 1e-12
    relative of the broadcast form."""

    @staticmethod
    def check(monkeypatch, f, inputs, cot):
        folded = _outputs_and_grads(f, inputs, cot)
        with monkeypatch.context() as m:
            m.setattr(ad, "_gemm", np.matmul)
            broadcast = _outputs_and_grads(f, inputs, cot)
        _assert_close(folded, broadcast)

    def test_affine(self, monkeypatch, d, b, strided):
        rng = np.random.default_rng(d + b)
        x = DArray(_activation(rng, b, 6, d, strided), requires_grad=True)
        w, bias = _weights(rng, (d, d), (d,), bound=1.0 / np.sqrt(d))
        self.check(monkeypatch, lambda: ad.affine(x, w, bias), [x, w, bias],
                   rng.standard_normal((b, 6, d)))

    def test_embed_tokens(self, monkeypatch, d, b, strided):
        rng = np.random.default_rng(d + b)
        k, dims = 6, (1, 3, 2)
        xs = [_activation(rng, b, k, m, strided) for m in dims]
        ws = _weights(rng, *((m, d) for m in dims), bound=1.0)
        bs = _weights(rng, *((d,) for _ in dims), bound=1.0)
        table = _weights(rng, (16, d), bound=1.0)[0]
        steps = rng.integers(0, 16, (b, k))
        self.check(monkeypatch,
                   lambda: ad.embed_tokens(xs, ws, bs, table, steps),
                   ws + bs + [table], rng.standard_normal((b, 3 * k, d)))

    def test_causal_attention(self, monkeypatch, d, b, strided):
        rng = np.random.default_rng(d + b)
        s = 18
        x = DArray(_activation(rng, b, s, d, strided), requires_grad=True)
        params = _weights(rng, (d, 3 * d), (3 * d,), (d, d), (d,),
                          bound=1.0 / np.sqrt(d))
        mask = np.arange(s) >= rng.integers(0, s, size=b)[:, None]
        self.check(monkeypatch,
                   lambda: ad.causal_attention(x, *params, mask, 2),
                   [x] + params, rng.standard_normal((b, s, d)))

    def test_ttt_linear(self, monkeypatch, d, b, strided):
        """Projections of bound 3/d keep ||k||^2 near 1/4 at every d, so
        with c <= 2 each step I - c k k^T stays a contraction, the stable
        regime `check_primitives` tests in."""
        rng = np.random.default_rng(d + b)
        s = 18
        x = DArray(_activation(rng, b, s, d, strided), requires_grad=True)
        w0 = _weights(rng, (d, d), bound=1.0 / np.sqrt(d))
        thetas = _weights(rng, (d, d), (d, d), (d, d), bound=3.0 / d)
        mask = np.arange(s) >= rng.integers(0, s, size=b)[:, None]
        c = rng.uniform(0.5, 2.0) * mask
        for rows in (slice(None), STATE_ROWS):
            self.check(monkeypatch,
                       lambda: ad.ttt_linear(x, *w0, *thetas, c, rows),
                       [x] + w0 + thetas,
                       rng.standard_normal((b, len(range(s)[rows]), d)))


# The traced peak of one `ttt_linear` forward at library defaults (d=128,
# B=64, 3K=18 tokens, read out at the state rows) was 6.40 MiB while k and v
# were halves of one (B, s, 2d) product and k was copied out of it; with two
# GEMM outputs of their own it is 5.09 MiB.
TTT_FORWARD_PEAK_MIB = 5.75


def test_ttt_forward_memory_peak():
    import tracemalloc
    rng = np.random.default_rng(0)
    b, s, d = 64, 18, 128
    x = DArray(rng.uniform(-1, 1, (b, s, d)), requires_grad=True)
    params = _weights(rng, *[(d, d)] * 4, bound=0.5 / np.sqrt(d))
    c = np.full((b, s), 0.1)
    ad.ttt_linear(x, *params, c, STATE_ROWS)            # warm-up
    tracemalloc.start()
    try:
        out = ad.ttt_linear(x, *params, c, STATE_ROWS)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert out.shape == (b, s // 3, d)
    assert peak < TTT_FORWARD_PEAK_MIB


# The traced peak of one `causal_attention` forward at library defaults
# (d=128, B=64, 3K=18 tokens, one head) was 6.03 MiB while the scores and
# the (B, heads, s, d_h) context product were temporaries beside the arrays
# the adjoint keeps; with both batch halves written into those arrays in
# place it is 5.91-5.94 MiB.
ATTENTION_FORWARD_PEAK_MIB = 7.0


def test_attention_forward_memory_peak():
    import tracemalloc
    rng = np.random.default_rng(0)
    b, s, d = 64, 18, 128
    x = DArray(rng.uniform(-1, 1, (b, s, d)), requires_grad=True)
    params = _weights(rng, (d, 3 * d), (3 * d,), (d, d), (d,),
                      bound=1.0 / np.sqrt(d))
    mask = np.arange(s) >= rng.integers(0, s, size=b)[:, None]
    ad.causal_attention(x, *params, mask, 1)             # warm-up
    tracemalloc.start()
    try:
        out = ad.causal_attention(x, *params, mask, 1)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert out.shape == (b, s, d)
    assert peak < ATTENTION_FORWARD_PEAK_MIB


def _count_nodes(out):
    """Recorded operations in the autodiff graph behind `out`."""
    seen, stack, n = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            n += node._backward is not None
            stack.extend(node._parents)
    return n


class TestPredict:
    def test_graph_size_independent_of_context_len(self):
        counts = []
        for k in (3, 12):
            rng = np.random.default_rng(25)
            params = DT3Params(rng, 3, 2, tiny_cfg(context_len=k))
            out = predict_coarse_actions_batch(make_batch(k=k, pad=1, rng=rng),
                                               params)
            counts.append(_count_nodes(out))
        assert counts[0] == counts[1]

    def test_zero_action_head_gives_zero_actions(self):
        rng = np.random.default_rng(10)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        params.head.w.data[:] = 0.0
        params.head.b.data[:] = 0.0
        out = predict_one(make_batch(), params)
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_output_shape(self):
        rng = np.random.default_rng(11)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        out = predict_coarse_actions_batch(make_batch(pad=1), params)
        assert out.shape == (1, 3, 2)

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    def test_padding_invariance(self, pad):
        # the same 3 real steps, preceded by 0..3 rows of zero padding
        rng = np.random.default_rng(12)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        base = make_batch(k=3, rng=np.random.default_rng(13))

        def padded(x):
            return np.concatenate([np.zeros((1, pad) + x.shape[2:], x.dtype),
                                   x], axis=1)
        batch = ContextBatch(padded(base.rtgs), padded(base.states),
                             padded(base.actions), padded(base.timesteps),
                             padded(base.pad_mask))
        out_padded = predict_one(batch, params)[pad:]
        out_ref = predict_one(base, params)
        assert np.allclose(out_padded, out_ref, atol=1e-10)

    def test_causality_future_tokens(self):
        rng = np.random.default_rng(14)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        w1 = make_batch(rng=np.random.default_rng(15))
        w2 = make_batch(rng=np.random.default_rng(15))
        w2.states[0, 2] += 5.0
        w2.rtgs[0, 2] -= 3.0
        out1 = predict_one(w1, params)
        out2 = predict_one(w2, params)
        assert np.array_equal(out1[:2], out2[:2])

    def test_fast_weight_isolation_and_determinism(self):
        rng = np.random.default_rng(16)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        a = make_batch(rng=np.random.default_rng(17))
        b = make_batch(rng=np.random.default_rng(18))
        out_b_first = predict_one(b, params).copy()
        _ = predict_one(a, params)
        out_b_second = predict_one(b, params)
        assert np.array_equal(out_b_first, out_b_second)

    def test_dt_mode_differs_from_full_block(self):
        rng = np.random.default_rng(19)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        w = make_batch(rng=np.random.default_rng(20))
        full = predict_one(w, params).copy()
        params.dt_mode = True
        dt = predict_one(w, params)
        assert not np.allclose(full, dt)

    def test_gradients_flow_through_inner_update(self):
        rng = np.random.default_rng(23)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        w = make_batch(rng=np.random.default_rng(24))
        ttt_params = [p for _, p in params.block.ttt.named("ttt")]
        ad.zero_grads(ttt_params)
        loss = ad.sum_all(ad.square(predict_coarse_actions_batch(w, params)))
        ad.backward(loss)
        tk = dict(params.block.ttt.named("ttt"))["ttt.theta_k"]
        tv = dict(params.block.ttt.named("ttt"))["ttt.theta_v"]
        assert np.any(tk.grad != 0)
        assert np.any(tv.grad != 0)

    def test_no_grad_forward_is_bitwise_equal_and_untracked(self):
        rng = np.random.default_rng(27)
        params = DT3Params(rng, 3, 2, tiny_cfg())
        noise = NoiseApproximatorParams(2, 8, 4, 2, "full", rng)
        batch = make_batch(pad=1, rng=np.random.default_rng(28))
        a_i = rng.standard_normal((1, 2))

        def forward():
            coarse = predict_coarse_actions_batch(batch, params)
            return coarse, predict_noise(
                a_i, condition(coarse[:, -1, :], [2], noise), noise)

        recorded = forward()
        with ad.no_grad():
            untracked = forward()
        for r, u in zip(recorded, untracked):
            assert r._parents and not u._parents
            assert np.array_equal(r.data, u.data)
