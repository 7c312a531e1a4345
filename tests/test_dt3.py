import numpy as np
import pytest

from drdt3 import autodiff as ad
from drdt3.autodiff import DArray
from drdt3.config import TrainConfig
from drdt3.diffusion import NoiseApproximatorParams, predict_noise
from drdt3.dt3 import (AttentionTTTBlock, ContextBatch, DT3Params, Linear,
                       TTTLinearLayer, TimestepRangeError, causal_attention,
                       embed_context, predict_coarse_actions_batch,
                       ttt_forward)


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


class TestSetRow:
    """`ContextBatch.set_row` lays out one context from raw steps."""

    def _filled(self, n=2, k=4, start=5):
        rng = np.random.default_rng(26)
        raw = (rng.uniform(-3, 3, n), rng.uniform(-3, 3, (n, 3)),
               rng.uniform(-1, 1, (n, 2)))
        batch = ContextBatch.zeros(2, k, 3, 2)
        batch.set_row(1, start, *raw, 2.0, np.full(3, 0.5), np.full(3, 4.0))
        return batch, raw

    def test_padding_is_a_contiguous_prefix(self):
        batch, _ = self._filled(n=2, k=4)
        assert batch.pad_mask[1].tolist() == [False, False, True, True]
        assert not batch.pad_mask[0].any()  # other rows are left alone

    def test_padded_rows_are_zero(self):
        batch, _ = self._filled(n=1, k=4)
        for field in (batch.rtgs, batch.states, batch.actions,
                      batch.timesteps):
            assert not field[1, :3].any()
            assert not field[0].any()

    def test_real_timesteps_increase_by_one(self):
        batch, _ = self._filled(n=3, k=4, start=5)
        assert batch.timesteps[1].tolist() == [0, 5, 6, 7]

    def test_normalizes_and_zeroes_newest_action(self):
        batch, (rtgs, states, actions) = self._filled(n=2, k=4)
        assert np.array_equal(batch.rtgs[1, 2:], rtgs / 2.0)
        assert np.array_equal(batch.states[1, 2:], (states - 0.5) / 4.0)
        assert np.array_equal(batch.actions[1, 2], actions[0])
        assert not batch.actions[1, 3].any()


class TestEmbedContext:
    def test_zero_context_zero_projections_leaves_time_embeddings(self):
        rng = np.random.default_rng(1)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
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
        params = DT3Params.init(rng, 3, 2, cfg)
        _, mask = embed_context(make_batch(k=6, pad=4, rng=rng), params)
        assert not mask[0, :12].any()
        assert mask[0, 12:].all()

    def test_state_projection_linearity(self):
        rng = np.random.default_rng(3)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
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
        params = DT3Params.init(rng, 3, 2, tiny_cfg(max_episode_len=4))
        with pytest.raises(TimestepRangeError):
            embed_context(make_batch(t0=3), params)


class TestCausalAttention:
    def _setup(self, s=4, d=8, seed=6):
        rng = np.random.default_rng(seed)
        block = AttentionTTTBlock.init(rng, d, 2, 0.5)
        x = DArray(rng.uniform(-1, 1, (1, s, d)))
        return block, x

    def test_single_real_token_is_value_then_output_projection(self):
        block, x = self._setup(s=1)
        out = causal_attention(x, block, np.ones((1, 1), bool))
        v = x.data @ block.wv.w.data + block.wv.b.data
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
# original adjoints, and the 23-node graph built from them.

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

    q = split_heads(_composed_linear(x, block.wq))
    kk = split_heads(_composed_linear(x, block.wk))
    v = split_heads(_composed_linear(x, block.wv))
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
    of the largest entry over all of them is compared at that floor: the key
    bias's gradient is zero analytically (each softmax row absorbs the
    shift), so both paths give only rounding noise there."""
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
        block = AttentionTTTBlock.init(rng, d, n_heads, 0.5)
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
        block = AttentionTTTBlock.init(rng, 8, 2, 0.5)
        x = DArray(rng.uniform(-1, 1, (2, 5, 8)), requires_grad=True)
        mask = np.ones((2, 5), bool)
        # the fused primitive, the residual add and the layer norm
        assert _count_nodes(causal_attention(x, block, mask)) == 3
        assert _count_nodes(_composed_attention(x, block, mask)) == 23


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
        rng = np.random.default_rng(seed)
        b, s, d = (int(n) for n in rng.integers(1, [5, 13, 9], endpoint=True))
        layer = TTTLinearLayer.init(rng, d, inner_lr, std=0.5 / np.sqrt(d))
        layer.w0.data = rng.normal(0.0, 0.5 / np.sqrt(d), (d, d))
        x = rng.uniform(-1, 1, (b, s, d))
        mask = np.ones((b, s), bool)
        for row, pad in enumerate(rng.integers(0, s, size=b, endpoint=True)):
            mask[row, :pad] = False
        z = ttt_forward(DArray(x), layer, mask).data
        assert np.abs(z - _per_token_oracle(x, layer, mask)).max() < 1e-12


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
            params = DT3Params.init(rng, 3, 2, tiny_cfg(context_len=k))
            out = predict_coarse_actions_batch(make_batch(k=k, pad=1, rng=rng),
                                               params)
            counts.append(_count_nodes(out))
        assert counts[0] == counts[1]

    def test_zero_action_head_gives_zero_actions(self):
        rng = np.random.default_rng(10)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        params.head.w.data[:] = 0.0
        params.head.b.data[:] = 0.0
        out = predict_one(make_batch(), params)
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_output_shape(self):
        rng = np.random.default_rng(11)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        out = predict_coarse_actions_batch(make_batch(pad=1), params)
        assert out.shape == (1, 3, 2)

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    def test_padding_invariance(self, pad):
        # the same 3 real steps, preceded by 0..3 rows of zero padding
        rng = np.random.default_rng(12)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
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
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        w1 = make_batch(rng=np.random.default_rng(15))
        w2 = make_batch(rng=np.random.default_rng(15))
        w2.states[0, 2] += 5.0
        w2.rtgs[0, 2] -= 3.0
        out1 = predict_one(w1, params)
        out2 = predict_one(w2, params)
        assert np.array_equal(out1[:2], out2[:2])

    def test_fast_weight_isolation_and_determinism(self):
        rng = np.random.default_rng(16)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        a = make_batch(rng=np.random.default_rng(17))
        b = make_batch(rng=np.random.default_rng(18))
        out_b_first = predict_one(b, params).copy()
        _ = predict_one(a, params)
        out_b_second = predict_one(b, params)
        assert np.array_equal(out_b_first, out_b_second)

    def test_dt_mode_differs_from_full_block(self):
        rng = np.random.default_rng(19)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        w = make_batch(rng=np.random.default_rng(20))
        full = predict_one(w, params).copy()
        params.dt_mode = True
        dt = predict_one(w, params)
        assert not np.allclose(full, dt)

    def test_gradients_flow_through_inner_update(self):
        rng = np.random.default_rng(23)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
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
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        noise = NoiseApproximatorParams(2, 8, 4, 2, "full", rng)
        batch = make_batch(pad=1, rng=np.random.default_rng(28))
        a_i = rng.standard_normal((1, 2))

        def forward():
            coarse = predict_coarse_actions_batch(batch, params)
            return coarse, predict_noise(a_i, coarse[:, -1, :], [2], noise)

        recorded = forward()
        with ad.no_grad():
            untracked = forward()
        for r, u in zip(recorded, untracked):
            assert r._parents and not u._parents
            assert np.array_equal(r.data, u.data)
