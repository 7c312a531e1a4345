import numpy as np
import pytest

from drdt3 import autodiff as ad
from drdt3.autodiff import DArray
from drdt3.config import TrainConfig
from drdt3.dt3 import (AttentionTTTBlock, ContextBatch, ContextWindow,
                       DT3Params, TTTLinearLayer, TimestepRangeError,
                       causal_attention, embed_context,
                       predict_coarse_actions, predict_coarse_actions_batch,
                       ttt_forward)


def tiny_cfg(**kw):
    base = dict(context_len=3, embed_dim=8, n_heads=2, inner_lr=0.5,
                max_episode_len=16, batch_size=2)
    base.update(kw)
    return TrainConfig(**base).validate()


def make_window(k=3, d_s=3, d_a=2, pad=0, rng=None, t0=0):
    rng = rng or np.random.default_rng(0)
    n = k - pad
    return ContextWindow(
        rtgs=np.concatenate([np.zeros(pad), rng.uniform(-1, 1, n)]),
        states=np.concatenate([np.zeros((pad, d_s)),
                               rng.uniform(-1, 1, (n, d_s))]),
        actions=np.concatenate([np.zeros((pad, d_a)),
                                rng.uniform(-1, 1, (n, d_a))]),
        timesteps=np.concatenate([np.zeros(pad, dtype=int),
                                  np.arange(t0, t0 + n)]),
        pad_mask=np.concatenate([np.zeros(pad, bool), np.ones(n, bool)]),
    ).validate()


class TestContextWindow:
    def test_noncontiguous_padding_rejected(self):
        w = make_window()
        w.pad_mask = np.array([True, False, True])
        w.rtgs[1] = 0.0
        w.states[1] = 0.0
        w.actions[1] = 0.0
        with pytest.raises(ValueError, match="contiguous"):
            w.validate()

    def test_nonzero_padding_rejected(self):
        w = make_window(pad=1)
        w.rtgs[0] = 0.5
        with pytest.raises(ValueError, match="all-zero"):
            w.validate()

    def test_nonconsecutive_timesteps_rejected(self):
        w = make_window()
        w.timesteps = np.array([0, 2, 3])
        with pytest.raises(ValueError, match="increase by 1"):
            w.validate()


class TestEmbedContext:
    def test_zero_context_zero_projections_leaves_time_embeddings(self):
        rng = np.random.default_rng(1)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        for lin in (params.proj_rtg, params.proj_state, params.proj_action):
            lin.w.data[:] = 0.0
            lin.b.data[:] = 0.0
        w = make_window()
        w.rtgs[:] = 0
        w.states[:] = 0
        w.actions[:] = 0
        tokens, _ = embed_context(ContextBatch.from_windows([w]), params)
        expect = params.time_table.data[w.timesteps]
        for t in range(3):
            for m in range(3):
                assert np.array_equal(tokens.data[0, 3 * t + m], expect[t])

    def test_mask_layout_with_two_real_steps(self):
        rng = np.random.default_rng(2)
        cfg = tiny_cfg(context_len=6)
        params = DT3Params.init(rng, 3, 2, cfg)
        w = make_window(k=6, pad=4, rng=rng)
        _, mask = embed_context(ContextBatch.from_windows([w]), params)
        assert not mask[0, :12].any()
        assert mask[0, 12:].all()

    def test_state_projection_linearity(self):
        rng = np.random.default_rng(3)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        w = make_window(rng=np.random.default_rng(4))
        batch = ContextBatch.from_windows([w])
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
                - params.time_table.data[w.timesteps[t]]
            assert np.allclose(diff[0, 3 * t + 1], state_contrib)

    def test_timestep_out_of_range(self):
        rng = np.random.default_rng(5)
        params = DT3Params.init(rng, 3, 2, tiny_cfg(max_episode_len=4))
        w = make_window(t0=3)
        with pytest.raises(TimestepRangeError):
            embed_context(ContextBatch.from_windows([w]), params)


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
            w = make_window(k=k, pad=1, rng=rng)
            out = predict_coarse_actions_batch(ContextBatch.from_windows([w]),
                                               params)
            counts.append(_count_nodes(out))
        assert counts[0] == counts[1]

    def test_zero_action_head_gives_zero_actions(self):
        rng = np.random.default_rng(10)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        params.head.w.data[:] = 0.0
        params.head.b.data[:] = 0.0
        out = predict_coarse_actions(make_window(), params)
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_output_shape(self):
        rng = np.random.default_rng(11)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        out = predict_coarse_actions(make_window(pad=1), params)
        assert out.shape == (3, 2)

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    def test_padding_invariance(self, pad):
        # the same 3 real steps, preceded by 0..3 rows of zero padding
        rng = np.random.default_rng(12)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        base = make_window(k=3, rng=np.random.default_rng(13))
        w = ContextWindow(
            rtgs=np.concatenate([np.zeros(pad), base.rtgs]),
            states=np.concatenate([np.zeros((pad, 3)), base.states]),
            actions=np.concatenate([np.zeros((pad, 2)), base.actions]),
            timesteps=np.concatenate([np.zeros(pad, int), base.timesteps]),
            pad_mask=np.concatenate([np.zeros(pad, bool), np.ones(3, bool)]),
        ).validate()
        out_padded = predict_coarse_actions(w, params).data[pad:]
        out_ref = predict_coarse_actions(base, params).data
        assert np.allclose(out_padded, out_ref, atol=1e-10)

    def test_causality_future_tokens(self):
        rng = np.random.default_rng(14)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        w1 = make_window(rng=np.random.default_rng(15))
        w2 = ContextWindow(
            rtgs=w1.rtgs.copy(), states=w1.states.copy(),
            actions=w1.actions.copy(), timesteps=w1.timesteps.copy(),
            pad_mask=w1.pad_mask.copy(),
        )
        w2.states[2] += 5.0
        w2.rtgs[2] -= 3.0
        out1 = predict_coarse_actions(w1, params).data
        out2 = predict_coarse_actions(w2, params).data
        assert np.array_equal(out1[:2], out2[:2])

    def test_fast_weight_isolation_and_determinism(self):
        rng = np.random.default_rng(16)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        a = make_window(rng=np.random.default_rng(17))
        b = make_window(rng=np.random.default_rng(18))
        out_b_first = predict_coarse_actions(b, params).data.copy()
        _ = predict_coarse_actions(a, params)
        out_b_second = predict_coarse_actions(b, params).data
        assert np.array_equal(out_b_first, out_b_second)

    def test_dt_mode_differs_from_full_block(self):
        rng = np.random.default_rng(19)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        w = make_window(rng=np.random.default_rng(20))
        full = predict_coarse_actions(w, params).data.copy()
        params.dt_mode = True
        dt = predict_coarse_actions(w, params).data
        assert not np.allclose(full, dt)

    def test_gradients_flow_through_inner_update(self):
        rng = np.random.default_rng(23)
        params = DT3Params.init(rng, 3, 2, tiny_cfg())
        w = make_window(rng=np.random.default_rng(24))
        ttt_params = [p for _, p in params.block.ttt.named("ttt")]
        ad.zero_grads(ttt_params)
        loss = ad.sum_all(ad.square(predict_coarse_actions(w, params)))
        ad.backward(loss)
        tk = dict(params.block.ttt.named("ttt"))["ttt.theta_k"]
        tv = dict(params.block.ttt.named("ttt"))["ttt.theta_v"]
        assert np.any(tk.grad != 0)
        assert np.any(tv.grad != 0)
