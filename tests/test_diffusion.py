import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdt3 import autodiff as ad
from drdt3.autodiff import DArray
from drdt3.diffusion import (VARIANTS, NoiseApproximatorParams, condition,
                             denoise_step, diffusion_loss, forward_noise,
                             predict_noise, sample_action,
                             sinusoidal_embedding, vp_schedule)


def zeroed_params(d_a=2, variant="full", seed=0):
    p = NoiseApproximatorParams(d_a, 8, 4, 2, variant, np.random.default_rng(seed))
    for _, arr in p.named():
        arr.data[:] = 0.0
    return p


def random_params(d_a, variant, seed):
    """A noise model whose every parameter is random, the zero-initialized
    adaLN head included, so that every path carries signal."""
    rng = np.random.default_rng(seed)
    p = NoiseApproximatorParams(d_a, 8, 4, 2, variant, rng)
    for _, arr in p.named():
        arr.data[...] = rng.normal(0.0, 0.5, arr.shape)
    return p


def per_step_sample(cond_action, params, sched, rng):
    """Oracle sampler: the reverse chain with the conditioning recomputed at
    every step, for that step alone."""
    cond = np.atleast_2d(cond_action)
    a = rng.standard_normal(cond.shape)
    for i in range(sched.n_steps, 0, -1):
        noise = rng.standard_normal(cond.shape) if i > 1 else np.zeros_like(a)
        with ad.no_grad():
            rows = condition(cond, np.full(cond.shape[0], i), params)
        a, _ = denoise_step(a, rows, i, params, sched, noise)
    return a if np.ndim(cond_action) == 2 else a[0]


def inline_predict_noise(a_i, cond, i, params):
    """Oracle epsilon model: the conditioning computed inline, in one
    function, as before `condition` was split out."""
    temb = DArray(sinusoidal_embedding(i, params.d_c))
    c = params.cond_proj(ad.concat([temb, cond], axis=-1))
    c = ad.gelu(c)
    if params._uses_adaln():
        h = params.in_proj(a_i)
        mod = params.adaln(c)
        gamma = mod[:, :params.d_h]
        shift = mod[:, params.d_h:2 * params.d_h]
        gate = mod[:, 2 * params.d_h:]
        normed = ad.layer_norm(h, params.ln_g, params.ln_b)
        stream = normed + ad.mul(normed, gamma) + shift
    else:
        h = params.in_proj(ad.concat([a_i, c], axis=-1))
        stream = ad.layer_norm(h, params.ln_g, params.ln_b)
        gate = None
    if params._gated():
        mlp = params.down(
            ad.mul(ad.gelu(params.branch_a(stream)), params.branch_b(stream))
        )
    else:
        mlp = params.down(ad.gelu(params.branch_a(stream)))
    h = h + ad.mul(gate, mlp) if gate is not None else h + mlp
    return params.out(h)


class TestVPSchedule:
    def test_constant_when_endpoints_equal(self):
        s = vp_schedule(5, 0.7, 0.7)
        expect = 1.0 - np.exp(-0.7 / 5)
        assert np.allclose(s.beta, expect)

    def test_closed_form_first_step(self):
        s = vp_schedule(5, 0.1, 10.0)
        # beta_1 = 1 - exp(-0.1/5 - 0.5*9.9*1/25)
        assert abs(s.beta[0] - (1 - np.exp(-0.02 - 0.198))) < 1e-15

    @given(st.integers(1, 30), st.floats(0.01, 5.0), st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_alpha_bar_strictly_decreasing(self, n, bmin, extra):
        s = vp_schedule(n, bmin, bmin + extra)
        assert np.all(s.beta > 0) and np.all(s.beta < 1)
        assert np.allclose(s.alpha, 1 - s.beta)
        assert np.allclose(s.alpha_bar, np.cumprod(s.alpha))
        if n > 1:
            assert np.all(np.diff(s.alpha_bar) < 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            vp_schedule(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            vp_schedule(3, 1.0, 0.5)
        with pytest.raises(ValueError):
            vp_schedule(3, 0.0, 0.5)


class TestForwardNoise:
    def test_zero_noise(self):
        s = vp_schedule(5)
        a0 = np.array([1.0, -2.0])
        out = forward_noise(a0, 3, np.zeros(2), s)
        assert np.allclose(out, np.sqrt(s.alpha_bar[2]) * a0)

    def test_alpha_bar_near_one_limit(self):
        s = vp_schedule(200, 1e-6, 1e-6)
        a0 = np.array([0.5])
        out = forward_noise(a0, 1, np.zeros(1), s)
        assert abs(out[0] - 0.5) < 1e-6

    def test_scalar_arithmetic_oracle(self):
        s = vp_schedule(1, 0.1, 0.1)
        s.alpha_bar[0] = 0.25  # direct scalar case
        out = forward_noise(np.array([1.0]), 1, np.array([2.0]), s)
        assert abs(out[0] - (0.5 + np.sqrt(0.75) * 2)) < 1e-12

    @pytest.mark.parametrize("b, d_a", [(2, 2), (3, 3), (3, 2), (4, 1),
                                        (1, 3)])
    def test_array_of_steps_equals_per_row_calls(self, b, d_a):
        """Row j is noised at its own step i[j], also when B == d_a."""
        s = vp_schedule(5)
        rng = np.random.default_rng(10 * b + d_a)
        a0, eps = rng.standard_normal((2, b, d_a))
        i = rng.integers(1, 6, size=b)
        want = np.stack([forward_noise(a0[j], int(i[j]), eps[j], s)
                         for j in range(b)])
        assert forward_noise(a0, i, eps, s).tobytes() == want.tobytes()

    def test_zero_noise_rows_scale_by_their_own_step(self):
        s = vp_schedule(5)
        out = forward_noise(np.ones((2, 2)), np.array([1, 5]),
                            np.zeros((2, 2)), s)
        assert np.array_equal(out, np.sqrt(s.alpha_bar[[0, 4]])[:, None]
                              * np.ones((2, 2)))

    def test_out_of_range(self):
        s = vp_schedule(5)
        with pytest.raises(IndexError):
            forward_noise(np.zeros(1), 6, np.zeros(1), s)
        with pytest.raises(IndexError):
            forward_noise(np.zeros(1), 0, np.zeros(1), s)

    @pytest.mark.parametrize("i", [6, 0, np.int64(6), np.int64(0),
                                   np.array(6), np.array([1, 6]),
                                   np.array([0, 5])])
    def test_out_of_range_for_every_step_type(self, i):
        s = vp_schedule(5)
        with pytest.raises(IndexError):
            forward_noise(np.zeros(1), i, np.zeros(1), s)
        if np.ndim(i) == 0:
            p = zeroed_params()
            with pytest.raises(IndexError):
                denoise_step(np.zeros((1, 2)), condition(np.zeros(2), 1, p),
                             i, p, s, np.zeros(2))


class TestPredictNoise:
    def test_zero_gate_suppresses_mlp_branch(self):
        rng = np.random.default_rng(1)
        p = NoiseApproximatorParams(2, 8, 4, 2, "full", rng)
        # adaLN head is zero-initialized, so gate == 0 out of the box
        a = rng.uniform(-1, 1, (3, 2))
        cond = rng.uniform(-1, 1, (3, 2))
        out = predict_noise(a, condition(cond, np.array([1, 2, 3]), p),
                            p).data
        h = a @ p.in_proj.w.data + p.in_proj.b.data
        expect = h @ p.out.w.data + p.out.b.data
        assert np.allclose(out, expect, atol=1e-12)

    @pytest.mark.parametrize("variant",
                             ["full", "no_adaln", "no_gated_mlp", "plain"])
    def test_output_shape_all_variants(self, variant):
        rng = np.random.default_rng(2)
        p = NoiseApproximatorParams(3, 8, 4, 2, variant, rng)
        a = rng.uniform(-1, 1, (4, 3))
        out = predict_noise(a, condition(rng.uniform(-1, 1, (4, 3)),
                                         np.array([1, 2, 3, 1]), p), p)
        assert out.shape == (4, 3)

    def test_golden_vector_bitwise_reproducible(self):
        rng = np.random.default_rng(3)
        p = NoiseApproximatorParams(2, 8, 4, 2, "full", rng)
        # give the adaLN head nonzero weights so every path is exercised
        p.adaln.w.data = np.random.default_rng(4).normal(0, 0.1,
                                                         p.adaln.w.shape)
        a = np.array([[0.3, -0.7]])
        cond = np.array([[0.1, 0.2]])
        out1 = predict_noise(a, condition(cond, np.array([2]), p), p).data
        out2 = predict_noise(a, condition(cond, np.array([2]), p), p).data
        assert np.array_equal(out1, out2)

    def test_variants_differ(self):
        rng = np.random.default_rng(5)
        outs = []
        for variant in ("full", "no_adaln", "no_gated_mlp", "plain"):
            p = NoiseApproximatorParams(2, 8, 4, 2, variant,
                                        np.random.default_rng(6))
            for _, arr in p.named():
                if np.all(arr.data == 0) and arr.data.ndim == 2:
                    arr.data[:] = 0.05
            cond = condition(np.array([[0.1, 0.2]]), np.array([2]), p)
            outs.append(predict_noise(np.array([[0.3, -0.7]]), cond,
                                      p).data.copy())
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert not np.allclose(outs[i], outs[j])


class TestDenoiseStep:
    def test_n1_round_trip_recovers_a0(self):
        s = vp_schedule(1, 0.1, 10.0)
        rng = np.random.default_rng(7)
        a0 = rng.uniform(-1, 1, 3)
        eps = rng.standard_normal(3)
        a1 = forward_noise(a0, 1, eps, s)
        # oracle epsilon model that returns the true noise
        p = zeroed_params(d_a=3)
        p.out.b.data = eps  # epsilon_theta == eps for any input
        out, _ = denoise_step(a1, condition(np.zeros(3), 1, p), 1, p, s,
                              np.zeros(3))
        assert np.abs(out[0] - a0).max() < 1e-12

    def test_zero_model_full_chain_telescopes(self):
        s = vp_schedule(5, 0.1, 10.0)
        p = zeroed_params(d_a=2)
        a = np.array([[0.4, -1.2]])
        a_n = a.copy()
        for i in range(5, 0, -1):
            a, _ = denoise_step(a, condition(np.zeros(2), i, p), i, p, s,
                                np.zeros(2))
        assert np.abs(a - a_n / np.sqrt(s.alpha_bar[-1])).max() < 1e-10

    def test_zero_noise_is_deterministic(self):
        s = vp_schedule(3)
        p = zeroed_params()
        a = np.array([[1.0, 1.0]])
        o1, _ = denoise_step(a, condition(np.zeros(2), 2, p), 2, p, s,
                             np.zeros(2))
        o2, _ = denoise_step(a, condition(np.zeros(2), 2, p), 2, p, s,
                             np.zeros(2))
        assert np.array_equal(o1, o2)

    def test_nonzero_noise_at_step_one_rejected(self):
        s = vp_schedule(3)
        p = zeroed_params()
        with pytest.raises(ValueError, match="i=1"):
            denoise_step(np.zeros((1, 2)), condition(np.zeros(2), 1, p), 1,
                         p, s, np.ones(2))


class TestSampleAction:
    def test_n1_zero_model_closed_form(self):
        s = vp_schedule(1, 0.1, 10.0)
        p = zeroed_params(d_a=1)
        rng = np.random.default_rng(8)
        a_n = np.random.default_rng(8).standard_normal((1, 1))
        out = sample_action(np.zeros(1), p, s, rng, action_bound=5.0)
        assert abs(out[0] - np.clip(a_n[0, 0] / np.sqrt(s.alpha[0]),
                                    -5.0, 5.0)) < 1e-12

    def test_seed_determinism(self):
        s = vp_schedule(5)
        p = zeroed_params()
        o1 = sample_action(np.zeros(2), p, s, np.random.default_rng(9))
        o2 = sample_action(np.zeros(2), p, s, np.random.default_rng(9))
        assert np.array_equal(o1, o2)


    def test_condition_rows_give_one_action_each(self):
        s = vp_schedule(5, 0.1, 10.0)
        p = random_params(2, "full", seed=13)
        cond = np.random.default_rng(7).uniform(-1, 1, (3, 2))
        got = sample_action(cond, p, s, np.random.default_rng(4))
        want = per_step_sample(cond, p, s, np.random.default_rng(4))
        assert got.shape == want.shape == (3, 2)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) \
            <= 1e-12
        one = sample_action(cond[0], p, s, np.random.default_rng(4))
        assert one.shape == (2,)

    @pytest.mark.parametrize("d_a", [1, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_step_conditioning(self, variant, d_a):
        s = vp_schedule(5, 0.1, 10.0)
        p = random_params(d_a, variant, seed=13)
        worst = 0.0
        for seed in range(20):
            cond = np.random.default_rng(100 + seed).uniform(-1, 1, d_a)
            got = sample_action(cond, p, s, np.random.default_rng(seed))
            want = per_step_sample(cond, p, s, np.random.default_rng(seed))
            worst = max(worst, float(np.max(
                np.abs(got - want) / np.maximum(np.abs(want), 1.0))))
        assert worst <= 1e-12


class TestDiffusionLoss:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bitwise_equals_inline_conditioning(self, variant):
        s = vp_schedule(5)
        p = random_params(2, variant, seed=14)
        rng = np.random.default_rng(15)
        a0 = rng.uniform(-1, 1, (6, 2))
        eps = rng.standard_normal((6, 2))
        i = np.array([5, 1, 3, 2, 4, 1])  # a different step per row
        cond = DArray(rng.uniform(-1, 1, (6, 2)), requires_grad=True)
        leaves = p.parameters() + [cond]

        def inline():
            ab = s.alpha_bar[i - 1][:, None]
            a_i = DArray(np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * eps)
            sq = ad.square(inline_predict_noise(a_i, cond, i, p) - DArray(eps))
            return ad.scale(ad.sum_all(sq), 1.0 / 6)

        runs = []
        for f in (lambda: diffusion_loss(a0, cond, i, eps, p, s), inline):
            ad.zero_grads(leaves)
            loss = f()
            ad.backward(loss)
            runs.append((loss.data.copy(), [x.grad.copy() for x in leaves]))
        (loss, grads), (want_loss, want_grads) = runs
        assert np.array_equal(loss, want_loss)
        for g, want in zip(grads, want_grads):
            assert np.array_equal(g, want)

    def test_model_matching_constant_noise_gives_zero(self):
        s = vp_schedule(3)
        p = zeroed_params(d_a=2)
        c = np.array([0.3, -0.4])
        p.out.b.data = c.copy()   # epsilon_theta == c identically
        a0 = np.zeros((4, 2))
        eps = np.tile(c, (4, 1))
        loss = diffusion_loss(a0, np.zeros((4, 2)), np.array([1, 2, 3, 1]),
                              eps, p, s)
        assert abs(float(loss.data)) < 1e-24

    def test_zero_model_gives_mean_squared_norm(self):
        s = vp_schedule(3)
        p = zeroed_params(d_a=2)
        rng = np.random.default_rng(11)
        eps = rng.standard_normal((64, 2))
        loss = diffusion_loss(np.zeros((64, 2)), np.zeros((64, 2)),
                              rng.integers(1, 4, 64), eps, p, s)
        assert abs(float(loss.data) - (eps ** 2).sum(axis=1).mean()) < 1e-12

    def test_gradient_wrt_condition_nonzero(self):
        s = vp_schedule(3)
        rng = np.random.default_rng(12)
        p = NoiseApproximatorParams(2, 8, 4, 2, "full", rng)
        p.adaln.w.data = rng.normal(0, 0.1, p.adaln.w.shape)
        cond = DArray(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        a0 = rng.uniform(-1, 1, (4, 2))
        i = rng.integers(1, 4, 4)
        eps = rng.standard_normal((4, 2))
        err = ad.check_gradients(
            lambda: diffusion_loss(a0, cond, i, eps, p, s), [cond]
        )
        assert err < 1e-3
        assert np.any(cond.grad != 0)

    def test_batch_size_mismatch(self):
        s = vp_schedule(3)
        p = zeroed_params()
        with pytest.raises(ad.ShapeError):
            diffusion_loss(np.zeros((4, 2)), np.zeros((3, 2)),
                           np.array([1, 1, 1, 1]), np.zeros((4, 2)), p, s)


def test_sinusoidal_embedding_shape_and_determinism():
    e1 = sinusoidal_embedding(np.array([1, 2, 3]), 16)
    assert e1.shape == (3, 16)
    assert np.array_equal(e1, sinusoidal_embedding(np.array([1, 2, 3]), 16))
