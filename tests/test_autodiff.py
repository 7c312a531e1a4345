import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from drdt3 import autodiff as ad
from drdt3 import checks
from drdt3.autodiff import DArray


def rand(rng, *shape):
    return DArray(rng.uniform(-2, 2, size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        m = DArray([[1.0, 2.0], [3.0, 4.0]])
        eye = DArray(np.eye(2))
        assert np.array_equal(ad.matmul(eye, m).data, m.data)

    def test_hand_arithmetic(self):
        a = DArray([[1.0, 2.0], [3.0, 4.0]])
        b = DArray([[1.0], [1.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(DArray(np.zeros((2, 3))), DArray(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        err = ad.check_gradients(
            lambda: ad.sum_all(ad.square(ad.matmul(a, b))), [a, b]
        )
        assert err < 1e-4


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = DArray(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, DArray(np.ones(4)), DArray(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_two_point_symmetry(self):
        x = DArray([[1.0, 3.0]])
        out = ad.layer_norm(x, DArray(np.ones(2)), DArray(np.zeros(2)),
                            eps=1e-16)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_empty_last_dim_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.layer_norm(DArray(np.zeros((2, 0))), DArray(np.zeros(0)),
                          DArray(np.zeros(0)))

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x, g, b = rand(rng, 4, 8), rand(rng, 8), rand(rng, 8)
        err = ad.check_gradients(
            lambda: ad.sum_all(ad.square(ad.layer_norm(x, g, b))), [x, g, b]
        )
        assert err < 1e-4


def softmax(logits):
    """masked_softmax with every key visible."""
    x = DArray(logits)
    return ad.masked_softmax(x, np.ones(x.shape, dtype=bool))


class TestSoftmax:
    def test_single_element_row(self):
        out = softmax([[4.2]])
        assert out.data[0, 0] == 1.0

    def test_symmetry(self):
        out = softmax([[0.0, 0.0]])
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_large_logits_no_overflow(self):
        out = softmax([[1000.0, 0.0]])
        assert np.all(np.isfinite(out.data))
        # shifted-exponent oracle
        expect = np.array([1.0, np.exp(-1000.0)])
        expect /= expect.sum()
        assert np.allclose(out.data[0], expect)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = softmax([row])
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_masked_softmax_exact_zero(self):
        x = DArray([[1.0, 2.0, 3.0]])
        out = ad.masked_softmax(x, np.array([[True, False, True]]))
        assert out.data[0, 1] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-12


class TestGelu:
    def test_zero(self):
        assert ad.gelu(DArray([0.0])).data[0] == 0.0

    def test_large_positive_asymptote(self):
        x = 25.0
        assert abs(ad.gelu(DArray([x])).data[0] - x) < 1e-12

    def test_matches_error_function_oracle(self):
        got = ad.gelu(DArray([1.0])).data[0]
        assert abs(got - 1.0 * 0.5 * (1 + erf(1.0 / np.sqrt(2)))) < 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = rand(rng, 3, 3)
        assert ad.check_gradients(lambda: ad.sum_all(ad.gelu(x)), [x]) < 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        x = DArray(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.zero_grad()
        ad.backward(ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gives_2x(self):
        x = DArray(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.zero_grad()
        ad.backward(ad.sum_all(ad.square(x)))
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = DArray(np.ones(3), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(x + x)

    def test_repeated_backward_doubles_grads(self):
        x = DArray([1.0, -2.0, 3.0], requires_grad=True)
        x.zero_grad()
        loss = ad.sum_all(ad.square(x))
        ad.backward(loss)
        once = x.grad.copy()
        ad.backward(loss)
        assert np.array_equal(x.grad, 2.0 * once)

    def test_grad_zero_after_reset(self):
        x = DArray([1.0], requires_grad=True)
        x.zero_grad()
        ad.backward(ad.sum_all(ad.square(x)))
        x.zero_grad()
        assert np.array_equal(x.grad, [0.0])


class TestCheckGradients:
    def test_quadratic_near_exact(self):
        rng = np.random.default_rng(3)
        x = rand(rng, 4)
        assert ad.check_gradients(
            lambda: ad.sum_all(ad.square(x)), [x]
        ) < 1e-8

    def test_dead_branch_zero_grad(self):
        x = DArray([1.0, 2.0], requires_grad=True)
        gate = DArray([0.0, 0.0])

        def f():
            return ad.sum_all(ad.mul(ad.square(x), gate))

        assert ad.check_gradients(f, [x]) < 1e-10

    def test_nonfinite_objective_raises(self):
        x = DArray([np.inf], requires_grad=True)
        with pytest.raises(ad.EvaluationError):
            ad.check_gradients(lambda: ad.sum_all(x + x), [x])

    def test_positive_step_required(self):
        x = DArray([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.check_gradients(lambda: ad.sum_all(x), [x], step=0.0)


class TestNoGrad:
    def test_block_records_nothing_then_recording_resumes(self):
        x = DArray([1.0, 2.0], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            inside = ad.sum_all(ad.square(x))  # still off after the inner block
        after = ad.sum_all(ad.square(x))
        assert not inside._parents and inside._backward is None
        assert np.array_equal(inside.data, after.data)
        x.zero_grad()
        ad.backward(after)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_recording_resumes_after_an_exception(self):
        x = DArray([1.0], requires_grad=True)
        with pytest.raises(ad.ShapeError):
            with ad.no_grad():
                ad.matmul(x, DArray(np.zeros((2, 2))))
        assert ad.square(x)._parents

    def test_check_gradients_records_only_the_first_call(self):
        x = DArray([1.0, 2.0], requires_grad=True)
        recorded = []

        def f():
            out = ad.sum_all(ad.square(x))
            recorded.append(bool(out._parents))
            return out

        assert ad.check_gradients(f, [x]) < 1e-8
        assert recorded == [True, False, False, False, False]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_primitive_gradients_randomized(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 4)
    y = rand(rng, 2, 4)

    def f():
        z = ad.concat([ad.mul(x, y), x - y], axis=-1)
        z = ad.gelu(z)
        return ad.sum_all(ad.square(z)) + ad.sum_all(ad.absval(x) + 0.1)

    assert ad.check_gradients(f, [x, y], step=1e-5) < 1e-4


def test_embedding_duplicate_indices_accumulate():
    table = DArray(np.eye(3), requires_grad=True)
    table.zero_grad()
    out = table[np.array([1, 1])]
    ad.backward(ad.sum_all(out))
    assert table.grad[1].sum() == 2 * 3


def _recorded_primitives():
    """Public functions of `autodiff` that return `_node(...)`."""
    tree = ast.parse(inspect.getsource(ad))
    return {
        fn.name for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and any(isinstance(r, ast.Return) and isinstance(r.value, ast.Call)
                and getattr(r.value.func, "id", None) == "_node"
                for r in ast.walk(fn))
    }


def test_check_covers_exactly_the_recorded_primitives():
    recorded = _recorded_primitives()
    checked = {name.removeprefix("primitive.")
               for name, _, _ in checks.check_primitives(trials=1)}
    assert checked == recorded
