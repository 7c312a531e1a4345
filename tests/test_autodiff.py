import ast
import inspect
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

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


class TestAffine:
    def test_identity(self):
        m = DArray([[1.0, 2.0], [3.0, 4.0]])
        out = ad.affine(m, DArray(np.eye(2)), DArray(np.zeros(2)))
        assert np.array_equal(out.data, m.data)

    def test_hand_arithmetic(self):
        a = DArray([[1.0, 2.0], [3.0, 4.0]])
        w = DArray([[1.0], [1.0]])
        out = ad.affine(a, w, DArray([0.5]))
        assert np.array_equal(out.data, [[3.5], [7.5]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.affine(DArray(np.zeros((2, 3))), DArray(np.zeros((2, 3))),
                      DArray(np.zeros(3)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        for lead in ((3,), (2, 3)):
            x, w, b = rand(rng, *lead, 4), rand(rng, 4, 2), rand(rng, 2)
            err = ad.check_gradients(
                lambda: ad.sum_all(ad.square(ad.affine(x, w, b))), [x, w, b]
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


def softmax(logits, mask=None):
    """Attention weights of `causal_attention` over one row of logits.

    The tokens are one-hot (d = s) and W_k, W_v and W_o are identities, so
    the last query's output is its row of weights, and every row of W_q is
    the logits row times sqrt(d), undoing the 1/sqrt(d) scale.
    """
    row = np.asarray(logits, dtype=np.float64).reshape(-1)
    s = row.size
    mask = np.ones((1, s), bool) if mask is None else np.asarray(mask)
    wq = np.tile(row * np.sqrt(s), (s, 1))
    w_qkv = DArray(np.concatenate([wq, np.eye(s), np.eye(s)], axis=1))
    out = ad.causal_attention(DArray(np.eye(s)[None]), w_qkv,
                              DArray(np.zeros(3 * s)), DArray(np.eye(s)),
                              DArray(np.zeros(s)), mask, 1)
    return out.data[0, -1]


class TestSoftmax:
    def test_single_element_row(self):
        assert softmax([4.2])[0] == 1.0

    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_large_logits_no_overflow(self):
        out = softmax([0.0, 1000.0])
        assert np.all(np.isfinite(out))
        # shifted-exponent oracle
        expect = np.array([np.exp(-1000.0), 1.0])
        expect /= expect.sum()
        assert np.allclose(out, expect)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        assert abs(softmax(row).sum() - 1.0) < 1e-12

    def test_masked_softmax_exact_zero(self):
        out = softmax([1.0, 2.0, 3.0], mask=[[True, False, True]])
        assert out[1] == 0.0
        assert abs(out.sum() - 1.0) < 1e-12

    def test_future_keys_exact_zero(self):
        s = 4
        out = ad.causal_attention(DArray(np.eye(s)[None]),
                                  DArray(np.tile(np.eye(s), 3)),
                                  DArray(np.zeros(3 * s)), DArray(np.eye(s)),
                                  DArray(np.zeros(s)),
                                  np.ones((1, s), bool), 1).data[0]
        assert np.all(out[np.triu_indices(s, 1)] == 0.0)


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

    def test_second_backward_raises(self):
        x = DArray([1.0, -2.0, 3.0], requires_grad=True)
        x.zero_grad()
        loss = ad.sum_all(ad.square(x))
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            ad.backward(loss)
        assert np.array_equal(x.grad, 2.0 * x.data)
        assert loss.data == 14.0                # the nodes keep their data

    def test_graph_built_on_a_used_up_node_raises(self):
        x = DArray([1.0, -2.0], requires_grad=True)
        x.zero_grad()
        sq = ad.square(x)
        ad.backward(ad.sum_all(sq))
        with pytest.raises(RuntimeError, match="already ran"):
            ad.backward(ad.sum_all(ad.scale(sq, 3.0)))
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_saved_arrays_freed_when_backward_returns(self):
        rng = np.random.default_rng(4)
        b, s, d = 2, 5, 8
        params = [rand(rng, *shape)
                  for shape in [(d, 3 * d), (3 * d,), (d, d), (d,)]]
        out = ad.causal_attention(rand(rng, b, s, d), *params,
                                  np.ones((b, s), dtype=bool), 2)
        loss = ad.sum_all(ad.square(out))
        adjoint = out._backward
        saved = dict(zip(adjoint.__code__.co_freevars,
                         (cell.cell_contents for cell in adjoint.__closure__)))
        refs = [weakref.ref(saved[name]) for name in ("p", "o", "q")]
        del adjoint, saved
        ad.backward(loss)
        assert all(r() is None for r in refs)
        assert out.data.shape == (b, s, d) and np.isfinite(loss.data)

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
                ad.affine(x, DArray(np.zeros((2, 2))), DArray(np.zeros(2)))
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
    """Two steps at timestep 1, one modality with zero projections: each of
    the two tokens sends its gradient of ones to table row 1."""
    table = DArray(np.eye(3), requires_grad=True)
    table.zero_grad()
    w, b = DArray(np.zeros((1, 3)), requires_grad=True), DArray(np.zeros(3))
    out = ad.embed_tokens((np.ones((1, 2, 1)),), [w], [b], table,
                          np.array([[1, 1]]))
    assert np.array_equal(out.data[0], np.eye(3)[[1, 1]])
    ad.backward(ad.sum_all(out))
    assert np.array_equal(table.grad, [[0, 0, 0], [2, 2, 2], [0, 0, 0]])


@pytest.mark.parametrize("key", [np.array([1, 1]), (slice(None), [0, 2]),
                                 np.array([True, False, True])])
def test_take_slice_rejects_index_arrays(key):
    with pytest.raises(ad.ShapeError, match="ints and slices"):
        DArray(np.eye(3), requires_grad=True)[key]


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


# ---------------------------------------------------------------------------
# The overlap rule: weight gradients on the worker thread
# ---------------------------------------------------------------------------

MULTI_CPU = (hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) > 1)
INLINE, DEFER_ALL = 1 << 62, 0      # `_DEFER_MIN_MACS` gates


class RecordingWorker:
    """An executor that keeps every Future it hands out."""

    def __init__(self, pool):
        self.pool, self.futures = pool, []

    def submit(self, fn):
        self.futures.append(self.pool.submit(fn))
        return self.futures[-1]


@pytest.fixture
def recording(monkeypatch):
    """Wraps the engine's worker, where it has one, in a RecordingWorker."""
    rec, real = RecordingWorker(None), ad._weight_worker

    def worker():
        rec.pool = real()
        return rec if rec.pool is not None else None
    monkeypatch.setattr(ad, "_weight_worker", worker)
    return rec


def _shared_weight_affines(rng):
    """Two affine maps that share w: two adjoints, one deferred product
    each, into one leaf. Returns the loss's builder and the leaves."""
    w, b = rand(rng, 8, 8), rand(rng, 8)
    x = DArray(rng.uniform(-2, 2, size=(4, 5, 8)))

    def loss():
        out = ad.affine(ad.gelu(ad.affine(x, w, b)), w, b)
        return ad.sum_all(ad.square(out))
    return loss, [w, b]


def _shared_weight_ttt(rng):
    """A TTT pass whose three projections are one leaf: three deferred
    products, into one leaf, within one adjoint."""
    w0, theta, x = rand(rng, 8, 8), rand(rng, 8, 8), rand(rng, 3, 5, 8)

    def loss():
        out = ad.ttt_linear(x, w0, theta, theta, theta, 0.1)
        return ad.sum_all(ad.square(out))
    return loss, [w0, theta, x]


@pytest.mark.parametrize("graph", [_shared_weight_affines, _shared_weight_ttt])
def test_deferred_products_accumulate_as_inline_ones(graph, monkeypatch,
                                                     recording):
    """Two backward calls into leaves whose `.grad` starts non-zero give
    the same bits whether each weight product is deferred or inline."""
    grads = {}
    for gate in (INLINE, DEFER_ALL):
        monkeypatch.setattr(ad, "_DEFER_MIN_MACS", gate)
        recording.futures.clear()
        rng = np.random.default_rng(11)
        loss, leaves = graph(rng)
        for p in leaves:
            p.grad = rng.normal(size=p.shape)
        ad.backward(loss())
        ad.backward(loss())
        grads[gate] = [p.grad.tobytes() for p in leaves]
        assert bool(recording.futures) == (gate == DEFER_ALL and MULTI_CPU)
    assert grads[INLINE] == grads[DEFER_ALL]


def _two_layer_loss(rng):
    w1, b1, w2, b2 = params = [rand(rng, 8, 8), rand(rng, 8),
                               rand(rng, 8, 8), rand(rng, 8)]
    ad.zero_grads(params)
    x = DArray(rng.uniform(-2, 2, size=(6, 8)))
    out = ad.affine(ad.gelu(ad.affine(x, w1, b1)), w2, b2)
    return ad.sum_all(ad.square(out)), params


@pytest.mark.parametrize("where", ["worker", "main thread"])
def test_failed_backward_leaves_no_work_running(where, monkeypatch):
    """An error in a deferred product, or in the adjoint that deferred one,
    comes out of `backward` once every deferred product has finished; a
    fresh forward and backward then succeed."""
    pool = ThreadPoolExecutor(max_workers=1)
    rec = RecordingWorker(pool)
    monkeypatch.setattr(ad, "_DEFER_MIN_MACS", DEFER_ALL)
    monkeypatch.setattr(ad, "_weight_worker", lambda: rec)
    loss, params = _two_layer_loss(np.random.default_rng(2))
    if where == "worker":
        def failing(macs, product):
            def product_then_fail():
                product()
                raise FloatingPointError("deferred product failed")
            return product_then_fail
        monkeypatch.setattr(ad, "_weight_grad", failing)
    else:
        def slow(macs, product):
            def slow_product():
                time.sleep(0.2)
                return product()
            return slow_product

        def failing_gemm(x, w):
            raise FloatingPointError("input gradient failed")
        monkeypatch.setattr(ad, "_weight_grad", slow)
        monkeypatch.setattr(ad, "_gemm", failing_gemm)   # after the forward
    with pytest.raises(FloatingPointError, match="failed"):
        ad.backward(loss)
    assert rec.futures and all(f.done() for f in rec.futures)
    pool.shutdown()

    monkeypatch.undo()
    expected = []
    for gate in (INLINE, DEFER_ALL):
        monkeypatch.setattr(ad, "_DEFER_MIN_MACS", gate)
        loss, params = _two_layer_loss(np.random.default_rng(2))
        ad.backward(loss)
        expected.append([p.grad.tobytes() for p in params])
    assert expected[0] == expected[1]


def test_one_cpu_defers_nothing(monkeypatch):
    monkeypatch.setattr(ad, "_DEFER_MIN_MACS", DEFER_ALL)
    monkeypatch.setattr(ad, "_worker", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    threads = threading.active_count()
    loss, params = _two_layer_loss(np.random.default_rng(3))
    ad.backward(loss)
    assert ad._worker is None and threading.active_count() == threads
    assert all(np.isfinite(p.grad).all() for p in params)
