"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation that participates in training is a recorded primitive with a
hand-written adjoint. The engine holds only the primitives the model records,
and `drdt3 check` finite-difference checks each of them. All indexing goes
through one gather, `take_slice` (`DArray.__getitem__`). The graph is built
eagerly; `backward` walks it in reverse topological order, visiting each node
exactly once. Leaf gradients accumulate across backward calls until
`zero_grad`. Inside `with no_grad():` nothing is recorded, so inference
builds no graph.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class EvaluationError(RuntimeError):
    """Raised when a checked function produces non-finite values."""


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class DArray:
    """Dense row-major float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"DArray(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; constants are wrapped on the fly.
    def __add__(self, other):
        return add(self, _as_darray(other))

    def __radd__(self, other):
        return add(_as_darray(other), self)

    def __sub__(self, other):
        return sub(self, _as_darray(other))

    def __rsub__(self, other):
        return sub(_as_darray(other), self)

    def __mul__(self, other):
        return mul(self, _as_darray(other))

    def __rmul__(self, other):
        return mul(_as_darray(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take_slice(self, key)


def _as_darray(x):
    return x if isinstance(x, DArray) else DArray(x)


_recording = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: every primitive returns an untracked
    DArray, whatever its inputs. Recording resumes when the block exits, also
    on an exception."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


def _track(*inputs):
    return any(x.requires_grad or x._parents for x in inputs)


def _node(data, inputs, backward):
    if _recording and _track(*inputs):
        return DArray(data, _parents=tuple(inputs), _backward=backward)
    return DArray(data)


# ---------------------------------------------------------------------------
# Recorded primitives
# ---------------------------------------------------------------------------

def add(a, b):
    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, _unbroadcast(g, b.shape))
    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b):
    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, -_unbroadcast(g, b.shape))
    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b):
    def bwd(g, acc):
        acc(a, _unbroadcast(g * b.data, a.shape))
        acc(b, _unbroadcast(g * a.data, b.shape))
    return _node(a.data * b.data, (a, b), bwd)


def scale(a, s):
    s = float(s)

    def bwd(g, acc):
        acc(a, g * s)
    return _node(a.data * s, (a,), bwd)


def matmul(a, b):
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    out = np.matmul(a.data, b.data)

    def bwd(g, acc):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        acc(a, _unbroadcast(ga, a.shape))
        acc(b, _unbroadcast(gb, b.shape))
    return _node(out, (a, b), bwd)


def transpose(a, axes=None):
    if axes is None:
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    inv = np.argsort(axes)

    def bwd(g, acc):
        acc(a, np.transpose(g, inv))
    return _node(np.transpose(a.data, axes), (a,), bwd)


def reshape(a, shape):
    old = a.data.shape

    def bwd(g, acc):
        acc(a, g.reshape(old))
    return _node(a.data.reshape(shape), (a,), bwd)


def concat(arrays, axis=-1):
    sizes = [x.data.shape[axis] for x in arrays]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g, acc):
        for x, piece in zip(arrays, np.split(g, offsets, axis=axis)):
            acc(x, piece)
    return _node(
        np.concatenate([x.data for x in arrays], axis=axis), tuple(arrays), bwd
    )


def take_slice(a, key):
    """`a[key]` for any numpy key: ints, slices, or integer index arrays.

    This one gather serves slicing, row lookups in an embedding table and
    reads at fixed positions. The adjoint scatters into a zero buffer with
    `np.add.at`, so an index that occurs more than once accumulates its
    gradient.
    """
    def bwd(g, acc):
        buf = np.zeros_like(a.data)
        np.add.at(buf, key, g)
        acc(a, buf)
    return _node(a.data[key], (a,), bwd)


def sum_all(a):
    def bwd(g, acc):
        acc(a, np.broadcast_to(g, a.shape).copy())
    return _node(a.data.sum(), (a,), bwd)


def absval(a):
    """|x| with the subgradient at 0 defined as 0."""
    def bwd(g, acc):
        acc(a, g * np.sign(a.data))
    return _node(np.abs(a.data), (a,), bwd)


def square(a):
    def bwd(g, acc):
        acc(a, g * 2.0 * a.data)
    return _node(a.data * a.data, (a,), bwd)


def gelu(a):
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    phi_cdf = 0.5 * (1.0 + erf(a.data / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)

    def bwd(g, acc):
        acc(a, g * (phi_cdf + a.data * pdf))
    return _node(a.data * phi_cdf, (a,), bwd)


def masked_softmax(a, mask):
    """Softmax over the last dim with masked entries exactly zero.

    `mask` is a boolean array broadcastable to `a`; False entries get zero
    probability (true -inf logits, so masked keys can never leak through).
    Every row must have at least one True entry.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    logits = np.where(mask, a.data, -np.inf)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(shifted), 0.0)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g, acc):
        acc(a, s * (g - (g * s).sum(axis=-1, keepdims=True)))
    return _node(s, (a,), bwd)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last dimension, then apply the affine (gain, bias)."""
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty last dimension")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match "
            f"feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bwd(g, acc):
        lead = tuple(range(g.ndim - 1))
        acc(gain, (g * xhat).sum(axis=lead))
        acc(bias, g.sum(axis=lead))
        gx = g * gain.data
        acc(x, inv * (gx - gx.mean(axis=-1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
    return _node(out, (x, gain, bias), bwd)


def _unit_lower_solve(a, r):
    """Solve (I + a) e = r per batch row; `a` is strictly lower triangular.

    Forward substitution, so row t of `e` depends only on rows <= t.
    """
    e = r.copy()
    for t in range(1, r.shape[1]):
        e[:, t] -= np.matmul(a[:, t:t + 1, :t], e[:, :t])[:, 0]
    return e


def _unit_upper_solve(a, g):
    """Solve (I + a)^T y = g per batch row; `a` is strictly lower triangular."""
    y = g.copy()
    for t in range(g.shape[1] - 2, -1, -1):
        y[:, t] -= np.matmul(a[:, None, t + 1:, t], y[:, t + 1:])[:, 0]
    return y


def ttt_linear(x, w0, theta_q, theta_k, theta_v, c):
    """Delta-rule fast-weight pass over a (B, s, d) sequence.

    Per token t, with q_t, k_t, v_t = theta_{q,k,v} x_t and step c_t (B, s):
        W_t = W_{t-1} - c_t (W_{t-1} k_t - v_t) k_t^T,   W_{-1} = w0,
        z_t = W_t q_t.
    This is computed in the parallel (UT) form, without any d x d fast
    weight: the errors e_t = W_{t-1} k_t - v_t solve (I + A) E = K w0^T - V
    with A_tj = c_j k_t.k_j (j < t), and Z = Q w0^T - M E with
    M_tj = c_j q_t.k_j (j <= t). Row t of the output depends only on
    tokens <= t, bitwise.
    """
    xd, w = x.data, w0.data
    b, s, d = xd.shape
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (b, s))[:, None, :]
    # q_t = theta_q x_t per token, so that with c = 0 the output is exactly
    # w0 (theta_q x_t); k and v come from one GEMM.
    q = np.matmul(theta_q.data, xd[..., None])[..., 0]
    k, v = np.split(xd @ np.concatenate([theta_k.data, theta_v.data]).T, 2,
                    axis=-1)
    kt = np.swapaxes(k, 1, 2)
    a = np.tril(np.matmul(k, kt) * c, -1)
    m = np.tril(np.matmul(q, kt) * c)
    e = _unit_lower_solve(a, np.matmul(k, w.T) - v)
    out = np.matmul(w, q[..., None])[..., 0] - np.matmul(m, e)

    def bwd(g, acc):
        # gm = -c dL/dM, gr = -dL/dR and ga = c dL/dA: the signs and the
        # steps c are folded in where they cost nothing.
        et = np.swapaxes(e, 1, 2)
        gm = np.tril(np.matmul(g, et)) * c
        gr = _unit_upper_solve(a, np.matmul(np.swapaxes(m, 1, 2), g))
        ga = np.tril(np.matmul(gr, et), -1) * c
        gq = np.matmul(g, w) - np.matmul(gm, k)
        gk = (np.matmul(ga + np.swapaxes(ga, 1, 2), k) - np.matmul(gr, w)
              - np.matmul(np.swapaxes(gm, 1, 2), q))
        g2, q2, k2, x2, gq2, gk2, gr2 = (
            t.reshape(-1, d) for t in (g, q, k, xd, gq, gk, gr))
        acc(w0, g2.T @ q2 - gr2.T @ k2)
        acc(theta_q, gq2.T @ x2)
        acc(theta_k, gk2.T @ x2)
        acc(theta_v, gr2.T @ x2)
        acc(x, (gq2 @ theta_q.data + gk2 @ theta_k.data
                + gr2 @ theta_v.data).reshape(b, s, d))
    return _node(out, (x, w0, theta_q, theta_k, theta_v), bwd)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Gradients accumulate across calls; running the same graph twice doubles
    every leaf gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

    # Iterative topological sort (graphs can be deeper than the recursion limit).
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}

    def acc(node, g):
        key = id(node)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = np.array(g, dtype=np.float64, copy=True)

    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            node._backward(g, acc)
        elif node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g


def zero_grads(params):
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def check_gradients(f, params, step=1e-5):
    """Worst relative error between analytic and central-difference gradients.

    `f()` must rebuild its graph from `params` on every call and return a
    scalar DArray. Only the first call records a graph, for `backward`; the
    perturbed calls run under `no_grad`. Relative error per coordinate uses
    max(|a|, |n|, 1) as the denominator so near-zero gradients compare
    absolutely.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    zero_grads(params)
    loss = f()
    if not np.isfinite(loss.data):
        raise EvaluationError("objective is non-finite at the given parameters")
    backward(loss)
    analytic = [np.array(p.grad, copy=True) for p in params]

    worst = 0.0
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = float(f().data)
                flat[j] = orig - step
                dn = float(f().data)
                flat[j] = orig
                if not (np.isfinite(up) and np.isfinite(dn)):
                    raise EvaluationError(
                        "objective non-finite during perturbation")
                numeric = (up - dn) / (2.0 * step)
                an = a.reshape(-1)[j]
                err = abs(an - numeric) / max(abs(an), abs(numeric), 1.0)
                worst = max(worst, err)
    return worst
