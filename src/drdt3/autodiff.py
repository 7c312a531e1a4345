"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation that participates in training is a recorded primitive with a
hand-written adjoint. The engine holds only the primitives the model records,
and `drdt3 check` finite-difference checks each of them. Slicing goes
through `take_slice` (`DArray.__getitem__`), which takes ints and slices
only; the one table lookup, of the timestep embeddings, is part of
`embed_tokens`. The graph is built eagerly; `backward` walks it in reverse
topological order, visiting each node exactly once. Leaf gradients
accumulate across backward calls until `zero_grad`, which zeroes an existing
gradient in place. Inside `with no_grad():` nothing is recorded, so
inference builds no graph.

The fold rule: every product of an (..., m) activation with a shared 2-D
weight, forward or adjoint, is one 2-D GEMM over all leading rows,
`x.reshape(-1, m) @ w` (`_gemm`), not the one small GEMM per leading index
that a broadcast `np.matmul` issues. Products whose both operands vary per
sequence (attention scores, the TTT recurrence) and the per-token query
matvec of `ttt_linear` stay batched.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class EvaluationError(RuntimeError):
    """Raised when a checked function produces non-finite values."""


def _gemm(x, w):
    """x @ w for an (..., m) array x and a 2-D (m, n) w as one 2-D GEMM over
    all leading rows, not the one small GEMM per leading index that a
    broadcast `np.matmul` issues. A non-contiguous x is copied once."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1]
                                                    + w.shape[1:])


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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

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

    def __getitem__(self, key):
        return take_slice(self, key)


def _as_darray(x):
    return x if isinstance(x, DArray) else DArray(x)


class Params:
    """Parameters named by one walk over the attributes, in assignment
    order: a DArray with `requires_grad` is a parameter, a `Params` is a
    sub-module named `name.`, and anything else is skipped. The order is
    the layout of a bundle's vectors and file: keep assignments in place."""

    def named(self, prefix=""):
        head = prefix + "." if prefix else ""
        out = []
        for name, value in vars(self).items():
            if isinstance(value, Params):
                out += value.named(head + name)
            elif isinstance(value, DArray) and value.requires_grad:
                out.append((head + name, value))
        return out

    def parameters(self):
        return [p for _, p in self.named()]


def flatten(params):
    """Copy `params`, in order, into one data vector and give them one zero
    gradient vector; rebind each `.data` and `.grad` to its reshaped view
    of them. Returns (data, grad)."""
    sizes = [p.data.size for p in params]
    data, grad = np.empty(sum(sizes)), np.zeros(sum(sizes))
    lo = 0
    for p, n in zip(params, sizes):
        shape = p.data.shape
        data[lo:lo + n] = p.data.reshape(-1)
        p.data = data[lo:lo + n].reshape(shape)
        p.grad = grad[lo:lo + n].reshape(shape)
        lo += n
    return data, grad


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


def affine(x, w, b):
    """x @ w + b over the last dim of x, any number of leading dims.

    The output, the input gradient and the weight gradient are each one
    GEMM over all leading rows.
    """
    if x.data.shape[-1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise ShapeError(
            f"affine shapes disagree: x {x.data.shape}, w {w.data.shape}, "
            f"b {b.data.shape}"
        )
    out = _gemm(x.data, w.data)
    out += b.data

    def bwd(g, acc):
        g2 = g.reshape(-1, g.shape[-1])
        acc(x, _gemm(g, w.data.T))
        acc(w, x.data.reshape(-1, w.data.shape[0]).T @ g2)
        acc(b, g2.sum(axis=0))
    return _node(out, (x, w, b), bwd)


def embed_tokens(xs, ws, bs, table, timesteps):
    """Interleaved token embeddings of M modalities, a (B, M K, d) output:
    token M k + m of row b is xs[m][b, k] @ ws[m] + bs[m] + table[t], with
    t = timesteps[b, k].

    The inputs `xs` (M plain (B, K, d_m) arrays) and the integer
    `timesteps` (B, K) are batch constants, never recorded. The adjoint
    gives each projection its `affine` gradient, and the table the M token
    gradients summed in modality order, scattered into its rows with
    `np.bincount` over t d + column. bincount adds in index order from 0.0,
    as `np.add.at` into zeros does, so a repeated timestep accumulates.
    """
    tab = table.data
    n, d = tab.shape
    b, k = timesteps.shape
    for x, w, bias in zip(xs, ws, bs):
        if x.shape != (b, k, w.data.shape[0]) or w.data.shape[1] != d \
                or bias.data.shape != (d,):
            raise ShapeError(
                f"embed_tokens shapes disagree: x {x.shape}, w {w.shape}, "
                f"b {bias.shape}, table {tab.shape}, timesteps {(b, k)}")
    m_tok = len(xs)
    temb = tab[timesteps]
    out = np.empty((b, k, m_tok, d))
    for m, (x, w, bias) in enumerate(zip(xs, ws, bs)):
        proj = _gemm(x, w.data)
        proj += bias.data
        np.add(proj, temb, out=out[:, :, m])

    def bwd(g, acc):
        g = g.reshape(b, k, m_tok, d)
        for m, (x, w, bias) in enumerate(zip(xs, ws, bs)):
            g2 = g[:, :, m].reshape(-1, d)
            acc(w, x.reshape(-1, w.data.shape[0]).T @ g2)
            acc(bias, g2.sum(axis=0))
        gt = g[:, :, 0]
        for m in range(1, m_tok):
            gt = gt + g[:, :, m]
        cols = (timesteps[..., None] * d + np.arange(d)).reshape(-1)
        acc(table, np.bincount(cols, weights=gt.reshape(-1),
                               minlength=n * d).reshape(n, d))
    return _node(out.reshape(b, k * m_tok, d),
                 tuple(ws) + tuple(bs) + (table,), bwd)


def reshape(a, shape):
    old = a.data.shape

    def bwd(g, acc):
        acc(a, g.reshape(old))
    return _node(a.data.reshape(shape), (a,), bwd)


def concat(arrays, axis=-1):
    def bwd(g, acc):
        offsets = np.cumsum([x.data.shape[axis] for x in arrays])[:-1]
        for x, piece in zip(arrays, np.split(g, offsets, axis=axis)):
            acc(x, piece)
    return _node(
        np.concatenate([x.data for x in arrays], axis=axis), tuple(arrays), bwd
    )


def _is_basic_key(key):
    """True for a key of ints and slices, which selects each element at
    most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, (int, np.integer, slice))
               and not isinstance(k, bool) for k in parts)


def take_slice(a, key):
    """`a[key]` for a basic key of ints and slices, which selects each
    element at most once, so the adjoint assigns `g` into a zero buffer.
    An index array raises `ShapeError`."""
    if not _is_basic_key(key):
        raise ShapeError(f"take_slice takes ints and slices only, got {key!r}")

    def bwd(g, acc):
        buf = np.zeros_like(a.data)
        buf[key] = g
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

    def bwd(g, acc):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        acc(a, g * (phi_cdf + a.data * pdf))
    return _node(a.data * phi_cdf, (a,), bwd)


def layer_norm(x, gain, bias, eps=1e-5, residual=None):
    """Normalize over the last dimension, then apply the affine (gain, bias).

    With a `residual` of x's shape this is layer_norm(x + residual) as one
    node: the sum is a temporary, not kept for the adjoint, and both
    operands get its gradient.
    """
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty last dimension")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match "
            f"feature dim {d}"
        )
    if residual is not None and residual.data.shape != x.data.shape:
        raise ShapeError(f"layer_norm residual {residual.shape} does not "
                         f"match input {x.shape}")
    y = x.data if residual is None else x.data + residual.data
    # np.add.reduce(..) / d is the arithmetic of ndarray.mean without its
    # dispatch overhead, and the in-place steps do the arithmetic of the
    # plain expressions, in the same order, with fewer temporaries.
    mu = np.add.reduce(y, axis=-1, keepdims=True) / d
    xhat = y - mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bwd(g, acc):
        lead = tuple(range(g.ndim - 1))
        gx = g * xhat
        acc(gain, gx.sum(axis=lead))
        acc(bias, g.sum(axis=lead))
        # gx <- inv * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g gain
        np.multiply(g, gain.data, out=gx)
        t = gx * xhat
        r = np.add.reduce(t, axis=-1, keepdims=True) / d
        np.multiply(xhat, r, out=t)
        gx -= np.add.reduce(gx, axis=-1, keepdims=True) / d
        gx -= t
        gx *= inv
        acc(x, gx)
        if residual is not None:
            acc(residual, gx)
    inputs = (x, gain, bias) if residual is None else (x, gain, bias, residual)
    return _node(out, inputs, bwd)


def causal_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, key_mask, n_heads):
    """Multi-head causal self-attention over a (B, s, d) sequence with its
    output projection: softmax(Q K^T / sqrt(d_h)) V W_o + b_o, where
    Q = x W_q + b_q and so on, in one GEMM.

    Query t sees each key j <= t whose `key_mask[:, j]` (B, s) is True, and
    always itself, so a fully padded query attends to itself only. Masked
    keys get exactly zero weight, so row t of the output depends only on
    tokens <= t, bitwise. The adjoint uses the softmax backward
    dS = P (dP - rowsum(dP P)) of Dao et al. 2022 (FlashAttention).
    """
    xd = x.data
    b, s, d = xd.shape
    if d % n_heads:
        raise ShapeError(f"embed dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    qkv = _gemm(xd, w_qkv)
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    # q, k, v: (B, heads, s, d_h) views of the (B, s, 3, heads, d_h) product.
    q, k, v = qkv.reshape(b, s, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    scale = float(1.0 / np.sqrt(dh))
    lower, _, diag = _tri_masks(s)
    mask = lower & key_mask[:, None, None, :]
    mask |= diag
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores *= scale
    p = np.where(mask, scores, -np.inf)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)                   # exp(-inf) = 0: masked keys drop out
    p /= p.sum(axis=-1, keepdims=True)
    o = np.matmul(p, v).transpose(0, 2, 1, 3).reshape(b, s, d)
    out = _gemm(o, wo.data)
    out += bo.data

    def bwd(g, acc):
        g2 = g.reshape(-1, d)
        acc(wo, o.reshape(-1, d).T @ g2)
        acc(bo, g2.sum(axis=0))
        go = _gemm(g, wo.data.T).reshape(b, s, n_heads, dh)
        go = go.transpose(0, 2, 1, 3)
        gs = np.matmul(go, v.swapaxes(-1, -2))         # dP, then dS in place
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gqkv = np.empty((b, s, 3, n_heads, dh))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(gs, k, out=gq)
        np.matmul(gs.swapaxes(-1, -2), q, out=gk)
        np.matmul(p.swapaxes(-1, -2), go, out=gv)
        del go, gs                        # freed before the two GEMMs below
        gqkv = gqkv.reshape(b, s, 3 * d)
        gqkv2 = gqkv.reshape(-1, 3 * d)
        gw = np.split(xd.reshape(-1, d).T @ gqkv2, 3, axis=1)
        gb = np.split(gqkv2.sum(axis=0), 3)
        for param, grad in zip((wq, wk, wv, bq, bk, bv), gw + gb):
            acc(param, grad)
        acc(x, _gemm(gqkv, w_qkv.T))
    return _node(out, (x, wq, bq, wk, bk, wv, bv, wo, bo), bwd)


@functools.lru_cache(maxsize=64)
def _tri_masks(s):
    """Read-only boolean (s, s) masks (on or below the diagonal, strictly
    below it, on it), built once per sequence length."""
    masks = (np.tri(s, dtype=bool), np.tri(s, k=-1, dtype=bool),
             np.eye(s, dtype=bool))
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _unit_lower_solve(a, e):
    """Solve (I + a) x = e per batch row, overwriting `e` with x; `a` is
    strictly lower triangular.

    Forward substitution, so row t of x depends only on rows <= t.
    """
    for t in range(1, e.shape[1]):
        e[:, t] -= np.matmul(a[:, t:t + 1, :t], e[:, :t])[:, 0]
    return e


def _unit_upper_solve(a, y):
    """Solve (I + a)^T x = y per batch row, overwriting `y` with x; `a` is
    strictly lower triangular."""
    for t in range(y.shape[1] - 2, -1, -1):
        y[:, t] -= np.matmul(a[:, None, t + 1:, t], y[:, t + 1:])[:, 0]
    return y


def ttt_linear(x, w0, theta_q, theta_k, theta_v, c, rows=slice(None)):
    """Delta-rule fast-weight pass over a (B, s, d) sequence.

    Per token t, with q_t, k_t, v_t = theta_{q,k,v} x_t and step c_t (B, s):
        W_t = W_{t-1} - c_t (W_{t-1} k_t - v_t) k_t^T,   W_{-1} = w0,
        z_t = W_t q_t.
    This is computed in the parallel (UT) form, without any d x d fast
    weight: the errors e_t = W_{t-1} k_t - v_t solve (I + A) E = K w0^T - V
    with A_tj = c_j k_t.k_j (j < t), and Z = Q w0^T - M E with
    M_tj = c_j q_t.k_j (j <= t). Row t of the output depends only on
    tokens <= t, bitwise.

    Only the token positions `rows` (a basic slice) are read out: the output
    is (B, len(rows), d). Every token still writes the fast weight, so keys,
    values, A and E span all s tokens; queries and M exist only at `rows`.
    """
    xd, w = x.data, w0.data
    b, s, d = xd.shape
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (b, s))[:, None, :]
    # q_t = theta_q x_t per token, so that with c = 0 the output is exactly
    # w0 (theta_q x_t). k and v are separate GEMM outputs, so the adjoint,
    # which keeps k, never pins v.
    xr = xd[:, rows]
    q = np.matmul(theta_q.data, xr[..., None])[..., 0]
    k = _gemm(xd, theta_k.data.T)
    v = _gemm(xd, theta_v.data.T)
    kt = np.swapaxes(k, 1, 2)
    lower, strict, _ = _tri_masks(s)
    lower = lower[rows]
    # np.where with a cached mask is np.tril's own arithmetic.
    a = np.where(strict, np.matmul(k, kt) * c, 0.0)
    m = np.where(lower, np.matmul(q, kt) * c, 0.0)
    r = _gemm(k, w.T)
    r -= v
    del v                              # freed before the solve
    e = _unit_lower_solve(a, r)        # in place: r becomes e
    out = np.matmul(w, q[..., None])[..., 0] - np.matmul(m, e)

    def bwd(g, acc):
        # gm = -c dL/dM, gr = -dL/dR and ga = c dL/dA: the signs and the
        # steps c are folded in where they cost nothing.
        et = np.swapaxes(e, 1, 2)
        gm = np.where(lower, np.matmul(g, et), 0.0) * c
        gr = _unit_upper_solve(a, np.matmul(np.swapaxes(m, 1, 2), g))
        ga = np.where(strict, np.matmul(gr, et), 0.0) * c
        gq = _gemm(g, w) - np.matmul(gm, k)
        gk = (np.matmul(ga + np.swapaxes(ga, 1, 2), k) - _gemm(gr, w)
              - np.matmul(np.swapaxes(gm, 1, 2), q))
        g2, q2, xr2, k2, x2, gq2, gk2, gr2 = (
            t.reshape(-1, d) for t in (g, q, xr, k, xd, gq, gk, gr))
        acc(w0, g2.T @ q2 - gr2.T @ k2)
        acc(theta_q, gq2.T @ xr2)
        acc(theta_k, gk2.T @ x2)
        acc(theta_v, gr2.T @ x2)
        # Summed in the order (gq + gk) + gr, as when every row is read.
        gx = (gk2 @ theta_k.data).reshape(b, s, d)
        gx[:, rows] += (gq2 @ theta_q.data).reshape(gq.shape)
        gx += (gr2 @ theta_v.data).reshape(b, s, d)
        acc(x, gx)
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
        # No adjoint writes into its incoming gradient, so the first one a
        # node receives is kept as it is.
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

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
