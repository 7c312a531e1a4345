"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation that participates in training is a recorded primitive with a
hand-written adjoint. The engine holds only the primitives the model records,
and `drdt3 check` finite-difference checks each of them. Slicing goes
through `take_slice` (`DArray.__getitem__`), which takes ints and slices
only; the one table lookup, of the timestep embeddings, is part of
`embed_tokens`. The graph is built eagerly; `backward` walks it in reverse
topological order, visiting each node exactly once, and uses it up: each
node's adjoint, and the arrays it saved, are freed as soon as it has run, so
a second `backward` through the same nodes raises. Leaf gradients
accumulate across backward calls until `zero_grad`, which zeroes an existing
gradient in place. Inside `with no_grad():` nothing is recorded, so
inference builds no graph.

At import, glibc's allocator is told to keep freed memory in the process
(`_keep_freed_memory`). Backward frees megabytes in the middle of an
update; with glibc's defaults, that memory goes back to the OS through heap
trimming and unmapping, and the next update faults it back in page by page.

The fold rule: every product of an (..., m) activation with a shared 2-D
weight, forward or adjoint, is one 2-D GEMM over all leading rows,
`x.reshape(-1, m) @ w` (`_gemm`), not the one small GEMM per leading index
that a broadcast `np.matmul` issues. Products whose both operands vary per
sequence (attention scores, the TTT recurrence) and the per-token query
matvec of `ttt_linear` stay batched.

The overlap rule: an adjoint hands each weight-gradient product of at least
`_DEFER_MIN_MACS` multiply-adds, such as `x2.T @ g2`, to `acc` as a
zero-argument callable (`_weight_grad`), as soon as its operands exist.
Nothing later in the walk reads a weight's gradient before the weight's own
leaf is reached, so `backward` runs the callable on one worker thread while
the main thread goes on with the adjoint's input gradients, and waits for it
when the adjoint returns. Each product keeps its operands and runs as one
BLAS call, so every bit is what the inline product gives. The worker is
started on the first deferred product, only where the process may run on
more than one CPU; elsewhere the callables run inline, and a forked child
starts a worker of its own. The same worker runs half of a large
attention or TTT forward: every product in those forwards is per sequence
or per row, so `_by_halves` has the worker write batch rows [0, B/2) of
the arrays the adjoint keeps while the calling thread writes [B/2, B), and
every bit is what the whole-batch forward gives. A batch of one row, or one
whose largest product is under `_DEFER_MIN_MACS`, runs inline. The other
primitives, summing into a gradient and everything outside these forwards
and `backward` stay on the calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from concurrent import futures

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _keep_freed_memory():
    """Fix glibc's mmap and trim thresholds, so that memory an update frees
    stays in the process for the next one, and keep one heap for all
    threads. Returns False, and does nothing, where libc has no `mallopt`.

    Blocks below the mmap threshold come from the heap and go back to it
    when freed; 32 MiB, the largest value glibc accepts on 64-bit, covers
    every array of a default-scale update. The heap returns memory to the
    OS only when more than the trim threshold is free at its top. With one
    arena, the weight gradients that backward's worker thread allocates
    reuse the heap's free memory rather than holding an arena of their own:
    about 0.9 MiB less peak RSS in a default-scale training run."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    mallopt(_M_ARENA_MAX, 1)
    return True


_KEEPS_FREED_MEMORY = _keep_freed_memory()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class EvaluationError(RuntimeError):
    """Raised when a checked function produces non-finite values."""


def _gemm(x, w, out=None):
    """x @ w for an (..., m) array x and a 2-D (m, n) w as one 2-D GEMM over
    all leading rows, not the one small GEMM per leading index that a
    broadcast `np.matmul` issues. A non-contiguous x is copied once. With
    `out`, a C-contiguous (..., n) array, the product is written into it."""
    x2 = x.reshape(-1, x.shape[-1])
    if out is None:
        return (x2 @ w).reshape(x.shape[:-1] + w.shape[1:])
    np.matmul(x2, w, out=out.reshape(x2.shape[0], w.shape[1]))
    return out


# A weight-gradient product of fewer multiply-adds than this runs inline. A
# prototype that deferred every product made the d=32 training update slower
# (p95 +5-10%) and larger (peak RSS +2 MiB): handing a 0.1-0.2 ms product to
# the worker, and the worker's own BLAS buffer, cost more than the overlap
# saved. 2^22 lies above every product of a d=32 update (at most 3.5e6, the
# QKV weight of 64 x 18 tokens) and below the attention and TTT weight
# products of a d=128 one (6.3e6 and up), so a d=32 update, `drdt3 check`
# and inference start no thread. The same gate splits the attention and TTT
# forwards (`_by_halves`) by their largest product.
_DEFER_MIN_MACS = 1 << 22

_worker = None


def _weight_grad(macs, product):
    """A weight gradient: the zero-argument callable `product` itself, for
    `backward` to run on the worker, if it costs at least `_DEFER_MIN_MACS`
    multiply-adds; else its value, computed now."""
    return product if macs >= _DEFER_MIN_MACS else product()


def _weight_worker():
    """The one worker thread's executor, started on first use; None where
    the process may run on one CPU only, or where the OS does not say
    (`os.sched_getaffinity` is Linux-only). It runs backward's deferred
    weight products and the first batch half of a split forward; both
    wait for it before they return, so at most one of them uses it."""
    global _worker
    if _worker is None and hasattr(os, "sched_getaffinity") \
            and len(os.sched_getaffinity(0)) > 1:
        _worker = futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="drdt3-weight-grad")
    return _worker


def _by_halves(b, macs, fill):
    """Call `fill(part)`, which writes the batch rows `part` of a forward's
    outputs: once over the whole batch, or, for b >= 2 rows whose largest
    product has at least `_DEFER_MIN_MACS` multiply-adds and where the
    worker exists, with rows [0, b // 2) on the worker and [b // 2, b) on
    this thread. Returns once both halves are done; an error in either is
    raised then, this thread's first."""
    worker = _weight_worker() if b > 1 and macs >= _DEFER_MIN_MACS else None
    if worker is None:
        fill(slice(None))
        return
    half = b // 2
    first = worker.submit(lambda: fill(slice(0, half)))
    try:
        fill(slice(half, b))
    finally:
        futures.wait([first])
    first.result()


def _drop_worker():
    global _worker
    _worker = None


# A forked child has no copy of the parent's thread: it starts its own.
if hasattr(os, "register_at_fork"):         # POSIX only
    os.register_at_fork(after_in_child=_drop_worker)


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


class Linear(Params):
    """An affine map x @ w + b, recorded as one `affine`."""

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
        return affine(x, self.w, self.b)


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
    # A used-up node keeps its (raising) adjoint, so it stays tracked.
    return any(x.requires_grad or x._backward is not None for x in inputs)


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
        x2 = x.data.reshape(-1, w.data.shape[0])
        acc(w, _weight_grad(x2.size * g2.shape[1], lambda: x2.T @ g2))
        acc(b, g2.sum(axis=0))
        acc(x, _gemm(g, w.data.T))
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
            x2 = x.reshape(-1, w.data.shape[0])
            acc(w, _weight_grad(x2.size * d,
                                lambda x2=x2, g2=g2: x2.T @ g2))
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


def causal_attention(x, w_qkv, b_qkv, wo, bo, key_mask, n_heads):
    """Multi-head causal self-attention over a (B, s, d) sequence with its
    output projection: softmax(Q K^T / sqrt(d_h)) V W_o + b_o, where
    [Q | K | V] = x w_qkv + b_qkv is one GEMM with a (d, 3d) weight whose
    column blocks are W_q, W_k and W_v.

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
    scale = float(1.0 / np.sqrt(dh))
    lower, _, diag = _tri_masks(s)
    qkv, p = np.empty((b, s, 3 * d)), np.empty((b, n_heads, s, s))
    o, out = np.empty((b, s, d)), np.empty((b, s, d))

    def fill(part):
        qkv_p = _gemm(xd[part], w_qkv.data, out=qkv[part])
        qkv_p += b_qkv.data
        # (b', heads, s, d_h) views of the (b', s, 3, heads, d_h) product.
        q, k, v = qkv_p.reshape(-1, s, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
        # The keys a query does not see: all but j <= t with key j real,
        # and j = t.
        hidden = lower & key_mask[part, None, None, :]
        hidden |= diag
        np.logical_not(hidden, out=hidden)
        p_p = np.matmul(q, k.swapaxes(-1, -2), out=p[part])
        p_p *= scale
        np.copyto(p_p, -np.inf, where=hidden)
        p_p -= p_p.max(axis=-1, keepdims=True)
        np.exp(p_p, out=p_p)           # exp(-inf) = 0: masked keys drop out
        p_p /= p_p.sum(axis=-1, keepdims=True)
        # Each head's P V goes straight into its columns of o (b', s, d).
        o_p = o[part].reshape(-1, s, n_heads, dh)
        np.matmul(p_p, v, out=o_p.swapaxes(1, 2))
        out_p = _gemm(o[part], wo.data, out=out[part])
        out_p += bo.data
    _by_halves(b, b * s * d * 3 * d, fill)
    q, k, v = qkv.reshape(b, s, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)

    def bwd(g, acc):
        g2 = g.reshape(-1, d)
        acc(wo, _weight_grad(g2.size * d, lambda: o.reshape(-1, d).T @ g2))
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
        acc(w_qkv, _weight_grad(gqkv2.size * d,
                                lambda: xd.reshape(-1, d).T @ gqkv2))
        acc(b_qkv, gqkv2.sum(axis=0))
        acc(x, _gemm(gqkv, w_qkv.data.T))
    return _node(out, (x, w_qkv, b_qkv, wo, bo), bwd)


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

    Only the token positions `rows` (a slice) are read out: the output is
    (B, len(rows), d). Every token still writes the fast weight, so keys,
    values, A and E span all s tokens; queries and M exist only at `rows`.
    Any other `rows` raises `ShapeError`.
    """
    if not isinstance(rows, slice):
        raise ShapeError(f"ttt_linear reads out a slice of rows, got {rows!r}")
    xd, w = x.data, w0.data
    b, s, d = xd.shape
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (b, s))[:, None, :]
    xr = xd[:, rows]
    n = xr.shape[1]
    lower, strict, _ = _tri_masks(s)
    lower = lower[rows]
    q, m, out = np.empty((b, n, d)), np.empty((b, n, s)), np.empty((b, n, d))
    k, a, e = np.empty((b, s, d)), np.empty((b, s, s)), np.empty((b, s, d))

    def fill(part):
        # q_t = theta_q x_t per token, so that with c = 0 the output is
        # exactly w0 (theta_q x_t). k and v are separate GEMM outputs, so
        # the adjoint, which keeps k, never pins v.
        q_p, k_p, a_p, m_p, e_p = q[part], k[part], a[part], m[part], e[part]
        np.matmul(theta_q.data, xr[part][..., None], out=q_p[..., None])
        _gemm(xd[part], theta_k.data.T, out=k_p)
        kt = np.swapaxes(k_p, 1, 2)
        # Zeroing outside a cached mask is np.tril's own arithmetic.
        np.matmul(k_p, kt, out=a_p)
        a_p *= c[part]
        np.copyto(a_p, 0.0, where=~strict)
        np.matmul(q_p, kt, out=m_p)
        m_p *= c[part]
        np.copyto(m_p, 0.0, where=~lower)
        v = _gemm(xd[part], theta_v.data.T)
        _gemm(k_p, w.T, out=e_p)
        e_p -= v
        del v                          # freed before the solve
        _unit_lower_solve(a_p, e_p)    # in place: k w^T - v becomes e
        out_p = np.matmul(w, q_p[..., None], out=out[part][..., None])
        out_p[..., 0] -= np.matmul(m_p, e_p)
    _by_halves(b, b * s * d * d, fill)

    def bwd(g, acc):
        # gm = -c dL/dM, gr = -dL/dR and ga = c dL/dA: the signs and the
        # steps c are folded in where they cost nothing.
        # Each weight gradient goes to `acc` as soon as its operands exist,
        # so the worker computes it while the next ones are derived.
        et = np.swapaxes(e, 1, 2)
        gm = np.where(lower, np.matmul(g, et), 0.0) * c
        gr = _unit_upper_solve(a, np.matmul(np.swapaxes(m, 1, 2), g))
        g2, q2, xr2, k2, x2, gr2 = (
            t.reshape(-1, d) for t in (g, q, xr, k, xd, gr))
        macs = x2.size * d
        acc(w0, _weight_grad(g2.size * d + macs,
                             lambda: g2.T @ q2 - gr2.T @ k2))
        acc(theta_v, _weight_grad(macs, lambda: gr2.T @ x2))
        ga = np.where(strict, np.matmul(gr, et), 0.0) * c
        gq = _gemm(g, w) - np.matmul(gm, k)
        gq2 = gq.reshape(-1, d)
        acc(theta_q, _weight_grad(g2.size * d, lambda: gq2.T @ xr2))
        gk = (np.matmul(ga + np.swapaxes(ga, 1, 2), k) - _gemm(gr, w)
              - np.matmul(np.swapaxes(gm, 1, 2), q))
        gk2 = gk.reshape(-1, d)
        acc(theta_k, _weight_grad(macs, lambda: gk2.T @ x2))
        # Summed in the order (gq + gk) + gr, as when every row is read.
        gx = (gk2 @ theta_k.data).reshape(b, s, d)
        gx[:, rows] += (gq2 @ theta_q.data).reshape(gq.shape)
        gx += (gr2 @ theta_v.data).reshape(b, s, d)
        acc(x, gx)
    return _node(out, (x, w0, theta_q, theta_k, theta_v), bwd)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _used_up(g, acc):
    raise RuntimeError(
        "backward already ran through this graph and freed it; rebuild the "
        "graph with a new forward pass")


def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Gradients accumulate into the leaves across calls. Backward uses up the
    graph it walks: each node's adjoint, with the arrays it saved, is
    dropped as soon as it has run, and replaced by one that raises. So a
    second `backward` through the same nodes, or through a new graph built
    on them, raises RuntimeError. The nodes keep their `.data`.

    A weight gradient that an adjoint passes as a callable (the overlap rule
    of the module docstring) runs on the worker thread when it is aimed at a
    leaf that requires a gradient, else inline. Its Future stands in `grads`
    until the adjoint returns; then `backward` waits for every product the
    adjoint deferred, also when the adjoint raises, and re-raises a
    product's error. So no product is left running when `backward` returns.
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
    deferred = []                       # (key, Future) of the running adjoint

    def acc(node, g):
        key = id(node)
        if callable(g):
            worker = (_weight_worker() if node._backward is None
                      and node.requires_grad else None)
            if worker is None:
                g = g()
            else:
                g = worker.submit(g)
                deferred.append((key, g))
        # No adjoint writes into its incoming gradient, so the first one a
        # node receives is kept as it is.
        if key in grads:
            grads[key] = _result(grads[key]) + _result(g)
        else:
            grads[key] = g

    # Popping from the end walks in reverse topological order; a node leaves
    # the list, and its adjoint and parents are dropped, once it has run, so
    # what only it held is freed before the nodes below it run theirs.
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if node._backward is not None:
            if g is not None:
                try:
                    node._backward(g, acc)
                finally:
                    if deferred:
                        futures.wait([f for _, f in deferred])
                for key, f in deferred:
                    if grads.get(key) is f:
                        grads[key] = f.result()
                deferred.clear()
            node._backward, node._parents = _used_up, ()
        elif g is not None and node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g


def _result(g):
    return g.result() if isinstance(g, futures.Future) else g


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
