"""Dense tensor type with reverse-mode automatic differentiation.

Everything downstream (convolutions, spectral transforms, blocks, losses)
is built from the operations in this module. Values are numpy arrays, and
numpy's type promotion is the only dtype rule: `Tensor(data)` keeps a
floating array's dtype (other data becomes float64). Widths are chosen only
where data is created (parameter init, `wav_read`, the toy dataset, and the
gradcheck, complexity and DFT-oracle inputs), all float64, which gives
finite-difference checks headroom; float32 data runs in float32.

Ops keep the memory order of their inputs: `transpose` and `crop` (so
`chunk`) return views, `reshape` copies only where numpy must, `concat`
allocates its output in the layout of its first part (`concat_view` is the
same op on parts already written into one buffer, a view of it), and
elementwise ops follow numpy's. So an activation stored channel-major
([C, B, L] in memory for a logical [B, C, L], as the GPFCA sequence blocks
keep theirs) stays so, and a channel chunk of it is one contiguous block.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes are inconsistent for an operation."""


# ---------------------------------------------------------------------------
# instrumentation: allocation tracking (memory benchmark) and MAC counting
# ---------------------------------------------------------------------------

class Recorder:
    """Multiply-accumulates reported by conv ops and bytes of tensor storage
    allocated while active; an op whose data lies in storage counted already
    (a view of a parent's, or a slice of a buffer) allocates none. Every
    active recorder receives every event."""

    def __init__(self):
        self.macs = 0
        self.bytes_allocated = 0


_recorders: list[Recorder] = []
_grad_enabled = True


@contextmanager
def count_macs():
    """Yield a Recorder that counts until the block exits."""
    rec = Recorder()
    _recorders.append(rec)
    try:
        yield rec
    finally:
        _recorders.remove(rec)


track_allocations = count_macs


def record_macs(count):
    for rec in _recorders:
        rec.macs += int(count)


def _record_bytes(count):
    for rec in _recorders:
        rec.bytes_allocated += count


@contextmanager
def no_grad():
    """Disable tape recording (inference / benchmarks)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------

class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        _record_bytes(arr.nbytes)

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autograd -----------------------------------------------------------

    def backward(self):
        """Populate .grad on every reachable requires_grad tensor.

        Only a scalar (0-d) loss may seed the backward pass. Repeated calls
        accumulate into existing leaf gradient buffers. Interior gradients are
        per-pass scratch: each is freed once its node has propagated it, so
        afterwards every non-leaf .grad is None.
        """
        if self.data.ndim != 0:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        topo = _toposort(self)
        for node in topo:
            if node._backward_fn is not None:
                node.grad = None
        _accumulate(self, np.ones((), dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node.grad = None


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _accumulate(tensor, grad_arr):
    if tensor.grad is None:
        tensor.grad = np.array(grad_arr, dtype=tensor.data.dtype, copy=True)
    else:
        tensor.grad += grad_arr


def _op(data, *edges, counted=False):
    """Tape op computing `data` from the (parent, grad_fn) edges, where
    grad_fn maps the output gradient to that parent's.

    A backward is attached only when grad mode is on and some parent
    requires a gradient; it runs the grad_fn of each such parent, in edge
    order, and accumulates the result into that parent. `counted` marks
    data written into storage that was counted when it was made (a slice of
    a buffer tensor), which, like a view of a parent's, allocates nothing.
    """
    out = Tensor(data)
    if counted or any(np.may_share_memory(out.data, p.data) for p, _ in edges):
        _record_bytes(-out.data.nbytes)  # Tensor() counted it
    if _grad_enabled and any(p.requires_grad for p, _ in edges):
        def backward(g):
            for p, grad_fn in edges:
                if p.requires_grad:
                    _accumulate(p, grad_fn(g))

        out.requires_grad = True
        out._parents = tuple(p for p, _ in edges)
        out._backward_fn = backward
    return out


def _channel_view(v, ndim):
    """Per-channel values v[c] shaped to broadcast along axis 1 of an
    ndim-dimensional [B, C, ...] array."""
    return v.reshape((1, -1) + (1,) * (ndim - 2))


def _channel_sum(g):
    """Adjoint of _channel_view: sum g [B, C, ...] to one value per channel."""
    return g.sum(axis=(0,) + tuple(range(2, g.ndim)))


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def _check_elementwise(a, b):
    """Allow equal shapes, or one operand with a trailing singleton axis
    where the other has any extent."""
    if a.shape != b.shape and not (
        a.data.ndim == b.data.ndim
        and a.shape[:-1] == b.shape[:-1]
        and 1 in (a.shape[-1], b.shape[-1])
    ):
        raise ShapeError(
            f"elementwise shapes {a.shape} and {b.shape} are neither equal nor "
            "related by a trailing singleton axis"
        )


def _fit(g, p):
    """Sum g over the trailing axis that parent p was broadcast along."""
    return g if g.shape == p.shape else g.sum(axis=-1, keepdims=True)


def add(a, b):
    _check_elementwise(a, b)
    return _op(
        a.data + b.data, (a, lambda g: _fit(g, a)), (b, lambda g: _fit(g, b))
    )


def sub(a, b):
    _check_elementwise(a, b)
    return _op(
        a.data - b.data, (a, lambda g: _fit(g, a)), (b, lambda g: -_fit(g, b))
    )


def mul(a, b):
    _check_elementwise(a, b)
    return _op(
        a.data * b.data,
        (a, lambda g: _fit(g * b.data, a)),
        (b, lambda g: _fit(g * a.data, b)),
    )


def mul_scalar(a, c):
    c = float(c)
    return _op(a.data * c, (a, lambda g: g * c))


def scale_channels(x, s):
    """Multiply x[:, c, ...] by the per-channel scalar s[c]."""
    if s.data.ndim != 1 or x.data.ndim < 2 or x.shape[1] != s.shape[0]:
        raise ShapeError(f"scale_channels: x {x.shape} vs s {s.shape}")
    view = _channel_view(s.data, x.data.ndim)
    return _op(
        x.data * view,
        (x, lambda g: g * view),
        (s, lambda g: _channel_sum(g * x.data)),
    )


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(x):
    return _op(
        x.data.sum(), (x, lambda g: np.broadcast_to(g, x.shape).astype(x.dtype))
    )


def mean_all(x):
    n = x.data.size
    return _op(
        x.data.mean(), (x, lambda g: np.full(x.shape, float(g) / n, dtype=x.dtype))
    )


def mean_axis(x, axis, keepdims=True):
    axis = int(axis)
    n = x.shape[axis]

    def grad(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg / n, x.shape).astype(x.dtype)

    return _op(x.data.mean(axis=axis, keepdims=keepdims), (x, grad))


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------

def absolute(x):
    return _op(np.abs(x.data), (x, lambda g: g * np.sign(x.data)))


def powf(x, p):
    p = float(p)
    return _op(
        np.power(x.data, p), (x, lambda g: g * p * np.power(x.data, p - 1.0))
    )


def cos(x):
    return _op(np.cos(x.data), (x, lambda g: -g * np.sin(x.data)))


def sin(x):
    return _op(np.sin(x.data), (x, lambda g: g * np.cos(x.data)))


def atan2(y, x):
    if y.shape != x.shape:
        raise ShapeError(f"atan2 shapes differ: {y.shape} vs {x.shape}")
    @functools.cache
    def denom():
        """y² + x², built by the first edge that needs it and shared by both."""
        d = y.data * y.data + x.data * x.data
        # at the origin both numerators are 0: a 1 there gives the subgradient 0
        d[d == 0] = 1.0
        return d

    return _op(
        np.arctan2(y.data, x.data),
        (y, lambda g: g * x.data / denom()),
        (x, lambda g: -g * y.data / denom()),
    )


def sigmoid(x):
    out_data = 1.0 / (1.0 + np.exp(-x.data))
    return _op(out_data, (x, lambda g: g * out_data * (1.0 - out_data)))


def prelu(x, alpha, out=None):
    """PReLU with a learnable slope per channel (axis 1), written into `out`
    when given: an array of x's shape in counted storage (a slice of a
    buffer tensor), which the result's data then is."""
    if alpha.data.ndim != 1 or x.data.ndim < 2 or x.shape[1] != alpha.shape[0]:
        raise ShapeError(f"prelu: x {x.shape} vs alpha {alpha.shape}")
    view = _channel_view(alpha.data, x.data.ndim)
    # alpha * min(x, 0) + max(x, 0): branch-free, where np.where's choice per
    # element is slow on data of random sign
    y = np.minimum(x.data, 0.0, out=out)
    y *= view
    y += np.maximum(x.data, 0.0)
    # the gradients build their own arrays, so no_grad builds none. Both
    # take the memory order numpy gives an op of g and x, which np.where and
    # np.multiply keep; a masked copy into g * alpha would take g's order,
    # and `*` reuses the minimum's buffer, taking x's
    return _op(
        y,
        (x, lambda g: np.where(x.data > 0, g, g * view)),
        (alpha, lambda g: _channel_sum(np.multiply(g, np.minimum(x.data, 0.0)))),
        counted=out is not None,
    )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(x, axes, gain, bias, eps=1e-5):
    """Normalize over `axes` to zero mean / unit variance, then apply a
    per-channel affine (gain, bias indexed along axis 1).

    Covers both layer norm over channels (axes=(1,)) and instance-style
    norm over spatial axes (axes=(2, 3)).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    axes = tuple(int(a) for a in axes)
    if gain.shape != (x.shape[1],) or bias.shape != gain.shape:
        raise ShapeError(
            f"affine shape {gain.shape} does not match channel extent "
            f"{x.shape[1]}"
        )
    # x is centred once: the centred array gives the variance (as numpy's
    # var computes it, through the output buffer) and, divided in place, y
    y = x.data - x.data.mean(axis=axes, keepdims=True)
    out = np.square(y)
    std = np.sqrt(out.sum(axis=axes, keepdims=True) / math.prod(
        x.shape[a] for a in axes) + eps)
    y /= std
    gview = _channel_view(gain.data, x.data.ndim)
    np.multiply(gview, y, out=out)
    out += _channel_view(bias.data, x.data.ndim)

    def grad_x(g):
        gh = g * gview
        m1 = gh.mean(axis=axes, keepdims=True)
        m2 = (gh * y).mean(axis=axes, keepdims=True)
        return (gh - m1 - y * m2) / std

    return _op(
        out,
        (x, grad_x),
        (gain, lambda g: _channel_sum(g * y)),
        (bias, _channel_sum),
    )


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    return _op(x.data.reshape(shape), (x, lambda g: g.reshape(x.shape)))


def transpose(x, perm):
    perm = tuple(int(p) for p in perm)
    inv = np.argsort(perm)
    return _op(np.transpose(x.data, perm), (x, lambda g: np.transpose(g, inv)))


def crop(x, axis, start, stop):
    axis = int(axis)
    sel = [slice(None)] * x.data.ndim
    sel[axis] = slice(start, stop)
    sel = tuple(sel)

    def grad(g):
        gx = np.zeros_like(x.data)
        gx[sel] = g
        return gx

    return _op(x.data[sel], (x, grad))


def concat(parts, axis=1):
    parts = list(parts)
    shape, edges = _joined(parts, axis)
    datas = [p.data for p in parts]
    out_data = np.concatenate(datas, axis=axis, out=np.empty_like(
        datas[0], np.result_type(*datas), shape=shape))
    return _op(out_data, *edges)


def concat_view(buf, parts, axis=1):
    """concat(parts, axis) without its copy: the view of buffer tensor buf
    that holds the parts end to end along `axis` from index 0, where the
    caller wrote them. Its gradients are concat's; it allocates nothing, as
    buf was counted when it was made. Later writes into buf past the parts
    leave the view, and so the tape, unchanged."""
    parts = list(parts)
    shape, edges = _joined(parts, axis)
    sel = [slice(None)] * buf.data.ndim
    sel[axis] = slice(0, shape[axis])
    data = buf.data[tuple(sel)]
    if data.shape != shape:
        raise ShapeError(f"concat_view: parts of {shape} do not fit buffer {buf.shape}")
    return _op(data, *edges, counted=True)


def _joined(parts, axis):
    """The shape of parts joined along `axis`, and concat's edges: each part
    takes its own slice of the output gradient."""
    if not parts:
        raise ShapeError("concat of zero tensors")
    ref = parts[0].shape
    for p in parts[1:]:
        a, b = list(ref), list(p.shape)
        a[axis] = b[axis] = 0
        if a != b:
            raise ShapeError(
                f"concat: shape {p.shape} incompatible with {ref} on non-concat axes"
            )
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    shape = list(ref)
    shape[axis] = int(offsets[-1])

    def take(lo, hi):
        sel = [slice(None)] * len(shape)
        sel[axis] = slice(int(lo), int(hi))
        sel = tuple(sel)
        return lambda g: g[sel]

    return tuple(shape), [
        (p, take(lo, hi)) for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])
    ]


def chunk(x, n, axis=1):
    extent = x.shape[axis]
    if extent % n != 0:
        raise ShapeError(
            f"cannot chunk axis {axis} of extent {extent} into {n} equal parts"
        )
    step = extent // n
    return [crop(x, axis, i * step, (i + 1) * step) for i in range(n)]


def repeat_axis(x, axis, times):
    """Nearest-neighbour upsampling: repeat each slice `times` along `axis`."""
    axis = int(axis)
    times = int(times)

    def grad(g):
        shp = list(x.shape)
        shp[axis + 1:axis + 1] = [times]
        shp[axis] = x.shape[axis]
        return g.reshape(shp).sum(axis=axis + 1)

    return _op(np.repeat(x.data, times, axis=axis), (x, grad))


def stack(parts, axis=1):
    expanded = [reshape(p, p.shape[:axis] + (1,) + p.shape[axis:]) for p in parts]
    return concat(expanded, axis=axis)
