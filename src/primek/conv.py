"""Dilated, strided 1-D and 2-D convolutions on the autodiff tensor.

A conv is depthwise (groups = in_channels = out_channels > 1) or full
(groups = 1); pointwise is the one-tap full conv. Depthwise convs have
stride 1 and "same" padding, as every one in the model does. Both ranks run
through one routine, with two code paths:
- depthwise, `_depthwise`: in blocks of channels of at most _BLOCK_BYTES of
  input, so that its padded copy and products stay bounded on long inputs.
  Per block, in 1-D (the prime-kernel convs of the gated units) a product
  with a banded matrix of the kernel over tiles of outputs, one matmul call
  (two with a partial last tile), `_banded`; in 2-D one strided window view
  of the padded block, contracted by one matmul per frequency tap. At
  stride 1 with symmetric padding the adjoint of a conv is the same conv
  with its kernel flipped, so grad_x is `_depthwise` of the output gradient
  with flipped kernels;
- full: one GEMM per kernel tap, W[:, :, tap] @ X_tap, summed into one
  [C_out, B*out] matrix; X_tap is the channel-major flattening of the strided
  slice of the padded input that the tap reads.
Memory order follows the input. Padded copies and the depthwise output keep
the input's layout; a full conv stores its output channel-major, as
[C, B, *sizes] (C-contiguous when B = 1). On a channel-major input, the
layout the GPFCA sequence blocks keep, a pointwise X_tap is a free view.
The gradients of a full conv run the same tap loop: grad_w[:, :, tap] is
G @ X_tap^T, and W[:, :, tap]^T @ G is added into the slice the tap read.
Depthwise weight gradients are one einsum over the window view of the padded
input, built in the backward pass.
Forward values follow the plain nested-loop definition of convolution
(cross-correlation convention, zero "same" padding for odd kernels); the
test suite holds them to an independently coded naive oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, _channel_sum, _channel_view, _op, record_macs


@dataclass(frozen=True)
class ConvSpec:
    """Hyperparameters of one convolution layer.

    kernel / stride / dilation are ints for 1-D, pairs for 2-D; groups is 1
    (a full conv) or the channel count (a depthwise one, which takes stride 1
    and "same" padding). A one-channel conv with groups 1 is a full conv.
    """

    in_channels: int
    out_channels: int
    kernel: object
    stride: object = 1
    dilation: object = 1
    groups: int = 1
    padding: str = "same"

    def __post_init__(self):
        if min(self.in_channels, self.out_channels) < 1:
            raise ShapeError(
                f"channel counts {self.in_channels} -> {self.out_channels} must be >= 1")
        if self.groups != 1 and not self.is_depthwise:
            raise ShapeError(
                f"groups {self.groups} must be 1, or equal both channel counts "
                f"({self.in_channels} -> {self.out_channels}) for a depthwise conv")
        for k in _as_tuple(self.kernel):
            if k < 1:
                raise ShapeError(f"kernel extent {k} < 1")
            if self.padding == "same" and k % 2 == 0:
                raise ShapeError(f"even kernel {k} cannot use same padding")
        for d in _as_tuple(self.dilation):
            if d < 1:
                raise ShapeError(f"dilation {d} < 1")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding policy {self.padding!r}")
        if self.is_depthwise and (self.padding != "same" or any(
                s != 1 for s in _as_tuple(self.stride))):
            raise ShapeError(
                f"a depthwise conv takes stride 1 and 'same' padding, got stride "
                f"{self.stride} and {self.padding!r} padding")

    @property
    def is_depthwise(self):
        return 1 < self.groups == self.in_channels == self.out_channels


# outputs per band tile of a 1-D depthwise conv (see _banded)
_TILE = 16
# most bytes of input per channel block of a depthwise conv (see _depthwise)
_BLOCK_BYTES = 4 << 20


def _as_tuple(v):
    return v if isinstance(v, tuple) else (v,)


def _per_axis(v, n):
    v = v if isinstance(v, tuple) else (v,) * n
    if len(v) != n:
        raise ShapeError(f"{v} does not give one value per spatial axis ({n})")
    return v


def _out_extent(n, k, s, d, padding):
    span = d * (k - 1) + 1
    if padding == "same":
        n = n + 2 * (d * (k - 1) // 2)
    if n < span:
        raise ShapeError(f"input extent {n} smaller than dilated kernel span {span}")
    return (n - span) // s + 1


def conv1d(x, spec, weight, bias=None):
    """x: [B, C_in, T], weight: [C_out, C_in/groups, K] -> [B, C_out, T']."""
    return _conv(x, spec, weight, bias, "T")


def conv2d(x, spec, weight, bias=None):
    """x: [B, C_in, T, F], weight: [C_out, C_in/groups, Kt, Kf]."""
    return _conv(x, spec, weight, bias, "TF")


def _windows(a, ks, dils):
    """View [B, C, *out, *k] of a [B, C, *in], never copied: per spatial axis,
    window o at tap i reads a[o + i * d], for each o whose window fits."""
    out = tuple(m - d * (k - 1) for m, k, d in zip(a.shape[2:], ks, dils))
    return np.lib.stride_tricks.as_strided(
        a, a.shape[:2] + out + ks,
        a.strides + tuple(t * d for t, d in zip(a.strides[2:], dils)),
        writeable=False)


def _pad(a, pads):
    """a [B, C, *in] with pads[i] zeros on both sides of spatial axis i, in
    the memory order of a."""
    if not any(pads):
        return a
    out = np.zeros_like(a, shape=a.shape[:2] + tuple(
        m + 2 * p for m, p in zip(a.shape[2:], pads)))
    out[(Ellipsis,) + tuple(slice(p, p + m) for p, m in zip(pads, a.shape[2:]))] = a
    return out


def _channel_major(a):
    """a [B, C, *sizes] as the matrix [C, B * prod(sizes)]: a free view when a
    is stored channel-major (as [C, B, *sizes], or any layout when B = 1)."""
    return a.swapaxes(0, 1).reshape(a.shape[1], -1)


def _from_channel_major(m, b, sizes):
    """Inverse of _channel_major: the matrix m [C, B * prod(sizes)] as a
    [B, C, *sizes] view, stored channel-major."""
    return m.reshape((m.shape[0], b) + sizes).swapaxes(0, 1)


def _summed(parts):
    """Sum of the arrays of iterator `parts`, accumulated into the first."""
    out = next(parts)
    for part in parts:
        out += part
        del part  # freed before the next product is allocated
    return out


def _depthwise(a, w, dils, pads):
    """Stride-1 depthwise conv of a [B, C, *sizes] with per-channel kernels
    w [C, *k], with pads[i] zeros on both sides of spatial axis i of a.

    Channels are independent, so they run in blocks of at most _BLOCK_BYTES
    of `a` (one channel at least), each padded and contracted on its own and
    written into one output stored in the memory order of `a`: the padded
    copy and the products stay block-sized whatever the input's size. Per
    block, in 1-D `_banded`; in 2-D one matmul over the first kernel axis of
    the window view of the padded block for each tap of the other.
    """
    c = a.shape[1]
    step = max(1, _BLOCK_BYTES * c // max(a.nbytes, 1))
    out = np.empty_like(a, np.result_type(a, w))
    for lo in range(0, c, step):
        blk, wb = (slice(None), slice(lo, lo + step)), w[lo:lo + step]
        if a.ndim == 3:
            _banded(a[blk], wb, dils[0], pads[0], out[blk])
        else:
            v = _windows(_pad(a[blk], pads), w.shape[1:], dils)
            out[blk] = _summed(
                np.matmul(v[..., j], wb[:, :, j].reshape(len(wb), 1, -1, 1))[..., 0]
                for j in range(w.shape[2]))
    return out


def _banded(a, w, d, pad, out):
    """1-D depthwise conv of a [B, C, T] with kernels w [C, K] at dilation d,
    reading a between `pad` zeros on each side, written into out [B, C, T]:
    out[b, c, o] = sum_k w[c, k] * a[b, c, o + k*d - pad] for o < T.

    A GEMM with a banded (Toeplitz) matrix of the kernel, after Chellapilla,
    Puri & Simard (2006), over tiles of _TILE outputs: tile j reads the
    span = _TILE + d*(K - 1) inputs from j*_TILE on, and is their product
    with the band [span, _TILE] of its channel, band[i + k*d, i] = w[c, k].
    `a` is copied once, into the zero-padded buffer; the left operand is an
    as_strided view [tiles, C, B, span] of it whose GEMM rows are batch items,
    so BLAS reads it in place, and one matmul writes through out= into a
    transposed view of `out`. The buffer keeps the memory order of `a`.
    Tiles are the outer loop so that consecutive GEMMs write neighbouring
    channels of the same output rows.
    A partial last tile of r outputs is a second matmul with the band's first
    r columns and the rows they reach.
    """
    b, c, t = a.shape
    dtype = np.result_type(a, w)
    reach = d * (w.shape[1] - 1)
    buf = np.zeros_like(a, dtype, shape=(b, c, t + 2 * pad))
    buf[:, :, pad:pad + t] = a
    band = np.zeros((c, _TILE + reach, _TILE), dtype)
    i = np.arange(_TILE)[:, None]
    band[:, i + np.arange(w.shape[1]) * d, i] = w[:, None]
    sb, sc, st = buf.strides
    full, r = divmod(t, _TILE)
    for lo, n, cols in ((0, full, _TILE), (full, int(r > 0), r)):
        if n:
            view = np.lib.stride_tricks.as_strided(
                buf[:, :, lo * _TILE:], (n, c, b, cols + reach),
                (_TILE * st, sc, sb, st), writeable=False)
            np.matmul(view, band[:, :cols + reach, :cols],
                      out=out[:, :, lo * _TILE:lo * _TILE + n * cols]
                      .reshape(b, c, n, cols, copy=False).transpose(2, 1, 0, 3))


def _conv(x, spec, weight, bias, axes):
    """Convolution over the trailing spatial axes named by `axes`.

    Kept private and called only from conv1d/conv2d: profilers wrap those
    public entry points, so each call must pass through exactly one.
    """
    n = len(axes)
    if x.data.ndim != n + 2:
        raise ShapeError(f"conv{n}d expects [B, C, {', '.join(axes)}], got {x.shape}")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"channel axis mismatch: input has {x.shape[1]}, spec expects "
            f"{spec.in_channels}"
        )
    ks = _per_axis(spec.kernel, n)
    strides = _per_axis(spec.stride, n)
    dils = _per_axis(spec.dilation, n)
    depthwise = spec.is_depthwise
    cin_g = 1 if depthwise else spec.in_channels
    wshape = (spec.out_channels, cin_g) + ks
    if weight.shape != wshape:
        raise ShapeError(
            f"weight shape {weight.shape} != ({', '.join(map(str, wshape))})"
        )
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")

    b, sizes = x.shape[0], x.shape[2:]
    pads = tuple(
        d * (k - 1) // 2 if spec.padding == "same" else 0 for k, d in zip(ks, dils)
    )
    out_sizes = tuple(
        _out_extent(m, k, s, d, spec.padding)
        for m, k, s, d in zip(sizes, ks, strides, dils)
    )
    lead = (slice(None), slice(None))
    w = weight.data

    if depthwise:
        out = _depthwise(x.data, w[:, 0], dils, pads)
    else:
        xp = _pad(x.data, pads)
        # per kernel tap, the index of its weights and of the inputs it reads
        taps = [(lead + tap, lead + tuple(
            slice(i * d, i * d + s * (o - 1) + 1, s)
            for i, s, d, o in zip(tap, strides, dils, out_sizes)))
            for tap in itertools.product(*map(range, ks))]
        out = _from_channel_major(
            _summed(w[tap] @ _channel_major(xp[at]) for tap, at in taps), b, out_sizes)
    if bias is not None:
        out += _channel_view(bias.data, n + 2)
    record_macs(b * spec.out_channels * cin_g * math.prod(ks) * math.prod(out_sizes))

    def grad_x(gout):
        if depthwise:
            # the same conv with each kernel flipped; copied, because matmul
            # takes a slow path on reversed strides
            return _depthwise(gout, np.flip(w[:, 0], tuple(range(1, n + 1))).copy(),
                              dils, pads)
        g = _channel_major(gout)
        if len(taps) == 1 and strides == (1,) * n:
            # the one tap reads every input once: its product is the gradient
            return _from_channel_major(w[taps[0][0]].T @ g, b, sizes)
        gxp = np.zeros((spec.in_channels, b) + xp.shape[2:], gout.dtype)
        gxp = gxp.swapaxes(0, 1)
        for tap, at in taps:
            gxp[at] += _from_channel_major(w[tap].T @ g, b, out_sizes)
        return gxp[lead + tuple(slice(p, p + m) for p, m in zip(pads, sizes))]

    def grad_w(gout):
        if depthwise:
            view = _windows(_pad(x.data, pads), ks, dils)
            o, k = list(range(2, n + 2)), list(range(n + 2, 2 * n + 2))
            return np.einsum(gout, [0, 1, *o], view, [0, 1, *o, *k], [1, *k])[:, None]
        g = _channel_major(gout)
        gw = np.empty_like(w)
        for tap, at in taps:
            gw[tap] = g @ _channel_major(xp[at]).T
        return gw

    edges = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        edges.append((bias, _channel_sum))
    return _op(out, *edges)
