"""Grouped, dilated 1-D and 2-D convolutions on the autodiff tensor.

Both ranks run through one routine, by conv kind:
- 1-D depthwise (the prime-kernel convs of the gated units): a product with
  a banded matrix of the kernel over tiles of outputs, one matmul call (two
  with a partial last tile), `_banded`;
- 2-D depthwise: one strided window view of the padded input, contracted by
  one matmul per frequency tap, `_depthwise`;
- pointwise (one group, stride 1): one GEMM [C_out, C_in] @ [C_in, B*T(*F)]
  over the channel-major flattening of the input, `_pointwise`;
- grouped and full: one GEMM per kernel tap and group, over a strided slice
  of the padded input.
Memory order follows the input. Padded copies and the 1-D depthwise output
keep the input's layout; a pointwise conv stores its output channel-major,
as [C, B, *sizes] (C-contiguous when B = 1). On a channel-major input, the
layout the GPFCA sequence blocks keep, the pointwise flattening is a free
view and no conv copies a transposed input.
Input gradients are the adjoints of these, and the pointwise weight gradient
is one GEMM as well. Depthwise weight gradients are one einsum over the
window view, which is built only where it is read.
Forward values follow the plain nested-loop definition of convolution
(cross-correlation convention, zero "same" padding for odd kernels); the
test suite holds them to an independently coded naive oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, _channel_sum, _channel_view, _op, record_macs


@dataclass(frozen=True)
class ConvSpec:
    """Hyperparameters of one convolution layer.

    kernel / stride / dilation are ints for 1-D, pairs for 2-D.
    """

    in_channels: int
    out_channels: int
    kernel: object
    stride: object = 1
    dilation: object = 1
    groups: int = 1
    padding: str = "same"

    def __post_init__(self):
        if self.in_channels % self.groups != 0:
            raise ShapeError(
                f"in_channels {self.in_channels} not divisible by groups {self.groups}"
            )
        if self.out_channels % self.groups != 0:
            raise ShapeError(
                f"out_channels {self.out_channels} not divisible by groups {self.groups}"
            )
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

    @property
    def is_depthwise(self):
        return self.groups == self.in_channels == self.out_channels


# outputs per band tile of a 1-D depthwise conv (see _banded)
_TILE = 16


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


def _windows(a, ks, strides, dils):
    """View [B, C, *out, *k] of a [B, C, *in], never copied: per spatial axis,
    window o at tap i reads a[o * s + i * d], for each o whose window fits."""
    out = tuple((m - d * (k - 1) - 1) // s + 1
                for m, k, s, d in zip(a.shape[2:], ks, strides, dils))
    return np.lib.stride_tricks.as_strided(
        a, a.shape[:2] + out + ks,
        a.strides[:2] + tuple(t * s for t, s in zip(a.strides[2:], strides))
        + tuple(t * d for t, d in zip(a.strides[2:], dils)), writeable=False)


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


def _pointwise(w, a):
    """w [C_out, C_in] applied to a [B, C_in, *sizes] as one GEMM over the
    channel-major flattening of a; the result [B, C_out, *sizes] is stored
    channel-major."""
    out = w @ _channel_major(a)
    return out.reshape(w.shape[:1] + a.shape[:1] + a.shape[2:]).swapaxes(0, 1)


def _depthwise(v, w):
    """Contract windows v [B, C, *out, *k] with per-channel kernels w [C, *k]:
    one matmul over the first kernel axis for each tap of the others."""
    shape = (w.shape[0],) + (1,) * (w.ndim - 2) + (w.shape[1], 1)
    parts = (np.matmul(v[(Ellipsis, slice(None)) + tap],
                       w[(slice(None), slice(None)) + tap].reshape(shape))[..., 0]
             for tap in np.ndindex(w.shape[2:]))
    out = next(parts)
    for part in parts:
        out += part
        del part  # freed before the next matmul allocates, as the tap loop did
    return out


def _banded(a, w, s, d, pad, t_out):
    """1-D depthwise conv of a [B, C, T] with kernels w [C, K] at stride s and
    dilation d, reading a after `pad` zeros and followed by zeros:
    out[b, c, o] = sum_k w[c, k] * a[b, c, o*s + k*d - pad] for o < t_out.

    A GEMM with a banded (Toeplitz) matrix of the kernel, after Chellapilla,
    Puri & Simard (2006), over tiles of _TILE outputs: tile j reads the
    span = (_TILE - 1)*s + d*(K - 1) + 1 inputs from j*_TILE*s on, and is
    their product with the band [span, _TILE] of its channel,
    band[i*s + k*d, i] = w[c, k]. `a` is copied once, into a zero buffer that
    ends at the last input read; the left operand is an as_strided view
    [tiles, C, B, span] of it whose GEMM rows are batch items, so BLAS reads it
    in place, and one matmul writes through out= into a transposed view of the
    [B, C, t_out] result. Buffer and result keep the memory order of `a`, so a
    channel-major input (stored as [C, B, T]) gives a channel-major output.
    Tiles are the outer loop so that consecutive GEMMs write neighbouring
    channels of the same output rows.
    A partial last tile of r outputs is a second matmul with the band's first
    r columns and the rows they reach.
    """
    b, c, t = a.shape
    dtype = np.result_type(a, w)
    reach = d * (w.shape[1] - 1)
    length = (t_out - 1) * s + reach + 1
    buf = np.zeros_like(a, dtype, shape=(b, c, length))
    buf[:, :, pad:pad + t] = a[:, :, :length - pad]
    band = np.zeros((c, (_TILE - 1) * s + reach + 1, _TILE), dtype)
    i = np.arange(_TILE)[:, None]
    band[:, i * s + np.arange(w.shape[1]) * d, i] = w[:, None]
    out = np.empty_like(buf, shape=(b, c, t_out))
    sb, sc, st = buf.strides
    full, r = divmod(t_out, _TILE)
    for lo, n, cols in ((0, full, _TILE), (full, int(r > 0), r)):
        if n:
            span = (cols - 1) * s + reach + 1
            view = np.lib.stride_tricks.as_strided(
                buf[:, :, lo * _TILE * s:], (n, c, b, span),
                (_TILE * s * st, sc, sb, st), writeable=False)
            np.matmul(view, band[:, :span, :cols],
                      out=out[:, :, lo * _TILE:lo * _TILE + n * cols]
                      .reshape(b, c, n, cols).transpose(2, 1, 0, 3))
    return out


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
    g = spec.groups
    cin_g = spec.in_channels // g
    cout_g = spec.out_channels // g
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
    flat = math.prod(out_sizes)
    lead = (slice(None), slice(None))
    depthwise = spec.is_depthwise
    banded = depthwise and n == 1
    pointwise = not depthwise and g == 1 and ks == strides == (1,) * n
    w2 = weight.data.reshape(spec.out_channels, spec.in_channels) if pointwise else None

    xp = None if banded else _pad(x.data, pads)  # _banded pads into its own buffer
    if banded:
        out = _banded(x.data, weight.data[:, 0], strides[0], dils[0], pads[0],
                      out_sizes[0])
    elif depthwise:
        out = _depthwise(_windows(xp, ks, strides, dils), weight.data[:, 0])
    elif pointwise:
        out = _pointwise(w2, x.data)
    else:
        # per kernel tap, the index of the [B, C, *out] inputs it reads
        taps = [
            (tap, lead + tuple(slice(i * d, i * d + s * (o - 1) + 1, s)
                               for i, s, d, o in zip(tap, strides, dils, out_sizes)))
            for tap in np.ndindex(*ks)
        ]
        groups = [
            (slice(gi * cin_g, (gi + 1) * cin_g), slice(gi * cout_g, (gi + 1) * cout_g))
            for gi in range(g)
        ]
        out = np.zeros((b, spec.out_channels) + out_sizes, dtype=x.dtype)
        for tap, at in taps:
            seg = xp[at]
            for ics, ocs in groups:
                sflat = seg[:, ics].reshape(b, cin_g, flat)
                out[:, ocs] += np.matmul(
                    weight.data[(ocs, slice(None)) + tap], sflat
                ).reshape((b, cout_g) + out_sizes)
    if bias is not None:
        out += _channel_view(bias.data, n + 2)
    record_macs(b * spec.out_channels * cin_g * math.prod(ks) * flat)

    def grad_x(gout):
        if banded:
            # adjoint: gout zero-stuffed by the stride, convolved at stride 1 with
            # the flipped kernel after the dilated reach less the forward's padding
            (s,), (d,), (k,) = strides, dils, ks
            if s > 1:
                stuffed = np.zeros_like(
                    gout, shape=(b, spec.in_channels, s * (out_sizes[0] - 1) + 1))
                stuffed[:, :, ::s] = gout
                gout = stuffed
            return _banded(gout, weight.data[:, 0, ::-1], 1, d,
                           d * (k - 1) - pads[0], sizes[0])
        if pointwise:
            return _pointwise(w2.T, gout)
        if depthwise:
            # the same adjoint through the window view; the kernel is copied
            # because matmul takes a slow path on reversed strides
            reach = [d * (k - 1) for k, d in zip(ks, dils)]
            gp = np.zeros(xp.shape[:2] + tuple(np.add(xp.shape[2:], reach)), gout.dtype)
            gp[lead + tuple(slice(r, r + s * o, s)
                            for r, s, o in zip(reach, strides, out_sizes))] = gout
            flipped = np.flip(weight.data[:, 0], tuple(range(1, n + 1))).copy()
            gxp = _depthwise(_windows(gp, ks, (1,) * n, dils), flipped)
        else:
            gxp = np.zeros_like(xp)
            for tap, at in taps:
                dst = gxp[at]
                for ics, ocs in groups:
                    gflat = gout[:, ocs].reshape(b, cout_g, flat)
                    dst[:, ics] += np.matmul(
                        weight.data[(ocs, slice(None)) + tap].T, gflat
                    ).reshape((b, cin_g) + out_sizes)
        if any(pads):
            gxp = gxp[lead + tuple(slice(p, p + m) for p, m in zip(pads, sizes))]
        return gxp

    def grad_w(gout):
        if depthwise:
            view = _windows(_pad(x.data, pads) if banded else xp, ks, strides, dils)
            o, k = list(range(2, n + 2)), list(range(n + 2, 2 * n + 2))
            return np.einsum(gout, [0, 1, *o], view, [0, 1, *o, *k], [1, *k])[:, None]
        if pointwise:
            return (_channel_major(gout) @ _channel_major(x.data).T).reshape(weight.shape)
        gw = np.zeros(weight.shape, dtype=weight.dtype)
        for tap, at in taps:
            seg = xp[at]
            for ics, ocs in groups:
                gflat = gout[:, ocs].reshape(b, cout_g, flat)
                sflat = seg[:, ics].reshape(b, cin_g, flat)
                gw[(ocs, slice(None)) + tap] = np.matmul(
                    gflat, sflat.transpose(0, 2, 1)
                ).sum(axis=0)
        return gw

    edges = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        edges.append((bias, _channel_sum))
    return _op(out, *edges)
