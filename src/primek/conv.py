"""Grouped, dilated 1-D and 2-D convolutions on the autodiff tensor.

Both ranks read one strided window view of the padded input. Forward
values follow the plain nested-loop definition of convolution
(cross-correlation convention, zero "same" padding for odd kernels);
the test suite holds them to an independently coded naive oracle.
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


def _windows(a, ks, strides, dils, writeable=False):
    """View [B, C, *out, *k] of a [B, C, *in], never copied: per spatial axis,
    window o at tap i reads a[o * s + i * d], for each o whose window fits."""
    out = tuple((m - d * (k - 1) - 1) // s + 1
                for m, k, s, d in zip(a.shape[2:], ks, strides, dils))
    return np.lib.stride_tricks.as_strided(
        a, a.shape[:2] + out + ks,
        a.strides[:2] + tuple(t * s for t, s in zip(a.strides[2:], strides))
        + tuple(t * d for t, d in zip(a.strides[2:], dils)), writeable=writeable)


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

    padded = any(pads)
    xp = x.data
    if padded:
        xp = np.pad(xp, ((0, 0), (0, 0)) + tuple((p, p) for p in pads))
    view = _windows(xp, ks, strides, dils)  # [B, C, *out, *k]
    groups = [
        (slice(gi * cin_g, (gi + 1) * cin_g), slice(gi * cout_g, (gi + 1) * cout_g))
        for gi in range(g)
    ]
    if spec.is_depthwise:
        out = _depthwise(view, weight.data[:, 0])
    else:
        out = np.zeros((b, spec.out_channels) + out_sizes, dtype=x.dtype)
        for tap in np.ndindex(*ks):
            seg = view[(Ellipsis,) + tap]
            for ics, ocs in groups:
                sflat = seg[:, ics].reshape(b, cin_g, flat)
                out[:, ocs] += np.matmul(
                    weight.data[(ocs, slice(None)) + tap], sflat
                ).reshape((b, cout_g) + out_sizes)
    if bias is not None:
        out += _channel_view(bias.data, n + 2)
    record_macs(b * spec.out_channels * cin_g * math.prod(ks) * flat)

    def grad_x(gout):
        if spec.is_depthwise:
            # adjoint: gout zero-stuffed by the stride and padded by the dilated reach,
            # windowed at stride 1 against the flipped kernel; the kernel is copied
            # because matmul takes a slow path on reversed strides
            reach = [d * (k - 1) for k, d in zip(ks, dils)]
            gp = np.zeros(xp.shape[:2] + tuple(np.add(xp.shape[2:], reach)), gout.dtype)
            gp[lead + tuple(slice(r, r + s * o, s)
                            for r, s, o in zip(reach, strides, out_sizes))] = gout
            flipped = np.flip(weight.data[:, 0], tuple(range(1, n + 1))).copy()
            gxp = _depthwise(_windows(gp, ks, (1,) * n, dils), flipped)
        else:
            gxp = np.zeros_like(xp)
            gview = _windows(gxp, ks, strides, dils, writeable=True)
            for tap in np.ndindex(*ks):
                dst = gview[(Ellipsis,) + tap]
                for ics, ocs in groups:
                    gflat = gout[:, ocs].reshape(b, cout_g, flat)
                    dst[:, ics] += np.matmul(
                        weight.data[(ocs, slice(None)) + tap].T, gflat
                    ).reshape((b, cin_g) + out_sizes)
        if padded:
            gxp = gxp[lead + tuple(slice(p, p + m) for p, m in zip(pads, sizes))]
        return gxp

    def grad_w(gout):
        if spec.is_depthwise:
            o, k = list(range(2, n + 2)), list(range(n + 2, 2 * n + 2))
            return np.einsum(gout, [0, 1, *o], view, [0, 1, *o, *k], [1, *k])[:, None]
        gw = np.zeros(weight.shape, dtype=weight.dtype)
        for tap in np.ndindex(*ks):
            seg = view[(Ellipsis,) + tap]
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
