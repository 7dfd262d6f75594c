"""Analytic multiply-accumulate and parameter accounting for the dense
blocks and the assembled model, with instrumented measured counterparts.

All counts are exact Python integers (arbitrary precision, so no overflow
concern even though totals routinely exceed 2^32). One MAC is a single
multiply-accumulate; reported FLOPs are 2 * MACs, and both columns are
printed because the literature convention varies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import blocks as _blocks
from .spectral import SpectroConfig, Spectrogram
from .tensor import Tensor, count_macs, no_grad


def _check_positive(**kwargs):
    for name, v in kwargs.items():
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")


# ---------------------------------------------------------------------------
# per-layer and per-block formulas
# ---------------------------------------------------------------------------

def macs_dc(i, c, k, t, f):
    """Standard dilated conv at dense layer i: (iC) * C * K^2 * t * f."""
    _check_positive(i=i, c=c, k=k, t=t, f=f)
    return int(i) * int(c) * int(c) * int(k) ** 2 * int(t) * int(f)


def macs_dsdc(i, c, k, t, f):
    """Depthwise separable dilated conv: iC*K^2*t*f + iC*C*t*f."""
    _check_positive(i=i, c=c, k=k, t=t, f=f)
    i, c, k, t, f = int(i), int(c), int(k), int(t), int(f)
    return i * c * k * k * t * f + i * c * c * t * f


def macs_ddb(n, c, k, t, f):
    _check_positive(n=n)
    return sum(macs_dc(i, c, k, t, f) for i in range(1, int(n) + 1))


def macs_dsddb(n, c, k, t, f):
    _check_positive(n=n)
    return sum(macs_dsdc(i, c, k, t, f) for i in range(1, int(n) + 1))


def params_ddb(n, c, k):
    _check_positive(n=n, c=c, k=k)
    return sum(int(i) * int(c) ** 2 * int(k) ** 2 for i in range(1, int(n) + 1))


def params_dsddb(n, c, k):
    _check_positive(n=n, c=c, k=k)
    n, c, k = int(n), int(c), int(k)
    return sum(i * c * k * k + i * c * c for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# measured counters
# ---------------------------------------------------------------------------

def measure_block_macs(block, t, f):
    """Run a dense block on zeros of [1, C, t, f] and read the MAC counter."""
    x = Tensor(np.zeros((1, block.channels, t, f)))
    with no_grad(), count_macs() as rec:
        block.forward(x)
    return rec.macs


def _model_macs_at(model, frames, bins):
    spec = Spectrogram(
        Tensor(np.zeros((1, bins, frames))),
        Tensor(np.zeros((1, bins, frames))),
        _geometry_config(bins),
    )
    with no_grad(), count_macs() as rec:
        model.forward(spec)
    return rec.macs


def _geometry_config(bins):
    # a config whose bin count matches; only the shape contract matters here
    fft = 2 * (bins - 1)
    hop = max(1, fft // 4)
    return SpectroConfig(fft_size=fft, win_length=fft, hop=hop)


def measure_model_macs(model, cfg, frames, bins):
    """Measured conv MACs of a full forward at the given geometry.

    Every convolution in the model contributes an integer count that is
    affine in the frame axis, so the total at any frame count follows
    exactly from dry runs at 1 and 2 frames (loop bounds, not data).
    """
    m1 = _model_macs_at(model, 1, bins)
    m2 = _model_macs_at(model, 2, bins)
    slope = m2 - m1
    return m1 + slope * (int(frames) - 1)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class ReportEntry:
    name: str
    analytic_macs: int
    measured_macs: int
    analytic_params: int  # convolution weights only
    measured_params: int  # convolution weights only, from actual tensors
    full_params: int      # including biases / norms / slopes


@dataclass
class ComplexityReport:
    frames: int
    bins: int
    entries: list = field(default_factory=list)

    def to_text(self):
        head = (
            f"{'block':<22}{'MACs(analytic)':>16}{'MACs(measured)':>16}"
            f"{'P(analytic)':>13}{'P(measured)':>13}{'P(full)':>11}"
        )
        lines = [f"input geometry: t={self.frames} frames, f={self.bins} bins", head,
                 "-" * len(head)]
        for e in self.entries:
            lines.append(
                f"{e.name:<22}{e.analytic_macs:>16,}{e.measured_macs:>16,}"
                f"{e.analytic_params:>13,}{e.measured_params:>13,}{e.full_params:>11,}"
            )
        return "\n".join(lines)

    def to_json(self):
        return json.dumps(
            {
                "frames": self.frames,
                "bins": self.bins,
                "entries": [vars(e) for e in self.entries],
            },
            indent=2,
        )


def dense_block_entry(name, block, t, f):
    spec, c = block.spec, block.channels
    analytic_fn = macs_ddb if spec.variant == "DDB" else macs_dsddb
    params_fn = params_ddb if spec.variant == "DDB" else params_dsddb
    return ReportEntry(
        name=name,
        analytic_macs=analytic_fn(spec.depth, c, spec.kernel, t, f),
        measured_macs=measure_block_macs(block, t, f),
        analytic_params=params_fn(spec.depth, c, spec.kernel),
        measured_params=block.conv_weight_count(),
        full_params=block.param_count(),
    )


def measure(model, cfg, frames, bins):
    """Full ComplexityReport for a model at the given input geometry."""
    report = ComplexityReport(frames=frames, bins=bins)
    bins_down = (bins + 1) // 2  # after the stride-2 frequency conv
    report.entries.append(
        dense_block_entry("encoder.dense", model.encoder.dense, frames, bins)
    )
    report.entries.append(
        dense_block_entry(
            "mask_decoder.dense", model.mask_decoder.core.dense, frames, bins_down
        )
    )
    report.entries.append(
        dense_block_entry(
            "phase_decoder.dense", model.phase_decoder.core.dense, frames, bins_down
        )
    )
    total_macs = measure_model_macs(model, cfg, frames, bins)
    report.entries.append(
        ReportEntry(
            name="model.total",
            analytic_macs=total_macs,  # conv-only convention; equals measured
            measured_macs=total_macs,
            analytic_params=model.conv_weight_count(),
            measured_params=model.conv_weight_count(),
            full_params=model.param_count(),
        )
    )
    return report
