"""Training objectives: magnitude, phase (anti-wrapped), complex, time,
and spectral-consistency losses with configurable weights.

The paper's metric-discriminator term is out of scope and has no weight.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .spectral import istft_rect, rect, stft_rect
from .tensor import ShapeError, Tensor

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LossWeights:
    magnitude: float = 0.9
    phase: float = 0.3
    complex: float = 0.1
    time: float = 0.2
    consistency: float = 0.1

    def __post_init__(self):
        vals = (self.magnitude, self.phase, self.complex, self.time,
                self.consistency)
        if any(v < 0 for v in vals):
            raise ValueError("loss weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("at least one loss weight must be nonzero")


def _check_same_shape(a, b, what):
    if a.shape != b.shape:
        raise ShapeError(f"{what}: shapes {a.shape} and {b.shape} differ")


def magnitude_loss(est, ref):
    """Mean squared error between compressed-domain magnitudes."""
    _check_same_shape(est, ref, "magnitude_loss")
    diff = T.sub(est, ref)
    return T.mean_all(T.mul(diff, diff))


def anti_wrap(x):
    """|x - 2*pi*round(x / 2*pi)|: wrap-invariant absolute phase distance.

    round() is piecewise constant, so the gradient is that of |.| on the
    wrapped residual.
    """
    shift = TWO_PI * np.round(x.data / TWO_PI)
    return T.absolute(T.add(x, Tensor(-shift)))


def phase_loss(est, ref):
    """Anti-wrapped penalty on instantaneous phase, group delay (difference
    along frequency), and instantaneous angular frequency (difference along
    time); inputs are [B, F, T] in radians."""
    _check_same_shape(est, ref, "phase_loss")
    diff = T.sub(est, ref)
    ip = T.mean_all(anti_wrap(diff))
    gd = T.mean_all(anti_wrap(_diff_axis(diff, axis=1)))
    iaf = T.mean_all(anti_wrap(_diff_axis(diff, axis=2)))
    return T.add(T.add(ip, gd), iaf)


def _diff_axis(x, axis):
    n = x.shape[axis]
    hi = T.crop(x, axis, 1, n)
    lo = T.crop(x, axis, 0, n - 1)
    return T.sub(hi, lo)


def complex_loss(est_spec, ref_spec):
    """MSE over the rectangular form (m*cos(p), m*sin(p)) of two spectra."""
    est, ref = rect(est_spec), rect(ref_spec)
    _check_same_shape(est, ref, "complex_loss")
    diff = T.sub(est, ref)
    # a mean per part: one mean over both would sum, and round, in another order
    re, im = (T.crop(diff, 1, i, i + 1) for i in (0, 1))
    half = T.add(T.mean_all(T.mul(re, re)), T.mean_all(T.mul(im, im)))
    return T.mul_scalar(half, 0.5)


def time_loss(est, ref):
    """Mean absolute error between waveforms [B, N]."""
    _check_same_shape(est, ref, "time_loss")
    return T.mean_all(T.absolute(T.sub(est, ref)))


def consistency_loss(est_spec, target_len=None):
    """Distance of a spectrogram from the image of the analysis transform:
    MSE between its rectangular form and stft(istft(.))."""
    cfg = est_spec.config
    t_frames = est_spec.frames
    if target_len is None:
        target_len = (t_frames - 1) * cfg.hop + (0 if cfg.center else cfg.win_length)
    est = rect(est_spec)
    wave = istft_rect(est, cfg, target_len)
    est_rt = stft_rect(wave, cfg)
    if est_rt.shape != est.shape:
        est_rt = T.crop(est_rt, 3, 0, est.shape[3])
    diff = T.sub(est, est_rt)
    return T.mean_all(T.mul(diff, diff))


def total_loss(weights, magnitude=None, phase=None, complex_=None,
               time=None, consistency=None):
    """Weighted sum of the given component losses, in their dtype and in the
    order magnitude, phase, complex, time, consistency."""
    pairs = [
        (weights.magnitude, magnitude),
        (weights.phase, phase),
        (weights.complex, complex_),
        (weights.time, time),
        (weights.consistency, consistency),
    ]
    terms = [T.mul_scalar(comp, w) for w, comp in pairs
             if w != 0.0 and comp is not None]
    return functools.reduce(T.add, terms) if terms else Tensor(np.zeros(()))
