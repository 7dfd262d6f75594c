"""Output checks that do not reuse primek's own code.

Each check recomputes a value from its mathematical definition with plain
numpy and raises `CheckFailed` when primek's value disagrees.
"""

from __future__ import annotations

import wave

import numpy as np

CONV_RTOL = 1e-10
STFT_RTOL = 1e-9
CONV_SAMPLES = 3  # output coordinates checked per convolution call


class CheckFailed(AssertionError):
    pass


def _tuple(v, n):
    return tuple(v) if isinstance(v, tuple) else (v,) * n


def check_conv(x, spec, w, bias, out, macs, rng):
    """Check a 1-D or 2-D convolution call: its MAC count against
    outputs x input channels per group x kernel taps, and sampled outputs
    against the direct sum over the group's input channels and kernel taps.

    Zero "same" padding is d*(k-1)//2 on both sides; taps that fall outside
    the input contribute nothing.
    """
    nd = x.ndim - 2
    kernel = _tuple(spec.kernel, nd)
    stride = _tuple(spec.stride, nd)
    dil = _tuple(spec.dilation, nd)
    pad = [d * (k - 1) // 2 if spec.padding == "same" else 0
           for k, d in zip(kernel, dil)]
    cin_g = x.shape[1] // spec.groups
    cout_g = w.shape[0] // spec.groups
    want_macs = out.size * cin_g * int(np.prod(kernel))
    if macs != want_macs:
        raise CheckFailed(f"conv{nd}d counted {macs} MACs, expected {want_macs}")
    for _ in range(CONV_SAMPLES):
        coord = tuple(int(rng.integers(n)) for n in out.shape)
        b, oc, pos = coord[0], coord[1], coord[2:]
        g = oc // cout_g
        xs = x[b, g * cin_g:(g + 1) * cin_g]
        ws = w[oc]
        for axis in range(nd):
            taps = pos[axis] * stride[axis] + np.arange(kernel[axis]) * dil[axis] - pad[axis]
            ok = (taps >= 0) & (taps < x.shape[2 + axis])
            xs = np.take(xs, taps[ok], axis=1 + axis)
            ws = np.compress(ok, ws, axis=1 + axis)
        terms = ws * xs
        want = terms.sum() + (0.0 if bias is None else bias[oc])
        scale = np.abs(terms).sum() + (0.0 if bias is None else abs(bias[oc]))
        if not abs(out[coord] - want) <= CONV_RTOL * max(scale, 1e-300):
            raise CheckFailed(
                f"conv{nd}d output {coord} = {out[coord]!r}, direct sum {want!r} "
                f"(groups={spec.groups}, kernel={kernel}, dilation={dil})")


def _hann(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def reference_stft(wave_bn, cfg):
    """Complex spectrum [B, F, T] from our own reflect padding, framing,
    periodic Hann window and np.fft.rfft."""
    if cfg.window != "hann":
        raise CheckFailed(f"no reference for window {cfg.window!r}")
    x = np.asarray(wave_bn, dtype=np.float64)
    if cfg.center:
        p = cfg.fft_size // 2
        x = np.pad(x, ((0, 0), (p, p)), mode="reflect")
    count = (x.shape[1] - cfg.win_length) // cfg.hop + 1
    win = _hann(cfg.win_length)
    frames = np.stack([x[:, m * cfg.hop: m * cfg.hop + cfg.win_length] * win
                       for m in range(count)], axis=1)
    return np.fft.rfft(frames, n=cfg.fft_size, axis=-1).transpose(0, 2, 1)


def _compare_spectra(got, want, what):
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, reference {want.shape}")
    err = np.abs(got - want).max()
    scale = max(np.abs(want).max(), 1e-300)
    if not err <= STFT_RTOL * scale:
        raise CheckFailed(f"{what}: max error {err:.3e} vs scale {scale:.3e}")


def check_stft_rect(wave_bn, cfg, rect):
    """rect: [B, 2, F, T] (re, im) as returned by spectral.stft_rect."""
    _compare_spectra(rect[:, 0] + 1j * rect[:, 1], reference_stft(wave_bn, cfg),
                     "stft_rect")


def check_spectrogram(wave_bn, spec):
    """Magnitude/phase spectrogram as returned by spectral.stft."""
    got = spec.magnitude.data * np.exp(1j * spec.phase.data)
    _compare_spectra(got, reference_stft(wave_bn, spec.config), "stft")


def check_enhanced(inp, out, in_path, out_path):
    """Enhanced audio keeps the input's length and rate and is finite, and
    the written file says so too (read back with the stdlib reader)."""
    if out.shape != inp.shape:
        raise CheckFailed(f"enhance output shape {out.shape} != input {inp.shape}")
    if not np.all(np.isfinite(out)):
        raise CheckFailed("enhance output holds non-finite samples")
    with wave.open(str(in_path), "rb") as a, wave.open(str(out_path), "rb") as b:
        got = (b.getnchannels(), b.getframerate(), b.getnframes())
        want = (1, a.getframerate(), a.getnframes())
    if got != want:
        raise CheckFailed(f"written file (channels, rate, frames) {got} != {want}")
