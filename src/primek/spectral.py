"""STFT/iSTFT front-end, magnitude-phase handling, and WAV file I/O.

The analysis/synthesis pair is implemented as tape operations with exact
linear adjoints, so waveform-domain and consistency losses backpropagate
through it. A naive O(n^2) DFT is kept alongside as the oracle for the
fast transform.
"""

from __future__ import annotations

import wave as _wavemod
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    ShapeError,
    _op,
    cos,
    mul,
    powf,
    sin,
    stack,
)


class AudioIOError(IOError):
    """Raised for malformed or unsupported audio files."""


class ColaError(ValueError):
    """Raised when the window/hop pair violates constant overlap-add."""


def hann_window(length):
    # periodic form; satisfies COLA for hop = length/2^k
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


def rect_window(length):
    return np.ones(length)


_WINDOWS = {"hann": hann_window, "rect": rect_window}

COLA_TOL = 1e-10


@dataclass(frozen=True)
class SpectroConfig:
    fft_size: int = 400
    win_length: int = 400
    hop: int = 100
    window: str = "hann"
    sample_rate: int = 16000
    segment_seconds: float = 2.0
    compression_exponent: float = 0.3
    center: bool = True

    def __post_init__(self):
        if self.hop < 1:
            raise ValueError(f"hop {self.hop} must be >= 1")
        if self.sample_rate < 1:
            raise ValueError(f"spectro.sample_rate {self.sample_rate} must be >= 1")
        if not self.segment_seconds > 0:
            raise ValueError(
                f"spectro.segment_seconds {self.segment_seconds} must be > 0")
        if self.win_length > self.fft_size:
            raise ValueError(
                f"win_length {self.win_length} exceeds fft_size {self.fft_size}"
            )
        if self.hop > self.win_length:
            raise ValueError(f"hop {self.hop} exceeds win_length {self.win_length}")
        if not 0.0 < self.compression_exponent <= 1.0:
            raise ValueError("compression_exponent must lie in (0, 1]")
        if self.window not in _WINDOWS:
            raise ValueError(f"unknown window kind {self.window!r}")
        dev = self.cola_deviation()
        if dev > COLA_TOL:
            raise ColaError(
                f"window {self.window!r} with hop {self.hop} is not COLA "
                f"(squared-window overlap deviates by {dev:.3e})"
            )

    @property
    def bins(self):
        return self.fft_size // 2 + 1

    @property
    def pad(self):
        """Samples of reflection padding at each end of a centred STFT."""
        return self.fft_size // 2 if self.center else 0

    @property
    def segment_samples(self):
        return int(round(self.segment_seconds * self.sample_rate))

    def analysis_window(self):
        return _WINDOWS[self.window](self.win_length)

    def cola_deviation(self):
        """Max relative deviation of the overlap-added squared window."""
        w2 = self.analysis_window() ** 2
        n_frames = 8 * (self.win_length // self.hop) + 8
        total = _overlap_add(
            np.broadcast_to(w2, (n_frames, self.win_length)), self.hop,
            self.win_length + (n_frames - 1) * self.hop,
        )
        interior = total[self.win_length: -self.win_length]
        mean = interior.mean()
        return float(np.abs(interior - mean).max() / mean)

    def frame_count(self, n_samples):
        n = n_samples + 2 * self.pad
        if n < self.win_length:
            raise ShapeError(
                f"signal of {n_samples} samples is shorter than the analysis "
                f"window ({self.win_length}) and centre padding is off"
            )
        return (n - self.win_length) // self.hop + 1


@dataclass
class Spectrogram:
    """Magnitude (nonnegative) and phase (radians) as [B, F, T] tensors."""

    magnitude: Tensor
    phase: Tensor
    config: SpectroConfig

    def __post_init__(self):
        if self.magnitude.shape != self.phase.shape:
            raise ShapeError(
                f"magnitude {self.magnitude.shape} vs phase {self.phase.shape}"
            )
        if self.magnitude.shape[1] != self.config.bins:
            raise ShapeError(
                f"frequency axis {self.magnitude.shape[1]} != "
                f"{self.config.bins} bins of the config"
            )

    @property
    def frames(self):
        return self.magnitude.shape[2]


# ---------------------------------------------------------------------------
# naive DFT oracle
# ---------------------------------------------------------------------------

def naive_rdft(frame):
    """O(n^2) real-input DFT: returns (re, im) arrays of length n//2 + 1.

    Reference oracle for the fast transform used by stft().
    """
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.shape[-1]
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    ang = 2.0 * np.pi * np.outer(k, t) / n
    return frame @ np.cos(ang).T, -(frame @ np.sin(ang).T)


# ---------------------------------------------------------------------------
# framing helpers
# ---------------------------------------------------------------------------

def _reflect_pad(x, p):
    return np.pad(x, ((0, 0), (p, p)), mode="reflect")


def _reflect_fold(gpad, p, n):
    g = gpad[:, p: p + n].copy()
    g[:, 1: p + 1] += gpad[:, :p][:, ::-1]
    g[:, n - 1 - p: n - 1] += gpad[:, p + n:][:, ::-1]
    return g


def _frame(xp, cfg, t_frames):
    idx = np.arange(cfg.win_length)[None, :] + cfg.hop * np.arange(t_frames)[:, None]
    return xp[:, idx]  # [B, T, win]


def _overlap_add(frames, hop, length, out=None, first=0):
    """Adjoint of framing: frames [..., T, win] placed every `hop` samples
    and summed -> [..., length].

    Each frame is cut into hop-long blocks and block j of every frame is
    added in one step, last block first, so every sample sums its frames
    in ascending frame order, as a loop over frames would. Given `out`
    ([..., rows * hop], contiguous), the frames are added into it as frames
    first, first + 1, ... of a longer sequence; runs of frames added in
    ascending order sum every sample in the order one call on all of them
    would.
    """
    t_frames, win = frames.shape[-2:]
    n_blocks = -(-win // hop)
    if out is None:
        rows = max(t_frames + n_blocks - 1, -(-length // hop))
        out = np.zeros(frames.shape[:-2] + (rows * hop,), dtype=frames.dtype)
    blocks = out.reshape(out.shape[:-1] + (-1, hop))
    for j in reversed(range(n_blocks)):
        w = min(hop, win - j * hop)
        blocks[..., first + j: first + j + t_frames, :w] += frames[..., j * hop: j * hop + w]
    return out[..., :length]


def _window_square_sum(win, hop, t_frames):
    """Overlap-added squared window of t_frames frames, floored at 1e-12:
    the iSTFT's normaliser, [win_length + (t_frames - 1) * hop]."""
    wl = len(win)
    wss = _overlap_add(np.broadcast_to(win * win, (t_frames, wl)), hop,
                       wl + (t_frames - 1) * hop)
    return np.maximum(wss, 1e-12, out=wss)


def _synthesis_frames(rect, cfg, win):
    """Rectangular spectra [B, 2, F, T] -> windowed irfft frames [B, T, win].

    The peak holds one complex spectrum and one frame array: the spectrum
    is freed after the irfft and the frames are windowed in place."""
    b, _, bins, t_frames = rect.shape
    z = np.empty((b, t_frames, bins), np.result_type(rect.dtype, np.complex64))
    z.real = rect[:, 0].transpose(0, 2, 1)
    z.imag = rect[:, 1].transpose(0, 2, 1)
    frames = np.fft.irfft(z, n=cfg.fft_size, axis=-1)[..., :cfg.win_length]
    del z
    frames *= win
    return frames


def _rfft_bin_scale(fft_size, dtype):
    scale = np.full(fft_size // 2 + 1, 2.0, dtype)
    scale[0] = 1.0
    if fft_size % 2 == 0:
        scale[-1] = 1.0
    return scale


# ---------------------------------------------------------------------------
# stft / istft tape operations (rectangular form)
# ---------------------------------------------------------------------------

def stft_rect(wave, cfg):
    """wave [B, N] -> rectangular spectrogram [B, 2, F, T] (re, im)."""
    if wave.data.ndim != 2:
        raise ShapeError(f"stft expects [B, N], got {wave.shape}")
    n = wave.shape[1]
    t_frames = cfg.frame_count(n)
    p = cfg.pad
    win = cfg.analysis_window().astype(wave.dtype)

    xp = _reflect_pad(wave.data, p) if p else wave.data
    frames = _frame(xp, cfg, t_frames) * win  # [B, T, win]
    spec = np.fft.rfft(frames, n=cfg.fft_size, axis=-1)
    out = np.stack(
        [spec.real.transpose(0, 2, 1), spec.imag.transpose(0, 2, 1)], axis=1
    )

    def grad(g):
        h = g[:, 0].transpose(0, 2, 1) + 1j * g[:, 1].transpose(0, 2, 1)
        h = h / _rfft_bin_scale(cfg.fft_size, win.dtype)
        frame_grad = cfg.fft_size * np.fft.irfft(h, n=cfg.fft_size, axis=-1)
        frame_grad = frame_grad[..., : cfg.win_length] * win
        gpad = _overlap_add(frame_grad, cfg.hop, xp.shape[1])
        return _reflect_fold(gpad, p, n) if p else gpad

    return _op(out, (wave, grad))


def istft_rect(rect, cfg, target_len):
    """Inverse of stft_rect by windowed overlap-add: [B,2,F,T] -> [B, N].

    Segmented `blocks.enhance` runs the same steps a run of frames at a
    time, overlap-adding each run into one buffer."""
    if rect.data.ndim != 4 or rect.shape[1] != 2 or rect.shape[2] != cfg.bins:
        raise ShapeError(
            f"istft expects [B, 2, {cfg.bins}, T], got {rect.shape}"
        )
    b, _, _, t_frames = rect.shape
    win = cfg.analysis_window().astype(rect.dtype)
    hop, fft, wl = cfg.hop, cfg.fft_size, cfg.win_length
    full = wl + (t_frames - 1) * hop
    p = cfg.pad
    if p + target_len > full:
        raise ShapeError(
            f"requested {target_len} samples but only {full - p} reconstructible"
        )

    frames = _synthesis_frames(rect.data, cfg, win)
    y = _overlap_add(frames, hop, full)
    del frames
    wss = _window_square_sum(win, hop, t_frames)
    y /= wss
    out = np.ascontiguousarray(y[:, p: p + target_len])

    def grad(g):
        gy = np.zeros((b, full), win.dtype)
        gy[:, p: p + target_len] = g
        gy /= wss
        frame_grad = _frame(gy, cfg, t_frames) * win
        spec = np.fft.rfft(frame_grad, n=fft, axis=-1)
        scale = _rfft_bin_scale(fft, win.dtype) / fft
        gre = (spec.real * scale).transpose(0, 2, 1)
        gim = (spec.imag * scale).transpose(0, 2, 1)
        gim[:, 0] = 0.0  # irfft ignores imaginary parts of the DC bin
        if fft % 2 == 0:
            gim[:, -1] = 0.0
        return np.stack([gre, gim], axis=1)

    return _op(out, (rect, grad))


# ---------------------------------------------------------------------------
# magnitude/phase API
# ---------------------------------------------------------------------------

def stft(wave, cfg):
    """wave [B, N] tensor (or array) -> Spectrogram with exact mag/phase."""
    if not isinstance(wave, Tensor):
        wave = Tensor(np.atleast_2d(wave))
    rect = stft_rect(wave, cfg)
    re, im = rect.data[:, 0], rect.data[:, 1]
    mag = Tensor(np.hypot(re, im))
    ph = np.arctan2(im, re)
    ph[ph == -np.pi] = np.pi  # keep range (-pi, pi]
    return Spectrogram(mag, Tensor(ph), cfg)


def rect(spec):
    """Spectrogram -> its rectangular form [B, 2, F, T]: (m cos p, m sin p)."""
    re = mul(spec.magnitude, cos(spec.phase))
    im = mul(spec.magnitude, sin(spec.phase))
    return stack([re, im], axis=1)


def istft(spec, target_len):
    """Spectrogram -> waveform [B, N]; differentiable in mag and phase."""
    return istft_rect(rect(spec), spec.config, target_len)


def compress(spec):
    """Power-law magnitude compression m -> m^c; phase untouched."""
    c = spec.config.compression_exponent
    mag = spec.magnitude if c == 1.0 else powf(spec.magnitude, c)
    return Spectrogram(mag, spec.phase, spec.config)


def decompress(spec):
    c = spec.config.compression_exponent
    mag = spec.magnitude if c == 1.0 else powf(spec.magnitude, 1.0 / c)
    return Spectrogram(mag, spec.phase, spec.config)


# ---------------------------------------------------------------------------
# WAV I/O (RIFF / PCM16)
# ---------------------------------------------------------------------------

def wav_read(path):
    """Read a PCM16 WAV file -> (Tensor [1, N] in [-1, 1), sample_rate)."""
    try:
        with _wavemod.open(str(path), "rb") as fh:
            n_channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            rate = fh.getframerate()
            n = fh.getnframes()
            raw = fh.readframes(n)
    except (_wavemod.Error, EOFError) as exc:
        raise AudioIOError(f"{path}: malformed RIFF/WAV file ({exc})") from exc
    if sampwidth != 2:
        raise AudioIOError(
            f"{path}: unsupported bit depth {8 * sampwidth}; only 16-bit PCM"
        )
    if not raw:
        raise AudioIOError(f"{path}: no audio frames")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_channels > 1:
        warnings.warn(f"{path}: downmixing {n_channels} channels by averaging")
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    return Tensor(samples[None, :]), rate


def wav_write(path, wave, sample_rate):
    """Write wave (Tensor or array, N samples) as mono PCM16, rounding and
    clipping one scaled copy in place: the peak above the input holds it
    and the 16-bit samples (1.25 copies of a float64 input)."""
    data = (wave.data if isinstance(wave, Tensor) else np.asarray(wave)).reshape(-1)
    scaled = data * 32768.0
    np.round(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    quantized = scaled.astype("<i2")
    del scaled
    with _wavemod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(sample_rate))
        fh.writeframes(quantized)
