import tracemalloc

import numpy as np
import pytest

from primek import tensor as T
from primek.config import tiny_run_config
from primek.spectral import (
    AudioIOError,
    ColaError,
    SpectroConfig,
    Spectrogram,
    compress,
    decompress,
    istft,
    istft_rect,
    naive_rdft,
    stft,
    stft_rect,
    wav_read,
    wav_write,
)
from primek.tensor import ShapeError, Tensor

RNG = np.random.default_rng(11)

FULL_CFG = SpectroConfig()  # 400/400/100 Hann, 16 kHz, 2-second segments
TINY_CFG = SpectroConfig(fft_size=64, win_length=64, hop=16, segment_seconds=0.032)


def snr_db(ref, est):
    err = np.sum((ref - est) ** 2)
    return 10 * np.log10(np.sum(ref ** 2) / max(err, 1e-300))


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_default_geometry():
    assert FULL_CFG.bins == 201
    assert FULL_CFG.segment_samples == 32000
    assert FULL_CFG.frame_count(32000) == 321


def test_cola_deviation_small():
    assert FULL_CFG.cola_deviation() < 1e-10


def test_non_cola_hop_rejected():
    with pytest.raises(ColaError):
        SpectroConfig(fft_size=400, win_length=400, hop=170)


def test_bad_field_combinations_rejected():
    with pytest.raises(ValueError):
        SpectroConfig(fft_size=256, win_length=400, hop=100)
    with pytest.raises(ValueError):
        SpectroConfig(fft_size=400, win_length=100, hop=200)
    with pytest.raises(ValueError):
        SpectroConfig(compression_exponent=0.0)


def test_spectrogram_shape_contract():
    mag = Tensor(np.zeros((1, 200, 5)))
    pha = Tensor(np.zeros((1, 200, 5)))
    with pytest.raises(ShapeError):
        Spectrogram(mag, pha, FULL_CFG)  # 200 != 201 bins


# ---------------------------------------------------------------------------
# direct-DFT oracle
# ---------------------------------------------------------------------------

def test_naive_rdft_matches_fft():
    for n in (8, 25, 400):  # 400 = 2^4 * 5^2, the mixed-radix default frame size
        frame = RNG.standard_normal(n)
        re, im = naive_rdft(frame)
        want = np.fft.rfft(frame)
        assert np.abs(re - want.real).max() < 1e-8
        assert np.abs(im - want.imag).max() < 1e-8


# ---------------------------------------------------------------------------
# stft forward
# ---------------------------------------------------------------------------

def test_stft_zero_signal_gives_zero_magnitude():
    wave = Tensor(np.zeros((1, 32000)))
    spec = stft(wave, FULL_CFG)
    assert spec.magnitude.shape == (1, 201, 321)
    assert np.all(spec.magnitude.data == 0.0)


def test_stft_full_rate_shape_on_random_signal():
    spec = stft(Tensor(RNG.standard_normal((1, 32000))), FULL_CFG)
    assert spec.magnitude.shape == (1, 201, 321)
    assert spec.phase.shape == (1, 201, 321)
    assert np.all(spec.magnitude.data >= 0)
    assert np.all(spec.phase.data > -np.pi) and np.all(spec.phase.data <= np.pi)


def test_pure_cosine_concentrates_in_its_bin():
    # rectangular-window debug mode, no centre padding: frames are exact
    cfg = SpectroConfig(fft_size=64, win_length=64, hop=16, window="rect",
                        center=False, segment_seconds=0.032)
    k = 5
    n = np.arange(256)
    wave = Tensor(np.cos(2 * np.pi * k * n / 64)[None, :])
    spec = stft(wave, cfg)
    power = spec.magnitude.data[0] ** 2
    assert np.all(power[k] >= 0.99 * power.sum(axis=0))


def test_short_signal_without_padding_rejected():
    cfg = SpectroConfig(fft_size=64, win_length=64, hop=16, center=False,
                        segment_seconds=0.032)
    with pytest.raises(ShapeError):
        stft(Tensor(np.zeros((1, 32))), cfg)


def test_magnitude_invariant_to_hop_shift():
    cfg = SpectroConfig(fft_size=64, win_length=64, hop=16, center=False,
                        segment_seconds=0.032)
    x = RNG.standard_normal(512)
    a = stft(Tensor(x[None, :]), cfg).magnitude.data[0]
    b = stft(Tensor(x[None, cfg.hop:]), cfg).magnitude.data[0]
    assert np.abs(a[:, 1:b.shape[1] + 1] - b).max() < 1e-12


def test_parseval_per_frame():
    cfg = SpectroConfig(fft_size=64, win_length=64, hop=16, center=False,
                        segment_seconds=0.032)
    x = RNG.standard_normal(256)
    spec = stft(Tensor(x[None, :]), cfg)
    win = cfg.analysis_window()
    weights = np.full(cfg.bins, 2.0)
    weights[0] = weights[-1] = 1.0
    for m in range(spec.frames):
        seg = x[m * cfg.hop: m * cfg.hop + cfg.win_length] * win
        spectral_energy = np.sum(weights * spec.magnitude.data[0, :, m] ** 2) / 64
        assert abs(spectral_energy - np.sum(seg ** 2)) <= 0.01 * np.sum(seg ** 2)


# ---------------------------------------------------------------------------
# istft and roundtrips
# ---------------------------------------------------------------------------

def test_roundtrip_snr_over_ten_random_signals():
    for _ in range(10):
        x = RNG.standard_normal((1, 32000))
        back = istft(stft(Tensor(x), FULL_CFG), 32000)
        assert snr_db(x, back.data) > 60


def test_zero_spectrogram_gives_zero_signal():
    zero = Spectrogram(Tensor(np.zeros((1, 201, 321))),
                       Tensor(np.zeros((1, 201, 321))), FULL_CFG)
    out = istft(zero, 32000)
    assert out.shape == (1, 32000)
    assert np.all(out.data == 0.0)


def test_istft_matches_manual_overlap_add():
    cfg = SpectroConfig(fft_size=16, win_length=16, hop=4, center=False,
                        segment_seconds=0.002, sample_rate=16000)
    t_frames = 3
    rect = RNG.standard_normal((1, 2, cfg.bins, t_frames))
    target = cfg.win_length + (t_frames - 1) * cfg.hop
    got = istft_rect(Tensor(rect), cfg, target).data[0]

    win = cfg.analysis_window()
    acc = np.zeros(target)
    wss = np.zeros(target)
    for m in range(t_frames):
        z = rect[0, 0, :, m] + 1j * rect[0, 1, :, m]
        seg = np.fft.irfft(z, cfg.fft_size)[:cfg.win_length] * win
        acc[m * cfg.hop: m * cfg.hop + cfg.win_length] += seg
        wss[m * cfg.hop: m * cfg.hop + cfg.win_length] += win ** 2
    want = acc / np.maximum(wss, 1e-12)
    assert np.abs(got - want).max() < 1e-12


def test_stft_rect_gradient_is_exact_adjoint():
    cfg = SpectroConfig(fft_size=16, win_length=16, hop=4,
                        segment_seconds=0.002, sample_rate=16000)
    x = Tensor(RNG.standard_normal((1, 32)), requires_grad=True)
    proj = RNG.standard_normal(stft_rect(Tensor(x.data), cfg).shape)

    def scalar():
        return float(np.sum(stft_rect(x, cfg).data * proj))

    T.sum_all(T.mul(stft_rect(x, cfg), Tensor(proj))).backward()
    h = 1e-6
    flat, gflat = x.data.reshape(-1), x.grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = scalar()
        flat[i] = keep - h
        fm = scalar()
        flat[i] = keep
        fd = (fp - fm) / (2 * h)
        assert abs(gflat[i] - fd) / (1 + max(abs(gflat[i]), abs(fd))) < 1e-7


def test_istft_rect_gradient_is_exact_adjoint():
    cfg = SpectroConfig(fft_size=16, win_length=16, hop=4,
                        segment_seconds=0.002, sample_rate=16000)
    rect = Tensor(RNG.standard_normal((1, 2, cfg.bins, 4)), requires_grad=True)
    target = 20
    proj = RNG.standard_normal((1, target))

    def scalar():
        return float(np.sum(istft_rect(rect, cfg, target).data * proj))

    T.sum_all(T.mul(istft_rect(rect, cfg, target), Tensor(proj))).backward()
    h = 1e-6
    flat, gflat = rect.data.reshape(-1), rect.grad.reshape(-1)
    for i in RNG.choice(flat.size, size=24, replace=False):
        keep = flat[i]
        flat[i] = keep + h
        fp = scalar()
        flat[i] = keep - h
        fm = scalar()
        flat[i] = keep
        fd = (fp - fm) / (2 * h)
        assert abs(gflat[i] - fd) / (1 + max(abs(gflat[i]), abs(fd))) < 1e-7


def test_istft_rect_peak_holds_one_complex_spectrum_and_its_frames():
    """Above what it is given, the iSTFT of 32 s under the `tiny` geometry
    peaks at its complex spectrum (one unit: a float64 [1, 2, F, T]
    spectrum), the irfft frames (2(F - 1) samples a frame, ~1 unit) and the
    overlap-add normaliser (~1/4 unit); measured 2.24."""
    cfg = tiny_run_config().spectro
    n = 32 * cfg.sample_rate
    rect = Tensor(RNG.standard_normal((1, 2, cfg.bins, cfg.frame_count(n))))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        istft_rect(rect, cfg, n)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rect.data.nbytes


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def test_compress_exponent_one_is_identity():
    cfg = SpectroConfig(compression_exponent=1.0)
    spec = stft(Tensor(RNG.standard_normal((1, 32000))), cfg)
    assert np.array_equal(compress(spec).magnitude.data, spec.magnitude.data)


def test_compress_known_value():
    cfg = SpectroConfig(fft_size=16, win_length=16, hop=4,
                        segment_seconds=0.002, compression_exponent=0.5)
    spec = Spectrogram(Tensor(np.full((1, 9, 2), 4.0)),
                       Tensor(np.zeros((1, 9, 2))), cfg)
    assert np.allclose(compress(spec).magnitude.data, 2.0)


def test_compress_decompress_roundtrip():
    spec = stft(Tensor(RNG.standard_normal((1, 32000))), FULL_CFG)
    back = decompress(compress(spec))
    assert np.abs(back.magnitude.data - spec.magnitude.data).max() < 1e-10
    assert np.array_equal(back.phase.data, spec.phase.data)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def test_wav_full_scale_negative(tmp_path):
    path = tmp_path / "fs.wav"
    wav_write(path, np.array([-1.0, 0.0]), 16000)
    wave, rate = wav_read(path)
    assert rate == 16000
    assert wave.data[0, 0] == -1.0


def test_wav_silence_roundtrip(tmp_path):
    path = tmp_path / "silence.wav"
    wav_write(path, np.zeros(1000), 16000)
    wave, _ = wav_read(path)
    assert np.all(wave.data == 0.0)


def test_wav_random_roundtrip_within_quantization(tmp_path):
    path = tmp_path / "r.wav"
    x = RNG.uniform(-0.9, 0.9, 2048)
    wav_write(path, x, 16000)
    wave, _ = wav_read(path)
    assert np.abs(wave.data[0] - x).max() <= 1.0 / 32768


def test_wav_write_holds_one_scaled_copy_and_writes_the_rounded_clipped_samples(tmp_path):
    """Above its input, writing 10 s of float64 audio peaks at one scaled
    copy and the 16-bit samples, 1.25 waveforms (measured: 1.2506; a
    separate array for the scaled copy, its rounding and its clipping
    peaked at 2.0). The samples are round(x * 32768) clipped to PCM16,
    ties to even, out-of-range values saturated."""
    import wave as wavemod

    path = tmp_path / "w.wav"
    x = RNG.uniform(-1.2, 1.2, 160000)
    x[:6] = [1.0, -1.0, 0.5 / 32768, 1.5 / 32768, -2.5 / 32768, -1.00002]
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        wav_write(path, Tensor(x[None]), 16000)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes + 4096
    with wavemod.open(str(path), "rb") as fh:
        got = np.frombuffer(fh.readframes(fh.getnframes()), "<i2")
    want = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    assert np.array_equal(got, want)
    assert list(got[:6]) == [32767, -32768, 0, 2, -2, -32768]


def test_wav_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFFgarbage-that-is-not-a-wav-file")
    with pytest.raises(AudioIOError):
        wav_read(path)


def test_wav_stereo_downmix_warns(tmp_path):
    import wave as wavemod

    path = tmp_path / "stereo.wav"
    left = (np.full(100, 8000)).astype("<i2")
    right = (np.full(100, 16000)).astype("<i2")
    inter = np.empty(200, dtype="<i2")
    inter[0::2] = left
    inter[1::2] = right
    with wavemod.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(inter.tobytes())
    with pytest.warns(UserWarning, match="downmix"):
        wave_t, _ = wav_read(path)
    assert np.allclose(wave_t.data, 12000 / 32768.0)
