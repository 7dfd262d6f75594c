"""Segmented enhance: `blocks.enhance` runs a file longer than one segment
(`spectro.segment_seconds`) through the model one segment at a time and
cross-fades neighbours in the rectangular domain."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from primek import config as C
from primek import tensor as T
from primek.blocks import EnhancementModel, enhance, segment_starts
from primek.config import default_run_config, tiny_run_config
from primek.spectral import Spectrogram, compress, decompress, istft, stft
from primek.tensor import Tensor
from primek.trainer import make_dataset, si_snr, train_toy
from test_blocks import random_weight_model

TINY = tiny_run_config()
TINY_SP = TINY.spectro


def whole_file_enhance(wave, model, sp):
    """`enhance` as it was before segments: one model call on the file."""
    comp = compress(stft(wave, sp))
    mask, phase_hat = model.forward(comp.magnitude, comp.phase)
    est = decompress(Spectrogram(T.mul(mask, comp.magnitude), phase_hat, sp))
    return istft(est, wave.shape[-1])


def snr_db(ref, out):
    return 10 * np.log10(np.sum(ref ** 2) / max(np.sum((out - ref) ** 2), 1e-300))


# ---------------------------------------------------------------------------
# segment placement
# ---------------------------------------------------------------------------

def test_segments_are_exact_overlap_by_an_eighth_and_end_on_the_last_frame():
    seg = TINY_SP.frame_count(TINY_SP.segment_samples)  # 65 frames, overlap 8
    assert segment_starts(TINY_SP, seg) == [0]
    assert segment_starts(TINY_SP, 1) == [0]
    starts = segment_starts(TINY_SP, 501)
    assert starts[:3] == [0, 57, 114]
    assert starts[-1] == 501 - seg
    overlaps = [a + seg - b for a, b in zip(starts, starts[1:])]
    assert overlaps[:-1] == [8] * (len(starts) - 2)
    assert 8 <= overlaps[-1] < seg


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def test_identity_mode_reconstructs_across_seams():
    """The weights sum to one and the seams add no error: an identity-mode
    model reconstructs a 1 s clip of 9 segments as well as one segment."""
    model = EnhancementModel(replace(TINY.model, identity_mode=True), seed=0)
    x = np.random.default_rng(0).standard_normal((1, TINY_SP.sample_rate))
    assert len(segment_starts(TINY_SP, TINY_SP.frame_count(x.shape[1]))) == 9
    with T.no_grad():
        out = enhance(Tensor(x), model, TINY_SP)
    assert out.shape == x.shape
    assert snr_db(x, out.data) > 60


@pytest.mark.parametrize("make_cfg, n", [(tiny_run_config, 2048),
                                         (default_run_config, 32000)],
                         ids=["tiny-2048", "default-2s"])
def test_one_segment_clip_is_unchanged(make_cfg, n):
    """A clip of exactly one segment takes the whole-file path."""
    cfg = make_cfg()
    assert cfg.spectro.segment_samples == n
    model = random_weight_model(cfg.model, seed=2201)
    wave = Tensor(0.3 * np.random.default_rng(4).standard_normal((1, n)))
    with T.no_grad():
        got = enhance(wave, model, cfg.spectro).data
        want = whole_file_enhance(wave, model, cfg.spectro).data
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2048, 4096], ids=["one-segment", "segmented"])
def test_enhance_with_gradients_on_records_no_tape(n):
    """`enhance` runs with gradients off whatever the caller's mode: with
    gradients on and an input that requires them, it returns the no_grad
    output, with no tape behind it, and leaves gradient mode on."""
    model = random_weight_model(TINY.model, seed=2202)
    wave = Tensor(0.3 * np.random.default_rng(5).standard_normal((1, n)),
                  requires_grad=True)
    got = enhance(wave, model, TINY_SP)
    assert T._grad_enabled
    with T.no_grad():
        want = enhance(wave, model, TINY_SP).data
    assert not got.requires_grad and got._parents == () and got._backward_fn is None
    assert np.array_equal(got.data, want)


def test_shortest_segment_enhances_to_finite_output():
    """The shortest segment `config.build` accepts is 2 STFT frames (here
    160 samples, a window and a hop, without centre padding), so neighbours
    overlap by one frame."""
    pairs = C.parse(C.dump(TINY))
    pairs["spectro.center"] = "false"
    pairs["spectro.segment_seconds"] = repr(159 / 16000)
    with pytest.raises(C.ConfigError):
        C.build(pairs)
    pairs["spectro.segment_seconds"] = repr(160 / 16000)
    sp = C.build(pairs).spectro
    assert sp.frame_count(sp.segment_samples) == 2
    model = random_weight_model(TINY.model, seed=2203)
    x = 0.3 * np.random.default_rng(6).standard_normal((1, sp.sample_rate // 2))
    starts = segment_starts(sp, sp.frame_count(x.shape[1]))
    assert starts == list(range(sp.frame_count(x.shape[1]) - 1))
    with T.no_grad():
        out = enhance(Tensor(x), model, sp).data
    assert out.shape == x.shape
    assert np.all(np.isfinite(out))


def test_float32_blend_stays_float32():
    model = EnhancementModel(replace(TINY.model, identity_mode=True), seed=0)
    x = np.random.default_rng(7).standard_normal((2, 8000)).astype(np.float32)
    with T.no_grad():
        out = enhance(Tensor(x), model, TINY_SP)
    assert out.dtype == np.float32
    assert np.abs(out.data - x).max() < 1e-5


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def traced_peak(model, seconds):
    x = Tensor(0.3 * np.random.default_rng(8).standard_normal(
        (1, int(seconds * TINY_SP.sample_rate))))
    tracemalloc.start()
    try:
        with T.no_grad():
            enhance(x, model, TINY_SP)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enhance_peak_memory_grows_only_by_whole_file_arrays():
    """Only the waveform, its STFT and the rectangular accumulator span the
    whole file. Counted in units of one float64 rectangular spectrum
    [1, 2, F, T], the peak holds the accumulator and the iSTFT's complex
    spectrum and frames, with the waveform and output a quarter unit each,
    so it may grow by at most 6 units from 8 s to 32 s (measured: 3.2).
    Run on the whole file, the model's activations grew the peak ~4x."""
    model = EnhancementModel(TINY.model, seed=0)
    unit = [2 * TINY_SP.bins * TINY_SP.frame_count(s * TINY_SP.sample_rate) * 8
            for s in (8, 32)]
    short, long = traced_peak(model, 8), traced_peak(model, 32)
    assert long - short < 6 * (unit[1] - unit[0])


# ---------------------------------------------------------------------------
# quality on a trained model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("segments")
    return train_toy(TINY.model, TINY_SP, TINY.task, 300, weights=TINY.weights,
                     mode=TINY.loss_mode, opt_cfg=TINY.opt,
                     batch_size=TINY.batch_size, out_dir=str(out), seed=0).model


@pytest.mark.parametrize("seconds", [1, 4])
def test_segmented_quality_is_close_to_whole_file(trained_tiny, seconds):
    """On 8 held-out toy clips, the segmented output's SI-SNR against clean
    is within 1 dB of the whole-file output's, and its SI-SNR against the
    whole-file output is 15 dB on average and 12 dB at least. Measured
    after 300 steps (noisy / whole / segmented; segmented vs whole, mean
    and min): 1 s 4.44 / 10.47 / 10.14 dB, 21.8 and 15.1 dB; 4 s 2.86 /
    8.55 / 8.07 dB, 17.9 and 14.4 dB."""
    n = seconds * TINY_SP.sample_rate
    task = replace(TINY.task, segment_samples=n, train_size=1, eval_size=8, seed=22)
    _, (clean, noisy) = make_dataset(task)
    whole_sp = replace(TINY_SP, segment_seconds=float(seconds))
    with T.no_grad():
        seg = np.concatenate([enhance(Tensor(x[None]), trained_tiny, TINY_SP).data
                              for x in noisy])
        whole = np.concatenate([enhance(Tensor(x[None]), trained_tiny, whole_sp).data
                                for x in noisy])
    assert len(segment_starts(TINY_SP, TINY_SP.frame_count(n))) > 1
    assert len(segment_starts(whole_sp, whole_sp.frame_count(n))) == 1
    assert si_snr(seg, clean) > si_snr(whole, clean) - 1.0
    vs_whole = [si_snr(s, w) for s, w in zip(seg, whole)]
    assert np.mean(vs_whole) > 15.0
    assert min(vs_whole) > 12.0
