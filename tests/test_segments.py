"""Segmented enhance: `blocks.enhance` streams every file one segment
(`spectro.segment_seconds`) at a time: the STFT of a crop of the input,
the model, the cross-fade of neighbours in the rectangular domain and the
overlap-add of its finished frames."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from primek import config as C
from primek import tensor as T
from primek.blocks import EnhancementModel, enhance, estimate, segment_starts
from primek.config import default_run_config, tiny_run_config
from primek.spectral import (
    SpectroConfig,
    Spectrogram,
    compress,
    decompress,
    istft,
    istft_rect,
    rect,
    stft,
)
from primek.tensor import ShapeError, Tensor
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


def blended_enhance(wave, model, sp):
    """`enhance` of a file longer than one segment as it was before it
    streamed: the whole file's compressed spectrogram, `estimate` on crops
    of it, the cross-fade into a whole-file rectangular accumulator, one
    `istft_rect`."""
    comp = compress(stft(wave, sp))
    mag, phase, dtype = comp.magnitude, comp.phase, comp.magnitude.dtype
    starts = segment_starts(sp, comp.frames)
    seg = comp.frames - starts[-1]
    ov = max(1, seg // 8)
    ramp = np.arange(1, ov + 1, dtype=dtype) / (ov + 1)
    acc = np.zeros((mag.shape[0], 2) + mag.shape[1:], dtype)
    wsum = np.zeros(comp.frames, dtype)
    for i, s in enumerate(starts):
        w = np.ones(seg, dtype)
        if i > 0:
            w[:ov] = ramp
        if i < len(starts) - 1:
            w[-ov:] = ramp[::-1]
        part = Spectrogram(T.crop(mag, 2, s, s + seg), T.crop(phase, 2, s, s + seg), sp)
        acc[..., s:s + seg] += rect(decompress(estimate(model, part))).data * w
        wsum[s:s + seg] += w
    acc /= wsum
    return istft_rect(Tensor(acc), sp, wave.shape[-1])


def shortest_segment_spectro():
    """The shortest segment `config.build` accepts: 2 STFT frames (160
    samples, a window and a hop, without centre padding)."""
    pairs = C.parse(C.dump(TINY))
    pairs["spectro.center"] = "false"
    pairs["spectro.segment_seconds"] = repr(160 / 16000)
    return C.build(pairs).spectro


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
    """A clip of exactly one segment is one crop of the whole file, so its
    output is the whole-file enhance's."""
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
    sp = shortest_segment_spectro()
    assert sp.frame_count(sp.segment_samples) == 2
    model = random_weight_model(TINY.model, seed=2203)
    x = 0.3 * np.random.default_rng(6).standard_normal((1, sp.sample_rate // 2))
    starts = segment_starts(sp, sp.frame_count(x.shape[1]))
    assert starts == list(range(sp.frame_count(x.shape[1]) - 1))
    with T.no_grad():
        out = enhance(Tensor(x), model, sp).data
    assert out.shape == x.shape
    assert np.all(np.isfinite(out))


# 180 frames: two steps of 57 frames, a segment of 65 and one frame more
PAST_A_BOUNDARY = 179 * TINY_SP.hop

# centre padding of 72 samples, 2.25 hops: a crop starts 3 frames early
PAD_OFF_THE_HOP = SpectroConfig(fft_size=144, win_length=128, hop=32,
                                segment_seconds=0.128)


@pytest.mark.parametrize("spectro, shape, dtype", [
    (TINY_SP, (1, 16000), np.float64),
    (TINY_SP, (1, 48000), np.float64),
    (TINY_SP, (2, 16000), np.float64),
    (TINY_SP, (1, PAST_A_BOUNDARY), np.float64),
    (shortest_segment_spectro(), (1, 8000), np.float64),
    (TINY_SP, (1, 48000), np.float32),
    (PAD_OFF_THE_HOP, (1, 16000), np.float64),
    (PAD_OFF_THE_HOP, (1, PAST_A_BOUNDARY), np.float64),
], ids=["1s", "3s", "batch-2", "one-frame-past-a-boundary", "shortest-segment",
        "float32-3s", "pad-off-the-hop-1s", "pad-off-the-hop-past-a-boundary"])
def test_streamed_enhance_equals_the_whole_file_blend(spectro, shape, dtype):
    """Streaming runs the ops of the whole-file blend of each row in the
    same order, so the output is bit-identical to the rows' blends stacked,
    in the input's float width."""
    model = random_weight_model(TINY.model, seed=2401)
    for p in model.named_params().values():
        p.data = p.data.astype(dtype)
    wave = (0.3 * np.random.default_rng(9).standard_normal(shape)).astype(dtype)
    starts = segment_starts(spectro, spectro.frame_count(shape[1]))
    assert len(starts) > 1
    with T.no_grad():
        got = enhance(Tensor(wave), model, spectro).data
        want = np.concatenate([blended_enhance(Tensor(row[None]), model, spectro).data
                               for row in wave])
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2000, 5000], ids=["one-segment", "segmented"])
def test_samples_past_the_last_frame_are_rejected(n):
    """Without centre padding the last frame can end before the file does;
    `enhance` cannot reconstruct those samples and says so."""
    sp = replace(TINY_SP, center=False)
    model = EnhancementModel(TINY.model, seed=0)
    with pytest.raises(ShapeError, match="reconstructible"):
        enhance(Tensor(np.zeros((1, n))), model, sp)


def test_last_segment_one_frame_past_a_boundary_overlaps_by_most_of_a_segment():
    seg = TINY_SP.frame_count(TINY_SP.segment_samples)
    starts = segment_starts(TINY_SP, TINY_SP.frame_count(PAST_A_BOUNDARY))
    assert starts == [0, 57, 114, 115]
    assert starts[-2] + seg - starts[-1] == seg - 1 > seg // 8


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_each_row_is_enhanced_as_it_would_be_alone(dtype):
    """Every row of a batch runs the ops of that row enhanced on its own, so
    its output does not depend on the other rows (with every row in each
    model call, these rows moved by up to 1.1e-15 in float64 and 3.6e-7 in
    float32)."""
    model = random_weight_model(TINY.model, seed=2901)
    for p in model.named_params().values():
        p.data = p.data.astype(dtype)
    wave = (0.3 * np.random.default_rng(29).standard_normal((3, 10_001))).astype(dtype)
    assert len(segment_starts(TINY_SP, TINY_SP.frame_count(wave.shape[1]))) > 1
    with T.no_grad():
        got = enhance(Tensor(wave), model, TINY_SP).data
        for row, out in zip(wave, got, strict=True):
            assert np.array_equal(out, enhance(Tensor(row[None]), model, TINY_SP).data[0])


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

def traced_peak(model, seconds, rows=1):
    x = Tensor(0.3 * np.random.default_rng(8).standard_normal(
        (rows, int(seconds * TINY_SP.sample_rate))))
    tracemalloc.start()
    try:
        with T.no_grad():
            enhance(x, model, TINY_SP)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enhance_peak_memory_grows_only_by_waveforms():
    """No array but waveforms spans the file: the overlap-add buffer,
    divided in place by a normaliser a few windows long, and the output;
    each segment's STFT reads a view of the input. From 8 s to 32 s the
    traced peak of a `tiny` enhance may grow by at most 1.5 float64
    waveforms of the length difference (measured: 1.21; 1.45 with a
    whole-file normaliser, 1.9 with a reflect-padded copy of the input, 13.0
    with the whole file's spectra, accumulator and iSTFT buffers)."""
    model = EnhancementModel(TINY.model, seed=0)
    wave = (32 - 8) * TINY_SP.sample_rate * 8
    assert traced_peak(model, 32) - traced_peak(model, 8) <= 1.5 * wave


def test_enhance_peak_memory_grows_only_by_output_rows():
    """The model holds one row's activations whatever the batch size; only
    the overlap-add buffer and the output hold every row. From B = 1 to
    B = 8 the traced peak of a 1 s `tiny` enhance may grow by at most those
    two arrays' added rows, 2 * 7 float64 waveforms (measured: 8.1; 180
    with every row in each model call)."""
    model = EnhancementModel(TINY.model, seed=0)
    wave = TINY_SP.sample_rate * 8
    assert traced_peak(model, 1, rows=8) - traced_peak(model, 1) <= 2 * 7 * wave


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
