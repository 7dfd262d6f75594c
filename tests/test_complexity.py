import json

import numpy as np
import pytest

from primek.blocks import (
    DenseBlock,
    DenseBlockSpec,
    EnhancementModel,
    enhance,
)
from primek.complexity import (
    dense_block_entry,
    macs_dc,
    macs_ddb,
    macs_dsdc,
    macs_dsddb,
    measure,
    measure_block_macs,
    measure_model_macs,
    params_ddb,
    params_dsddb,
    report_text,
    _model_macs_at,
)
from primek.config import default_run_config, tiny_run_config
from primek.tensor import Tensor, count_macs, no_grad

RNG = np.random.default_rng(21)
TINY_SP = tiny_run_config().spectro


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_single_layer_values():
    assert macs_dc(1, 64, 3, 1, 1) == 36864
    assert macs_dsdc(1, 64, 3, 1, 1) == 4672


def test_block_sums():
    assert macs_ddb(4, 64, 3, 1, 1) == 368640
    assert macs_dsddb(4, 64, 3, 1, 1) == 46720
    # depth 1 reduces to the single-layer forms
    assert macs_ddb(1, 5, 3, 2, 7) == macs_dc(1, 5, 3, 2, 7)
    assert macs_dsddb(1, 5, 3, 2, 7) == macs_dsdc(1, 5, 3, 2, 7)


def test_parameter_sums():
    assert params_ddb(4, 64, 3) == 368640
    assert params_dsddb(4, 64, 3) == 46720


def test_published_ratio():
    ratio = params_dsddb(4, 64, 3) / params_ddb(4, 64, 3)
    assert round(100 * ratio, 1) == 12.7


def test_macs_scale_multiplicatively_in_geometry():
    for _ in range(10):
        i, c, k = (int(RNG.integers(1, 6)), int(RNG.integers(1, 80)),
                   int(RNG.choice([1, 3, 5])))
        t, f = int(RNG.integers(1, 50)), int(RNG.integers(1, 50))
        assert macs_dc(i, c, k, t, f) == t * f * macs_dc(i, c, k, 1, 1)
        assert macs_dsdc(i, c, k, t, f) == t * f * macs_dsdc(i, c, k, 1, 1)


def test_block_sums_equal_layer_sums_term_by_term():
    for _ in range(5):
        n = int(RNG.integers(1, 9))
        c, k = int(RNG.integers(1, 70)), int(RNG.choice([1, 3, 5]))
        t, f = int(RNG.integers(1, 9)), int(RNG.integers(1, 9))
        assert macs_ddb(n, c, k, t, f) == sum(
            macs_dc(i, c, k, t, f) for i in range(1, n + 1))
        assert macs_dsddb(n, c, k, t, f) == sum(
            macs_dsdc(i, c, k, t, f) for i in range(1, n + 1))


def test_ratio_independent_of_depth():
    # the i-sums cancel: P(DSDDB)/P(DDB) == (K^2 + C) / (C K^2)
    for n in range(1, 5):
        for c in (8, 16, 64):
            for k in (3, 5):
                lhs = params_dsddb(n, c, k) * (c * k * k)
                rhs = params_ddb(n, c, k) * (k * k + c)
                assert lhs == rhs


def test_counts_are_strictly_monotone():
    base = dict(n=2, c=16, k=3, t=4, f=5)
    val = macs_ddb(base["n"], base["c"], base["k"], base["t"], base["f"])
    for key in base:
        bumped = dict(base)
        bumped[key] += 1
        assert macs_ddb(bumped["n"], bumped["c"], bumped["k"],
                        bumped["t"], bumped["f"]) > val


def test_counts_exceed_uint32_without_overflow():
    big = macs_ddb(4, 64, 3, 321, 201)
    assert big == 368640 * 321 * 201
    assert big > 2 ** 32
    assert isinstance(big, int)


def test_arguments_validated():
    with pytest.raises(ValueError):
        macs_dc(0, 64, 3, 1, 1)
    with pytest.raises(ValueError):
        params_ddb(4, 64, 0)
    with pytest.raises(ValueError):
        macs_dsddb(4, 64, 3, 1, -1)


# ---------------------------------------------------------------------------
# measured counters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant,macs_fn,params_fn", [
    ("DDB", macs_ddb, params_ddb),
    ("DSDDB", macs_dsddb, params_dsddb),
])
def test_measured_equals_analytic_for_dense_blocks(variant, macs_fn, params_fn):
    for n in (1, 2, 3):
        for c in (4, 8):
            spec = DenseBlockSpec(depth=n, kernel=3, dilations=(1,) * n,
                                  variant=variant)
            blk = DenseBlock(RNG, c, spec)
            t, f = 6, 5
            assert measure_block_macs(blk, t, f) == macs_fn(n, c, 3, t, f)
            assert blk.conv_weight_count() == params_fn(n, c, 3)


def tiny_model():
    cfg = tiny_run_config().model
    return EnhancementModel(cfg, seed=0), cfg


def test_default_enhance_counts_are_pinned():
    """A seeded `default` enhance of 0.1 s. The MAC count is exact; the
    allocated tensor bytes (views of a parent's storage count none; each
    dense block's channel buffer counts once) may fall in a later change,
    never rise (they were 434,042,648 when each dense layer read a
    concatenated copy)."""
    cfg = default_run_config()
    model = EnhancementModel(cfg.model, seed=0)
    n = cfg.spectro.sample_rate // 10
    wave = Tensor(0.3 * np.random.default_rng(0).standard_normal((1, n)))
    with no_grad(), count_macs() as rec:
        enhance(wave, model, cfg.spectro)
    assert rec.macs == 2_591_611_072
    assert rec.bytes_allocated <= 405_980_952


def test_segmented_tiny_enhance_bytes_are_pinned():
    """A seeded `tiny` enhance of 1 s: 9 segments, each the STFT of a view
    of the input, of which it reads the segment's frames of magnitude and
    phase as views. The allocated tensor bytes may fall, never rise (they
    were 157,360,088 when each segment's STFT wrapped a slice of a padded
    copy of the input, and 157,269,976 when each dense layer read a
    concatenated copy)."""
    model, _ = tiny_model()
    sp = TINY_SP
    wave = Tensor(0.3 * np.random.default_rng(0).standard_normal((1, sp.sample_rate)))
    with no_grad(), count_macs() as rec:
        enhance(wave, model, sp)
    assert rec.bytes_allocated <= 152_365_336


@pytest.mark.parametrize("make_cfg,count", [
    (default_run_config, 1_424_324),
    (tiny_run_config, 5_908),
], ids=["default", "tiny"])
def test_param_counts_are_pinned(make_cfg, count):
    """Exact. A later change may lower a pin, never raise it."""
    assert EnhancementModel(make_cfg().model, seed=0).param_count() == count


def test_model_macs_are_affine_in_frames():
    model, cfg = tiny_model()
    sp = TINY_SP
    predicted = measure_model_macs(model, sp, 5, sp.bins)
    actual = _model_macs_at(model, 5, sp.bins)
    assert predicted == actual


def test_model_macs_count_every_enhance_segment():
    """A 1 s `tiny` enhance runs 9 segments, so it counts 9 forwards of one
    segment, as perfbench's traced MAC check expects."""
    model, cfg = tiny_model()
    sp = TINY_SP
    wave = Tensor(0.3 * np.random.default_rng(0).standard_normal((1, sp.sample_rate)))
    with no_grad(), count_macs() as rec:
        enhance(wave, model, sp)
    frames = sp.frame_count(sp.sample_rate)
    seg = sp.frame_count(sp.segment_samples)
    assert rec.macs == measure_model_macs(model, sp, frames, sp.bins)
    assert rec.macs == 9 * _model_macs_at(model, seg, sp.bins)


def test_report_structure_and_json():
    model, cfg = tiny_model()
    sp = TINY_SP
    report = measure(model, sp, frames=9, bins=sp.bins)
    names = [e["name"] for e in report["entries"]]
    assert names == ["encoder.dense", "mask_decoder.dense",
                     "phase_decoder.dense", "model.total"]
    for e in report["entries"]:
        assert e["measured_params"] == e["analytic_params"]
        assert e["full_params"] >= e["measured_params"]
    total = report["entries"][-1]
    assert total["measured_macs"] > sum(e["measured_macs"]
                                        for e in report["entries"][:-1])
    assert report["total_macs"] == total["measured_macs"]
    assert report["total_flops"] == 2 * report["total_macs"]
    assert report["dense_comparison"]["params_dsddb"] == params_dsddb(2, 8, 3)
    assert json.loads(json.dumps(report)) == report
    assert report["frames"] == 9
    text = report_text(report)
    assert "model.total" in text and "encoder.dense" in text


def test_dense_block_entry_cross_checks():
    spec = DenseBlockSpec(depth=2, dilations=(1, 2), variant="DSDDB")
    blk = DenseBlock(RNG, 8, spec)
    entry = dense_block_entry("dense", blk, 6, 5)
    assert entry["analytic_macs"] == entry["measured_macs"] == macs_dsddb(2, 8, 3, 6, 5)
    assert entry["analytic_params"] == entry["measured_params"] == params_dsddb(2, 8, 3)
