import json
import re

import numpy as np
import pytest

import primek.cli as cli
from primek import blocks as B
from primek import config as C
from primek import trainer as TR
from primek.blocks import DenseBlockSpec, ModelConfig
from primek.complexity import params_ddb, params_dsddb
from primek.spectral import wav_read, wav_write
from primek.tensor import Tensor


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, **overrides):
    """Start from the tiny preset dump and override individual keys."""
    lines = []
    for line in C.dump(C.tiny_run_config()).splitlines():
        key = line.split(" = ")[0]
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    for key, val in overrides.items():
        lines.append(f"{key} = {val}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# config handling / exit codes
# ---------------------------------------------------------------------------

def test_hash_line_printed_for_every_command(capsys):
    code, out, _ = run(capsys, "--config", "tiny", "selftest")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("config: tiny (hash ")
    assert first == f"config: tiny (hash {C.config_hash(C.tiny_run_config())})"


def test_unknown_key_in_config_file_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, **{"model.flux_capacitor": "1"})
    code, _, err = run(capsys, "--config", path, "analyze")
    assert code == 2
    assert "flux_capacitor" in err


def test_unknown_preset_is_exit_2(capsys):
    code, _, err = run(capsys, "--config", "no-such-preset", "analyze")
    assert code == 2


MODEL_HASHES = {"default": "36880bab70701df2", "tiny": "3ad4cf2310301e72"}


@pytest.mark.parametrize("preset, digest", [
    ("default", "f35937ffeadbb933"),
    ("tiny", "108546446af8b904"),
])
def test_preset_dump_roundtrips_and_hash_is_pinned(preset, digest):
    cfg = C.load(preset)
    assert C.build(C.parse(C.dump(cfg))) == cfg
    assert C.config_hash(cfg) == digest
    # the hash a checkpoint records
    assert C.model_hash(cfg) == MODEL_HASHES[preset]


def test_partial_config_keeps_dataclass_defaults():
    cfg = C.build(C.parse("dense.depth = 3\n"))
    assert cfg.model.dense.dilations == (1, 2, 4)
    assert cfg == C.RunConfig(model=ModelConfig(dense=DenseBlockSpec(depth=3)))


def test_malformed_value_is_exit_2_naming_the_key(tmp_path, capsys):
    path = write_config(tmp_path, **{"spectro.center": "maybe"})
    code, _, err = run(capsys, "--config", path, "analyze")
    assert code == 2
    assert "spectro.center" in err


@pytest.mark.parametrize("overrides, named", [
    ({"gpfca.kernel_group": "3,4,7,11"}, "gpfca.kernel_group"),
    ({"gpfca.kernel_group": "3,11,23"}, "gpfca.kernel_group"),
    ({"dense.depth": "0"}, "section 'dense'"),
    ({"gpfca.ffn_expansion": "0"}, "section 'gpfca'"),
    # hidden width 6 * 1 is not divisible by 4: a check across two sections
    ({"model.channels": "6", "gpfca.ffn_expansion": "1"}, "section 'model'"),
    # zero or negative sizes, each once a traceback, a NaN or a silent no-op
    ({"model.channels": "0"}, "model.channels"),
    ({"gpfca.attn_expansion": "0"}, "section 'gpfca'"),
    ({"spectro.hop": "0"}, "section 'spectro'"),
    ({"task.train_size": "0"}, "task.train_size"),
    ({"task.eval_size": "0"}, "task.eval_size"),
    ({"train.batch_size": "0"}, "train.batch_size"),
    ({"train.steps": "0"}, "train.steps"),
    ({"model.ts_block_count": "-1"}, "model.ts_block_count"),
    # values that once crashed deep in the model, the STFT or the task
    # generator, or ran on a single frame
    ({"model.channels": "7", "gpfca.attn_expansion": "3",
      "gpfca.ffn_expansion": "4"}, "gpfca.attn_expansion"),
    ({"task.segment_samples": "16"}, "task.segment_samples"),
    ({"task.segment_samples": "64"}, "task.segment_samples"),
    ({"task.sinusoids_min": "9"}, "task.sinusoids_min"),
    ({"task.sinusoids_min": "0"}, "task.sinusoids_min"),
    ({"task.freq_min": "5000"}, "task.freq_min"),
    ({"task.snr_db_min": "20"}, "task.snr_db_min"),
    ({"spectro.segment_seconds": "0"}, "spectro.segment_seconds"),
    ({"spectro.segment_seconds": "-1"}, "spectro.segment_seconds"),
    # positive, but rounds to 0 samples: centre padding alone made one frame
    ({"spectro.segment_seconds": "0.00001"}, "spectro.segment_seconds"),
    # values that once silenced the output, diverged at step 2, made a NaN
    # dataset, or failed without naming their key
    ({"model.mask_max": "0"}, "model.mask_max"),
    ({"model.mask_max": "-1"}, "model.mask_max"),
    ({"opt.beta1": "-0.1"}, "opt.beta1"),
    ({"opt.beta2": "1.0"}, "opt.beta2"),
    ({"opt.eps": "0"}, "opt.eps"),
    ({"task.sample_rate": "0"}, "task.sample_rate"),
    ({"dense.kernel": "4"}, "dense.kernel"),
    ({"dense.kernel": "0"}, "dense.kernel"),
    ({"dense.dilations": "1,0"}, "dense.dilations"),
    ({"gpfca.norm_eps": "0"}, "gpfca.norm_eps"),
    ({"spectro.sample_rate": "0"}, "spectro.sample_rate"),
], ids=["3,4,7,11", "3,11,23", "dense.depth", "gpfca.ffn_expansion",
        "hidden-width", "model.channels", "gpfca.attn_expansion", "spectro.hop",
        "task.train_size", "task.eval_size", "train.batch_size", "train.steps",
        "model.ts_block_count", "odd-attention-width", "segment-one-frame",
        "segment-short-of-reflection", "sinusoids-reversed", "no-sinusoids",
        "freq-reversed", "snr-reversed", "segment-seconds-zero",
        "segment-seconds-negative", "segment-seconds-one-frame",
        "mask-max-zero", "mask-max-negative", "beta1-negative", "beta2-one",
        "eps-zero", "task-sample-rate-zero", "dense-kernel-even",
        "dense-kernel-zero", "dense-dilation-zero", "norm-eps-zero",
        "spectro-sample-rate-zero"])
def test_bad_kernel_group_is_exit_2_naming_the_key(tmp_path, capsys, overrides,
                                                   named):
    path = write_config(tmp_path, **overrides)
    code, _, err = run(capsys, "--config", path, "analyze")
    assert code == 2
    assert named in err


def test_selftest_all_checks_pass(capsys):
    code, out, _ = run(capsys, "--config", "tiny", "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 7


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_json_is_self_consistent(capsys):
    code, out, _ = run(capsys, "--config", "tiny", "analyze", "--json")
    assert code == 0
    payload = json.loads(out.split("\n", 1)[1])  # skip the hash line
    cmp = payload["dense_comparison"]
    assert cmp["params_ddb"] == params_ddb(cmp["depth"], cmp["channels"],
                                           cmp["kernel"])
    assert cmp["params_dsddb"] == params_dsddb(cmp["depth"], cmp["channels"],
                                               cmp["kernel"])
    assert payload["total_flops"] == 2 * payload["total_macs"]
    assert payload["entries"][-1]["name"] == "model.total"


def test_analyze_single_layer_dense_counts(tmp_path, capsys):
    path = write_config(tmp_path, **{"dense.depth": "1",
                                     "dense.dilations": "1"})
    code, out, _ = run(capsys, "--config", path, "analyze")
    assert code == 0
    assert "params_ddb   = 576" in out
    assert "params_dsddb = 136" in out


def test_analyze_frames_override_scales_macs(capsys):
    _, out1, _ = run(capsys, "--config", "tiny", "analyze", "--json",
                     "--frames", "4")
    _, out2, _ = run(capsys, "--config", "tiny", "analyze", "--json",
                     "--frames", "8")
    p1 = json.loads(out1.split("\n", 1)[1])
    p2 = json.loads(out2.split("\n", 1)[1])
    assert p1["frames"] == 4 and p2["frames"] == 8
    assert p2["total_macs"] > p1["total_macs"]
    # parameters do not depend on the analysed duration
    e1 = {e["name"]: e for e in p1["entries"]}
    e2 = {e["name"]: e for e in p2["entries"]}
    for name in e1:
        assert e1[name]["full_params"] == e2[name]["full_params"]


GOLDEN_ANALYZE = """\
config: tiny (hash 108546446af8b904)
input geometry: t=9 frames, f=65 bins
block                   MACs(analytic)  MACs(measured)  P(analytic)  P(measured)    P(full)
-------------------------------------------------------------------------------------------
encoder.dense                  238,680         238,680          408          408        456
mask_decoder.dense             121,176         121,176          408          408        456
phase_decoder.dense            121,176         121,176          408          408        456
model.total                  2,007,888       2,007,888        5,328        5,328      5,908

dense variants at (n=2, C=8, K=3):
  params_ddb   = 1728
  params_dsddb = 408
  params_dsddb/params_ddb = 408/1728 = 23.61%
total: 2,007,888 MACs = 4,015,776 FLOPs (1 MAC = 2 FLOPs), 5,908 parameters
"""

GOLDEN_BENCH_MEMORY = """\
config: tiny (hash 108546446af8b904)
{
  "lengths": [
    250,
    500
  ],
  "gpfca_bytes": [
    832256,
    1664256
  ],
  "attention_bytes": [
    1628000,
    6256000
  ],
  "gpfca_slope": 0.9997780981244687,
  "attention_slope": 1.9421398130411047
}
"""


@pytest.mark.parametrize("argv, golden", [
    (["analyze", "--frames", "9"], GOLDEN_ANALYZE),
    (["bench-memory", "--lengths", "250,500", "--json"], GOLDEN_BENCH_MEMORY),
], ids=["analyze", "bench-memory"])
def test_report_output_is_byte_for_byte_pinned(capsys, argv, golden):
    """The exact stdout of two reports, as first printed: a change to the
    report code must leave every byte, float digits included, as it is."""
    code, out, _ = run(capsys, "--config", "tiny", *argv)
    assert code == 0
    assert out == golden


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_blocks_pass_and_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "--config", "tiny", "--seed", "3",
                         "gradcheck", "--scope", "block")
    code2, out2, _ = run(capsys, "--config", "tiny", "--seed", "3",
                         "gradcheck", "--scope", "block")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "FAIL" not in out1
    for name in ("gated_unit", "gpfca_block",
                 "dense_ddb", "dense_dsddb", "mask_decoder", "phase_decoder"):
        assert name in out1


def test_gradcheck_detects_injected_gradient_fault(capsys):
    def corrupt(grads):
        for g in grads.values():
            g += 0.25

    cli.fault_hook = corrupt
    try:
        code, out, _ = run(capsys, "--config", "tiny", "gradcheck",
                           "--scope", "block")
    finally:
        cli.fault_hook = None
    assert code == 4
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# bench-memory
# ---------------------------------------------------------------------------

def test_bench_memory_json_reports_slopes(capsys):
    code, out, _ = run(capsys, "--config", "tiny", "bench-memory",
                       "--lengths", "64,128,256", "--json")
    assert code == 0
    payload = json.loads(out.split("\n", 1)[1])
    assert payload["lengths"] == [64, 128, 256]
    assert len(payload["gpfca_bytes"]) == 3
    assert all(b > 0 for b in payload["gpfca_bytes"])
    assert 0.5 < payload["gpfca_slope"] < 1.5
    assert payload["attention_slope"] > payload["gpfca_slope"]


def test_bench_memory_single_length_omits_slope(capsys):
    code, out, _ = run(capsys, "--config", "tiny", "bench-memory",
                       "--lengths", "128")
    assert code == 0
    assert "slope omitted" in out


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------

def make_wav(path, n=2048, rate=16000):
    t = np.arange(n) / rate
    wave = 0.4 * np.sin(2 * np.pi * 440.0 * t)
    wav_write(str(path), Tensor(wave[None, :]), rate)
    return str(path)


def test_enhance_identity_mode_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"model.identity_mode": "true"})
    src = make_wav(tmp_path / "in.wav")
    dst = tmp_path / "out.wav"
    code, out, _ = run(capsys, "--config", cfg, "enhance", src, str(dst))
    assert code == 0
    assert f"wrote {dst}" in out
    speed = re.search(r"RTF ([0-9.]+), peak RSS ([0-9.]+) MB\)", out)
    assert speed is not None, out
    assert float(speed[1]) > 0 and float(speed[2]) > 0
    a, _ = wav_read(src)
    b, _ = wav_read(str(dst))
    err = np.sum((a.data - b.data) ** 2)
    snr = 10 * np.log10(np.sum(a.data ** 2) / max(err, 1e-300))
    assert snr > 60


def test_enhance_names_its_segment_count(tmp_path, capsys):
    """A 1 s `tiny` WAV runs in 9 segments of 2048 samples; the one-segment
    clip of the round trip above says `1 segment`."""
    cfg = write_config(tmp_path, **{"model.identity_mode": "true"})
    src = make_wav(tmp_path / "in.wav", n=16000)
    dst = tmp_path / "out.wav"
    code, out, _ = run(capsys, "--config", cfg, "enhance", src, str(dst))
    assert code == 0
    assert "(16000 samples at 16000 Hz, 9 segments, RTF " in out
    assert re.search(r"RTF ([0-9.]+), peak RSS ([0-9.]+) MB\)", out), out
    src = make_wav(tmp_path / "short.wav")
    code, out, _ = run(capsys, "--config", cfg, "enhance", src, str(dst))
    assert code == 0
    assert "(2048 samples at 16000 Hz, 1 segment, RTF " in out


def test_enhance_without_checkpoint_or_identity_is_exit_2(tmp_path, capsys):
    src = make_wav(tmp_path / "in.wav")
    code, _, err = run(capsys, "--config", "tiny", "enhance", src,
                       str(tmp_path / "out.wav"))
    assert code == 2
    assert "checkpoint" in err


def test_enhance_missing_checkpoint_is_exit_3(tmp_path, capsys):
    src = make_wav(tmp_path / "in.wav")
    code, _, _ = run(capsys, "--config", "tiny", "enhance", src,
                     str(tmp_path / "out.wav"),
                     "--checkpoint", str(tmp_path / "nope"))
    assert code == 3


def test_enhance_empty_wav_is_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"model.identity_mode": "true"})
    src = make_wav(tmp_path / "empty.wav", n=0)
    code, _, err = run(capsys, "--config", cfg, "enhance", src,
                       str(tmp_path / "out.wav"))
    assert code == 3
    assert "no audio frames" in err


def test_enhance_sample_rate_mismatch_is_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"model.identity_mode": "true"})
    src = make_wav(tmp_path / "in8k.wav", rate=8000)
    code, _, err = run(capsys, "--config", cfg, "enhance", src,
                       str(tmp_path / "out.wav"))
    assert code == 3
    assert "8000" in err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_few_steps_writes_checkpoint_and_log(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"task.train_size": "4",
                                    "task.eval_size": "2"})
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "--config", cfg, "train", "--steps", "3",
                       "--out-dir", str(out_dir))
    assert code == 0
    assert "improvement" in out
    assert "checkpoint:" in out
    assert (out_dir / "train_log.txt").exists()


def test_train_negative_steps_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", "tiny", "train", "--steps", "-1",
                  "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, option", [
    (["analyze", "--frames", "-3"], "--frames"),
    (["bench-memory", "--lengths", "0,10"], "--lengths"),
    (["bench-memory", "--lengths", ","], "--lengths"),
], ids=["negative-frames", "zero-length", "no-lengths"])
def test_bad_command_line_value_is_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", "tiny", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err
    assert "config error" not in err


def test_shortest_segment_the_stft_takes_trains(tmp_path, capsys):
    """65 samples give the tiny STFT 3 frames and exceed its 64-sample
    centre padding, the least that config.build accepts."""
    path = write_config(tmp_path, **{"task.segment_samples": "65"})
    code, _, err = run(capsys, "--config", path, "train", "--steps", "1",
                       "--out-dir", str(tmp_path / "run"))
    assert code == 0, err


def test_failed_checkpoint_save_is_exit_3_and_leaves_no_temporary(tmp_path, capsys):
    """A checkpoint directory of earlier versions cannot be replaced by the
    checkpoint file: the run fails as an I/O error and removes its
    half-swapped `checkpoint.tmp`."""
    out_dir = tmp_path / "run"
    (out_dir / "checkpoint").mkdir(parents=True)
    (out_dir / "checkpoint" / "manifest.json").write_text("{}")
    code, _, err = run(capsys, "--config", "tiny", "train", "--steps", "1",
                       "--out-dir", str(out_dir))
    assert code == 3
    assert "checkpoint" in err
    assert not (out_dir / "checkpoint.tmp").exists()
    assert (out_dir / "checkpoint" / "manifest.json").read_text() == "{}"


def test_enhance_rejects_checkpoint_of_another_config(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"task.train_size": "4",
                                    "task.eval_size": "2"})
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "--config", cfg, "train", "--steps", "2",
                     "--out-dir", str(out_dir))
    assert code == 0
    src = make_wav(tmp_path / "in.wav")
    ckpt = str(out_dir / "checkpoint")
    code, _, _ = run(capsys, "--config", cfg, "enhance", src,
                     str(tmp_path / "out.wav"), "--checkpoint", ckpt)
    assert code == 0
    other = write_config(tmp_path, **{"task.train_size": "4",
                                      "task.eval_size": "2",
                                      "spectro.fft_size": "256",
                                      "spectro.win_length": "256",
                                      "spectro.hop": "64"})
    code, _, err = run(capsys, "--config", other, "enhance", src,
                       str(tmp_path / "out.wav"), "--checkpoint", ckpt)
    assert code == 2
    assert "hash" in err


@pytest.fixture(scope="module")
def task_only_checkpoint(tmp_path_factory):
    """A 2-step checkpoint of `tiny` with only task.* keys changed."""
    tmp = tmp_path_factory.mktemp("task_only")
    cfg = write_config(tmp, **{"task.train_size": "4", "task.eval_size": "2"})
    assert cli.main(["--config", cfg, "train", "--steps", "2",
                     "--out-dir", str(tmp / "run")]) == 0
    return str(tmp / "run" / "checkpoint")


def test_train_checkpoint_records_its_full_config(task_only_checkpoint):
    """`train` writes the config's full dump beside its model hash, task keys
    included, and the dump rebuilds to that hash."""
    model = B.EnhancementModel(C.tiny_run_config().model)
    meta = TR.load_checkpoint(task_only_checkpoint, model)
    assert "task.train_size = 4\n" in meta["config"]
    rebuilt = C.build(C.parse(meta["config"]))
    assert C.model_hash(rebuilt) == meta["config_hash"] == MODEL_HASHES["tiny"]
    assert meta["config"] == C.dump(rebuilt)


def test_enhance_accepts_checkpoint_differing_only_outside_model(
        task_only_checkpoint, tmp_path, capsys):
    src = make_wav(tmp_path / "in.wav")
    code, out, err = run(capsys, "--config", "tiny", "enhance", src,
                         str(tmp_path / "out.wav"), "--checkpoint",
                         task_only_checkpoint)
    assert code == 0, err
    assert "wrote" in out


def test_enhance_rejects_checkpoint_with_another_model_key(
        task_only_checkpoint, tmp_path, capsys):
    cfg = write_config(tmp_path, **{"model.mask_max": "3.0"})
    src = make_wav(tmp_path / "in.wav")
    code, _, err = run(capsys, "--config", cfg, "enhance", src,
                       str(tmp_path / "out.wav"), "--checkpoint",
                       task_only_checkpoint)
    assert code == 2
    assert "hash" in err


def _old_checkpoint_directory(path, raw):
    """The manifest-plus-one-file-per-tensor layout of earlier versions."""
    path.mkdir()
    (path / "manifest.txt").write_text("config_hash = \nstep = 0\nseed = 0\n"
                                       "tensor.mask_decoder.out.weight = t0000.pktn\n")
    (path / "t0000.pktn").write_bytes(b"PKTN" + bytes(16))


CORRUPT_CHECKPOINTS = {
    "truncated": lambda path, raw: path.write_bytes(raw[:len(raw) // 2]),
    "garbage": lambda path, raw: path.write_bytes(
        np.random.default_rng(0).bytes(len(raw))),
    "old_directory": _old_checkpoint_directory,
}


@pytest.mark.parametrize("write", CORRUPT_CHECKPOINTS.values(),
                         ids=CORRUPT_CHECKPOINTS.keys())
def test_enhance_corrupt_checkpoint_is_exit_3(task_only_checkpoint, tmp_path,
                                              capsys, write):
    src = make_wav(tmp_path / "in.wav")
    ckpt = tmp_path / "ckpt"
    with open(task_only_checkpoint, "rb") as fh:
        write(ckpt, fh.read())
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code, _, err = run(capsys, "--config", "tiny", "enhance", src,
                       str(tmp_path / "out.wav"), "--checkpoint", str(ckpt))
    assert code == 3
    assert "i/o error" in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files
