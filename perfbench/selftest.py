#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

1. Runs every workload at toy size, untraced and traced, and checks that the
   last output line is a result whose metric names and units are exactly the
   ones BENCHMARK.json declares.
2. Checks that the benchmark's enhance operation (`run.enhance_once`)
   writes the same file as `primek enhance` given the same checkpoint.
3. Checks that the benchmark fails, without printing a result, in a
   directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def bench_cmd(workload, trace):
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
            "--size", "toy"]


def check_result(line, declared, trace):
    res = json.loads(line)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert res["failed"] == 0
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"metrics {sorted(got)} != declared {sorted(want)}"
    for name, v in res["metrics"].items():
        assert set(v) == {"value", "unit"} and math.isfinite(v["value"]), (name, v)
        if not trace:
            assert v["value"] > 0, (name, v)


def test_outputs_match_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(bench_cmd(workload, trace), cwd=ROOT, text=True,
                                  capture_output=True, timeout=TIMEOUT_S, check=False)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            check_result(proc.stdout.strip().splitlines()[-1], declared, trace)
            print(f"ok  {workload} trace {trace}")


def test_enhance_matches_cli():
    pk = bench.import_primek()
    work = HERE / "work" / "selftest-cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = pk["config"].load("tiny")
        noisy = bench.make_clip(bench.np.random.default_rng(0), 16000, 0.5)
        bench.write_pcm16(work / "in.wav", noisy, 16000)
        bench.write_random_checkpoint(pk, cfg, 0, work / "ckpt")
        code = pk["cli"].main(["--config", "tiny", "enhance", str(work / "in.wav"),
                               str(work / "cli.wav"), "--checkpoint", str(work / "ckpt")])
        assert code == 0
        model = pk["blocks"].EnhancementModel(cfg.model)
        pk["trainer"].load_checkpoint(str(work / "ckpt"), model)
        bench.enhance_once(pk, cfg, model, work / "in.wav", work / "bench.wav")
        assert (work / "cli.wav").read_bytes() == (work / "bench.wav").read_bytes()
        print("ok  benchmark enhance writes the same file as `primek enhance`")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_fails_without_program():
    bare = HERE / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "enhance_long",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, text=True, capture_output=True, timeout=TIMEOUT_S, check=False)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout, proc.stdout
        print("ok  fails without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_outputs_match_declaration()
    test_enhance_matches_cli()
    test_fails_without_program()
    print("selftest passed")
