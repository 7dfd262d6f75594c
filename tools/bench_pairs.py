#!/usr/bin/env python3
"""Alternating perfbench pairs of a parent revision and this checkout.

    python3 tools/bench_pairs.py --parent HEAD --seed 1301 \\
        --claim enhance_default.rtf --out BENCH_13.json

The change side is the working tree of this checkout, uncommitted edits
included (so `--parent HEAD` measures them against the last commit). The
parent revision's committed files are extracted with `git archive` into a
temporary directory. Pair i runs `perfbench/run.py --workload all
--trace 0 --seed <seed + i>` once on each side, at perfbench's own run
length, the parent first in even pairs and the change first in odd ones, so
a drift in the machine's speed falls on both sides alike. `--pairs` is at
least ten (MIN_PAIRS), as a claimed gain must win nine of ten pairs. The
output file holds, for every end-to-end metric of every workload that
BENCHMARK.json declares, each side's runs, median and quartiles and the
number of pairs the change won (ties count for neither side). `--claim`
names the metric the change claims to improve; `claim.met` is true when the
change won at least nine pairs in ten and its median beats the parent's by
more than the parent's interquartile range. Without `--claim`,
`claim.metric` and `claim.met` are null. Every metric but the claimed one
gets `within_bound`: true when the change's median is worse than the
parent's by no more than that metric's `bound` in BENCHMARK.json, as a
fraction of the parent's median. `operations` holds each side's
`attempted` and `failed` operation counts per run and its failed share
(failed ÷ attempted over all its runs), which the tool also prints: a rise
in that share counts against a change as a worse metric does. A run that
fails its output check stops the tool with exit status 1.
"""

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10


def extract(rev, dest):
    """Write the files of git revision `rev` of this repository under dest;
    return the revision's commit hash."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(git + ["rev-parse", "--verify", f"{rev}^{{commit}}"],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    blob = subprocess.run(git + ["archive", commit], stdout=subprocess.PIPE,
                          check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_benchmark(tree, seed):
    """The combined metrics of one `--workload all` run in `tree`, and its
    `attempted` and `failed` operation counts."""
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"), "--workload",
           "all", "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"bench_pairs: run in {tree} (seed {seed}) failed with exit "
                 f"status {proc.returncode}:\n{proc.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, {k: int(result[k]) for k in ("attempted", "failed")}


def summary(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3),
            "runs": runs}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--claim", default=None,
                   help="the <workload>.<metric> the change claims to improve, "
                        "if any")
    p.add_argument("--what", default="", help="one line describing the change")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [f"{w['name']}.{m}" for w in bench["workloads"] for m in better]
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be at least {MIN_PAIRS}")
    if args.claim is not None and args.claim not in names:
        p.error(f"--claim must be one of {', '.join(names)}")
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {side: {name: [] for name in names} for side in ("parent", "change")}
    ops = {side: {"attempted": [], "failed": []} for side in ("parent", "change")}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = extract(args.parent, tmp)
        trees = {"parent": tmp, "change": str(ROOT)}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                values, counts = run_benchmark(trees[side], seed)
                for name in names:
                    runs[side][name].append(values[name])
                for key, n in counts.items():
                    ops[side][key].append(n)
            shown = args.claim or names[0]
            print(f"pair {i + 1}/{args.pairs} seed {seed}: {shown} parent "
                  f"{runs['parent'][shown][-1]:.6g} change "
                  f"{runs['change'][shown][-1]:.6g}", flush=True)

    claim = {"metric": args.claim, "met": None, "seeds": seeds}
    for name in names:
        metric = name.split(".", 1)[1]
        sign = 1 if better[metric] == "lower" else -1
        won = sum(sign * (q - c) > 0
                  for q, c in zip(runs["parent"][name], runs["change"][name]))
        claim[name] = {"parent": summary(runs["parent"][name]),
                       "change": summary(runs["change"][name]),
                       "change_better_in": int(won), "pairs": args.pairs}
        par, chg = claim[name]["parent"], claim[name]["change"]
        gain = sign * (par["median"] - chg["median"])
        if name == args.claim:
            claim["met"] = bool(10 * won >= 9 * args.pairs
                                and gain > par["q3"] - par["q1"])
            verdict = "claim met" if claim["met"] else "claim NOT met"
        else:
            claim[name]["within_bound"] = bool(
                -gain <= bound[metric] * abs(par["median"]))
            verdict = "within bound" if claim[name]["within_bound"] else "OUT OF BOUND"
        print(f"{name:<28} parent {par['median']:<12.6g} change {chg['median']:<12.6g}"
              f" ({100 * (chg['median'] / par['median'] - 1):+.1f}%), change better "
              f"in {won}/{args.pairs}, parent IQR {par['q3'] - par['q1']:.4g}: "
              f"{verdict}")
    for side, counts in ops.items():
        attempted, failed = sum(counts["attempted"]), sum(counts["failed"])
        counts["failed_share"] = failed / attempted if attempted else 0.0
        print(f"{side} operations: {failed} of {attempted} failed "
              f"({100 * counts['failed_share']:.1f}%)")
    out = {
        "what": args.what,
        "command": "python3 perfbench/run.py --workload all --trace 0 --seed "
                   f"<seed>, parent ({parent[:7]}) and change from separate "
                   "trees, alternating which runs first",
        "machine": f"{os.cpu_count()} cores, numpy {np.__version__}, Python "
                   f"{platform.python_version()}, {platform.machine()}; perfbench "
                   "runs BLAS on 1 thread",
        "claim": claim,
        "operations": ops,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
