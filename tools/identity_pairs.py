#!/usr/bin/env python3
"""Bit-identity of a parent revision and this checkout on one battery.

    python3 tools/identity_pairs.py --parent HEAD --out IDENT_<n>.json
    python3 tools/identity_pairs.py --parent HEAD --case enhance_tiny_odd
    python3 tools/identity_pairs.py --parent HEAD --expect enhance_tiny_odd.float64=1e-15

The change side is the working tree of this checkout, uncommitted edits
included; the parent revision's committed files are extracted as
`tools/bench_pairs.py` does. Every case runs in its own subprocess per
tree, with this file's battery and the tree's `src/primek`, on 1 BLAS
thread, and returns named float arrays. Two sides agree on an array when
its dtype, shape and bytes are equal. The output file holds, per case and
array, whether the sides agree with the SHA-256, dtype and shape they
share, or each side's and, at equal shapes, the largest absolute
difference and the relative one, max |parent - change| / max |parent|.

A difference is allowed only where `--expect NAME=TOL` declares it: NAME is
a case (every array of it) or `case.array`, the array's own TOL overriding
its case's, and TOL bounds the relative difference. The exit status is 1
when any array differs without a declaration, beyond its TOL, or in dtype
or shape.

The comparison is bitwise on one machine and numpy build: OpenBLAS picks
kernels by operand size and layout, so compare two trees run here, never
stored hashes.

Cases:
  enhance_default    perfbench's `default` 0.5 s clip (seed 1), random weights
  enhance_long       perfbench's `tiny` 15 s clip (seed 1), random weights
  enhance_default_2s a `default` 2.1 s clip: two segments
  enhance_tiny_odd   a `tiny` clip of 10,001 samples, B = 2, float32 and float64
  enhance_tiny_past  a `tiny` clip one hop past one segment: two segments
  grads_<preset>_<mode>  step_losses' losses and every parameter gradient,
                     B = 2 toy clips of the preset's segment length, random
                     weights, for presets tiny/default and loss modes new/old
  train_tiny         `tiny` parameters and losses after 5 train_toy steps
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import extract  # noqa: E402

SEED = 1


def perfbench():
    """perfbench's run module, whose clips and checkpoints the cases use."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module("run")


def random_weights(pk, cfg, seed):
    """A model loaded from perfbench's random checkpoint for `seed`: the
    zero-initialised heads and residual scales would hide most layers."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.ckpt"
        perfbench().write_random_checkpoint(vars(pk), cfg, seed, path)
        model = pk.blocks.EnhancementModel(cfg.model, seed=seed)
        pk.trainer.load_checkpoint(str(path), model)
    return model


def perfbench_clip(cfg, seconds):
    """perfbench's noisy clip for SEED, quantised to 16 bits as it is read back."""
    run = perfbench()
    clip = run.make_clip(np.random.default_rng([SEED, 0]), cfg.spectro.sample_rate,
                         seconds)
    with tempfile.TemporaryDirectory() as tmp:
        return run.write_pcm16(Path(tmp) / "clip.wav", clip, cfg.spectro.sample_rate)[None]


def enhanced(pk, preset, wave):
    cfg = pk.config.load(preset)
    model = random_weights(pk, cfg, SEED)
    with pk.tensor.no_grad():
        return {"out": pk.blocks.enhance(pk.tensor.Tensor(wave), model, cfg.spectro).data}


def toy_batch(pk, cfg):
    (clean, noisy), _ = pk.trainer.make_dataset(dataclasses.replace(cfg.task, seed=SEED))
    return clean[:2], noisy[:2]


def gradients(pk, preset, mode):
    cfg = pk.config.load(preset)
    model = random_weights(pk, cfg, SEED)
    clean, noisy = toy_batch(pk, cfg)
    total, comps = pk.trainer.step_losses(model, cfg.spectro, clean, noisy,
                                          cfg.weights, mode)
    total.backward()
    out = {f"loss.{k}": v.data for k, v in comps.items()}
    out["loss.total"] = total.data
    out.update({f"grad.{k}": p.grad for k, p in model.named_params().items()})
    return out


def trained(pk):
    cfg = pk.config.load("tiny")
    with tempfile.TemporaryDirectory() as tmp:
        result = pk.trainer.train_toy(
            cfg.model, cfg.spectro, cfg.task, 5, weights=cfg.weights,
            mode=cfg.loss_mode, opt_cfg=cfg.opt, batch_size=cfg.batch_size,
            out_dir=tmp, seed=SEED)
    out = {f"param.{k}": p.data for k, p in result.model.named_params().items()}
    out["losses"] = np.array(result.losses)
    return out


def odd_tiny(pk):
    cfg = pk.config.load("tiny")
    wave = 0.3 * np.random.default_rng(SEED).standard_normal((2, 10_001))
    out = {}
    for dtype in (np.float64, np.float32):
        model = random_weights(pk, cfg, SEED)
        for p in model.named_params().values():
            p.data = p.data.astype(dtype)
        with pk.tensor.no_grad():
            out[np.dtype(dtype).name] = pk.blocks.enhance(
                pk.tensor.Tensor(wave.astype(dtype)), model, cfg.spectro).data
    return out


CASES = {
    "enhance_default": lambda pk: enhanced(
        pk, "default", perfbench_clip(pk.config.load("default"), 0.5)),
    "enhance_long": lambda pk: enhanced(
        pk, "tiny", perfbench_clip(pk.config.load("tiny"), 15.0)),
    "enhance_default_2s": lambda pk: enhanced(
        pk, "default", 0.3 * np.random.default_rng(SEED).standard_normal((1, 33_600))),
    "enhance_tiny_odd": odd_tiny,
    "enhance_tiny_past": lambda pk: enhanced(
        pk, "tiny", 0.3 * np.random.default_rng(SEED).standard_normal((1, 2048 + 32))),
    **{f"grads_{preset}_{mode}": (lambda pk, preset=preset, mode=mode:
                                  gradients(pk, preset, mode))
       for preset in ("tiny", "default") for mode in ("new", "old")},
    "train_tiny": trained,
}


def worker(tree, case, out):
    """Run `case` on the primek of `tree`; save its arrays to `out` (.npz)."""
    sys.path.insert(0, str(Path(tree) / "src"))
    pk = argparse.Namespace(**{n: importlib.import_module(f"primek.{n}") for n in (
        "blocks", "config", "tensor", "trainer")})
    np.savez(out, **{k: np.asarray(v) for k, v in CASES[case](pk).items()})


def run_case(side, tree, case, tmp):
    """The arrays of `case` run on the tree, from a fresh interpreter."""
    out = Path(tmp) / f"{side}_{case}.npz"
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"), "1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", tree,
                    "--case", case, "--out", str(out)], check=True,
                   env={**os.environ, **one_thread})
    with np.load(out) as z:
        return {k: z[k] for k in z.files}


def describe(a):
    return {"sha256": hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest(),
            "dtype": a.dtype.name, "shape": list(a.shape)}


def compare(parent, change):
    """Per array name, whether the two sides agree, and the description
    they share or each side's."""
    rows = {}
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name), change.get(name)
        sides = [None if a is None else describe(a) for a in (p, c)]
        if sides[0] == sides[1]:
            rows[name] = {"equal": True, **sides[0]}
            continue
        row = rows[name] = {"equal": False, "parent": sides[0], "change": sides[1]}
        if p is not None and c is not None and p.shape == c.shape:
            p64 = p.astype(np.float64)
            diff = float(np.max(np.abs(p64 - c.astype(np.float64)), initial=0))
            scale = float(np.max(np.abs(p64), initial=0))
            row["max_abs_diff"] = diff
            row["max_rel_diff"] = diff / scale if scale else float("inf")
    return rows


def expectation(text):
    """`NAME=TOL` of --expect -> (NAME, TOL); NAME's case must exist."""
    name, sep, tol = text.partition("=")
    if not sep or name.split(".", 1)[0] not in CASES:
        raise argparse.ArgumentTypeError(f"{text!r} is not CASE[.ARRAY]=TOL")
    return name, float(tol)


def allowed(case, rows, expect):
    """Mark each differing array of `case` with its declared TOL, if any,
    and whether it stays within; returns the names that do not."""
    bad = []
    for name, row in rows.items():
        if row["equal"]:
            continue
        tol = expect.get(f"{case}.{name}", expect.get(case))
        if tol is not None:
            row["tol"] = tol
            row["within_tol"] = row.get("max_rel_diff", float("inf")) <= tol
        if not row.get("within_tol"):
            bad.append(name)
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--case", action="append", choices=sorted(CASES),
                   help="run only this case (repeatable); default: every case")
    p.add_argument("--expect", action="append", type=expectation, default=[],
                   metavar="NAME=TOL",
                   help="allow case NAME, or array case.array, to differ by a "
                        "relative TOL (repeatable)")
    p.add_argument("--out", help="JSON file to write (the .npz of a --worker run)")
    p.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, args.case[0], args.out)
        return 0
    if args.parent is None:
        p.error("--parent is required")
    cases = args.case or list(CASES)
    expect = dict(args.expect)
    report, ok = {}, True
    with tempfile.TemporaryDirectory(prefix="identity_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        commit = extract(args.parent, parent_tree)
        for case in cases:
            rows = compare(run_case("parent", str(parent_tree), case, tmp),
                           run_case("change", str(ROOT), case, tmp))
            report[case] = rows
            differ = [n for n, r in rows.items() if not r["equal"]]
            unexpected = allowed(case, rows, expect)
            ok = ok and not unexpected
            print(f"{case}: {len(rows) - len(differ)} of {len(rows)} arrays equal"
                  + (f"; differ: {', '.join(differ)}" if differ else "")
                  + (f"; not allowed: {', '.join(unexpected)}" if unexpected else ""),
                  flush=True)
    same = all(r["equal"] for rows in report.values() for r in rows.values())
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"parent": commit, "equal": same, "expect": expect, "ok": ok,
             "cases": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
