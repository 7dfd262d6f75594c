#!/usr/bin/env python3
"""primek benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload enhance_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see README.md for the make-up of every input):
  enhance_default  paper-size `default` model enhances a 0.5 s clip
  enhance_long     `tiny` model enhances a 15 s clip
  train_tiny       `tiny` model trains on the synthetic task, then is scored

With --trace 0 the last line of standard output is one JSON object holding
every end-to-end metric; with --trace 1 it holds every per-layer metric,
taken from a traced run of the same work. The exit code is 1 when an output
check fails and 2 when the program cannot be found next to this directory.
"""

import os

# Fixed before numpy is imported, so OpenBLAS starts with one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import wave  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oracles import CheckFailed, check_enhanced, check_spectrogram  # noqa: E402
from tracing import Tracer, gemm_gmacs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = {
    "setup_s": "s",
    "rtf": "s/s",
    "step_ms": "ms",
    "peak_rss_mb": "MB",
}

_CONV = ["conv1d_dw3", "conv1d_dw11", "conv1d_dw23", "conv1d_dw31", "conv1d_dw_other",
         "conv1d_pw", "conv2d_dw", "conv2d_pw", "conv2d_full"]
PER_LAYER = {
    **{f"conv.{k}_ms": "ms" for k in _CONV},
    **{f"conv.{k}_gmacs": "GMAC/s" for k in _CONV},
    "conv.conv1d_bwd_ms": "ms",
    "conv.conv2d_bwd_ms": "ms",
    "conv.macs": "count",
    "machine.gemm_gmacs": "GMAC/s",
    "blocks.ts_time_ms": "ms",
    "blocks.ts_freq_ms": "ms",
    "blocks.encoder_ms": "ms",
    "blocks.mask_decoder_ms": "ms",
    "blocks.phase_decoder_ms": "ms",
    "blocks.model_init_ms": "ms",
    "config.load_ms": "ms",
    "trainer.ckpt_load_ms": "ms",
    "tensor.other_ms": "ms",
    "tensor.alloc_mb": "MB",
    "spectral.stft_ms": "ms",
    "spectral.istft_ms": "ms",
    "spectral.wav_read_ms": "ms",
    "spectral.wav_write_ms": "ms",
    "trainer.fwd_ms": "ms",
    "trainer.bwd_ms": "ms",
    "trainer.opt_ms": "ms",
    "trainer.ckpt_save_ms": "ms",
    "losses.ms": "ms",
    "trainer.dataset_ms": "ms",
    "trainer.eval_ms": "ms",
    "sisnr_gain_db": "dB",
    "trace.overhead_ms": "ms",
    "trace.coverage_pct": "%",
}

# Span self times must account for at least this share of traced wall time.
COVERAGE_MIN_PCT = 90.0


@dataclasses.dataclass(frozen=True)
class Size:
    default_clip_s: float
    long_clip_s: float
    train_steps: int
    # Set-ups timed in a row, before the first operation and after each one.
    setup_reps: dict
    # Whether training must show it learned (loss falls, gain clears the
    # floor); a toy-size run is too short to learn anything.
    check_learning: bool


# Untraced and traced enhances in a traced enhance run.
TRACED_ENHANCES = 3

# Held-out SI-SNR gain training must reach. The identity-initialised model
# scores 0 dB, so clearing 1 dB shows that the model learned to denoise.
SISNR_FLOOR_DB = 1.0


SIZES = {
    "full": Size(default_clip_s=0.5, long_clip_s=15.0, train_steps=200,
                 setup_reps={"enhance_default": 10, "enhance_long": 50,
                             "train_tiny": 20},
                 check_learning=True),
    "toy": Size(default_clip_s=0.1, long_clip_s=0.5, train_steps=8,
                setup_reps={"enhance_default": 2, "enhance_long": 2,
                            "train_tiny": 2},
                check_learning=False),
}



# ---------------------------------------------------------------------------
# program and inputs
# ---------------------------------------------------------------------------

def import_primek():
    src = ROOT / "src"
    if not (src / "primek" / "__init__.py").is_file():
        print(f"run.py: no primek package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    names = ["tensor", "conv", "spectral", "blocks", "losses", "trainer",
             "config", "complexity", "cli"]
    pk = {n: importlib.import_module(f"primek.{n}") for n in names}
    pk["primek"] = importlib.import_module("primek")
    return pk


def make_clip(rng, rate, seconds):
    """A noisy clip: a sum of 3-8 tones under a slow envelope, plus white
    noise at a random SNR of 0-10 dB, peak-normalised to 0.9."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    clean = np.zeros(n)
    for _ in range(int(rng.integers(3, 9))):
        clean += rng.uniform(0.2, 1.0) * np.sin(
            2 * np.pi * rng.uniform(200.0, 4000.0) * t + rng.uniform(0, 2 * np.pi))
    clean *= 0.6 + 0.4 * np.cos(2 * np.pi * rng.uniform(0.2, 2.0) * t
                                + rng.uniform(0, 2 * np.pi))
    noise = rng.standard_normal(n)
    snr_db = rng.uniform(0.0, 10.0)
    noise *= np.sqrt(np.mean(clean ** 2) / 10 ** (snr_db / 10) / np.mean(noise ** 2))
    noisy = clean + noise
    return 0.9 * noisy / np.abs(noisy).max()


def write_pcm16(path, samples, rate):
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())
    return pcm.astype(np.float64) / 32768.0


def write_random_checkpoint(pk, cfg, seed, path):
    """Checkpoint with seeded random values in every parameter.

    The model's own initialisation zeroes the mask/phase heads and the
    residual scales, which would leave the sequence blocks without any
    effect on the output. Here every weight tensor is drawn from
    N(0, 1/fan_in) and every vector parameter (bias, gain, scale, slope)
    is its initial value plus N(0, 0.1^2).
    """
    model = pk["blocks"].EnhancementModel(cfg.model, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for _, p in sorted(model.named_params().items()):
        if p.data.ndim >= 2:
            fan_in = int(np.prod(p.shape[1:]))
            p.data[...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), p.shape)
        else:
            p.data[...] = p.data + rng.normal(0.0, 0.1, p.shape)
    pk["trainer"].save_checkpoint(str(path), model, step=0, seed=seed)


def si_snr_db(est, ref):
    """Scale-invariant SNR per row of [B, N] arrays, in dB."""
    est = est - est.mean(axis=-1, keepdims=True)
    ref = ref - ref.mean(axis=-1, keepdims=True)
    proj = (np.sum(est * ref, axis=-1, keepdims=True)
            / np.sum(ref * ref, axis=-1, keepdims=True)) * ref
    return 10 * np.log10(np.sum(proj ** 2, axis=-1) / np.sum((est - proj) ** 2, axis=-1))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup, reps):
    """Wall times of `reps` set-ups in a row, and the last one's result.

    Workloads time a block of set-ups before the first operation and after
    each one. The machine's speed can switch between states some seconds
    long, up to 50% apart on a 5 ms set-up: a single block lands in one
    state by chance, while blocks spread over the run sample each state
    for about as long as the run spends in it.
    """
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return times, result


@contextlib.contextmanager
def step_stamps(TR, clock):
    """Record clock() after every optimizer step of `trainer.train_toy`.

    The difference of two consecutive stamps is the wall time of one
    training step: forward, losses, backward, clipping, AdamW, the log line
    and, on checkpoint steps, the checkpoint write. If `adamw_step` is
    renamed, no stamps are recorded and callers fall back to whole runs.
    """
    stamps = []
    original = getattr(TR, "adamw_step", None)
    if original is None:
        yield stamps
        return

    def stamped(*args, **kwargs):
        out = original(*args, **kwargs)
        stamps.append(clock())
        return out

    TR.adamw_step = stamped
    try:
        yield stamps
    finally:
        TR.adamw_step = original


class Run:
    """Operation counters and failed checks of one benchmark run."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.trace_info = {}
        self.samples = {}     # time samples (s) behind the end-to-end metrics

    def check(self, fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(str(exc))

    def rounds(self, op, per_round=1, after_each=None):
        """Call op(), and then after_each() if given, until op's measured
        time reaches the run length, at least once. op() returns
        (seconds, result) for `per_round` operations; a round that raises
        counts all of them as failed. Returns the time samples and results
        of the rounds that succeeded.
        """
        samples, results, spent = [], [], 0.0
        while spent < self.seconds or self.attempted == 0:
            gc.collect()
            self.attempted += per_round
            t0 = time.perf_counter()
            try:
                dt, res = op()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                self.failed += per_round
                spent += time.perf_counter() - t0
                continue
            samples.append(dt)
            results.append(res)
            spent += dt
            if after_each is not None:
                after_each()
        if not samples:
            raise RuntimeError("every operation of the run failed")
        return samples, results


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def enhance_once(pk, cfg, model, in_path, out_path):
    """The steps of `primek enhance` after its set-up, in the same order.
    Returns the waveform read and the enhanced one."""
    S = pk["spectral"]
    wave_t, rate = S.wav_read(str(in_path))
    if rate != cfg.spectro.sample_rate:
        raise S.AudioIOError(f"{in_path} is {rate} Hz")
    with pk["tensor"].no_grad():
        out = pk["blocks"].enhance(wave_t, model, cfg.spectro)
    S.wav_write(str(out_path), out, rate)
    return wave_t, out


def enhance_workload(pk, run, args, work, preset, clip_s):
    C, B, S, T, TR = (pk[n] for n in ("config", "blocks", "spectral", "tensor", "trainer"))
    cfg = C.load(preset)
    rate = cfg.spectro.sample_rate
    noisy = make_clip(np.random.default_rng([args.seed, 0]), rate, clip_s)
    in_path, out_path = work / "noisy.wav", work / "enhanced.wav"
    noisy = write_pcm16(in_path, noisy, rate)
    ckpt = work / "checkpoint"
    write_random_checkpoint(pk, cfg, args.seed, ckpt)
    run.check(check_spectrogram, noisy[None, :], S.stft(noisy[None, :], cfg.spectro))

    def setup():
        cfg = C.load(preset)
        model = B.EnhancementModel(cfg.model, seed=args.seed)
        TR.load_checkpoint(str(ckpt), model)
        return cfg, model

    def op(clock=time.perf_counter):
        t0 = clock()
        wave_t, out = enhance_once(pk, cfg, model, in_path, out_path)
        dt = clock() - t0
        run.check(check_enhanced, wave_t.data, out.data, in_path, out_path)
        return dt, out.data

    reps = args.size.setup_reps[args.workload]
    setup_times, (cfg, model) = timed_setups(setup, reps)
    if not args.trace:
        samples, _ = run.rounds(
            op, after_each=lambda: setup_times.extend(timed_setups(setup, reps)[0]))
        op_s = statistics.median(samples)
        run.samples = {"setup_s": setup_times, "op_s": samples}
        return {"setup_s": statistics.median(setup_times), "rtf": op_s / clip_s,
                "step_ms": 1e3 * op_s, "peak_rss_mb": peak_rss_mb()}

    frames = cfg.spectro.frame_count(len(noisy))
    want_macs = pk["complexity"].measure_model_macs(model, cfg.spectro, frames,
                                                    cfg.spectro.bins)
    # The same number of untraced and traced enhances: the overhead is the
    # difference of their medians, as one pair differs by machine noise alone.
    reps = TRACED_ENHANCES
    run.attempted += 2 * reps
    untraced_s = statistics.median(op()[0] for _ in range(reps))

    def traced_work(tracer):
        nonlocal cfg, model
        cfg, model = setup()
        with T.track_allocations() as alloc:
            traced_s = statistics.median(op(tracer.clock)[0] for _ in range(reps))
        return traced_s, alloc.bytes_allocated / reps

    return traced_run(pk, run, args, traced_work, ops=reps, untraced_s=untraced_s,
                      want_macs=reps * want_macs)


def train_workload(pk, run, args, work):
    C, B, S, T, TR = (pk[n] for n in ("config", "blocks", "spectral", "tensor", "trainer"))
    steps = args.size.train_steps

    def setup():
        cfg = C.load("tiny")
        task = dataclasses.replace(cfg.task, seed=args.seed)
        data = TR.make_dataset(task)
        model = B.EnhancementModel(cfg.model, seed=args.seed)
        TR.OptState(model.named_params(), cfg.opt)
        return cfg, task, data

    reps = args.size.setup_reps[args.workload]
    setup_times, (cfg, task, data) = timed_setups(setup, reps)
    (train_clean, train_noisy), (eval_clean, eval_noisy) = data
    run.check(check_spectrogram, train_noisy[:2], S.stft(train_noisy[:2], cfg.spectro))
    noisy_db = float(np.mean(si_snr_db(eval_noisy, eval_clean)))

    def train(n_steps, clock=time.perf_counter):
        """`primek train`'s training loop for n_steps (checkpoints as in
        the full run); returns its wall time, per-step times and result."""
        with step_stamps(TR, clock) as stamps:
            t0 = clock()
            result = TR.train_toy(
                cfg.model, cfg.spectro, task, n_steps, weights=cfg.weights,
                mode=cfg.loss_mode, opt_cfg=cfg.opt, out_dir=str(work / "train"),
                batch_size=cfg.batch_size, seed=args.seed,
                checkpoint_every=max(1, steps // 4))
            dt = clock() - t0
        step_s = list(np.diff(stamps)) if len(stamps) > 1 else [dt / n_steps]
        return dt, step_s, result

    def scored(result, program_gain):
        """SI-SNR gain of the trained model on the held-out set, computed
        here from its enhanced output and checked against the trainer's."""
        with T.no_grad():
            est = B.enhance(T.Tensor(eval_noisy), result.model, cfg.spectro).data
        gain = float(np.mean(si_snr_db(est, eval_clean))) - noisy_db
        run.check(check_training, result.losses, gain, program_gain,
                  args.size.check_learning)
        return gain

    if not args.trace:
        def op():
            # `primek train`: the training loop, then the held-out evaluation
            dt, step_s, result = train(steps)
            est_db, base_db = TR.evaluate(result.model, cfg.spectro, eval_clean, eval_noisy)
            return dt, (step_s, result, est_db - base_db)

        # every training step and the evaluation count as operations
        _, results = run.rounds(
            op, per_round=steps + 1,
            after_each=lambda: setup_times.extend(timed_setups(setup, reps)[0]))
        step_s = []
        for res in results:
            step_s += res[0]
            scored(*res[1:])
        run.samples = {"setup_s": setup_times, "step_s": step_s}
        audio_s = cfg.batch_size * task.segment_samples / task.sample_rate
        step = statistics.median(step_s)
        return {"setup_s": statistics.median(setup_times), "rtf": step / audio_s,
                "step_ms": 1e3 * step, "peak_rss_mb": peak_rss_mb()}

    frames = cfg.spectro.frame_count(task.segment_samples)
    per_clip = pk["complexity"].measure_model_macs(
        B.EnhancementModel(cfg.model, seed=args.seed), cfg.spectro, frames,
        cfg.spectro.bins)
    want_macs = (steps * cfg.batch_size + task.eval_size) * per_clip
    # The untraced reference for the overhead is the first quarter of the
    # training, which keeps a traced run on a slow machine well inside its
    # time limit. Overhead compares median step times, so set-up and
    # checkpoint writes stay out of it; the traced run must retrace those
    # steps exactly.
    ref_steps = max(2, steps // 4)
    run.attempted += ref_steps + steps + 1
    _, untraced_step_s, untraced = train(ref_steps)
    traced = []

    def traced_work(tracer):
        setup()
        with T.track_allocations() as alloc:
            _, step_s, result = train(steps, tracer.clock)
        # the held-out evaluation is traced, but not in the per-step figures
        est_db, base_db = TR.evaluate(result.model, cfg.spectro, eval_clean, eval_noisy)
        traced.append((result, est_db - base_db))
        return statistics.median(step_s), alloc.bytes_allocated / steps

    values = traced_run(pk, run, args, traced_work, ops=steps,
                        untraced_s=statistics.median(untraced_step_s),
                        want_macs=want_macs)
    if traced[0][0].losses[:ref_steps] != untraced.losses:
        run.problems.append("the traced training run diverged from the untraced one")
    values["sisnr_gain_db"] = scored(*traced[0])
    return values


def check_training(losses, gain, program_gain, check_learning):
    if not np.isfinite(gain) or abs(gain - program_gain) > 1e-6:
        raise CheckFailed(f"held-out SI-SNR gain {gain!r} dB, trainer says "
                          f"{program_gain!r} dB")
    if not check_learning:
        return
    k = max(1, len(losses) // 10)
    first, last = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    if not last < first:
        raise CheckFailed(f"training loss did not fall: {first:.4f} -> {last:.4f}")
    if not gain >= SISNR_FLOOR_DB:
        raise CheckFailed(f"held-out SI-SNR gain {gain:.2f} dB < floor {SISNR_FLOOR_DB} dB")


def traced_run(pk, run, args, work_fn, ops, untraced_s, want_macs):
    """Repeat the workload's work under the tracer; return per-layer values.

    work_fn(tracer) returns the traced seconds of one operation, to compare
    with the untraced seconds `untraced_s` of the same operation, and the
    bytes of tensor storage allocated per operation.
    """
    gemm = gemm_gmacs()
    tracer = Tracer(pk, np.random.default_rng([args.seed, 2]))
    gc.collect()
    with tracer.installed():
        t0 = tracer.clock()
        traced_s, alloc_bytes = work_fn(tracer)
        wall = tracer.clock() - t0
    values = tracer.layer_values(ops)
    coverage = 100.0 * tracer.covered_s() / wall
    values.update({
        "machine.gemm_gmacs": gemm,
        "tensor.alloc_mb": alloc_bytes / 2 ** 20,
        "trace.overhead_ms": 1e3 * (traced_s - untraced_s),
        "trace.coverage_pct": coverage,
    })
    if coverage < COVERAGE_MIN_PCT:
        run.problems.append(f"spans cover {coverage:.1f}% of traced wall time, "
                            f"below {COVERAGE_MIN_PCT}%")
    if values["conv.macs"] != want_macs and "conv.macs" not in tracer.absent_metrics():
        run.problems.append(f"traced conv MACs {values['conv.macs']} != "
                            f"complexity.measure_model_macs total {want_macs}")
    run.problems.extend(tracer.failures[:5])
    if len(tracer.failures) > 5:
        run.problems.append(f"... {len(tracer.failures) - 5} more failed checks")
    for kind, targets in (("conv", {"conv.conv1d", "conv.conv2d"}),
                          ("stft", {"spectral.stft_rect"})):
        if not tracer.checks[kind] and not targets <= set(tracer.absent):
            run.problems.append(f"no {kind} output was checked")
    run.trace_info = {
        "absent": sorted(tracer.absent_metrics()),
        "checks": tracer.checks,
        "check_s": tracer.check_s,
        "profile": tracer.table(),
    }
    return values


WORKLOADS = {
    "enhance_default": lambda pk, run, args, work: enhance_workload(
        pk, run, args, work, "default", args.size.default_clip_s),
    "enhance_long": lambda pk, run, args, work: enhance_workload(
        pk, run, args, work, "tiny", args.size.long_clip_s),
    "train_tiny": train_workload,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_one(args):
    pk = import_primek()
    run = Run(args.seconds)
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        values = WORKLOADS[args.workload](pk, run, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = PER_LAYER if args.trace else END_TO_END
    absent = set(run.trace_info.get("absent", ()))
    metrics, lines = {}, []
    for name, unit in declared.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        status = ""
        if args.trace:
            status = ("measured" if name in values
                      else "absent" if name in absent else "not exercised")
        lines.append(f"{name:<28}{value:>16.6g} {unit:<7}{status}")
    out = {"correct": not run.problems, "attempted": run.attempted,
           "failed": run.failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    detail = {**out, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size_name, "blas_threads": BLAS_THREADS,
              "problems": run.problems, "samples": run.samples, **run.trace_info}
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{args.size_name}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size_name}  BLAS threads {BLAS_THREADS}")
    print("\n".join(lines))
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def run_all(args):
    """Each workload in its own child process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="'toy' shrinks every input for a quick self-test")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    args.size_name, args.size = args.size, SIZES[args.size]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
