"""Command-line surface: complexity analysis, gradient verification,
memory-scaling benchmarks, toy training, and file enhancement.

Exit codes are a stable contract for CI: 0 success, 2 configuration
error, 3 I/O error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

from . import blocks as B
from . import complexity as X
from . import config as C
from . import losses as L
from . import spectral as S
from . import tensor as T
from . import trainer as TR
from .tensor import Tensor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

# debug hook used to prove the gradcheck actually detects wrong gradients:
# when set, it is called with (block_name, grads dict) and may corrupt them.
fault_hook = None


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(cfg, args):
    model = B.EnhancementModel(cfg.model, seed=args.seed)
    sp = cfg.spectro
    frames = args.frames or sp.frame_count(sp.segment_samples)
    report = X.measure(model, sp, frames, sp.bins)
    print(json.dumps(report, indent=2) if args.json else X.report_text(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _fd_max_rel_err(forward, tensors, rng, coords_per_tensor=4, h=1e-6):
    """Central finite differences on a random projection of the output.

    forward() must rebuild the graph from the current tensor contents.
    Returns the max relative error over sampled coordinates of `tensors`.
    """
    out = forward()
    proj = rng.standard_normal(out.shape)

    def scalar():
        return float(np.sum(forward().data * proj))

    loss = T.sum_all(T.mul(forward(), Tensor(proj)))
    for t in tensors.values():
        t.grad = None
    loss.backward()
    grads = {k: np.array(t.grad) for k, t in tensors.items()}
    if fault_hook is not None:
        fault_hook(grads)

    worst = 0.0
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        n = flat.size
        for idx in rng.choice(n, size=min(coords_per_tensor, n), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            fp = scalar()
            flat[idx] = keep - h
            fm = scalar()
            flat[idx] = keep
            fd = (fp - fm) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            # 1 + max(...) keeps finite-difference roundoff on true-zero
            # gradients (e.g. weights behind a zero-initialised residual
            # scale) benign
            err = abs(an - fd) / (1.0 + max(abs(an), abs(fd)))
            worst = max(worst, err)
    return worst


def _block_cases(cfg, rng):
    """(name, forward, tensors) triples at a reduced size so finite
    differences stay fast; structure follows the configured model."""
    c = 8
    t_len, f_len = 6, 5
    g = cfg.model.gpfca
    small_gpfca = B.GpfcaConfig(
        kernel_group=g.kernel_group, ffn_expansion=2,
        attn_expansion=g.attn_expansion,
    )
    dense = B.DenseBlockSpec(depth=2, dilations=(1, 2),
                             variant=cfg.model.dense.variant)
    model_cfg = B.ModelConfig(
        channels=c, dense=dense, gpfca=small_gpfca, ts_block_count=1,
        mask_max=cfg.model.mask_max,
    )

    seq, grid = (1, c, t_len), (1, c, t_len, f_len)

    def case(name, module, shape, *args):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        tensors = dict(module.named_params())
        tensors["input"] = x
        return name, (lambda: module.forward(x, *args)), tensors

    cases = [
        case("gated_unit", B.GatedUnit(rng, c, g.kernel_group), seq),
        case("feed_forward", B.FeedForward(rng, c, small_gpfca), seq),
        case("gpfca_block", B.GpfcaBlock(rng, c, small_gpfca), seq),
    ]
    for variant in ("DDB", "DSDDB"):
        spec = B.DenseBlockSpec(depth=2, dilations=(1, 2), variant=variant)
        cases.append(case(f"dense_{variant.lower()}", B.DenseBlock(rng, c, spec),
                          grid))
    cases.append(case("mask_decoder", B.MaskDecoder(rng, model_cfg), grid,
                      2 * f_len - 1))
    cases.append(case("phase_decoder", B.PhaseDecoder(rng, model_cfg), grid,
                      Tensor(rng.uniform(-3.0, 3.0, (1, 2 * f_len - 1, t_len)))))
    return cases, model_cfg


def _model_case(model_cfg, rng):
    bins, frames = 9, 6
    model = B.EnhancementModel(model_cfg, seed=0)
    mag = Tensor(np.abs(rng.standard_normal((1, bins, frames))) + 0.1)
    pha = Tensor(rng.uniform(-3.0, 3.0, (1, bins, frames)))

    def forward():
        mask, phase = model.forward(mag, pha)
        return T.stack([mask, phase], axis=1)

    tensors = dict(model.named_params())
    return "model", forward, tensors


def cmd_gradcheck(cfg, args):
    threshold = 1e-4
    rng = np.random.default_rng(args.seed)
    rows = []
    if args.scope == "block":
        cases, _ = _block_cases(cfg, rng)
    else:
        _, model_cfg = _block_cases(cfg, rng)
        cases = [_model_case(model_cfg, rng)]
    failed = False
    for name, forward, tensors in cases:
        err = _fd_max_rel_err(forward, tensors, rng)
        ok = err < threshold
        failed = failed or not ok
        rows.append((name, err, "PASS" if ok else "FAIL"))
    print(f"{'block':<20}{'max rel err':>14}  result")
    for name, err, verdict in rows:
        print(f"{name:<20}{err:>14.3e}  {verdict}")
    if failed:
        print(f"gradient check FAILED (threshold {threshold:g})")
        return EXIT_VERIFY
    print(f"all gradients within threshold {threshold:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench-memory
# ---------------------------------------------------------------------------

def cmd_bench_memory(cfg, args):
    report = X.memory_scaling(cfg.model.gpfca.kernel_group, args.lengths,
                              args.seed)
    print(json.dumps(report, indent=2) if args.json else X.memory_text(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / enhance
# ---------------------------------------------------------------------------

def cmd_train(cfg, args):
    steps = args.steps or cfg.train_steps

    def progress(step, loss):
        print(f"step {step}/{steps} loss {loss:.4f}", flush=True)

    result = TR.train_toy(
        cfg.model, cfg.spectro, cfg.task, steps,
        weights=cfg.weights, mode=cfg.loss_mode, opt_cfg=cfg.opt,
        out_dir=args.out_dir, batch_size=cfg.batch_size, seed=args.seed,
        checkpoint_every=max(1, steps // 4), progress=progress,
        config_hash=C.model_hash(cfg), config=C.dump(cfg),
    )
    _, (eval_clean, eval_noisy) = TR.make_dataset(cfg.task)
    snr_est, snr_noisy = TR.evaluate(result.model, cfg.spectro,
                                     eval_clean, eval_noisy)
    print(f"checkpoint: {result.checkpoint}")
    print(f"loss log:   {result.log_path}")
    print(f"eval SI-SNR: noisy {snr_noisy:.2f} dB, enhanced {snr_est:.2f} dB, "
          f"improvement {snr_est - snr_noisy:.2f} dB")
    return EXIT_OK


def cmd_enhance(cfg, args):
    model = B.EnhancementModel(cfg.model, seed=args.seed)
    if args.checkpoint is not None:
        TR.load_checkpoint(args.checkpoint, model,
                           expect_hash=C.model_hash(cfg))
    elif not cfg.model.identity_mode:
        print("enhance: no checkpoint given and the model is not configured "
              "as identity", file=sys.stderr)
        return EXIT_CONFIG
    start = time.perf_counter()
    wave, rate = S.wav_read(args.input)
    if rate != cfg.spectro.sample_rate:
        print(f"enhance: {args.input} is {rate} Hz but the configuration "
              f"expects {cfg.spectro.sample_rate} Hz", file=sys.stderr)
        return EXIT_IO
    out = B.enhance(wave, model, cfg.spectro)
    S.wav_write(args.output, out, rate)
    n = out.shape[-1]
    rtf = (time.perf_counter() - start) / (n / rate)
    segments = len(B.segment_starts(cfg.spectro, cfg.spectro.frame_count(n)))
    print(f"wrote {args.output} ({n} samples at {rate} Hz, {segments} "
          f"segment{'' if segments == 1 else 's'}, "
          f"RTF {rtf:.3f}, peak RSS {_peak_rss_mb():.1f} MB)")
    return EXIT_OK


def _peak_rss_mb():
    """Peak resident set size of this process; ru_maxrss is in KiB on
    Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _naive_conv1d(x, w, stride, dilation, pad):
    b, cin, t = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t_out = (xp.shape[2] - (dilation * (k - 1) + 1)) // stride + 1
    out = np.zeros((b, cout, t_out))
    for bi in range(b):
        for oc in range(cout):
            for ot in range(t_out):
                acc = 0.0
                for ic in range(cin):
                    for kk in range(k):
                        acc += (w[oc, ic, kk]
                                * xp[bi, ic, ot * stride + kk * dilation])
                out[bi, oc, ot] = acc
    return out


def cmd_selftest(cfg, args):
    rng = np.random.default_rng(args.seed)
    checks = []

    from .conv import ConvSpec, conv1d
    spec = ConvSpec(4, 6, 3, dilation=2)
    x = Tensor(rng.standard_normal((2, 4, 12)))
    w = Tensor(rng.standard_normal((6, 4, 3)))
    got = conv1d(x, spec, w).data
    want = _naive_conv1d(x.data, w.data, 1, 2, 2)
    checks.append(("conv1d vs nested loops", np.abs(got - want).max() < 1e-12))

    frame = rng.standard_normal(32)
    re, im = S.naive_rdft(frame)
    checks.append(("rfft vs direct transform",
                   np.abs(re + 1j * im - np.fft.rfft(frame)).max() < 1e-9))

    sp = cfg.spectro
    cola = sp.cola_deviation()
    checks.append((f"overlap-add deviation {cola:.1e}", cola < 1e-10))

    wave = Tensor(rng.standard_normal((1, sp.segment_samples)))
    with T.no_grad():
        back = S.istft(S.stft(wave, sp), sp.segment_samples)
    err = np.sum((back.data - wave.data) ** 2)
    snr = 10 * np.log10(np.sum(wave.data ** 2) / max(err, 1e-300))
    checks.append((f"analysis/synthesis roundtrip {snr:.0f} dB", snr > 60))

    d, c = cfg.model.dense, cfg.model.channels
    blk = B.DenseBlock(np.random.default_rng(0), c, d)
    expect = (X.params_ddb if d.variant == "DDB" else X.params_dsddb)(
        d.depth, c, d.kernel)
    checks.append(("dense-block weight count matches formula",
                   blk.conv_weight_count() == expect))

    vals = rng.uniform(-10, 10, 64)
    shifted = vals + 2 * np.pi * rng.integers(-3, 4, 64)
    aw = lambda a: L.anti_wrap(Tensor(a)).data
    checks.append(("anti-wrapped distance is shift invariant",
                   np.abs(aw(vals) - aw(shifted)).max() < 1e-9))

    p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    p["w"].grad = np.array([0.5])
    o = TR.OptConfig(lr=0.1, weight_decay=0.0)
    TR.adamw_step(p, TR.OptState(p, o))
    # first step moves by ~lr against the gradient sign
    checks.append(("optimizer first-step direction",
                   abs(p["w"].data[0] - (1.0 - 0.1)) < 1e-6))

    failed = False
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed = failed or not ok
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int_list(raw):
    values = [int(v) for v in raw.split(",") if v]
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a list of positive integers")
    return values


def _non_negative_int(raw):
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="primek",
        description="spectral speech enhancement: analysis, verification, "
                    "training, and file enhancement",
    )
    p.add_argument("--config", default="default",
                   help="preset name ('default', 'tiny') or config file path")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomness in the command")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="per-block complexity report")
    a.add_argument("--json", action="store_true")
    a.add_argument("--frames", type=_non_negative_int, default=0,
                   help="override the frame count (0 keeps the config's)")

    g = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    g.add_argument("--scope", choices=("block", "model"), default="block")

    m = sub.add_parser("bench-memory", help="activation-memory scaling")
    m.add_argument("--lengths", type=_positive_int_list,
                   default=[250, 500, 1000, 2000, 4000])
    m.add_argument("--json", action="store_true")

    t = sub.add_parser("train", help="train on the synthetic denoising task")
    t.add_argument("--steps", type=_non_negative_int, default=0,
                   help="override the configured step count (0 keeps it)")
    t.add_argument("--out-dir", default="run")

    e = sub.add_parser("enhance", help="denoise a WAV file")
    e.add_argument("input")
    e.add_argument("output")
    e.add_argument("--checkpoint", default=None)

    sub.add_parser("selftest", help="quick oracle suite")
    return p


_COMMANDS = {
    "analyze": cmd_analyze,
    "gradcheck": cmd_gradcheck,
    "bench-memory": cmd_bench_memory,
    "train": cmd_train,
    "enhance": cmd_enhance,
    "selftest": cmd_selftest,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = C.load(args.config)
    except C.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"config: {args.config} (hash {C.config_hash(cfg)})")
    try:
        return _COMMANDS[args.command](cfg, args)
    except (C.ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, S.AudioIOError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TR.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
