"""Analytic multiply-accumulate and parameter accounting for the dense
blocks and the assembled model, with instrumented measured counterparts,
and the reports of `primek analyze` and `primek bench-memory`.

All counts are exact Python integers (arbitrary precision, so no overflow
concern even though totals routinely exceed 2^32). One MAC is a single
multiply-accumulate; reported FLOPs are 2 * MACs, and both columns are
printed because the literature convention varies.
"""

from __future__ import annotations

import numpy as np

from . import blocks as _blocks
from .tensor import Tensor, count_macs, no_grad, track_allocations


def _check_positive(**kwargs):
    for name, v in kwargs.items():
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")


# ---------------------------------------------------------------------------
# per-layer and per-block formulas
# ---------------------------------------------------------------------------

def macs_dc(i, c, k, t, f):
    """Standard dilated conv at dense layer i: (iC) * C * K^2 * t * f."""
    _check_positive(i=i, c=c, k=k, t=t, f=f)
    return int(i) * int(c) * int(c) * int(k) ** 2 * int(t) * int(f)


def macs_dsdc(i, c, k, t, f):
    """Depthwise separable dilated conv: iC*K^2*t*f + iC*C*t*f."""
    _check_positive(i=i, c=c, k=k, t=t, f=f)
    i, c, k, t, f = int(i), int(c), int(k), int(t), int(f)
    return i * c * k * k * t * f + i * c * c * t * f


def macs_ddb(n, c, k, t, f):
    _check_positive(n=n)
    return sum(macs_dc(i, c, k, t, f) for i in range(1, int(n) + 1))


def macs_dsddb(n, c, k, t, f):
    _check_positive(n=n)
    return sum(macs_dsdc(i, c, k, t, f) for i in range(1, int(n) + 1))


def params_ddb(n, c, k):
    _check_positive(n=n, c=c, k=k)
    return sum(int(i) * int(c) ** 2 * int(k) ** 2 for i in range(1, int(n) + 1))


def params_dsddb(n, c, k):
    _check_positive(n=n, c=c, k=k)
    n, c, k = int(n), int(c), int(k)
    return sum(i * c * k * k + i * c * c for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# measured counters
# ---------------------------------------------------------------------------

def measure_block_macs(block, t, f):
    """Run a dense block on zeros of [1, C, t, f] and read the MAC counter."""
    x = Tensor(np.zeros((1, block.channels, t, f)))
    with no_grad(), count_macs() as rec:
        block.forward(x)
    return rec.macs


def _model_macs_at(model, frames, bins):
    zeros = Tensor(np.zeros((1, bins, frames)))
    with no_grad(), count_macs() as rec:
        model.forward(zeros, zeros)
    return rec.macs


def _forward_macs(model, frames, bins):
    """Measured conv MACs of one forward at the given geometry.

    Every convolution in the model contributes an integer count that is
    affine in the frame axis, so the total at any frame count follows
    exactly from dry runs at 1 and 2 frames (loop bounds, not data).
    """
    m1 = _model_macs_at(model, 1, bins)
    m2 = _model_macs_at(model, 2, bins)
    return m1 + (m2 - m1) * (int(frames) - 1)


def measure_model_macs(model, cfg, frames, bins):
    """Measured conv MACs of a `blocks.enhance` of `frames` frames
    under the STFT config cfg: one forward per segment
    (`blocks.segment_starts`)."""
    starts = _blocks.segment_starts(cfg, int(frames))
    return len(starts) * _forward_macs(model, int(frames) - starts[-1], bins)


# ---------------------------------------------------------------------------
# reports: plain dicts, which `analyze --json` and `bench-memory --json` print
# ---------------------------------------------------------------------------

def dense_block_entry(name, block, t, f):
    """Analytic and measured MACs and conv weights of a dense block at
    [t, f], and all its parameters (biases, norms and slopes too)."""
    spec, c = block.spec, block.channels
    macs_fn, params_fn = ((macs_ddb, params_ddb) if spec.variant == "DDB"
                          else (macs_dsddb, params_dsddb))
    return {"name": name,
            "analytic_macs": macs_fn(spec.depth, c, spec.kernel, t, f),
            "measured_macs": measure_block_macs(block, t, f),
            "analytic_params": params_fn(spec.depth, c, spec.kernel),
            "measured_params": block.conv_weight_count(),
            "full_params": block.param_count()}


def measure(model, cfg, frames, bins):
    """Complexity report of a model at the given input geometry: an entry
    per dense block and one for the whole model, the configured dense
    block's weights as a DDB and as a DSDDB, and the total MACs and FLOPs."""
    bins_down = (bins + 1) // 2  # after the stride-2 frequency conv
    macs = _forward_macs(model, frames, bins)
    weights = model.conv_weight_count()
    d, c = model.cfg.dense, model.cfg.channels
    p_ddb, p_dsddb = params_ddb(d.depth, c, d.kernel), params_dsddb(d.depth, c, d.kernel)
    return {
        "frames": frames,
        "bins": bins,
        "entries": [
            dense_block_entry("encoder.dense", model.encoder.dense, frames, bins),
            dense_block_entry("mask_decoder.dense", model.mask_decoder.core.dense,
                              frames, bins_down),
            dense_block_entry("phase_decoder.dense", model.phase_decoder.core.dense,
                              frames, bins_down),
            # conv-only convention: the analytic total equals the measured one
            {"name": "model.total", "analytic_macs": macs, "measured_macs": macs,
             "analytic_params": weights, "measured_params": weights,
             "full_params": model.param_count()},
        ],
        "dense_comparison": {"depth": d.depth, "channels": c, "kernel": d.kernel,
                             "params_ddb": p_ddb, "params_dsddb": p_dsddb,
                             "ratio": p_dsddb / p_ddb},
        "total_macs": macs,
        "total_flops": 2 * macs,
    }


def report_text(report):
    """The text form of a `measure` report."""
    head = (f"{'block':<22}{'MACs(analytic)':>16}{'MACs(measured)':>16}"
            f"{'P(analytic)':>13}{'P(measured)':>13}{'P(full)':>11}")
    lines = [f"input geometry: t={report['frames']} frames, f={report['bins']} bins",
             head, "-" * len(head)]
    lines += [f"{e['name']:<22}{e['analytic_macs']:>16,}{e['measured_macs']:>16,}"
              f"{e['analytic_params']:>13,}{e['measured_params']:>13,}"
              f"{e['full_params']:>11,}" for e in report["entries"]]
    d = report["dense_comparison"]
    ddb, dsddb = d["params_ddb"], d["params_dsddb"]
    lines += ["",
              f"dense variants at (n={d['depth']}, C={d['channels']}, K={d['kernel']}):",
              f"  params_ddb   = {ddb}",
              f"  params_dsddb = {dsddb}",
              f"  params_dsddb/params_ddb = {dsddb}/{ddb} = {100 * d['ratio']:.2f}%",
              f"total: {report['total_macs']:,} MACs = {report['total_flops']:,} FLOPs "
              f"(1 MAC = 2 FLOPs), {report['entries'][-1]['full_params']:,} parameters"]
    return "\n".join(lines)


def memory_scaling(kernel_group, lengths, seed):
    """Bytes that a no_grad forward allocates in a 16-channel GPFCA block and
    in the attention reference at each length, and each log-log slope."""
    rng = np.random.default_rng(seed)
    gpfca = _blocks.GpfcaConfig(kernel_group=kernel_group, ffn_expansion=2)
    modules = {"gpfca": _blocks.GpfcaBlock(rng, 16, gpfca),
               "attention": _blocks.AttentionReference(rng, 16)}
    report = {"lengths": lengths, "gpfca_bytes": [], "attention_bytes": []}
    for t_len in lengths:
        x = Tensor(rng.standard_normal((1, 16, t_len)))
        for name, module in modules.items():
            with no_grad(), track_allocations() as rec:
                module.forward(x)
            report[f"{name}_bytes"].append(rec.bytes_allocated)
    if len(lengths) >= 2:
        for name in modules:
            fit = np.polyfit(np.log(lengths), np.log(report[f"{name}_bytes"]), 1)
            report[f"{name}_slope"] = float(fit[0])
    return report


def memory_text(report):
    """The text form of a `memory_scaling` report."""
    lines = [f"{'length':>8}{'gpfca bytes':>16}{'attention bytes':>18}"]
    lines += [f"{t:>8}{g:>16,}{a:>18,}" for t, g, a in zip(
        report["lengths"], report["gpfca_bytes"], report["attention_bytes"])]
    lines.append(f"log-log slope: gpfca {report['gpfca_slope']:.3f}, attention "
                 f"{report['attention_slope']:.3f}" if "gpfca_slope" in report
                 else "slope omitted (need at least two lengths)")
    return "\n".join(lines)
