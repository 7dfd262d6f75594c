"""Optimizer, synthetic denoising task, and the desk-scale training loop.

The toy task stands in for a licensed speech corpus: clean signals are
random multi-sinusoid tones with a slow envelope, noise is white Gaussian
at a random SNR. Everything is reproducible from the seed alone.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import losses as L
from .blocks import EnhancementModel, enhance, estimate
from .spectral import compress, decompress, istft, stft
from .tensor import Tensor


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class OptConfig:
    lr: float = 5e-4
    beta1: float = 0.8
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.01
    grad_clip: float = 5.0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"opt.{name} {getattr(self, name)} must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError(f"opt.eps {self.eps} must be > 0")


class OptState:
    """Per-parameter first/second moment buffers plus the step count."""

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.step = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adamw_step(params, state):
    """One decoupled-weight-decay adaptive update over named parameters.

    Gradients are read from each tensor's .grad buffer; a NaN gradient
    aborts with the offending parameter named.
    """
    cfg = state.cfg
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p.data -= cfg.lr * (update + cfg.weight_decay * p.data)


def clip_grad_norm(params, max_norm):
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# synthetic task
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyTaskSpec:
    sample_rate: int = 16000
    segment_samples: int = 2048
    sinusoids_min: int = 3
    sinusoids_max: int = 8
    freq_min: float = 200.0
    freq_max: float = 4000.0
    snr_db_min: float = 0.0
    snr_db_max: float = 10.0
    train_size: int = 96
    eval_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("sample_rate", "train_size", "eval_size", "sinusoids_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"task.{name} {getattr(self, name)} must be >= 1")
        for low, high in (("sinusoids_min", "sinusoids_max"), ("freq_min", "freq_max"),
                          ("snr_db_min", "snr_db_max")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"task.{low} {getattr(self, low)} exceeds "
                                 f"task.{high} {getattr(self, high)}")


def _clean_signal(rng, task):
    n = task.segment_samples
    t = np.arange(n) / task.sample_rate
    count = int(rng.integers(task.sinusoids_min, task.sinusoids_max + 1))
    x = np.zeros(n)
    for _ in range(count):
        freq = rng.uniform(task.freq_min, task.freq_max)
        amp = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        x += amp * np.sin(2 * np.pi * freq * t + phase)
    # slow raised-cosine envelope so the tone is not perfectly stationary
    env_phase = rng.uniform(0, 2 * np.pi)
    env_rate = rng.uniform(0.5, 3.0)
    x *= 0.6 + 0.4 * np.cos(2 * np.pi * env_rate * t / t[-1] + env_phase)
    peak = np.abs(x).max()
    return 0.5 * x / peak if peak > 0 else x


def _mix(rng, clean, snr_db):
    noise = rng.normal(size=clean.shape)
    clean_pow = float((clean ** 2).mean())
    noise_pow = float((noise ** 2).mean())
    target = clean_pow / (10.0 ** (snr_db / 10.0))
    noise *= np.sqrt(target / noise_pow)
    return clean + noise


def make_dataset(task):
    """Deterministic (clean, noisy) pairs: train and held-out splits."""
    rng = np.random.default_rng(task.seed)
    total = task.train_size + task.eval_size
    clean = np.zeros((total, task.segment_samples))
    noisy = np.zeros((total, task.segment_samples))
    for i in range(total):
        c = _clean_signal(rng, task)
        snr = rng.uniform(task.snr_db_min, task.snr_db_max)
        clean[i] = c
        noisy[i] = _mix(rng, c, snr)
    return (
        (clean[: task.train_size], noisy[: task.train_size]),
        (clean[task.train_size:], noisy[task.train_size:]),
    )


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

SI_SNR_CAP_DB = 100.0


def si_snr(est, ref):
    """Scale-invariant SNR in dB, averaged over the batch, each row clipped
    to +-100: no error scores +100, no component along the reference -100."""
    e = est.data if isinstance(est, Tensor) else np.asarray(est)
    r = ref.data if isinstance(ref, Tensor) else np.asarray(ref)
    e = np.atleast_2d(e) - np.atleast_2d(e).mean(axis=1, keepdims=True)
    r = np.atleast_2d(r) - np.atleast_2d(r).mean(axis=1, keepdims=True)
    ref_pow = (r * r).sum(axis=1)
    if np.any(ref_pow == 0):
        raise ValueError("si_snr: reference signal is identically zero")
    proj = ((e * r).sum(axis=1) / ref_pow)[:, None] * r
    err = e - proj
    num = (proj * proj).sum(axis=1)
    den = (err * err).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(num == 0.0, -np.inf, 10.0 * np.log10(num / den))
    return float(np.clip(vals, -SI_SNR_CAP_DB, SI_SNR_CAP_DB).mean())


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

_FIRST_LINE = b"PRIMEK-CHECKPOINT 1\n"
_DTYPES = ("<f8", "<f4")


def save_checkpoint(path, model, step, seed, config_hash="", config=""):
    """One file: a magic line, an 8-byte little-endian header length, a JSON
    header (config hash, config text, step, seed, and each parameter's name,
    dtype and shape in sorted-name order), then the parameters' raw bytes in
    that order.

    `config_hash` is the `config.model_hash` of the config the model was
    built under; an empty one is accepted by any load. `config` is that
    config's full `config.dump` text, recorded for the reader and not
    checked by a load. The file is written to `<path>.tmp` and swapped in by
    one `os.replace`, so a reader sees either the previous checkpoint or the
    new one. If the write or the swap raises, `<path>.tmp` is removed before
    the error propagates.
    """
    arrays = []
    for name, p in sorted(model.named_params().items()):
        a = np.ascontiguousarray(p.data, dtype=p.data.dtype.newbyteorder("<"))
        if a.dtype.str not in _DTYPES:
            raise ValueError(f"parameter {name}: unsupported dtype {a.dtype}")
        arrays.append((name, a))
    header = json.dumps({
        "config_hash": config_hash, "config": config, "step": int(step),
        "seed": int(seed),
        "tensors": [[name, a.dtype.str, a.shape] for name, a in arrays],
    }).encode()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_FIRST_LINE + len(header).to_bytes(8, "little") + header)
            for _, a in arrays:
                fh.write(a.data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_checkpoint(path):
    """The metadata strings and the named arrays of checkpoint file `path`;
    malformed bytes raise OSError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_FIRST_LINE):
        raise OSError(f"{path}: not a checkpoint file (bad magic)")
    off = len(_FIRST_LINE) + 8
    end = off + int.from_bytes(blob[len(_FIRST_LINE):off], "little")
    try:
        header = json.loads(blob[off:end])
        meta = {k: str(header[k]) for k in ("config_hash", "step", "seed")}
        meta["config"] = str(header.get("config", ""))  # absent in older files
        entries = [(str(name), dtype, tuple(int(n) for n in shape))
                   for name, dtype, shape in header["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise OSError(f"{path}: unreadable checkpoint header ({exc})") from exc
    arrays = {}
    for name, dtype, shape in entries:
        if dtype not in _DTYPES or any(n < 0 for n in shape):
            raise OSError(f"{path}: parameter {name} has unsupported dtype "
                          f"{dtype!r} or shape {shape}")
        off, count = end, math.prod(shape)
        end = off + count * np.dtype(dtype).itemsize
        if end > len(blob):
            raise OSError(f"{path}: truncated at parameter {name}")
        arrays[name] = np.frombuffer(blob, dtype, count, off).reshape(shape)
    if end != len(blob):
        raise OSError(f"{path}: {len(blob) - end} bytes after the last parameter")
    return meta, arrays


def load_checkpoint(path, model, expect_hash=None):
    """Copy checkpoint `path` into the model's parameters, cast to their
    dtype, and return its `config_hash`, `config`, `step` and `seed` strings
    (`config` is "" in a file written before checkpoints recorded it). A
    checkpoint of another config or model raises ValueError, a file that is
    not a whole checkpoint OSError, both before any parameter is written."""
    meta, arrays = _read_checkpoint(path)
    if expect_hash is not None and meta["config_hash"] not in ("", expect_hash):
        raise ValueError(
            f"checkpoint config hash {meta['config_hash']} does not match "
            f"expected {expect_hash}"
        )
    params = model.named_params()
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise ValueError(
            f"checkpoint/model parameter mismatch: missing {sorted(missing)[:3]}, "
            f"unexpected {sorted(extra)[:3]}"
        )
    for name, a in arrays.items():
        if a.shape != params[name].shape:
            raise ValueError(f"parameter {name}: checkpoint shape {a.shape} != "
                             f"model shape {params[name].shape}")
    for name, a in arrays.items():
        params[name].data[...] = a
    return meta


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: EnhancementModel
    losses: list = field(default_factory=list)
    checkpoint: str = ""
    log_path: str = ""


def step_losses(model, spectro_cfg, clean, noisy, weights, mode):
    """Forward one batch and assemble the weighted loss: mode "old" adds
    the time term to the spectral ones, mode "new" the consistency term."""
    clean_t = Tensor(clean)
    noisy_t = Tensor(noisy)
    n = clean.shape[1]
    noisy_spec = compress(stft(noisy_t, spectro_cfg))
    clean_spec = compress(stft(clean_t, spectro_cfg))
    est_spec_c = estimate(model, noisy_spec)

    comps = {
        "mag": L.magnitude_loss(est_spec_c.magnitude, clean_spec.magnitude),
        "pha": L.phase_loss(est_spec_c.phase, clean_spec.phase),
        "com": L.complex_loss(est_spec_c, clean_spec),
    }
    est_spec = decompress(est_spec_c)
    if mode == "old":
        comps["time"] = L.time_loss(istft(est_spec, n), clean_t)
    elif mode == "new":
        comps["con"] = L.consistency_loss(est_spec, target_len=n)
    else:
        raise ValueError(f"unknown loss mode {mode!r}")
    total = L.total_loss(weights, magnitude=comps["mag"], phase=comps["pha"],
                         complex_=comps["com"], time=comps.get("time"),
                         consistency=comps.get("con"))
    return total, comps


def evaluate(model, spectro_cfg, clean, noisy):
    """Mean SI-SNR of the enhanced and the raw noisy signals vs clean.
    `enhance` runs the clips one at a time, so the peak holds one clip's
    model activations and each clip's score is what it would be alone."""
    est = enhance(Tensor(noisy), model, spectro_cfg)
    return si_snr(est, clean), si_snr(noisy, clean)


def train_toy(model_cfg, spectro_cfg, task, steps, *, weights, mode, opt_cfg,
              batch_size, out_dir=".", seed=None, checkpoint_every=0,
              progress=None, config_hash="", config=""):
    """Seeded end-to-end training on the synthetic task.

    Writes an append-only per-step log and a final checkpoint; on
    divergence the last good checkpoint is kept and the error re-raised.
    Each log line holds `step=`, the loss components, `total=`, the pre-clip
    gradient norm `grad_norm=`, `clipped=1` if clipping scaled the gradients
    (else 0) and `step_ms=`, the wall time from batch selection to the end of
    the optimizer update. Every checkpoint records `config_hash` and `config`
    (see save_checkpoint).
    """
    seed = task.seed if seed is None else seed
    model = EnhancementModel(model_cfg, seed=seed)
    params = model.named_params()
    state = OptState(params, opt_cfg)
    (train_clean, train_noisy), _ = make_dataset(task)

    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint")
    log_path = os.path.join(out_dir, "train_log.txt")
    save_checkpoint(ckpt_path, model, step=0, seed=seed, config_hash=config_hash,
                    config=config)
    result = TrainResult(model=model, checkpoint=ckpt_path, log_path=log_path)

    order = np.random.default_rng(seed + 1).permutation(len(train_clean))
    with open(log_path, "w") as log:
        for step in range(1, steps + 1):
            started = time.perf_counter()
            sel = order[
                [(batch_size * (step - 1) + j) % len(order) for j in range(batch_size)]
            ]
            clean = train_clean[sel]
            noisy = train_noisy[sel]
            total, comps = step_losses(
                model, spectro_cfg, clean, noisy, weights, mode
            )
            # on divergence the previously written checkpoint stays as the last good one
            if not np.isfinite(total.data):
                raise TrainingDiverged(f"loss became {total.data} at step {step}")
            model.zero_grad()
            total.backward()
            grad_norm = clip_grad_norm(params, opt_cfg.grad_clip)
            adamw_step(params, state)
            step_ms = 1000.0 * (time.perf_counter() - started)
            result.losses.append(float(total.data))
            parts = " ".join(f"{k}={float(v.data):.6f}" for k, v in comps.items())
            clipped = int(grad_norm > opt_cfg.grad_clip > 0)
            log.write(f"step={step} {parts} total={float(total.data):.6f} "
                      f"grad_norm={grad_norm:.6g} clipped={clipped} "
                      f"step_ms={step_ms:.1f}\n")
            log.flush()
            if step == steps or (checkpoint_every and step % checkpoint_every == 0):
                save_checkpoint(ckpt_path, model, step=step, seed=seed,
                                config_hash=config_hash, config=config)
            if progress and step % 100 == 0:
                progress(step, float(total.data))
    return result
