"""Per-layer tracing of primek from outside the package.

`Tracer.installed()` wraps, for the duration of a `with` block, the public
functions of primek's modules and the public methods of their classes, plus
the constructors of the `blocks` modules. Every
wrapped call becomes a span; a span's self time is its duration minus the
time of the spans it encloses. Convolutions additionally count MACs through
`tensor.count_macs()`, have their backward closures timed, and are checked
against a direct sum over taps (see `oracles.py`).

Nothing in `src/` is edited: wrappers replace module attributes (every
binding of the same function object in every primek module, so
`from .conv import conv1d` call sites are covered too) and class attributes,
and are removed again when the block exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

from oracles import CheckFailed, check_conv, check_stft_rect

MODULES = ("config", "blocks", "conv", "spectral", "losses", "trainer", "tensor")

# Instrumentation and autograd-mode switches are not layers: timing them
# would only add the tracer's own cost, and the tracer uses the originals.
NOT_WRAPPED = {"tensor": {"no_grad", "count_macs", "track_allocations", "record_macs"}}

# Span key -> per-layer metric. Keys name the wrapped function as
# `<module>.<function>` or `<module>.<Class>.<method>`.
SPAN_METRICS = {
    "config.load": "config.load_ms",
    "blocks.EnhancementModel.__init__": "blocks.model_init_ms",
    "blocks.Encoder.forward": "blocks.encoder_ms",
    "blocks.MaskDecoder.forward": "blocks.mask_decoder_ms",
    "blocks.PhaseDecoder.forward": "blocks.phase_decoder_ms",
    "spectral.stft": "spectral.stft_ms",
    "spectral.stft_rect": "spectral.stft_ms",
    "spectral.istft": "spectral.istft_ms",
    "spectral.istft_rect": "spectral.istft_ms",
    "spectral.wav_read": "spectral.wav_read_ms",
    "spectral.wav_write": "spectral.wav_write_ms",
    "trainer.load_checkpoint": "trainer.ckpt_load_ms",
    "trainer.save_checkpoint": "trainer.ckpt_save_ms",
    "trainer.step_losses": "trainer.fwd_ms",
    "tensor.Tensor.backward": "trainer.bwd_ms",
    "trainer.adamw_step": "trainer.opt_ms",
    "trainer.clip_grad_norm": "trainer.opt_ms",
    "trainer.make_dataset": "trainer.dataset_ms",
    "trainer.evaluate": "trainer.eval_ms",
}

# Time metrics that happen once per set-up or per run are reported per
# call; every other time metric is reported per operation of the workload.
PER_CALL = {"config.load_ms", "blocks.model_init_ms", "trainer.ckpt_load_ms",
            "trainer.dataset_ms", "trainer.eval_ms"}

PRIME_DW = [f"conv.conv1d_dw{k}" for k in (3, 11, 23, 31)]
CONV_KINDS = PRIME_DW + [
    "conv.conv1d_dw_other", "conv.conv1d_pw", "conv.conv2d_dw", "conv.conv2d_pw",
    "conv.conv2d_full"]

# The span inside which a depthwise conv1d is one of the GPFN's prime-kernel
# gate convolutions; other depthwise conv1d calls (the attention branch's
# k = 3 `dwc`) count as `conv1d_dw_other`.
PRIME_GATE = "blocks.dfg_forward"


def _conv_metrics(name):
    kinds = [k for k in CONV_KINDS if name in k]
    return ([k + "_ms" for k in kinds] + [k + "_gmacs" for k in kinds]
            + [f"conv.{name}_bwd_ms", "conv.macs"])


# Targets wrapped by hand (not through SPAN_METRICS) and the metrics they feed.
ABSENT_IMPLIES = {
    "conv.conv1d": _conv_metrics("conv1d"),
    "conv.conv2d": _conv_metrics("conv2d"),
    "blocks.GpfcaBlock": ["blocks.ts_time_ms", "blocks.ts_freq_ms"],
    PRIME_GATE: [k + s for k in PRIME_DW for s in ("_ms", "_gmacs")],
}


def conv_kind(name, spec, in_prime_gate):
    """Classify a convolution by its hyperparameters, independently of the
    spec's own helper properties, and by whether it runs inside a GPFN gate."""
    kernel = spec.kernel if isinstance(spec.kernel, tuple) else (spec.kernel,)
    if spec.groups == spec.in_channels == spec.out_channels:
        if name == "conv2d":
            return "conv.conv2d_dw"
        return f"conv.conv1d_dw{kernel[0]}" if in_prime_gate else "conv.conv1d_dw_other"
    if spec.groups == 1 and all(k == 1 for k in kernel):
        return f"conv.{name}_pw"
    return f"conv.{name}_full"


class _Frame:
    __slots__ = ("key", "metric", "module", "start", "child")

    def __init__(self, key, metric, start):
        self.key = key
        self.metric = metric
        self.module = key.split(".", 1)[0]
        self.start = start
        self.child = 0.0


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Time spent in the independent output checks is excluded from every span
    and from `clock()`, so traced wall time measures tracing alone.
    """

    def __init__(self, pk, rng):
        self.pk = pk  # dict: module name -> imported primek module
        self.rng = rng
        self.stack = []
        self.paused = 0.0
        self.keys = {}        # span key -> [calls, inclusive s, self s]
        self.metric_s = {}    # metric -> seconds, outermost spans only
        self.metric_calls = {}
        self.macs = {}        # conv kind -> MACs
        self.self_by_module = {}
        self.tensor_other_s = 0.0
        self.checks = {"conv": 0, "stft": 0}
        self.check_s = 0.0
        self.failures = []    # messages of failed output checks
        self.absent = []      # expected wrap targets that do not exist
        self.axis_of = {}     # id(GpfcaBlock) -> (block, "time" | "freq")
        self._undo = []

    # -- clock and spans ----------------------------------------------------

    def clock(self):
        return time.perf_counter() - self.paused

    def enter(self, key, metric=None):
        if metric is None:
            metric = SPAN_METRICS.get(key) or (
                "losses.ms" if key.startswith("losses.") else None)
        frame = _Frame(key, metric, self.clock())
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        dur = self.clock() - frame.start
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.key} closed out of order")
        own = dur - frame.child
        if self.stack:
            self.stack[-1].child += dur
        row = self.keys.setdefault(frame.key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += own
        self.self_by_module[frame.module] = self.self_by_module.get(frame.module, 0.0) + own
        if frame.module == "tensor" and not any(
                f.module in ("conv", "spectral") for f in self.stack):
            self.tensor_other_s += own
        m = frame.metric
        if m is not None and not any(f.metric == m for f in self.stack):
            self.metric_s[m] = self.metric_s.get(m, 0.0) + dur
            self.metric_calls[m] = self.metric_calls.get(m, 0) + 1

    def check(self, kind, fn, *args):
        """Run an output check off the clock and record a failure."""
        t0 = time.perf_counter()
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failures.append(str(exc))
        finally:
            dt = time.perf_counter() - t0
            self.paused += dt
            self.check_s += dt
            self.checks[kind] += 1

    def covered_s(self):
        """Sum of self times over all spans (= time inside root spans)."""
        return sum(self.self_by_module.values())

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, key, metric_fn=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(key, metric_fn(args) if metric_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return wrapper

    def _conv_wrapper(self, fn, name):
        tracer = self
        count_macs = self.pk["tensor"].count_macs

        @functools.wraps(fn)
        def wrapper(x, spec, weight, bias=None):
            kind = conv_kind(name, spec,
                             any(f.key == PRIME_GATE for f in tracer.stack))
            frame = tracer.enter(f"conv.{name}", kind)
            try:
                with count_macs() as rec:
                    out = fn(x, spec, weight, bias)
            finally:
                tracer.exit(frame)
            tracer.macs[kind] = tracer.macs.get(kind, 0) + rec.macs
            tracer.check("conv", check_conv, x.data, spec, weight.data,
                         None if bias is None else bias.data, out.data,
                         rec.macs, tracer.rng)
            bwd = getattr(out, "_backward_fn", None)
            if bwd is not None:
                out._backward_fn = tracer._span_wrapper(
                    bwd, f"conv.{name}.backward", lambda a: f"conv.{name}_bwd")
            return out

        return wrapper

    def _stft_rect_wrapper(self, fn):
        tracer = self
        inner = self._span_wrapper(fn, "spectral.stft_rect")

        @functools.wraps(fn)
        def wrapper(wave, cfg):
            out = inner(wave, cfg)
            tracer.check("stft", check_stft_rect, wave.data, cfg, out.data)
            return out

        return wrapper

    def _model_init_wrapper(self, fn):
        tracer = self
        inner = self._span_wrapper(fn, "blocks.EnhancementModel.__init__")

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            inner(model, *args, **kwargs)
            for axis, blk in getattr(model, "ts_blocks", ()):
                tracer.axis_of[id(blk)] = (blk, axis)

        return wrapper

    def _gpfca_metric(self, args):
        blk_axis = self.axis_of.get(id(args[0]))
        return None if blk_axis is None else f"blocks.ts_{blk_axis[1]}_ms"

    def _replace_everywhere(self, original, wrapper):
        """Rebind every primek module attribute that is `original`."""
        for mod in self.pk.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _set_class_attr(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _install(self):
        pk = self.pk
        for mname in MODULES:
            mod = pk[mname]
            skip = NOT_WRAPPED.get(mname, set())
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped at its home
                if inspect.isfunction(value):
                    key = f"{mname}.{attr}"
                    if key in ("conv.conv1d", "conv.conv2d"):
                        wrapper = self._conv_wrapper(value, attr)
                    elif key == "spectral.stft_rect":
                        wrapper = self._stft_rect_wrapper(value)
                    else:
                        wrapper = self._span_wrapper(value, key)
                    self._replace_everywhere(value, wrapper)
                elif inspect.isclass(value):
                    self._install_class(mname, value)
        for key in SPAN_METRICS:
            mname, _, rest = key.partition(".")
            obj = pk[mname]
            for part in rest.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                self.absent.append(key)
        for key in ABSENT_IMPLIES:
            mname, _, fname = key.partition(".")
            if not hasattr(pk[mname], fname):
                self.absent.append(key)

    def _install_class(self, mname, cls):
        module_cls = getattr(self.pk["blocks"], "Module", None)
        is_module = (mname == "blocks" and module_cls is not None
                     and issubclass(cls, module_cls))
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue  # properties, static data
            if attr.startswith("_") and not (is_module and attr == "__init__"):
                continue
            key = f"{mname}.{cls.__name__}.{attr}"
            if key == "blocks.EnhancementModel.__init__":
                wrapper = self._model_init_wrapper(value)
            elif key == "blocks.GpfcaBlock.forward":
                wrapper = self._span_wrapper(value, key, self._gpfca_metric)
            else:
                wrapper = self._span_wrapper(value, key)
            self._set_class_attr(cls, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for obj, attr, original in reversed(self._undo):
                setattr(obj, attr, original)
            self._undo.clear()
            self.axis_of.clear()

    # -- report -------------------------------------------------------------

    def layer_values(self, ops):
        """Measured per-layer values, keyed by metric name.

        Conv MACs are the total over the traced work; times are per call or
        per operation as `PER_CALL` says.
        """
        out = {}
        for m, s in self.metric_s.items():
            name = m + "_ms" if m.startswith("conv.") else m
            per = self.metric_calls[m] if name in PER_CALL else ops
            out[name] = 1e3 * s / per
            if m in CONV_KINDS and s > 0:
                out[m + "_gmacs"] = self.macs.get(m, 0) / s / 1e9
        out["conv.macs"] = sum(self.macs.values())
        out["tensor.other_ms"] = 1e3 * self.tensor_other_s / ops
        return out

    def absent_metrics(self):
        """Metric names whose wrap target no longer exists in primek."""
        names = set()
        for key in self.absent:
            names.update(ABSENT_IMPLIES.get(key, ()))
            if key in SPAN_METRICS:
                names.add(SPAN_METRICS[key])
        return names

    def table(self):
        """Rows of the per-span profile, slowest self time first."""
        rows = [
            {"span": k, "calls": c, "total_ms": 1e3 * tot, "self_ms": 1e3 * own}
            for k, (c, tot, own) in self.keys.items()
        ]
        return sorted(rows, key=lambda r: -r["self_ms"])


def gemm_gmacs(seconds=0.3, n=384):
    """Sustained float64 GEMM rate on this machine, in GMAC/s (median of
    repeated n x n x n products under the process's BLAS thread setting)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b  # first call loads kernels
    rates = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(rates) < 5:
        t0 = time.perf_counter()
        a @ b
        rates.append(n ** 3 / (time.perf_counter() - t0) / 1e9)
    return float(np.median(rates))
