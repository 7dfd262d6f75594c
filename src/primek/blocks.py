"""Architectural units: the GPFCA block (simplified channel attention and
the prime-kernel gated feed-forward), dilated dense blocks, and the
assembled two-stage magnitude/phase model.

Parameter-owning classes follow a tiny Module convention (named_params for
optimizers/checkpoints).

A GPFCA block runs its [rows, C, L] sequences in row tiles and
concatenates the tile outputs. Rows are independent (layer norm works over
channels, SCA pools each row's own sequence, every conv runs along L). The
widest activation is the FFN hidden, ffn_expansion * C * L values per row;
a tile has the most rows, a multiple of 8 (8 at least), whose hidden fits
_ROW_TILE_BYTES. Untiled, a 0.5 s `default` enhance made 50 MB hidden
arrays, above glibc's 32 MB mmap ceiling, so each was fresh, kernel-zeroed
pages; tile-sized ones reuse freed heap. Tiles start at multiples of 8
rows, and a remainder shorter than one tile joins the last tile (so it
holds fewer than twice the rows of the others): OpenBLAS rounds the
columns of a narrow or unaligned GEMM operand differently from the same
columns of a wide product. With both rules the tiled output is
bit-identical on the clips measured, and within ~1e-15 where the SCA's
narrow [C, rows] product still rounds differently (a 2 s `default` clip).
Tiles run only with gradients off. With gradients on, the tape keeps every
tile's activations, so tiles would save no memory, each tile's crop
backward would add a zero gradient of the whole input, and the weight
gradients would become sums over tiles that differ from the untiled ones
by a few ulps. An input that fits one tile runs untiled, with no crop or
concat.

`enhance` always runs with gradients off. It streams a file through the
model in segments of `spectro.segment_seconds` (as STFT frames, `seg`), and
one batch row at a time, so its peak memory grows with neither file length
nor batch size; only waveforms span the whole file and batch (the
overlap-add buffer, divided in place by the normaliser, and the output).
Each row's segments run the ops of that row enhanced on its own, so its
output does not depend on the other rows of its batch.
Neighbouring segments overlap by seg // 8 frames (one at least), and the
last segment ends on the last frame, so it may overlap its neighbour by
more. A segment's spectrum is the centred STFT of a crop (a view) of the
input that starts ceil(pad / hop) frames before the segment, or at the
file's start, and ends with the segment's last frame, or at the file's
end. Centre padding reaches the segment's frames only where the crop meets
the file's start or end, as it does the whole file's; frames that reach it
at an inner cut are dropped. So the kept frames equal the whole file's,
and a file of one segment is one crop of the whole file, which runs the
ops of one whole-file STFT, estimate and iSTFT. Each segment's estimate is
cross-faded in the rectangular domain, (m cos p, m sin p), not on mask and
phase, whose angles wrap: its weight is 1 inside and ramps linearly over
the overlap at each edge it shares, and the weighted sum is divided by the
sum of the weights. The sums are kept for one segment's frames; those no
later segment reaches are inverse-transformed, windowed and overlap-added
into the output, in ascending frame order, so the output is bit-identical
to one iSTFT of the whole cross-faded file. Training and `enhance` share
one estimate step, `estimate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .conv import ConvSpec, conv1d, conv2d
from .spectral import (
    Spectrogram,
    _normalise,
    _overlap_add,
    _synthesis_frames,
    compress,
    decompress,
    rect,
    stft,
)
from .tensor import ShapeError, Tensor


# most bytes of FFN hidden activation per row tile of a GPFCA block (module
# docstring); a last tile with the remainder folded in holds under twice that
_ROW_TILE_BYTES = 16 << 20

# neighbouring `enhance` segments overlap by 1/_SEGMENT_OVERLAP_DIV of a
# segment's frames, one at least (module docstring)
_SEGMENT_OVERLAP_DIV = 8


def _is_prime(n):
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n ** 0.5) + 1))


@dataclass(frozen=True)
class GpfcaConfig:
    """Hyperparameters of one GPFCA block; kernel_group holds the depthwise
    kernel size of each channel quarter of the gated unit."""

    kernel_group: tuple = (3, 11, 23, 31)
    ffn_expansion: int = 12
    attn_expansion: int = 2
    norm_eps: float = 1e-5

    def __post_init__(self):
        sizes = self.kernel_group
        if len(sizes) != 4:
            raise ValueError(f"gpfca.kernel_group needs 4 sizes, got {sizes}")
        for k in sizes:
            if k < 1 or k % 2 == 0:
                raise ValueError(
                    f"gpfca.kernel_group size {k} must be odd and positive")
        composite = [k for k in sizes if not _is_prime(k)]
        if composite:
            warnings.warn(
                f"gpfca.kernel_group sizes {composite} are not prime; "
                "multi-scale groups may have overlapping periodic responses"
            )
        if self.ffn_expansion < 1:
            raise ValueError("ffn_expansion must be >= 1")
        if self.attn_expansion < 1:
            raise ValueError("attn_expansion must be >= 1")
        if not self.norm_eps > 0:
            raise ValueError(f"gpfca.norm_eps {self.norm_eps} must be > 0")


@dataclass(frozen=True)
class DenseBlockSpec:
    depth: int = 4
    kernel: int = 3
    dilations: tuple = None
    variant: str = "DSDDB"

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.variant not in ("DDB", "DSDDB"):
            raise ValueError(f"unknown dense block variant {self.variant!r}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"dense.kernel {self.kernel} must be odd and positive")
        dils = self.dilations
        if dils is None:
            dils = tuple(2 ** i for i in range(self.depth))
            object.__setattr__(self, "dilations", dils)
        if len(dils) != self.depth:
            raise ValueError(
                f"dilation schedule length {len(dils)} != depth {self.depth}"
            )
        if min(dils) < 1:
            raise ValueError(f"dense.dilations {dils} must all be >= 1")


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 64
    dense: DenseBlockSpec = field(default_factory=DenseBlockSpec)
    gpfca: GpfcaConfig = field(default_factory=GpfcaConfig)
    ts_block_count: int = 2  # time+freq GPFCA pairs
    mask_max: float = 2.0
    identity_mode: bool = False

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"model.channels {self.channels} must be >= 1")
        if self.ts_block_count < 0:
            raise ValueError(f"model.ts_block_count {self.ts_block_count} must be >= 0")
        if not self.mask_max > 0:
            raise ValueError(f"model.mask_max {self.mask_max} must be > 0")
        hidden = self.gpfca.ffn_expansion * self.channels
        if hidden % 4 != 0:
            raise ValueError(
                f"hidden width {hidden} (= gpfca.ffn_expansion * model.channels) "
                "must be divisible by 4 for channel chunking"
            )
        wide = self.gpfca.attn_expansion * self.channels
        if wide % 2 != 0:
            raise ValueError(
                f"attention width {wide} (= gpfca.attn_expansion * model.channels) "
                "must be even for the gate's channel split"
            )


# ---------------------------------------------------------------------------
# module base and initializers
# ---------------------------------------------------------------------------

class Module:
    def __init__(self):
        self._params = {}
        self._children = {}

    def param(self, name, t):
        self._params[name] = t
        return t

    def child(self, name, mod):
        self._children[name] = mod
        return mod

    def named_params(self, prefix=""):
        out = {}
        for n, t in self._params.items():
            out[prefix + n] = t
        for n, m in self._children.items():
            out.update(m.named_params(prefix + n + "."))
        return out

    def param_count(self):
        return sum(p.size for p in self.named_params().values())

    def conv_weight_count(self):
        """Convolution weights only (the accounting the formulas use)."""
        return sum(
            p.size
            for n, p in self.named_params().items()
            if n.endswith("weight")
        )

    def zero_grad(self):
        for p in self.named_params().values():
            p.grad = None


def _winit(rng, shape, fan_in):
    std = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape):
    return Tensor(np.ones(shape), requires_grad=True)


class Norm(Module):
    """Zero-mean/unit-variance over the given axes with per-channel affine."""

    def __init__(self, channels, axes, eps=1e-5):
        super().__init__()
        self.axes = axes
        self.eps = eps
        self.gain = self.param("gain", _ones(channels))
        self.bias = self.param("bias", _zeros(channels))

    def forward(self, x):
        return T.normalize(x, self.axes, self.gain, self.bias, self.eps)


class Conv(Module):
    """conv1d or conv2d, chosen by the rank of the weight at call time."""

    def __init__(self, rng, spec, bias=True):
        super().__init__()
        self.spec = spec
        kernel = spec.kernel if isinstance(spec.kernel, tuple) else (spec.kernel,)
        shape = (spec.out_channels, spec.in_channels // spec.groups) + kernel
        self.weight = self.param("weight", _winit(rng, shape, math.prod(shape[1:])))
        self.bias = self.param("bias", _zeros(spec.out_channels)) if bias else None

    def forward(self, x):
        conv = conv1d if self.weight.ndim == 3 else conv2d
        return conv(x, self.spec, self.weight, self.bias)


# ---------------------------------------------------------------------------
# depthwise fusion gate and the grouped gated unit
# ---------------------------------------------------------------------------

def dfg_forward(x, dwc_gate, dwc_value, pwc):
    """Depthwise fusion gate of one channel quarter, PWC(DWC_g(x)) ⊙ DWC_v(x)
    on [B, Cg, T]: two depthwise convs of one kernel size, with their own
    weights, and a pointwise conv on the gate branch.
    """
    gate = dwc_gate.forward(x)
    value = dwc_value.forward(x)
    return T.mul(pwc.forward(gate), value)


class GatedUnit(Module):
    """Channel-quartered multi-scale gating: quarter i goes through a fusion
    gate whose depthwise convs have kernel size sizes[i]."""

    def __init__(self, rng, channels, sizes):
        super().__init__()
        if channels % 4 != 0:
            raise ShapeError(f"channels {channels} not divisible by 4")
        c = channels // 4
        self.quarters = []
        for i, k in enumerate(sizes):
            dwc = ConvSpec(c, c, k, groups=c)
            self.quarters.append((
                self.child(f"dwc_gate{i}", Conv(rng, dwc)),
                self.child(f"dwc_value{i}", Conv(rng, dwc)),
                self.child(f"pwc{i}", Conv(rng, ConvSpec(c, c, 1))),
            ))

    def forward(self, x):
        parts = T.chunk(x, 4)
        return T.concat([dfg_forward(p, *q)
                         for p, q in zip(parts, self.quarters, strict=True)])


# ---------------------------------------------------------------------------
# feed-forward and the full residual block
# ---------------------------------------------------------------------------

class FeedForward(Module):
    """Pointwise expansion -> grouped multi-scale gating -> pointwise fusion."""

    def __init__(self, rng, channels, cfg):
        super().__init__()
        c = channels
        hidden = cfg.ffn_expansion * c
        self.expand = self.child("expand", Conv(rng, ConvSpec(c, hidden, 1)))
        self.gpgu = self.child("gpgu", GatedUnit(rng, hidden, cfg.kernel_group))
        self.fuse = self.child("fuse", Conv(rng, ConvSpec(hidden, c, 1)))

    def forward(self, x):
        return self.fuse.forward(self.gpgu.forward(self.expand.forward(x)))


class GpfcaBlock(Module):
    """Residual pairing of a channel-attention sub-layer and the gated
    feed-forward sub-layer, pre-norm, with zero-initialized residual scales.

    The attention sub-layer gates the halves of a depthwise-filtered
    expansion against each other, then applies simplified channel attention
    (Chen et al., arXiv:2204.04676): h ⊙ PWC(mean over time of h).
    """

    def __init__(self, rng, channels, cfg):
        super().__init__()
        c = channels
        wide = cfg.attn_expansion * c
        self.norm1 = self.child("norm1", Norm(c, axes=(1,), eps=cfg.norm_eps))
        self.inflate = self.child("inflate", Conv(rng, ConvSpec(c, wide, 1)))
        self.dwc = self.child(
            "dwc", Conv(rng, ConvSpec(wide, wide, 3, groups=wide))
        )
        self.sca = self.child("sca", Conv(rng, ConvSpec(wide // 2, wide // 2, 1)))
        self.project = self.child("project", Conv(rng, ConvSpec(wide // 2, c, 1)))
        self.scale1 = self.param("scale1", _zeros(c))
        self.norm2 = self.child("norm2", Norm(c, axes=(1,), eps=cfg.norm_eps))
        self.ffn = self.child("ffn", FeedForward(rng, c, cfg))
        self.scale2 = self.param("scale2", _zeros(c))

    def forward(self, x):
        """x: [rows, C, L] -> [rows, C, L]; with gradients off, in row
        tiles (module docstring) concatenated in the memory order of the
        first tile's output."""
        rows = x.shape[0]
        row_bytes = self.ffn.expand.spec.out_channels * x.shape[2] * x.data.itemsize
        step = max(8, _ROW_TILE_BYTES // row_bytes // 8 * 8)
        tiles = rows // step
        if tiles < 2 or T._grad_enabled:
            return self._rows(x)
        cuts = [i * step for i in range(tiles)] + [rows]
        return T.concat([self._rows(T.crop(x, 0, lo, hi))
                         for lo, hi in zip(cuts, cuts[1:])], axis=0)

    def _rows(self, x):
        h = self.norm1.forward(x)
        h = self.inflate.forward(h)
        h = self.dwc.forward(h)
        a, b = T.chunk(h, 2, axis=1)  # simple multiplicative gate
        h = T.mul(a, b)
        h = T.mul(h, self.sca.forward(T.mean_axis(h, 2)))
        h = self.project.forward(h)
        x = T.add(x, T.scale_channels(h, self.scale1))
        h = self.norm2.forward(x)
        h = self.ffn.forward(h)
        return T.add(x, T.scale_channels(h, self.scale2))


# ---------------------------------------------------------------------------
# 2-D conv stages and dilated dense blocks
# ---------------------------------------------------------------------------

class ConvStage(Module):
    """Convs applied in order, then instance norm over (T, F) and a
    per-channel PReLU. The convs carry no bias: the norm's mean subtraction
    would cancel it.
    """

    def __init__(self, rng, specs):
        super().__init__()
        self.convs = [
            self.child(f"conv{i}", Conv(rng, spec, bias=False))
            for i, spec in enumerate(specs)
        ]
        c = specs[-1].out_channels
        self.norm = self.child("norm", Norm(c, axes=(2, 3)))
        self.alpha = self.param("alpha", Tensor(np.full(c, 0.25), requires_grad=True))

    def forward(self, x, out=None):
        """The stage's output, written into `out` when given (see T.prelu)."""
        for conv in self.convs:
            x = conv.forward(x)
        return T.prelu(self.norm.forward(x), self.alpha, out=out)


class DenseBlock(Module):
    """Densely connected dilated 2-D stack; layer i reads i*C channels: the
    block input and the outputs of layers 1 .. i-1.

    The block keeps them in one buffer [B, depth*C, T, F], in the memory
    order of its input (as concat would lay them out): the input is copied
    into the first C channels, and layer i < depth writes its output
    straight into channels i*C .. (i+1)*C. Layer i > 1 reads the view of
    the first i*C channels (T.concat_view), whose gradient is concat's.
    Layers write only past every view taken so far, so each view on the
    tape keeps its values. The block so keeps depth*C channels of layer
    inputs and outputs, where concatenated copies kept (2 + ... + depth)*C
    besides the outputs of layers 1 .. depth-1. A depth-1 block makes no
    buffer.

    variant DDB uses full dilated convolutions; DSDDB factors each into a
    depthwise dilated convolution followed by a pointwise one.
    """

    def __init__(self, rng, channels, spec):
        super().__init__()
        self.spec = spec
        self.channels = channels
        c, k = channels, spec.kernel
        self.layers = []
        for i, d in enumerate(spec.dilations, start=1):
            cin = i * c
            if spec.variant == "DDB":
                specs = [ConvSpec(cin, c, (k, k), dilation=(d, d))]
            else:
                specs = [ConvSpec(cin, cin, (k, k), dilation=(d, d), groups=cin),
                         ConvSpec(cin, c, (1, 1))]
            self.layers.append(self.child(f"layer{i}", ConvStage(rng, specs)))

    def forward(self, x):
        *inner, last = self.layers
        if not inner:
            return last.forward(x)
        c = self.channels
        # every layer output takes the widest dtype of its input and weights
        dtype = np.result_type(x.dtype, *{p.dtype for p in self.named_params().values()})
        buf = Tensor(np.empty_like(x.data, dtype, shape=(
            x.shape[0], len(self.layers) * c) + x.shape[2:]))
        buf.data[:, :c] = x.data
        parts = [x]
        for i, layer in enumerate(inner, start=1):
            inp = T.concat_view(buf, parts) if i > 1 else x
            parts.append(layer.forward(inp, out=buf.data[:, i * c:(i + 1) * c]))
        return last.forward(T.concat_view(buf, parts))


# ---------------------------------------------------------------------------
# encoder / decoders / assembled model
# ---------------------------------------------------------------------------

class Encoder(Module):
    """Stem -> dense block -> stride-2 frequency downsampling."""

    def __init__(self, rng, cfg):
        super().__init__()
        c = cfg.channels
        self.stem = self.child("stem", ConvStage(rng, [ConvSpec(2, c, (1, 1))]))
        self.dense = self.child("dense", DenseBlock(rng, c, cfg.dense))
        self.down = self.child(
            "down", ConvStage(rng, [ConvSpec(c, c, (3, 3), stride=(1, 2))])
        )

    def forward(self, x):
        return self.down.forward(self.dense.forward(self.stem.forward(x)))


class _DecoderCore(Module):
    def __init__(self, rng, cfg):
        super().__init__()
        c = cfg.channels
        self.dense = self.child("dense", DenseBlock(rng, c, cfg.dense))
        self.stage = self.child("stage", ConvStage(rng, [ConvSpec(c, c, (3, 3))]))

    def forward(self, h, f_target):
        h = self.dense.forward(h)
        h = T.repeat_axis(h, axis=3, times=2)  # undo the stride-2 downsampling
        if h.shape[3] != f_target:
            h = T.crop(h, axis=3, start=0, stop=f_target)
        return self.stage.forward(h)


class MaskDecoder(Module):
    def __init__(self, rng, cfg):
        super().__init__()
        self.cfg = cfg
        self.core = self.child("core", _DecoderCore(rng, cfg))
        self.head = self.child("head", Conv(rng, ConvSpec(cfg.channels, 1, (1, 1))))
        # start at mask == 1 so the untrained model is magnitude-neutral
        self.head.weight.data[:] = 0.0

    def forward(self, h, f_target):
        z = self.head.forward(self.core.forward(h, f_target))
        mask = T.mul_scalar(T.sigmoid(z), self.cfg.mask_max)
        return _to_bft(mask)


class PhaseDecoder(Module):
    """Pseudo real/imaginary component pair combined by atan2.

    The pair is offset by the noisy unit phasor with a learnable gain, so
    the untrained head reproduces the input phase.
    """

    def __init__(self, rng, cfg):
        super().__init__()
        self.core = self.child("core", _DecoderCore(rng, cfg))
        self.head_real = self.child(
            "head_real", Conv(rng, ConvSpec(cfg.channels, 1, (1, 1)))
        )
        self.head_imag = self.child(
            "head_imag", Conv(rng, ConvSpec(cfg.channels, 1, (1, 1)))
        )
        self.head_real.weight.data[:] = 0.0
        self.head_imag.weight.data[:] = 0.0
        self.skip_gain = self.param("skip_gain", _ones(1))

    def forward(self, h, noisy_phase_bft):
        h = self.core.forward(h, noisy_phase_bft.shape[1])
        ph = _to_b1tf(noisy_phase_bft)
        re = T.add(self.head_real.forward(h), T.scale_channels(T.cos(ph), self.skip_gain))
        im = T.add(self.head_imag.forward(h), T.scale_channels(T.sin(ph), self.skip_gain))
        phase = T.atan2(im, re)
        phase.data[phase.data == -np.pi] = np.pi  # keep range (-pi, pi]
        return _to_bft(phase)


def _to_bft(x):
    """[B, 1, T, F] -> [B, F, T]."""
    return T.transpose(T.reshape(x, (x.shape[0], x.shape[2], x.shape[3])), (0, 2, 1))


def _to_b1tf(x):
    """[B, F, T] -> [B, 1, T, F]."""
    y = T.transpose(x, (0, 2, 1))
    return T.reshape(y, (y.shape[0], 1, y.shape[1], y.shape[2]))


class EnhancementModel(Module):
    """Encoder -> alternating time/frequency sequence blocks -> two heads."""

    def __init__(self, cfg, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.encoder = self.child("encoder", Encoder(rng, cfg))
        self.ts_blocks = []
        for i in range(2 * cfg.ts_block_count):
            axis = "time" if i % 2 == 0 else "freq"
            blk = self.child(f"ts{i}_{axis}",
                             GpfcaBlock(rng, cfg.channels, cfg.gpfca))
            self.ts_blocks.append((axis, blk))
        self.mask_decoder = self.child("mask_decoder", MaskDecoder(rng, cfg))
        self.phase_decoder = self.child("phase_decoder", PhaseDecoder(rng, cfg))

    def forward(self, mag, phase):
        """mag: power-law compressed magnitude [B, F, T]; phase [B, F, T].

        Returns (mask [B, F, T] in (0, mask_max), phase [B, F, T]).
        """
        if self.cfg.identity_mode:
            return Tensor(np.ones_like(mag.data)), Tensor(np.array(phase.data))
        x = T.stack([T.transpose(mag, (0, 2, 1)), T.transpose(phase, (0, 2, 1))],
                    axis=1)  # [B, 2, T, F]
        h = self.encoder.forward(x)
        for axis, blk in self.ts_blocks:
            # the block's sequences [rows, C, L] are stored channel-major, as
            # [C, rows, L]; the transposes are views. For B > 1 the reshape
            # makes the one copy. For B = 1 (every enhance) it is a view, and
            # the block's first pointwise conv (inflate) writes channel-major.
            perm = (1, 0, 3, 2) if axis == "time" else (1, 0, 2, 3)  # self-inverse
            cm = T.transpose(h, perm)  # [C, B, F, T] for time, [C, B, T, F] for freq
            c, b, n, length = cm.shape
            seq = T.transpose(T.reshape(cm, (c, b * n, length)), (1, 0, 2))
            seq = blk.forward(seq)
            h = T.transpose(T.reshape(T.transpose(seq, (1, 0, 2)), cm.shape), perm)
        mask = self.mask_decoder.forward(h, phase.shape[1])
        phase_hat = self.phase_decoder.forward(h, phase)
        return mask, phase_hat


def segment_starts(cfg, frames):
    """First frame of each segment that `enhance` runs for `frames` STFT
    frames: [0] when they fit one segment of cfg.segment_samples, else
    segments of exactly that many frames, seg, each starting
    seg - max(1, seg // 8) frames after the one before, the last ending on
    the last frame."""
    seg = cfg.frame_count(cfg.segment_samples)
    if frames <= seg:
        return [0]
    step = max(1, seg - _overlap(seg))
    return list(range(0, frames - seg, step)) + [frames - seg]


def _overlap(seg):
    return max(1, seg // _SEGMENT_OVERLAP_DIV)


def estimate(model, comp):
    """Compressed noisy spectrogram -> compressed enhanced spectrogram: the
    mask scales the magnitude and the phase head's output is the phase."""
    mask, phase_hat = model.forward(comp.magnitude, comp.phase)
    return Spectrogram(T.mul(mask, comp.magnitude), phase_hat, comp.config)


def enhance(noisy_wave, model, cfg):
    """Full pipeline: analysis, masking, phase estimation, resynthesis.

    noisy_wave: Tensor [B, N]; returns Tensor [B, N], always computed with
    gradients off. The file is streamed one segment (segment_starts) at a
    time and one batch row at a time: each segment's STFT, estimate,
    cross-fade with its neighbours (which overlap it by 1/8 of a segment)
    and iSTFT of its finished frames run in turn, row after row, so only
    waveforms span the file and the batch, and each row's output is that
    row enhanced on its own (module docstring).
    """
    b, n = noisy_wave.shape
    hop, wl, pad = cfg.hop, cfg.win_length, cfg.pad
    t_frames = cfg.frame_count(n)
    starts = segment_starts(cfg, t_frames)
    full = wl + (t_frames - 1) * hop
    if pad + n > full:  # the last frame may end before the last sample
        raise ShapeError(f"requested {n} samples but only {full - pad} reconstructible")
    seg = t_frames - starts[-1]
    ov = _overlap(seg)
    back = -(-pad // hop)  # frames before a segment that its crop also holds
    # the compressed spectrogram's dtype: numpy's FFT runs in float32 at least
    dtype = np.result_type(noisy_wave.dtype, np.float32)
    ramp = np.arange(1, ov + 1, dtype=dtype) / (ov + 1)
    win = cfg.analysis_window().astype(dtype)
    y = np.zeros((b, -(-full // hop) * hop), dtype)
    with T.no_grad():
        for r in range(b):  # row r's crop views, estimates and overlap-add into y[r]
            row = T.crop(noisy_wave, 0, r, r + 1)
            # frames s .. s + seg - 1 of the segment at s: the weighted
            # estimates summed so far and their weights
            pending = np.zeros((1, 2, cfg.bins, seg), dtype)
            wsum = np.zeros(seg, dtype)
            for i, (s, end) in enumerate(zip(starts, starts[1:] + [t_frames])):
                lo = max(0, s - back)
                spec = stft(T.crop(row, 1, lo * hop,
                                   min(n, (s + seg - 1) * hop + wl - pad)), cfg)
                part = Spectrogram(T.crop(spec.magnitude, 2, s - lo, s - lo + seg),
                                   T.crop(spec.phase, 2, s - lo, s - lo + seg), cfg)
                w = np.ones(seg, dtype)
                if i > 0:
                    w[:ov] = ramp
                if i < len(starts) - 1:
                    w[-ov:] = ramp[::-1]
                pending += rect(decompress(estimate(model, compress(part)))).data * w
                wsum += w
                # no later segment reaches the frames before the next start
                done = end - s
                pending[..., :done] /= wsum[:done]
                _overlap_add(_synthesis_frames(pending[..., :done], cfg, win), hop,
                             full, out=y[r:r + 1], first=s)
                # the next segment's first frames move to the front
                pending[..., :seg - done] = pending[..., done:]
                pending[..., seg - done:] = 0.0
                wsum[:seg - done] = wsum[done:]
                wsum[seg - done:] = 0.0
    y = _normalise(y[:, :full], win, hop, t_frames)
    return Tensor(np.ascontiguousarray(y[:, pad: pad + n]))


# ---------------------------------------------------------------------------
# self-attention reference (memory-scaling benchmark only)
# ---------------------------------------------------------------------------

class AttentionReference(Module):
    """Minimal single-head self-attention; exists solely to exhibit the
    quadratic activation-memory growth the sequence blocks avoid.
    Forward-only, no gradient support.
    """

    def __init__(self, rng, channels):
        super().__init__()
        c = channels
        self.wq = self.param("wq", _winit(rng, (c, c), c))
        self.wk = self.param("wk", _winit(rng, (c, c), c))
        self.wv = self.param("wv", _winit(rng, (c, c), c))

    def forward(self, x):
        xd = x.data if isinstance(x, Tensor) else x
        c = xd.shape[1]
        q = Tensor(np.einsum("oc,bct->bot", self.wq.data, xd))
        k = Tensor(np.einsum("oc,bct->bot", self.wk.data, xd))
        v = Tensor(np.einsum("oc,bct->bot", self.wv.data, xd))
        scores = Tensor(np.einsum("bct,bcs->bts", q.data, k.data) / np.sqrt(c))
        m = scores.data.max(axis=-1, keepdims=True)
        e = Tensor(np.exp(scores.data - m))
        attn = Tensor(e.data / e.data.sum(axis=-1, keepdims=True))
        return Tensor(np.einsum("bts,bcs->bct", attn.data, v.data))
