import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from primek import blocks as B
from primek import tensor as T
from primek.blocks import (
    Conv,
    DenseBlock,
    DenseBlockSpec,
    EnhancementModel,
    FeedForward,
    GatedUnit,
    GpfcaBlock,
    GpfcaConfig,
    ModelConfig,
    dfg_forward,
    enhance,
)
from primek.complexity import params_ddb, params_dsddb
from primek.config import default_run_config, tiny_run_config
from primek.conv import ConvSpec
from primek.spectral import Spectrogram, compress, decompress, istft, stft
from primek.tensor import ShapeError, Tensor
from test_conv import LAYOUTS, is_channel_major, naive_conv1d, stored_as

RNG = np.random.default_rng(5)


TINY_MODEL = tiny_run_config().model
TINY_SP = tiny_run_config().spectro


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

def test_kernel_group_default_is_prime_and_increasing():
    sizes = GpfcaConfig().kernel_group
    assert sizes == (3, 11, 23, 31)
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_kernel_group_warns_on_non_prime():
    with pytest.warns(UserWarning):
        GpfcaConfig(kernel_group=(3, 9, 15, 21))


def test_kernel_group_rejects_even():
    with pytest.raises(ValueError):
        GpfcaConfig(kernel_group=(3, 4, 7, 11))


def test_gpfca_config_divisibility():
    with pytest.raises(ValueError, match="hidden width 6"):
        ModelConfig(channels=6, gpfca=GpfcaConfig(ffn_expansion=1))


def test_dense_spec_dilation_default_and_length_check():
    assert DenseBlockSpec(depth=4).dilations == (1, 2, 4, 8)
    with pytest.raises(ValueError):
        DenseBlockSpec(depth=3, dilations=(1, 2))


# ---------------------------------------------------------------------------
# depthwise fusion gate
# ---------------------------------------------------------------------------

def delta_depthwise(c, k):
    w = np.zeros((c, 1, k))
    w[:, 0, k // 2] = 1.0
    return w


def fusion_convs(k, gate_w, value_w, pwc_w):
    """dwc_gate, dwc_value and pwc modules of one quarter holding the given
    weights, with zero biases."""
    c = pwc_w.shape[0]
    rng = np.random.default_rng(0)
    dwc = ConvSpec(c, c, k, groups=c)
    convs = (Conv(rng, dwc), Conv(rng, dwc), Conv(rng, ConvSpec(c, c, 1)))
    for conv, w in zip(convs, (gate_w, value_w, pwc_w)):
        conv.weight.data[:] = w
    return convs


def test_dfg_delta_kernels_reduce_to_square():
    x = Tensor(RNG.standard_normal((1, 3, 10)))
    convs = fusion_convs(3, delta_depthwise(3, 3), delta_depthwise(3, 3),
                         np.eye(3).reshape(3, 3, 1))
    assert np.abs(dfg_forward(x, *convs).data - x.data ** 2).max() < 1e-14


def test_dfg_zero_input_gives_zero():
    convs = fusion_convs(3, RNG.standard_normal((2, 1, 3)),
                         RNG.standard_normal((2, 1, 3)),
                         RNG.standard_normal((2, 2, 1)))
    out = dfg_forward(Tensor(np.zeros((1, 2, 8))), *convs)
    assert np.all(out.data == 0.0)


def test_dfg_even_kernel_rejected():
    with pytest.raises(ShapeError):
        GatedUnit(RNG, 8, (3, 4, 7, 11))


def test_dfg_matches_composed_convolutions():
    x = RNG.standard_normal((1, 2, 12))
    wg = RNG.standard_normal((2, 1, 3))
    wv = RNG.standard_normal((2, 1, 3))
    wp = RNG.standard_normal((2, 2, 1))
    got = dfg_forward(Tensor(x), *fusion_convs(3, wg, wv, wp)).data
    gate = naive_conv1d(x, wg, None, 1, 1, 2, True)
    value = naive_conv1d(x, wv, None, 1, 1, 2, True)
    want = naive_conv1d(gate, wp, None, 1, 1, 1, True) * value
    assert np.abs(got - want).max() < 1e-14


def test_dfg_sign_flip_invariance():
    # negate the input and both depthwise weight sets (zero biases, linear
    # pwc): the gate product cancels the two sign flips
    x = Tensor(RNG.standard_normal((1, 3, 10)))
    wg = RNG.standard_normal((3, 1, 5))
    wv = RNG.standard_normal((3, 1, 5))
    wp = RNG.standard_normal((3, 3, 1))
    base = dfg_forward(x, *fusion_convs(5, wg, wv, wp)).data
    flipped = dfg_forward(Tensor(-x.data), *fusion_convs(5, -wg, -wv, wp)).data
    assert np.abs(base - flipped).max() < 1e-12


# ---------------------------------------------------------------------------
# grouped gated unit
# ---------------------------------------------------------------------------

def trivial_quarters(unit):
    """Configure every quarter of a GatedUnit as the x -> x*x reduction."""
    for dwc_gate, dwc_value, pwc in unit.quarters:
        c, _, k = dwc_gate.weight.shape
        dwc_gate.weight.data[:] = delta_depthwise(c, k)
        dwc_value.weight.data[:] = delta_depthwise(c, k)
        pwc.weight.data[:] = np.eye(c).reshape(c, c, 1)
        for conv in (dwc_gate, dwc_value, pwc):
            conv.bias.data[:] = 0.0


def test_gpgu_trivial_configuration_squares():
    unit = GatedUnit(RNG, 8, GpfcaConfig().kernel_group)
    trivial_quarters(unit)
    x = Tensor(RNG.standard_normal((2, 8, 40)))
    assert np.abs(unit.forward(x).data - x.data ** 2).max() < 1e-13


def test_gpgu_zero_input_with_zero_biases():
    unit = GatedUnit(RNG, 8, GpfcaConfig().kernel_group)
    out = unit.forward(Tensor(np.zeros((1, 8, 40))))
    assert np.all(out.data == 0.0)


def test_gpgu_equals_stitched_fusion_gates():
    unit = GatedUnit(RNG, 8, GpfcaConfig().kernel_group)
    x = Tensor(RNG.standard_normal((1, 8, 40)))
    got = unit.forward(x).data
    parts = T.chunk(x, 4)
    want = np.concatenate(
        [dfg_forward(p, *q).data for p, q in zip(parts, unit.quarters)], axis=1
    )
    assert np.array_equal(got, want)


def test_gpgu_rejects_indivisible_channels():
    with pytest.raises(ShapeError):
        GatedUnit(RNG, 6, GpfcaConfig().kernel_group)


def test_gpgu_needs_one_size_per_quarter():
    unit = GatedUnit(RNG, 8, (3, 11, 23))
    with pytest.raises(ValueError):
        unit.forward(Tensor(np.zeros((1, 8, 10))))


def test_kernel_sets_same_params_different_outputs():
    sets = [(17, 17, 17, 17), (5, 15, 21, 27), (3, 11, 23, 31)]
    units = [GatedUnit(np.random.default_rng(0), 8, sizes) for sizes in sets]
    counts = {sum(k for k in s) for s in sets}  # all 68: same weight volume
    assert len(counts) == 1
    params = {u.param_count() for u in units}
    assert len(params) == 1
    x = Tensor(RNG.standard_normal((1, 8, 64)))
    outs = [u.forward(x).data for u in units]
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert np.abs(outs[i] - outs[j]).max() > 1e-6


def test_permuted_kernel_group_changes_output():
    base = GatedUnit(np.random.default_rng(0), 8, (3, 11, 23, 31))
    perm = GatedUnit(np.random.default_rng(0), 8, (11, 3, 31, 23))
    x = Tensor(RNG.standard_normal((1, 8, 64)))
    assert np.abs(base.forward(x).data - perm.forward(x).data).max() > 1e-6


# ---------------------------------------------------------------------------
# feed-forward network
# ---------------------------------------------------------------------------

def test_ffn_zero_input_zero_biases_gives_zero():
    ffn = FeedForward(RNG, 8, GpfcaConfig(ffn_expansion=2))
    for name, p in ffn.named_params().items():
        if name.endswith("bias"):
            p.data[:] = 0.0
    out = ffn.forward(Tensor(np.zeros((1, 8, 12))))
    assert np.all(out.data == 0.0)


def test_ffn_identity_bookends_with_trivial_gates_square():
    ffn = FeedForward(RNG, 8, GpfcaConfig(ffn_expansion=1))
    ffn.expand.weight.data[:] = np.eye(8).reshape(8, 8, 1)
    ffn.expand.bias.data[:] = 0.0
    ffn.fuse.weight.data[:] = np.eye(8).reshape(8, 8, 1)
    ffn.fuse.bias.data[:] = 0.0
    trivial_quarters(ffn.gpgu)
    x = Tensor(RNG.standard_normal((1, 8, 40)))
    assert np.abs(ffn.forward(x).data - x.data ** 2).max() < 1e-13


def test_ffn_matches_composed_stages():
    ffn = FeedForward(RNG, 8, GpfcaConfig(ffn_expansion=2))
    x = Tensor(RNG.standard_normal((1, 8, 40)))
    got = ffn.forward(x).data
    want = ffn.fuse.forward(ffn.gpgu.forward(ffn.expand.forward(x))).data
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# gpfca block
# ---------------------------------------------------------------------------

def test_gpfca_is_identity_at_init():
    # residual scales start at zero, so the whole block starts as a skip
    blk = GpfcaBlock(RNG, 8, GpfcaConfig(ffn_expansion=2))
    x = Tensor(RNG.standard_normal((2, 8, 20)))
    assert np.array_equal(blk.forward(x).data, x.data)


def test_sca_zero_pwc_annihilates():
    # a zero SCA conv zeroes the attention branch: with zero biases on the
    # branch's convs and a zero FFN scale, the block is the identity for
    # any scale1
    blk = GpfcaBlock(RNG, 8, GpfcaConfig(ffn_expansion=2))
    blk.sca.weight.data[:] = 0.0
    blk.scale1.data[:] = RNG.standard_normal(8)
    x = Tensor(RNG.standard_normal((2, 8, 20)))
    assert np.array_equal(blk.forward(x).data, x.data)


def test_sca_channel_mismatch_rejected():
    # the SCA conv is attn_expansion * channels / 2 wide
    blk = GpfcaBlock(RNG, 8, GpfcaConfig(ffn_expansion=2, attn_expansion=4))
    assert blk.sca.weight.shape == (16, 16, 1)
    with pytest.raises(ShapeError):
        blk.sca.forward(Tensor(np.zeros((1, 8, 1))))


def numpy_gpfca_block(p, x, eps):
    """One GpfcaBlock forward in plain numpy from its parameter arrays `p`
    (keyed by parameter name), with nested-loop convolutions."""

    def conv(name, h, groups=1):
        return naive_conv1d(h, p[name + ".weight"], p[name + ".bias"],
                            1, 1, groups, True)

    def layer_norm(name, h):
        mu = h.mean(axis=1, keepdims=True)
        var = h.var(axis=1, keepdims=True)
        gain, bias = p[name + ".gain"], p[name + ".bias"]
        return gain[:, None] * (h - mu) / np.sqrt(var + eps) + bias[:, None]

    # attention sub-layer
    h = conv("inflate", layer_norm("norm1", x))
    h = conv("dwc", h, groups=h.shape[1])
    half = h.shape[1] // 2
    h = h[:, :half] * h[:, half:]
    w = p["sca.weight"][:, :, 0]
    h = h * (h.mean(axis=2) @ w.T + p["sca.bias"])[:, :, None]
    x = x + p["scale1"][:, None] * conv("project", h)
    # gated feed-forward sub-layer
    h = conv("ffn.expand", layer_norm("norm2", x))
    q = h.shape[1] // 4
    parts = []
    for i in range(4):
        hq = h[:, i * q:(i + 1) * q]
        gate = conv(f"ffn.gpgu.dwc_gate{i}", hq, groups=q)
        value = conv(f"ffn.gpgu.dwc_value{i}", hq, groups=q)
        parts.append(conv(f"ffn.gpgu.pwc{i}", gate) * value)
    h = conv("ffn.fuse", np.concatenate(parts, axis=1))
    return x + p["scale2"][:, None] * h


def test_gpfca_block_matches_numpy_reference():
    rng = np.random.default_rng(12)
    cfg = GpfcaConfig(ffn_expansion=2, attn_expansion=2)
    blk = GpfcaBlock(rng, 8, cfg)
    params = blk.named_params()
    for t in params.values():
        if t.ndim == 1:
            # scale1 and scale2 start at zero, which makes the block a skip;
            # biases start at zero and norm gains at one
            t.data += 0.5 * rng.standard_normal(t.shape)
    x = rng.standard_normal((2, 8, 40))
    got = blk.forward(Tensor(x)).data
    want = numpy_gpfca_block({n: t.data for n, t in params.items()}, x,
                             cfg.norm_eps)
    assert np.abs(want - x).max() > 1.0
    assert np.abs(got - want).max() < 1e-12


def test_gpfca_gradients_match_finite_differences():
    blk = GpfcaBlock(np.random.default_rng(3), 8, GpfcaConfig(ffn_expansion=2))
    for p in blk.named_params().values():
        p.data += 0.05 * RNG.standard_normal(p.shape)  # leave the init point
    x = Tensor(RNG.standard_normal((1, 8, 10)), requires_grad=True)
    proj = RNG.standard_normal((1, 8, 10))

    def scalar():
        return float(np.sum(blk.forward(x).data * proj))

    T.sum_all(T.mul(blk.forward(x), Tensor(proj))).backward()
    tensors = dict(blk.named_params())
    tensors["input"] = x
    h = 1e-6
    for t in tensors.values():
        flat, gflat = t.data.reshape(-1), t.grad.reshape(-1)
        for i in RNG.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + h
            fp = scalar()
            flat[i] = keep - h
            fm = scalar()
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(gflat[i] - fd) / (1 + max(abs(gflat[i]), abs(fd))) < 1e-6


def test_gpfca_block_output_and_gradients_do_not_depend_on_layout():
    """The same output and gradients, to 1e-12 relative, on a C-contiguous
    input and on a channel-major one of the same values."""
    rng = np.random.default_rng(21)
    blk = GpfcaBlock(rng, 8, GpfcaConfig(ffn_expansion=2))
    for p in blk.named_params().values():
        p.data += 0.3 * rng.standard_normal(p.shape)  # scales start at zero
    x = rng.standard_normal((3, 8, 40))
    proj = rng.standard_normal(x.shape)
    results = []
    for layout in LAYOUTS:
        blk.zero_grad()
        xt = Tensor(stored_as(x, layout), requires_grad=True)
        out = blk.forward(xt)
        T.sum_all(T.mul(out, Tensor(proj))).backward()
        results.append([out.data, xt.grad]
                       + [p.grad for _, p in sorted(blk.named_params().items())])
    for want, got in zip(*results, strict=True):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sequence_layers_keep_channel_major_storage():
    """On a channel-major input, every layer of the GPFCA block returns a
    channel-major output and input gradient: no transposing copy hides
    inside."""
    rng = np.random.default_rng(22)
    cfg = GpfcaConfig(ffn_expansion=2)
    layers = [(GatedUnit(rng, 8, cfg.kernel_group), 8),
              (FeedForward(rng, 8, cfg), 8), (GpfcaBlock(rng, 8, cfg), 8)]
    for layer, c in layers:
        x = Tensor(stored_as(rng.standard_normal((3, c, 40)), "channel_major"),
                   requires_grad=True)
        out = layer.forward(x)
        assert is_channel_major(out.data), type(layer).__name__
        # seeded through a [C, B, L] view, as the model's reshapes seed it
        out_cm = T.transpose(out, (1, 0, 2))
        T.sum_all(T.mul(out_cm, Tensor(rng.standard_normal(out_cm.shape)))).backward()
        assert is_channel_major(x.grad), type(layer).__name__


def test_model_hands_channel_major_sequences_to_its_blocks(monkeypatch):
    model = EnhancementModel(TINY_MODEL, seed=0)
    seen = []
    forward = GpfcaBlock.forward

    def spy(self, x):
        seen.append(is_channel_major(x.data) and x.shape[0] > 1)
        out = forward(self, x)
        seen.append(is_channel_major(out.data))
        return out

    monkeypatch.setattr(GpfcaBlock, "forward", spy)
    wave = Tensor(0.1 * RNG.standard_normal((2, 2048)))
    with T.no_grad():
        enhance(wave, model, TINY_SP)
    assert seen == [True] * 4 * TINY_MODEL.ts_block_count


# ---------------------------------------------------------------------------
# row tiles of the GPFCA blocks
# ---------------------------------------------------------------------------

def hidden_row_bytes(blk, length):
    """Bytes of one row of the block's FFN hidden activation (float64)."""
    return blk.ffn.expand.spec.out_channels * length * 8


def perturbed_block(rng, model_cfg):
    blk = GpfcaBlock(rng, model_cfg.channels, model_cfg.gpfca)
    for p in blk.named_params().values():
        p.data += 0.3 * rng.standard_normal(p.shape)  # scales start at zero
    return blk


def tiled_run(blk, x, proj, tile_bytes, monkeypatch):
    """The block's output for `x` with _ROW_TILE_BYTES at `tile_bytes`,
    first under no_grad and then with gradients, the input and parameter
    gradients of the second run, and the rows of each tile of each run."""
    monkeypatch.setattr(B, "_ROW_TILE_BYTES", tile_bytes)
    rows_run, run_rows = [], GpfcaBlock._rows

    def spy(self, tile):
        rows_run.append(tile.shape[0])
        return run_rows(self, tile)

    monkeypatch.setattr(GpfcaBlock, "_rows", spy)
    with T.no_grad():
        plain = blk.forward(Tensor(x)).data
    tiles = list(rows_run)
    blk.zero_grad()
    xt = Tensor(x, requires_grad=True)
    out = blk.forward(xt)
    T.sum_all(T.mul(out, Tensor(proj))).backward()
    grad_tiles = rows_run[len(tiles):]
    grads = {n: p.grad for n, p in blk.named_params().items()}
    monkeypatch.undo()
    return plain, out.data, xt.grad, grads, tiles, grad_tiles


# [rows, C, L] as EnhancementModel hands them over, as (rows, L), and the
# rows per tile to run: time blocks get B*F rows of T frames, frequency
# blocks B*T rows of F bins. The first four are the perfbench clips (0.5 s
# `default`: F = 101 after downsampling, T = 81; 15 s `tiny`: F = 33,
# T = 7501), whose tiles run bit-identical; "narrow" has 104-column
# pointwise GEMMs per tile, which do not.
TILE_CASES = {
    "default-time": (default_run_config, 101, 81, 24, True),
    "default-freq": (default_run_config, 81, 101, 24, True),
    "tiny-time": (tiny_run_config, 33, 7501, 8, True),
    "tiny-freq": (tiny_run_config, 7501, 33, 1992, True),
    "default-narrow": (default_run_config, 202, 13, 8, False),
}


@pytest.mark.parametrize("make_cfg, rows, length, step, exact",
                         TILE_CASES.values(), ids=TILE_CASES.keys())
def test_row_tiles_match_one_tile(monkeypatch, make_cfg, rows, length, step,
                                  exact):
    """With _ROW_TILE_BYTES at step + 7 rows of FFN hidden, a no_grad run
    takes tiles of `step` rows (rounded down to a multiple of 8) from row 0,
    and the last tile takes the remainder. On the perfbench geometries its
    output equals the one-tile run's bit for bit. Where a tile's GEMMs are
    narrow (under ~1e6 multiply-adds OpenBLAS takes another kernel, which
    rounds the columns past the last multiple of 8 differently) it is
    within 1e-13 of its largest entry (measured: 6.6e-16). With gradients
    on, the block runs untiled whatever the constant, so its output, input
    gradient and every parameter gradient equal the one-tile run's."""
    model_cfg = make_cfg().model
    rng = np.random.default_rng(rows + length)
    blk = perturbed_block(rng, model_cfg)
    shape = (rows, model_cfg.channels, length)
    x = stored_as(rng.standard_normal(shape), "channel_major")
    proj = rng.standard_normal(shape)
    whole = tiled_run(blk, x, proj, 1 << 62, monkeypatch)
    tiled = tiled_run(blk, x, proj, (step + 7) * hidden_row_bytes(blk, length),
                      monkeypatch)
    assert whole[4] == whole[5] == tiled[5] == [rows]
    assert rows % step and tiled[4] == [step] * (rows // step - 1) + [step + rows % step]
    assert len(tiled[4]) >= 3
    if exact:
        assert np.array_equal(whole[0], tiled[0])
    else:
        assert np.abs(tiled[0] - whole[0]).max() <= 1e-13 * np.abs(whole[0]).max()
    assert is_channel_major(tiled[0])
    assert np.array_equal(whole[1], tiled[1])
    assert np.array_equal(whole[2], tiled[2])
    for name, want in whole[3].items():
        assert np.array_equal(want, tiled[3][name]), name


@pytest.mark.parametrize("length, rows", [(81, 101), (101, 81)],
                         ids=["time", "freq"])
def test_gpfca_block_peaks_at_its_widest_row_tile(length, rows):
    """A no_grad `default` block on the sequences of a 0.5 s clip allocates
    its output and about three hidden activations of its widest row tile
    (the expansion, the gated unit's quarters and their concatenation),
    never a hidden activation of every row. The widest tile is the last:
    `step` rows plus the remainder, `step` the most rows, a multiple of 8,
    whose hidden fits _ROW_TILE_BYTES. Untiled, this block peaks at 160 MB."""
    rng = np.random.default_rng(19)
    blk = perturbed_block(rng, default_run_config().model)
    x = Tensor(stored_as(rng.standard_normal((rows, 64, length)), "channel_major"))
    row_bytes = hidden_row_bytes(blk, length)
    step = B._ROW_TILE_BYTES // row_bytes // 8 * 8
    widest = (step + rows % step) * row_bytes
    assert rows // step >= 2 and widest < 2 * B._ROW_TILE_BYTES
    with T.no_grad():
        tracemalloc.start()
        try:
            out = blk.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < out.data.nbytes + 4 * widest


def random_weight_model(model_cfg, seed):
    """A model whose every weight is drawn from N(0, 1/fan_in) and every
    vector parameter moved by N(0, 0.1^2): the zero-initialised heads and
    residual scales would hide the sequence blocks from the output."""
    model = EnhancementModel(model_cfg, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for _, p in sorted(model.named_params().items()):
        if p.ndim >= 2:
            p.data[...] = rng.normal(0.0, 1.0 / np.sqrt(np.prod(p.shape[1:])), p.shape)
        else:
            p.data += rng.normal(0.0, 0.1, p.shape)
    return model


def test_default_enhance_of_2s_in_row_tiles_is_within_1e13_of_one_tile(monkeypatch):
    """A 2 s `default` enhance runs its time blocks in 12 tiles and its
    frequency blocks in 13; its output is within 1e-13 of its largest
    sample of the one-tile output (measured: 2.3e-15, from the SCA's
    [C, rows] products of a 33-row last tile)."""
    cfg = default_run_config()
    model = random_weight_model(cfg.model, seed=1901)
    wave = Tensor(0.3 * np.random.default_rng(3).standard_normal(
        (1, 2 * cfg.spectro.sample_rate)))
    with T.no_grad():
        tiled = enhance(wave, model, cfg.spectro).data
        monkeypatch.setattr(B, "_ROW_TILE_BYTES", 1 << 62)
        whole = enhance(wave, model, cfg.spectro).data
    assert np.abs(tiled - whole).max() <= 1e-13 * np.abs(whole).max()


@pytest.mark.parametrize("seed", [0, 8, 11])
def test_float32_tiny_enhance_is_float32_and_within_25db_of_float64(seed):
    """A float32 model given float32 audio runs in float32 and stays close
    to float64 on the same (float32-representable) weights and input.
    Measured on 1 s of white noise over seeds 0-19: 30.1-37.2 dB (seeds 8
    and 11 are among the lowest). Precision is lost in the mask (41-46 dB)
    and in the phase head, where random weights put atan2's arguments near
    the origin."""
    cfg = tiny_run_config()
    wide = random_weight_model(cfg.model, seed)
    narrow = random_weight_model(cfg.model, seed)
    for p, q in zip(wide.named_params().values(), narrow.named_params().values()):
        q.data = p.data.astype(np.float32)
        p.data[...] = q.data
    x = (0.3 * np.random.default_rng(seed).standard_normal(
        (1, cfg.spectro.sample_rate))).astype(np.float32)
    with T.no_grad():
        ref = enhance(Tensor(x.astype(np.float64)), wide, cfg.spectro).data
        out = enhance(Tensor(x), narrow, cfg.spectro).data
    assert out.dtype == np.float32
    snr = 10 * np.log10(np.sum(ref ** 2) / np.sum((out - ref) ** 2))
    assert snr > 25


# ---------------------------------------------------------------------------
# dense blocks
# ---------------------------------------------------------------------------

def test_ddb_depth_one_equals_hand_composition():
    spec = DenseBlockSpec(depth=1, dilations=(1,), variant="DDB")
    blk = DenseBlock(np.random.default_rng(2), 4, spec)
    x = Tensor(RNG.standard_normal((1, 4, 6, 5)))
    got = blk.forward(x).data
    layer = blk.layers[0]
    (conv,) = layer.convs
    want = T.prelu(layer.norm.forward(conv.forward(x)), layer.alpha).data
    assert np.array_equal(got, want)


def test_ddb_zero_weights_propagate_zeros():
    spec = DenseBlockSpec(depth=2, dilations=(1, 2), variant="DDB")
    blk = DenseBlock(RNG, 4, spec)
    for name, p in blk.named_params().items():
        if "conv" in name:
            p.data[:] = 0.0
    out = blk.forward(Tensor(RNG.standard_normal((1, 4, 6, 5))))
    assert np.all(out.data == 0.0)


def test_dsddb_depth_one_delta_plus_identity_is_identity_before_norm():
    spec = DenseBlockSpec(depth=1, dilations=(1,), variant="DSDDB")
    blk = DenseBlock(np.random.default_rng(2), 3, spec)
    depthwise, pointwise = blk.layers[0].convs
    depthwise.weight.data[:] = 0.0
    depthwise.weight.data[:, 0, 1, 1] = 1.0
    pointwise.weight.data[:] = np.eye(3).reshape(3, 3, 1, 1)
    assert depthwise.bias is None and pointwise.bias is None
    x = Tensor(RNG.standard_normal((1, 3, 6, 5)))
    pre = pointwise.forward(depthwise.forward(x))
    assert np.abs(pre.data - x.data).max() < 1e-14


def test_dsddb_matches_composed_convolutions():
    spec = DenseBlockSpec(depth=2, dilations=(1, 2), variant="DSDDB")
    blk = DenseBlock(np.random.default_rng(9), 4, spec)
    x = Tensor(RNG.standard_normal((1, 4, 8, 7)))
    got = blk.forward(x).data
    h = x
    feats = [x]
    for layer in blk.layers:
        inp = feats[0] if len(feats) == 1 else T.concat(feats)
        depthwise, pointwise = layer.convs
        pre = pointwise.forward(depthwise.forward(inp))
        h = T.prelu(layer.norm.forward(pre), layer.alpha)
        feats.append(h)
    assert np.array_equal(got, h.data)


def concat_reference(blk, x):
    """A dense block's forward built from T.concat: layer i reads a fresh
    copy of the block input and every earlier output."""
    feats = [x]
    for layer in blk.layers:
        feats.append(layer.forward(T.concat(feats) if len(feats) > 1 else x))
    return feats[-1]


@pytest.mark.parametrize("variant", ["DDB", "DSDDB"])
def test_dense_block_with_gradients_equals_concat_and_keeps_one_buffer(variant):
    """Depth 3, B = 2, input stored channel-major: the first depth at which
    a view on the tape (layer 2's input) sits beside a slice written after
    it (layer 2's output). The output and every parameter and input gradient
    are np.array_equal to the concat reference's. Both keep every layer's
    own activations on the tape; the block keeps one buffer of depth*C
    channels where the reference keeps its concatenations ((2 + 3)*C) and
    the outputs of layers 1 and 2 apart from them (2*C): 4 slabs of the
    input's size less. The recorder counts exactly that, and the tape's
    traced bytes after the forward pass fall under the reference's less
    3.75 slabs (so the reference itself fails the bound)."""
    spec = DenseBlockSpec(depth=3, dilations=(1, 2, 4), variant=variant)
    blk = DenseBlock(np.random.default_rng(27), 8, spec)
    rng = np.random.default_rng(28)
    data = stored_as(rng.standard_normal((2, 8, 32, 33)), "channel_major")
    proj = Tensor(rng.standard_normal(data.shape))
    slab = data.nbytes

    def run(forward):
        blk.zero_grad()
        x = Tensor(data.copy(), requires_grad=True)
        tracemalloc.start()
        try:
            with T.track_allocations() as rec:
                out = forward(x)
            tape = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        T.sum_all(T.mul(out, proj)).backward()
        grads = {name: p.grad for name, p in blk.named_params().items()}
        return out.data, x.grad, grads, rec.bytes_allocated, tape

    got, ref = run(blk.forward), run(lambda x: concat_reference(blk, x))
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    assert got[2].keys() == ref[2].keys()
    for name, want in ref[2].items():
        assert np.array_equal(got[2][name], want), name
    assert got[3] == ref[3] - 4 * slab
    assert got[4] < ref[4] - 3.75 * slab


def test_default_dsddb_block_peaks_at_its_buffer_and_one_layer():
    """A no_grad `default`-width DSDDB block (depth 4, C = 64) on
    [1, 64, 81, 201], the encoder's geometry for a 0.5 s clip, in slabs of
    the input's size: the buffer (4), the last layer's depthwise output (4,
    as wide as its input) and pointwise output (1), and under one slab of
    padded channel blocks and their products. Bound 2 * depth + 2 = 10;
    measured 9.65. Concatenating copies peaked at 12.65, over it: the last
    concatenation (4) and the three outputs it copies (3) in place of the
    buffer."""
    cfg = default_run_config().model
    rng = np.random.default_rng(29)
    blk = DenseBlock(rng, cfg.channels, cfg.dense)
    x = Tensor(rng.standard_normal((1, cfg.channels, 81, 201)))
    with T.no_grad():
        tracemalloc.start()
        try:
            blk.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert cfg.dense.depth == 4 and cfg.dense.variant == "DSDDB"
    assert peak <= (2 * cfg.dense.depth + 2) * x.data.nbytes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [8, 16])
@pytest.mark.parametrize("k", [3, 5])
def test_dense_weight_counts_match_formulas(n, c, k):
    for variant, formula in (("DDB", params_ddb), ("DSDDB", params_dsddb)):
        spec = DenseBlockSpec(depth=n, kernel=k,
                              dilations=tuple(2 ** i for i in range(n)),
                              variant=variant)
        blk = DenseBlock(RNG, c, spec)
        assert blk.conv_weight_count() == formula(n, c, k)


def test_dense_gradients_match_finite_differences():
    spec = DenseBlockSpec(depth=2, dilations=(1, 2), variant="DSDDB")
    blk = DenseBlock(np.random.default_rng(4), 4, spec)
    x = Tensor(RNG.standard_normal((1, 4, 6, 5)), requires_grad=True)
    proj = RNG.standard_normal((1, 4, 6, 5))

    def scalar():
        return float(np.sum(blk.forward(x).data * proj))

    T.sum_all(T.mul(blk.forward(x), Tensor(proj))).backward()
    tensors = dict(blk.named_params())
    tensors["input"] = x
    h = 1e-6
    for t in tensors.values():
        flat, gflat = t.data.reshape(-1), t.grad.reshape(-1)
        for i in RNG.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + h
            fp = scalar()
            flat[i] = keep - h
            fm = scalar()
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(gflat[i] - fd) / (1 + max(abs(gflat[i]), abs(fd))) < 1e-5


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def test_model_shape_contract_full_geometry():
    cfg = TINY_MODEL
    model = EnhancementModel(cfg, seed=0)
    mag = Tensor(np.abs(RNG.standard_normal((1, 201, 321))))
    pha = Tensor(RNG.uniform(-3, 3, (1, 201, 321)))
    with T.no_grad():
        mask, phase = model.forward(mag, pha)
    assert mask.shape == (1, 201, 321)
    assert phase.shape == (1, 201, 321)


def test_model_zero_input_is_bounded_and_finite():
    cfg = TINY_MODEL
    model = EnhancementModel(cfg, seed=0)
    sp = TINY_SP
    zeros = Tensor(np.zeros((1, sp.bins, 17)))
    with T.no_grad():
        mask, phase = model.forward(zeros, zeros)
    assert np.isfinite(mask.data).all()
    assert np.isfinite(phase.data).all()
    assert np.all(mask.data > 0) and np.all(mask.data < cfg.mask_max)
    assert np.all(phase.data > -np.pi) and np.all(phase.data <= np.pi)


def test_model_untrained_is_magnitude_and_phase_neutral():
    # zero-init mask head -> mask == 1; phase skip -> phase == input phase
    model = EnhancementModel(TINY_MODEL, seed=0)
    sp = TINY_SP
    spec = stft(Tensor(RNG.standard_normal((1, 2048))), sp)
    comp = compress(spec)
    with T.no_grad():
        mask, phase = model.forward(comp.magnitude, comp.phase)
    assert np.allclose(mask.data, 1.0)
    assert np.abs(phase.data - spec.phase.data).max() < 1e-9


def test_same_seed_gives_identical_parameters():
    a = EnhancementModel(TINY_MODEL, seed=7).named_params()
    b = EnhancementModel(TINY_MODEL, seed=7).named_params()
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k].data, b[k].data)


def test_enhance_identity_mode_reconstructs():
    cfg = replace(TINY_MODEL, identity_mode=True)
    model = EnhancementModel(cfg, seed=0)
    sp = TINY_SP
    x = RNG.standard_normal((1, 2048))
    with T.no_grad():
        out = enhance(Tensor(x), model, sp)
    assert out.shape == (1, 2048)
    err = np.sum((out.data - x) ** 2)
    assert 10 * np.log10(np.sum(x ** 2) / max(err, 1e-300)) > 60


def test_enhance_identity_mode_keeps_float32():
    model = EnhancementModel(replace(TINY_MODEL, identity_mode=True), seed=0)
    x = RNG.standard_normal((1, 2048)).astype(np.float32)
    with T.no_grad():
        out = enhance(Tensor(x), model, TINY_SP)
    assert out.dtype == np.float32
    assert np.abs(out.data - x).max() < 1e-5


def test_untrained_model_enhance_reconstructs():
    model = EnhancementModel(TINY_MODEL, seed=0)
    sp = TINY_SP
    x = RNG.standard_normal((1, 2048))
    with T.no_grad():
        out = enhance(Tensor(x), model, sp)
    err = np.sum((out.data - x) ** 2)
    assert 10 * np.log10(np.sum(x ** 2) / max(err, 1e-300)) > 60


def test_zero_mask_silences_output():
    sp = TINY_SP
    x = RNG.standard_normal((1, 2048))
    spec = compress(stft(Tensor(x), sp))
    est = decompress(Spectrogram(
        T.mul(Tensor(np.zeros(spec.magnitude.shape)), spec.magnitude),
        spec.phase, sp))
    out = istft(est, 2048)
    assert np.sum(out.data ** 2) < 1e-8 * np.sum(x ** 2)


def test_ts_block_count_counts_time_freq_pairs():
    one = EnhancementModel(TINY_MODEL, seed=0)
    assert [axis for axis, _ in one.ts_blocks] == ["time", "freq"]
    two = replace(TINY_MODEL, ts_block_count=2)
    assert [axis for axis, _ in EnhancementModel(two, seed=0).ts_blocks] == [
        "time", "freq", "time", "freq"]
