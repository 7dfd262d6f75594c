import itertools
import math
import tracemalloc

import numpy as np
import pytest

from primek import conv as conv_mod
from primek import tensor as T
from primek.conv import ConvSpec, conv1d, conv2d
from primek.tensor import ShapeError, Tensor

RNG = np.random.default_rng(77)


# ---------------------------------------------------------------------------
# independently coded naive oracles (deliberately the dumbest possible loops)
# ---------------------------------------------------------------------------

def naive_conv1d(x, w, b, stride, dilation, groups, same):
    batch, cin, t = x.shape
    cout, cin_g, k = w.shape
    pad = dilation * (k - 1) // 2 if same else 0
    xp = np.zeros((batch, cin, t + 2 * pad))
    xp[:, :, pad:pad + t] = x
    span = dilation * (k - 1) + 1
    t_out = (xp.shape[2] - span) // stride + 1
    cout_g = cout // groups
    out = np.zeros((batch, cout, t_out))
    for bi in range(batch):
        for oc in range(cout):
            gi = oc // cout_g
            for ot in range(t_out):
                acc = 0.0 if b is None else b[oc]
                for ic in range(cin_g):
                    for kk in range(k):
                        acc += (
                            w[oc, ic, kk]
                            * xp[bi, gi * cin_g + ic, ot * stride + kk * dilation]
                        )
                out[bi, oc, ot] = acc
    return out


def naive_conv2d(x, w, b, stride, dilation, groups, same):
    batch, cin, t, f = x.shape
    cout, cin_g, kt, kf = w.shape
    st, sf = stride
    dt, df = dilation
    pt = dt * (kt - 1) // 2 if same else 0
    pf = df * (kf - 1) // 2 if same else 0
    xp = np.zeros((batch, cin, t + 2 * pt, f + 2 * pf))
    xp[:, :, pt:pt + t, pf:pf + f] = x
    t_out = (xp.shape[2] - (dt * (kt - 1) + 1)) // st + 1
    f_out = (xp.shape[3] - (df * (kf - 1) + 1)) // sf + 1
    cout_g = cout // groups
    out = np.zeros((batch, cout, t_out, f_out))
    for bi in range(batch):
        for oc in range(cout):
            gi = oc // cout_g
            for ot in range(t_out):
                for of in range(f_out):
                    acc = 0.0 if b is None else b[oc]
                    for ic in range(cin_g):
                        for i in range(kt):
                            for j in range(kf):
                                acc += (
                                    w[oc, ic, i, j]
                                    * xp[bi, gi * cin_g + ic,
                                         ot * st + i * dt, of * sf + j * df]
                                )
                    out[bi, oc, ot, of] = acc
    return out


LAYOUTS = ("contiguous", "channel_major")


def stored_as(a, layout):
    """a's values, stored C-contiguous or channel-major (as [C, B, ...], the
    storage of the sequence blocks' activations)."""
    if layout == "contiguous":
        return np.ascontiguousarray(a)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, 0)), 0, 1)


def is_channel_major(a):
    return np.moveaxis(a, 1, 0).flags.c_contiguous


def rand_weight(spec, two_d=False):
    cin_g = spec.in_channels // spec.groups
    if two_d:
        kt, kf = spec.kernel if isinstance(spec.kernel, tuple) else (spec.kernel,) * 2
        shape = (spec.out_channels, cin_g, kt, kf)
    else:
        shape = (spec.out_channels, cin_g, spec.kernel)
    return Tensor(RNG.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# trivial identity cases
# ---------------------------------------------------------------------------

def test_pointwise_identity_1d():
    x = Tensor(RNG.standard_normal((2, 3, 10)))
    w = Tensor(np.eye(3).reshape(3, 3, 1))
    out = conv1d(x, ConvSpec(3, 3, 1), w, Tensor(np.zeros(3)))
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_depthwise_delta_kernel_identity_1d():
    x = Tensor(RNG.standard_normal((2, 4, 9)))
    w = Tensor(np.tile([0.0, 1.0, 0.0], (4, 1, 1)))
    out = conv1d(x, ConvSpec(4, 4, 3, groups=4), w)
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_pointwise_identity_2d():
    x = Tensor(RNG.standard_normal((1, 3, 6, 7)))
    w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
    out = conv2d(x, ConvSpec(3, 3, (1, 1)), w)
    assert np.allclose(out.data, x.data, atol=1e-15)


@pytest.mark.parametrize("dilation", [(1, 1), (2, 2), (2, 3)])
def test_delta_kernel_identity_2d(dilation):
    x = Tensor(RNG.standard_normal((1, 2, 10, 11)))
    w = np.zeros((2, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0
    out = conv2d(x, ConvSpec(2, 2, (3, 3), dilation=dilation, groups=2), Tensor(w))
    assert np.allclose(out.data, x.data, atol=1e-15)


# ---------------------------------------------------------------------------
# randomized oracle agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [1, 3, 11, 23, 31])
def test_conv1d_model_kernels_match_oracle(kernel):
    spec = ConvSpec(4, 4, kernel, groups=4)
    x = Tensor(RNG.standard_normal((2, 4, 40)))
    w = rand_weight(spec)
    b = Tensor(RNG.standard_normal(4))
    got = conv1d(x, spec, w, b).data
    want = naive_conv1d(x.data, w.data, b.data, 1, 1, 4, True)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
def test_conv1d_dilations_match_oracle(dilation):
    spec = ConvSpec(4, 4, 3, dilation=dilation, groups=4)
    x = Tensor(RNG.standard_normal((2, 4, 16)))
    w = rand_weight(spec)
    got = conv1d(x, spec, w).data
    want = naive_conv1d(x.data, w.data, None, 1, dilation, 4, True)
    assert np.abs(got - want).max() < 1e-12


def test_conv1d_full_matches_oracle():
    spec = ConvSpec(6, 4, 5)
    x = Tensor(RNG.standard_normal((3, 6, 14)))
    w = rand_weight(spec)
    b = Tensor(RNG.standard_normal(4))
    got = conv1d(x, spec, w, b).data
    want = naive_conv1d(x.data, w.data, b.data, 1, 1, 1, True)
    assert np.abs(got - want).max() < 1e-12


def test_conv1d_randomized_shape_sweep():
    for _ in range(20):
        depthwise = bool(RNG.integers(0, 2))
        cin = int(RNG.integers(1, 5))
        cout = cin if depthwise else int(RNG.integers(1, 5))
        groups = cin if depthwise else 1
        k = int(RNG.choice([1, 3, 5]))
        d = int(RNG.choice([1, 2, 4]))
        span = d * (k - 1) + 1
        t = int(RNG.integers(span, span + 12))
        spec = ConvSpec(cin, cout, k, dilation=d, groups=groups)
        x = Tensor(RNG.standard_normal((int(RNG.integers(1, 4)), cin, t)))
        w = rand_weight(spec)
        got = conv1d(x, spec, w).data
        want = naive_conv1d(x.data, w.data, None, 1, d, groups, True)
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("dilation", [(1, 1), (2, 2), (4, 2)])
def test_conv2d_matches_oracle(dilation):
    spec = ConvSpec(2, 3, (3, 3), dilation=dilation)
    x = Tensor(RNG.standard_normal((1, 2, 12, 10)))
    w = rand_weight(spec, two_d=True)
    b = Tensor(RNG.standard_normal(3))
    got = conv2d(x, spec, w, b).data
    want = naive_conv2d(x.data, w.data, b.data, (1, 1), dilation, 1, True)
    assert np.abs(got - want).max() < 1e-12


def test_conv2d_strided_matches_oracle():
    # the encoder's frequency-halving convolution
    spec = ConvSpec(4, 4, (3, 3), stride=(1, 2))
    x = Tensor(RNG.standard_normal((2, 4, 8, 9)))
    w = rand_weight(spec, two_d=True)
    got = conv2d(x, spec, w).data
    want = naive_conv2d(x.data, w.data, None, (1, 2), (1, 1), 1, True)
    assert np.abs(got - want).max() < 1e-12


def test_conv2d_depthwise_dilated_matches_oracle():
    spec = ConvSpec(3, 3, (3, 3), dilation=(4, 4), groups=3)
    x = Tensor(RNG.standard_normal((1, 3, 14, 13)))
    w = rand_weight(spec, two_d=True)
    got = conv2d(x, spec, w).data
    want = naive_conv2d(x.data, w.data, None, (1, 1), (4, 4), 3, True)
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# linearity and gradients
# ---------------------------------------------------------------------------

def test_conv_is_linear_in_input():
    spec = ConvSpec(3, 5, 3)
    w = rand_weight(spec)
    x = Tensor(RNG.standard_normal((2, 3, 10)))
    y = Tensor(RNG.standard_normal((2, 3, 10)))
    a, b = 0.7, -1.3
    combo = conv1d(Tensor(a * x.data + b * y.data), spec, w).data
    split = a * conv1d(x, spec, w).data + b * conv1d(y, spec, w).data
    assert np.abs(combo - split).max() < 1e-10


@pytest.mark.parametrize(
    "spec,shape",
    [
        (ConvSpec(4, 4, 3, dilation=2, groups=4), (2, 4, 12)),
        (ConvSpec(4, 6, 3), (1, 4, 9)),
        (ConvSpec(2, 2, 11, groups=2), (1, 2, 15)),
    ],
)
def test_conv1d_gradients_match_finite_differences(spec, shape):
    x = Tensor(RNG.standard_normal(shape), requires_grad=True)
    w = rand_weight(spec)
    b = Tensor(RNG.standard_normal(spec.out_channels), requires_grad=True)
    proj = RNG.standard_normal(conv1d(x, spec, w, b).shape)

    def scalar():
        return float(np.sum(conv1d(x, spec, w, b).data * proj))

    T.sum_all(T.mul(conv1d(x, spec, w, b), Tensor(proj))).backward()
    h = 1e-6
    for t in (x, w, b):
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        for i in RNG.choice(flat.size, size=min(8, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + h
            fp = scalar()
            flat[i] = keep - h
            fm = scalar()
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(gflat[i] - fd) / (1 + max(abs(gflat[i]), abs(fd))) < 1e-7


@pytest.mark.parametrize(
    "spec,shape",
    [
        (ConvSpec(2, 3, (3, 3), dilation=(2, 1), stride=(1, 2)), (1, 2, 8, 9)),
        (ConvSpec(3, 3, (3, 3), dilation=(2, 2), groups=3), (1, 3, 8, 9)),
        (ConvSpec(4, 6, (3, 3)), (1, 4, 7, 8)),
    ],
    ids=["full", "depthwise", "full_4to6"],
)
def test_conv2d_gradients_match_finite_differences(spec, shape):
    x = Tensor(RNG.standard_normal(shape), requires_grad=True)
    w = rand_weight(spec, two_d=True)
    b = Tensor(RNG.standard_normal(spec.out_channels), requires_grad=True)
    proj = RNG.standard_normal(conv2d(x, spec, w, b).shape)

    def scalar():
        return float(np.sum(conv2d(x, spec, w, b).data * proj))

    T.sum_all(T.mul(conv2d(x, spec, w, b), Tensor(proj))).backward()
    h = 1e-6
    for t in (x, w, b):
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        for i in RNG.choice(flat.size, size=min(8, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + h
            fp = scalar()
            flat[i] = keep - h
            fm = scalar()
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(gflat[i] - fd) / (1 + max(abs(gflat[i]), abs(fd))) < 1e-7


# "widening" specs are full convs drawn at the channel counts of grouped
# ones, a kind that no longer exists, so the sweep keeps its 100 specs
SWEEP_KINDS = ("depthwise", "widening", "full", "pointwise")


def sweep_case(rng, i):
    """Spec number i of the seeded sweep, with its input shape. Rank, kind,
    padding and striding cycle through every combination, except that a
    depthwise spec is always stride-1 and "same"-padded; kernel sizes,
    strides, dilations, channels and extents are drawn from rng."""
    n = 1 + i % 2
    kind = SWEEP_KINDS[(i // 2) % 4]
    padding = ("same", "valid")[(i // 8) % 2]
    strided = (i // 16) % 2 == 1
    if kind == "depthwise":
        padding, strided = "same", False

    def draw(choices):
        return tuple(int(rng.choice(choices)) for _ in range(n))

    if kind == "pointwise":
        ks = (1,) * n
    else:
        top = 5 if n == 1 else 3
        ks = draw([k for k in range(1, top + 1) if k % 2 or padding == "valid"])
        if max(ks) == 1:
            ks = (3,) + ks[1:]
    strides = draw([1, 2, 3]) if strided else (1,) * n
    dils = draw([1, 2, 3])
    if kind == "depthwise":
        groups = cin = cout = int(rng.integers(1, 4))
    elif kind == "widening":
        g = int(rng.integers(2, 4))
        groups, cin, cout = 1, g * int(rng.integers(1, 3)), 2 * g
    else:
        groups, cin, cout = 1, int(rng.integers(1, 4)), int(rng.integers(1, 4))
    least = [1 if padding == "same" else d * (k - 1) + 1 for k, d in zip(ks, dils)]
    sizes = tuple(int(rng.integers(m, m + 5)) for m in least)

    def per_axis(v):
        return v if n == 2 else v[0]

    spec = ConvSpec(cin, cout, per_axis(ks), stride=per_axis(strides),
                    dilation=per_axis(dils), groups=groups, padding=padding)
    return spec, (int(rng.integers(1, 3)), cin) + sizes


def check_oracle_and_adjoints(rng, spec, shape, case, layout="contiguous"):
    """Draw x [shape], w and a bias from rng, x and the output gradient g
    stored in `layout`: the forward matches the naive oracle to 1e-12, and
    both gradients satisfy their adjoint identities with the oracle as the
    forward, <conv(dx, w), g> = <dx, grad_x(g)> and
    <conv(x, dw), g> = <dw, grad_w(g)>, to 1e-12 relative. Returns the output
    shape."""
    conv, naive = (conv2d, naive_conv2d) if len(shape) == 4 else (conv1d, naive_conv1d)
    ks = spec.kernel if isinstance(spec.kernel, tuple) else (spec.kernel,)

    def oracle(x, w, b=None):
        return naive(x, w, b, spec.stride, spec.dilation, spec.groups,
                     spec.padding == "same")

    x = Tensor(stored_as(rng.standard_normal(shape), layout), requires_grad=True)
    w = Tensor(rng.standard_normal(
        (spec.out_channels, spec.in_channels // spec.groups) + ks),
        requires_grad=True)
    b = Tensor(rng.standard_normal(spec.out_channels))
    out = conv(x, spec, w, b)
    want = oracle(x.data, w.data, b.data)
    assert out.shape == want.shape, case
    assert np.abs(out.data - want).max() < 1e-12, case
    if not spec.is_depthwise:
        assert is_channel_major(out.data), case

    g = rng.standard_normal(out.shape)
    # the output gradient reaches the conv stored in `layout` as well: the
    # adjoint of a transpose hands back a view of the contiguous product
    axes = list(range(len(shape)))
    if layout == "channel_major":
        axes[:2] = [1, 0]
    T.sum_all(T.mul(T.transpose(out, axes), Tensor(np.transpose(g, axes)))).backward()
    dx = rng.standard_normal(x.shape)
    dw = rng.standard_normal(w.shape)
    for fwd, d, grad in ((oracle(dx, w.data), dx, x.grad),
                         (oracle(x.data, dw), dw, w.grad)):
        lhs, rhs = np.vdot(fwd, g), np.vdot(d, grad)
        scale = np.vdot(np.abs(fwd), np.abs(g)) + np.vdot(np.abs(d), np.abs(grad))
        assert abs(lhs - rhs) <= 1e-12 * scale, case
    return out.shape


def test_seeded_sweep_matches_oracle_and_adjoints():
    """100 seeded specs, each held to check_oracle_and_adjoints on input
    stored in each of LAYOUTS."""
    for layout in LAYOUTS:
        rng = np.random.default_rng(2027)
        for i in range(100):
            spec, shape = sweep_case(rng, i)
            check_oracle_and_adjoints(rng, spec, shape, (i, spec, layout), layout)


def test_depthwise_1d_tile_boundaries_match_oracle_and_adjoints():
    """1-D depthwise convs are computed in tiles of 16 outputs. Output
    lengths shorter than one tile and on both sides of one, two and three
    tiles, for every kernel and dilation below, each held to
    check_oracle_and_adjoints on input stored in each of LAYOUTS."""
    for layout in LAYOUTS:
        rng = np.random.default_rng(2029)
        for t_out, k, d in itertools.product(
                (1, 15, 16, 17, 31, 32, 33, 47, 65), (1, 3, 5, 11, 31), (1, 2, 3)):
            spec = ConvSpec(2, 2, k, dilation=d, groups=2)
            case = (t_out, k, d, layout)
            got = check_oracle_and_adjoints(rng, spec, (2, 2, t_out), case, layout)
            assert got == (2, 2, t_out), case


@pytest.mark.parametrize("spec, shape", [
    (ConvSpec(7, 7, (3, 5), stride=(1, 1), dilation=(2, 1), groups=7), (2, 7, 9, 6)),
    (ConvSpec(7, 7, 5, dilation=2, groups=7), (2, 7, 37)),
], ids=["conv2d", "conv1d"])
def test_depthwise_channel_blocks_match_oracle_and_adjoints(monkeypatch, spec,
                                                           shape):
    """With _BLOCK_BYTES at three channels of input, a depthwise conv of
    seven channels runs in blocks of 3, 3 and 1 channels, each padded and
    contracted on its own; held to check_oracle_and_adjoints on input stored
    in each of LAYOUTS."""
    monkeypatch.setattr(conv_mod, "_BLOCK_BYTES", 3 * math.prod(shape[2:]) * shape[0] * 8)
    kernel = "_banded" if len(shape) == 3 else "_windows"
    per_block = getattr(conv_mod, kernel)
    blocks = []

    def spy(a, *args):
        blocks.append(a.shape[1])
        return per_block(a, *args)

    monkeypatch.setattr(conv_mod, kernel, spy)
    with T.no_grad():
        (conv1d if len(shape) == 3 else conv2d)(
            Tensor(np.ones(shape)), spec, rand_weight(spec, two_d=len(shape) == 4))
    assert blocks == [3, 3, 1]
    for layout in LAYOUTS:
        check_oracle_and_adjoints(np.random.default_rng(2031), spec, shape,
                                  (spec, layout), layout)


def test_depthwise_2d_forward_peaks_at_blocks_beyond_its_output():
    """A no_grad 2-D depthwise forward allocates its output and block-sized
    arrays only (a padded block, the sum of the tap products so far and the
    next product), never a padded copy or a product of the whole input."""
    spec = ConvSpec(16, 16, (3, 3), dilation=(2, 2), groups=16)
    x = Tensor(np.random.default_rng(5).standard_normal((1, 16, 2000, 65)))
    w = rand_weight(spec, two_d=True)
    with T.no_grad():
        tracemalloc.start()
        try:
            out = conv2d(x, spec, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < out.data.nbytes + 4 * conv_mod._BLOCK_BYTES


# ---------------------------------------------------------------------------
# spec validation and MAC instrumentation
# ---------------------------------------------------------------------------

def test_convspec_rejects_bad_configurations():
    with pytest.raises(ShapeError):
        ConvSpec(5, 4, 3, groups=2)  # grouped, in_channels not divisible
    with pytest.raises(ShapeError):
        ConvSpec(4, 5, 3, groups=2)  # grouped, out_channels not divisible
    with pytest.raises(ShapeError):
        ConvSpec(4, 6, 3, groups=2)  # grouped, neither full nor depthwise
    with pytest.raises(ShapeError):
        ConvSpec(0, 4, 3)  # no input channels
    with pytest.raises(ShapeError):
        ConvSpec(0, 0, 3, groups=0)  # no channels, depthwise
    with pytest.raises(ShapeError):
        ConvSpec(4, 4, 4)  # even kernel with same padding
    with pytest.raises(ShapeError):
        ConvSpec(4, 4, 3, dilation=0)
    # a depthwise conv takes stride 1 and "same" padding
    with pytest.raises(ShapeError):
        ConvSpec(4, 4, 3, stride=2, groups=4)
    with pytest.raises(ShapeError):
        ConvSpec(4, 4, (3, 3), stride=(1, 2), groups=4)
    with pytest.raises(ShapeError):
        ConvSpec(4, 4, 3, groups=4, padding="valid")
    with pytest.raises(ValueError):
        ConvSpec(4, 4, 3, padding="reflect")
    # even kernels are fine when padding is explicit-valid
    ConvSpec(4, 4, 4, padding="valid")
    # a one-channel conv with groups 1 is full, so it keeps stride and padding
    ConvSpec(1, 1, 4, stride=2, padding="valid")


def test_convspec_classification():
    assert ConvSpec(8, 8, 3, groups=8).is_depthwise
    assert not ConvSpec(8, 8, 3).is_depthwise
    assert not ConvSpec(1, 1, 3).is_depthwise


def test_conv_shape_errors_name_the_axis():
    spec = ConvSpec(3, 3, 3)
    with pytest.raises(ShapeError, match="channel"):
        conv1d(Tensor(np.zeros((1, 2, 8))), spec, rand_weight(spec))
    with pytest.raises(ShapeError, match="weight shape"):
        conv1d(Tensor(np.zeros((1, 3, 8))), spec,
               Tensor(np.zeros((3, 3, 5))))
    with pytest.raises(ShapeError, match="bias"):
        conv1d(Tensor(np.zeros((1, 3, 8))), spec, rand_weight(spec),
               Tensor(np.zeros(4)))
    spec = ConvSpec(3, 3, (3, 3), stride=(1, 1, 1))
    with pytest.raises(ShapeError, match="spatial axis"):
        conv2d(Tensor(np.zeros((1, 3, 8, 8))), spec, rand_weight(spec, two_d=True))


@pytest.mark.parametrize(
    "conv,spec,shape,want",
    [
        (conv2d, ConvSpec(4, 4, (3, 5), groups=4), (2, 4, 7, 9),
         2 * 4 * 1 * 3 * 5 * 7 * 9),  # B*C_out*(C_in/g)*Kt*Kf*t*f, depthwise
        (conv1d, ConvSpec(4, 6, 5), (2, 4, 7),
         2 * 6 * 4 * 5 * 7),  # B*C_out*C_in*K*t, full
    ],
    ids=["conv2d", "conv1d"],
)
def test_measured_macs_match_definition(conv, spec, shape, want):
    x = Tensor(RNG.standard_normal(shape))
    with T.count_macs() as rec:
        conv(x, spec, rand_weight(spec, two_d=conv is conv2d))
    assert rec.macs == want
