import itertools
import tracemalloc

import numpy as np
import pytest

from primek import tensor as T
from primek.conv import ConvSpec, conv1d, conv2d
from primek.spectral import SpectroConfig, istft_rect, stft_rect
from primek.tensor import ShapeError, Tensor
from test_conv import LAYOUTS, is_channel_major, stored_as

RNG = np.random.default_rng(1234)


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar-valued fn at every coordinate."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = fn(x)
        flat[i] = keep - h
        fm = fn(x)
        flat[i] = keep
        gf[i] = (fp - fm) / (2 * h)
    return g


def autograd_of(op, x_data):
    x = Tensor(x_data, requires_grad=True)
    loss = T.sum_all(op(x))
    loss.backward()
    return x.grad


def check_unary(op, x_data, tol=1e-6):
    analytic = autograd_of(op, np.array(x_data))
    numeric = fd_grad(lambda a: float(np.sum(op(Tensor(a)).data)), np.array(x_data))
    assert np.abs(analytic - numeric).max() < tol


# ---------------------------------------------------------------------------
# basic autograd behaviour
# ---------------------------------------------------------------------------

def test_sum_gradient_is_ones():
    x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
    T.sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_square_gradient_is_two_x():
    data = RNG.standard_normal((2, 5))
    x = Tensor(data, requires_grad=True)
    T.sum_all(T.mul(x, x)).backward()
    assert np.allclose(x.grad, 2 * data)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.add(x, x).backward()


def test_reused_tensor_accumulates_gradient():
    # y = x*x + x, appearing twice in the graph
    x = Tensor(np.array(3.0), requires_grad=True)
    y = T.add(T.mul(x, x), x)
    T.sum_all(y).backward()
    assert np.allclose(x.grad, 2 * 3.0 + 1.0)


def test_repeated_backward_accumulates():
    x = Tensor(np.array(2.0), requires_grad=True)
    loss = T.mul(x, x)
    loss.backward()
    first = np.array(x.grad)
    loss.backward()
    assert np.allclose(x.grad, 2 * first)


def test_backward_frees_interior_gradients_and_keeps_leaf_gradients():
    """After backward every non-leaf .grad is None, and each leaf gradient
    equals that of a reference pass that keeps every interior gradient."""
    rng = np.random.default_rng(11)
    values = [rng.standard_normal(s) for s in ((2, 3, 20), (3, 1, 5), (3,))]
    proj = Tensor(rng.standard_normal((2, 3, 20)))

    def graph():
        leaves = [Tensor(v, requires_grad=True) for v in values]
        x, w, alpha = leaves
        h = conv1d(x, ConvSpec(3, 3, 5, groups=3), w)
        y = T.prelu(T.add(T.mul(h, h), h), alpha)  # h feeds two ops
        return leaves, T.sum_all(T.mul(y, proj))

    leaves, loss = graph()
    topo = T._toposort(loss)
    T._accumulate(loss, np.ones(()))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
    interior = [node for node in topo if node._backward_fn is not None]
    assert len(interior) == 6 and all(node.grad is not None for node in interior)
    want = [p.grad for p in leaves]

    leaves, loss = graph()
    loss.backward()
    assert all(node.grad is None for node in T._toposort(loss)
               if node._backward_fn is not None)
    for p, ref in zip(leaves, want):
        assert np.array_equal(p.grad, ref)


def test_disconnected_leaf_gets_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    T.sum_all(T.mul(x, x)).backward()
    assert y.grad is None


def test_no_grad_context_detaches():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert y._backward_fn is None and y._parents == ()


def filled_buffer(parts, channels):
    """A buffer tensor [B, channels, ...] holding parts end to end from
    channel 0, as a dense block fills its buffer."""
    ref = parts[0].data
    buf = Tensor(np.empty_like(ref, shape=(ref.shape[0], channels) + ref.shape[2:]))
    lo = 0
    for p in parts:
        buf.data[:, lo:lo + p.shape[1]] = p.data
        lo += p.shape[1]
    return buf


# Every multi-input op, with the shapes of its parents.
MULTI_INPUT_OPS = {
    "add": (T.add, [(2, 3, 4), (2, 3, 1)]),
    "sub": (T.sub, [(2, 3, 1), (2, 3, 4)]),
    "mul": (T.mul, [(2, 3, 1), (2, 3, 4)]),
    "scale_channels": (T.scale_channels, [(2, 3, 4), (3,)]),
    "atan2": (T.atan2, [(2, 3, 4), (2, 3, 4)]),
    "prelu": (T.prelu, [(2, 3, 4), (3,)]),
    "normalize": (lambda x, g, b: T.normalize(x, (2,), g, b),
                  [(2, 3, 4), (3,), (3,)]),
    "concat": (lambda *parts: T.concat(parts), [(2, 1, 4), (2, 3, 4), (2, 2, 4)]),
    "concat_view": (lambda *parts: T.concat_view(filled_buffer(parts, 8), parts),
                    [(2, 1, 4), (2, 3, 4), (2, 2, 4)]),
    "conv1d": (lambda x, w, b: conv1d(x, ConvSpec(3, 4, 3), w, b),
               [(2, 3, 8), (4, 3, 3), (4,)]),
    "conv2d": (lambda x, w, b: conv2d(x, ConvSpec(3, 3, (3, 3), groups=3), w, b),
               [(2, 3, 5, 6), (3, 1, 3, 3), (3,)]),
}


@pytest.mark.parametrize("name", list(MULTI_INPUT_OPS))
def test_only_parents_requiring_grad_receive_one(name):
    op, shapes = MULTI_INPUT_OPS[name]
    rng = np.random.default_rng(7)
    values = [rng.standard_normal(s) + 0.5 for s in shapes]

    def run(wants):
        parents = [Tensor(v, requires_grad=w) for v, w in zip(values, wants)]
        out = op(*parents)
        if any(wants):
            proj = np.random.default_rng(8).standard_normal(out.shape)
            T.sum_all(T.mul(out, Tensor(proj))).backward()
        else:
            assert out._backward_fn is None and not out.requires_grad
        return [p.grad for p in parents]

    full = run([True] * len(shapes))
    for wants in itertools.product([False, True], repeat=len(shapes)):
        for want, got, ref in zip(wants, run(wants), full):
            if want:
                assert np.array_equal(got, ref)
            else:
                assert got is None
    with T.no_grad():
        out = op(*[Tensor(v, requires_grad=True) for v in values])
    assert out._backward_fn is None and out._parents == ()


# ---------------------------------------------------------------------------
# elementwise ops: trivial identities and finite differences
# ---------------------------------------------------------------------------

def test_mul_by_ones_and_add_zero_are_identity():
    x = Tensor(RNG.standard_normal((2, 3, 4)))
    ones = Tensor(np.ones((2, 3, 4)))
    zeros = Tensor(np.zeros((2, 3, 4)))
    assert np.array_equal(T.mul(x, ones).data, x.data)
    assert np.array_equal(T.add(x, zeros).data, x.data)


def test_broadcast_matches_explicit_tiling():
    x = Tensor(RNG.standard_normal((2, 3, 7)))
    s = Tensor(RNG.standard_normal((2, 3, 1)))
    tiled = np.repeat(s.data, 7, axis=2)
    assert np.allclose(T.mul(x, s).data, x.data * tiled)
    assert np.allclose(T.add(x, s).data, x.data + tiled)
    assert np.allclose(T.sub(x, s).data, x.data - tiled)


def test_broadcast_gradient_reduces_to_singleton():
    x = Tensor(RNG.standard_normal((2, 3, 7)), requires_grad=True)
    s = Tensor(RNG.standard_normal((2, 3, 1)), requires_grad=True)
    T.sum_all(T.mul(x, s)).backward()
    assert s.grad.shape == (2, 3, 1)
    assert np.allclose(s.grad, x.data.sum(axis=2, keepdims=True))
    s.grad = None
    T.sum_all(T.sub(x, s)).backward()
    assert np.array_equal(s.grad, np.full((2, 3, 1), -7.0))


def test_general_broadcasting_rejected():
    a = Tensor(np.ones((2, 3, 4)))
    b = Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        T.add(a, b)


@pytest.mark.parametrize(
    "op",
    [
        T.absolute,
        T.cos,
        T.sin,
        T.sigmoid,
        lambda x: T.powf(x, 0.3),
        T.sum_all,
        T.mean_all,
        lambda x: T.mean_axis(x, 1),
    ],
)
def test_unary_gradients_match_finite_differences(op):
    # offset keeps powf away from zero and absolute away from its kink
    x = np.abs(RNG.standard_normal((2, 3, 4))) + 0.5
    check_unary(op, x)


def test_atan2_gradient():
    y = Tensor(RNG.standard_normal((3, 4)) + 2.0, requires_grad=True)
    x = Tensor(RNG.standard_normal((3, 4)) + 2.0, requires_grad=True)
    T.sum_all(T.atan2(y, x)).backward()
    gy = fd_grad(lambda a: float(np.sum(np.arctan2(a, x.data))), np.array(y.data))
    gx = fd_grad(lambda a: float(np.sum(np.arctan2(y.data, a))), np.array(x.data))
    assert np.abs(y.grad - gy).max() < 1e-6
    assert np.abs(x.grad - gx).max() < 1e-6


def test_atan2_gradient_at_origin_is_zero():
    y = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(np.zeros(3), requires_grad=True)
    T.sum_all(T.atan2(y, x)).backward()
    assert np.all(np.isfinite(y.grad)) and np.all(np.isfinite(x.grad))
    assert np.all(y.grad == 0) and np.all(x.grad == 0)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_activation_fixed_points():
    zero = Tensor(np.zeros((1, 2, 3)))
    alpha = Tensor(np.full(2, 0.25))
    assert np.array_equal(T.prelu(zero, alpha).data, np.zeros((1, 2, 3)))
    assert np.allclose(T.sigmoid(zero).data, 0.5)


def test_prelu_negative_side_scales_by_alpha():
    x = Tensor(np.full((1, 2, 3), -2.0))
    alpha = Tensor(np.array([0.25, 0.5]))
    out = T.prelu(x, alpha).data
    assert np.allclose(out[0, 0], -0.5)
    assert np.allclose(out[0, 1], -1.0)


@pytest.mark.parametrize("x_layout, g_layout", itertools.product(LAYOUTS, LAYOUTS))
def test_prelu_matches_its_select_definition_bit_for_bit(x_layout, g_layout):
    """Forward and both gradients equal the np.where definition exactly,
    zeros of x included, and x's gradient is stored in the same order."""
    # large enough (> 256 KiB) for numpy to reuse temporaries as outputs
    x0 = RNG.standard_normal((2, 3, 100, 65))
    x0[0, 0, 0] = 0.0
    g = stored_as(RNG.standard_normal(x0.shape), g_layout)
    x = Tensor(stored_as(x0, x_layout), requires_grad=True)
    alpha = Tensor(RNG.standard_normal(3), requires_grad=True)
    a = alpha.data.reshape(1, 3, 1, 1)
    out = T.prelu(x, alpha)
    assert np.array_equal(out.data, np.where(x0 > 0, x0, a * x0))
    out._backward_fn(g)
    want = np.where(x.data > 0, g, g * a)
    assert np.array_equal(x.grad, want) and x.grad.strides == want.strides
    assert np.array_equal(alpha.grad, np.where(x.data > 0, 0.0, g * x.data).sum(
        axis=(0, 2, 3)))


def test_normalize_and_prelu_hold_one_temporary_under_no_grad():
    """Under no_grad each allocates its output and at most one more array
    of the input's size, and nothing for a backward pass."""
    x = Tensor(RNG.standard_normal((1, 8, 500, 65)))
    ones = Tensor(np.ones(8))
    with T.no_grad():
        for op in (lambda: T.normalize(x, (2, 3), ones, ones),
                   lambda: T.prelu(x, ones)):
            tracemalloc.start()
            try:
                out = op()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.01 * x.data.nbytes
            del out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_standardized_input_unchanged():
    x = RNG.standard_normal((1, 4, 50))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    gain = Tensor(np.ones(4))
    bias = Tensor(np.zeros(4))
    out = T.normalize(Tensor(x), (1,), gain, bias, eps=1e-12)
    assert np.abs(out.data - x).max() < 1e-6


def test_normalize_constant_input_gives_zeros():
    gain = Tensor(np.ones(4))
    bias = Tensor(np.zeros(4))
    out = T.normalize(Tensor(np.full((1, 4, 9), 7.0)), (1,), gain, bias)
    assert np.abs(out.data).max() < 1e-6


def test_normalize_matches_two_pass_statistics():
    x = RNG.standard_normal((2, 4, 6, 5))
    gain = RNG.standard_normal(4)
    bias = RNG.standard_normal(4)
    out = T.normalize(
        Tensor(x), (2, 3), Tensor(gain), Tensor(bias), eps=1e-5
    ).data
    mu = x.mean(axis=(2, 3), keepdims=True)
    sd = np.sqrt(x.var(axis=(2, 3), keepdims=True) + 1e-5)
    want = gain.reshape(1, 4, 1, 1) * (x - mu) / sd + bias.reshape(1, 4, 1, 1)
    assert np.abs(out - want).max() < 1e-12


@pytest.mark.parametrize("layout", LAYOUTS)
def test_normalize_matches_numpy_statistics_bit_for_bit(layout):
    """x is centred once, and its variance summed as numpy's var sums it, so
    the output equals the textbook expression exactly."""
    x = stored_as(RNG.standard_normal((2, 4, 6, 5)), layout)
    gain, bias = RNG.standard_normal(4), RNG.standard_normal(4)
    out = T.normalize(Tensor(x), (2, 3), Tensor(gain), Tensor(bias)).data
    y = (x - x.mean(axis=(2, 3), keepdims=True)) / np.sqrt(
        x.var(axis=(2, 3), keepdims=True) + 1e-5)
    assert np.array_equal(out, gain.reshape(1, 4, 1, 1) * y + bias.reshape(1, 4, 1, 1))


@pytest.mark.parametrize("axes", [(1,), (2,), (1, 2)])
def test_normalize_gradients_match_finite_differences(axes):
    x = Tensor(RNG.standard_normal((2, 3, 5)), requires_grad=True)
    gain = Tensor(RNG.standard_normal(3), requires_grad=True)
    bias = Tensor(RNG.standard_normal(3), requires_grad=True)
    proj = RNG.standard_normal((2, 3, 5))

    def scalar():
        out = T.normalize(x, axes, gain, bias)
        return float(np.sum(out.data * proj))

    T.sum_all(T.mul(T.normalize(x, axes, gain, bias), Tensor(proj))).backward()
    for t in (x, gain, bias):
        numeric = np.zeros_like(t.data)
        flat, nf = t.data.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + 1e-6
            fp = scalar()
            flat[i] = keep - 1e-6
            fm = scalar()
            flat[i] = keep
            nf[i] = (fp - fm) / 2e-6
        assert np.abs(t.grad - numeric).max() < 1e-5


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

# channel quarters, as GatedUnit splits and joins them: chunk(x, 4), concat

def test_chunk4_concat_roundtrip():
    for c in (4, 8, 12):
        x = Tensor(RNG.standard_normal((2, c, 6)), requires_grad=True)
        back = T.concat(T.chunk(x, 4))
        assert np.array_equal(back.data, x.data)


def test_chunk4_groups_channels_in_order():
    x = Tensor(np.arange(8, dtype=float).reshape(1, 8, 1))
    parts = T.chunk(x, 4)
    assert [p.data.reshape(-1).tolist() for p in parts] == [
        [0, 1], [2, 3], [4, 5], [6, 7]
    ]


def test_chunk4_rejects_indivisible_channels():
    with pytest.raises(ShapeError, match="extent 6"):
        T.chunk(Tensor(np.zeros((1, 6, 3))), 4)


def test_concat_channels_known_values():
    a = Tensor(np.full((1, 1, 3), 1.0))
    b = Tensor(np.full((1, 1, 3), 2.0))
    out = T.concat([a, b])
    assert out.shape == (1, 2, 3)
    assert np.array_equal(out.data[0, 0], np.ones(3))
    assert np.array_equal(out.data[0, 1], np.full(3, 2.0))


def test_concat_gradient_routes_by_index():
    parts = [
        Tensor(RNG.standard_normal((1, c, 4)), requires_grad=True)
        for c in (2, 3, 1)
    ]
    out = T.concat(parts)
    w = RNG.standard_normal(out.shape)
    T.sum_all(T.mul(out, Tensor(w))).backward()
    offset = 0
    for p in parts:
        assert np.array_equal(p.grad, w[:, offset:offset + p.shape[1]])
        offset += p.shape[1]


def test_concat_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 4)))])


def test_concat_view_is_concat_without_its_copy():
    """concat_view's data is the view of the buffer that holds the parts,
    equal to concat's, counted as no allocation; writes into the buffer past
    the parts leave it unchanged, and its gradients are concat's."""
    for layout in LAYOUTS:
        parts = [Tensor(stored_as(RNG.standard_normal((2, c, 5)), layout),
                        requires_grad=True) for c in (2, 3)]
        with T.track_allocations() as rec:
            buf = filled_buffer(parts, 9)
            view = T.concat_view(buf, parts)
        assert rec.bytes_allocated == buf.data.nbytes
        assert np.shares_memory(view.data, buf.data)
        joined = T.concat(parts)
        buf.data[:, 5:] = 7.0
        assert np.array_equal(view.data, joined.data)
        assert is_channel_major(view.data) == (layout == "channel_major")
        w = Tensor(RNG.standard_normal(view.shape))
        T.sum_all(T.mul(view, w)).backward()
        want = [p.grad for p in parts]
        for p in parts:
            p.grad = None
        T.sum_all(T.mul(joined, w)).backward()
        for p, g in zip(parts, want):
            assert np.array_equal(p.grad, g)
    with pytest.raises(ShapeError, match="do not fit"):
        T.concat_view(Tensor(np.zeros((2, 4, 5))), parts)


def test_prelu_writes_into_a_given_array_without_counting_it():
    x = Tensor(RNG.standard_normal((2, 3, 4)))
    alpha = Tensor(np.array([0.1, 0.2, 0.3]))
    buf = np.zeros((2, 5, 4))
    with T.track_allocations() as rec:
        out = T.prelu(x, alpha, out=buf[:, 1:4])
    assert rec.bytes_allocated == 0
    assert np.shares_memory(out.data, buf)
    assert np.array_equal(out.data, T.prelu(x, alpha).data)
    assert np.array_equal(buf[:, 1:4], out.data)


def test_transpose_reshape_crop_roundtrip_gradients():
    x = Tensor(RNG.standard_normal((2, 3, 4, 5)), requires_grad=True)
    y = T.transpose(x, (0, 2, 1, 3))
    z = T.reshape(y, (2, 12, 5))
    w = T.crop(z, 2, 1, 4)
    T.sum_all(w).backward()
    want = np.zeros((2, 3, 4, 5))
    want[:, :, :, 1:4] = 1.0
    assert np.array_equal(x.grad, want)


def test_transpose_crop_and_concat_keep_memory_order():
    """transpose and crop return views of their input; concat allocates its
    output in the memory order of its first part. A channel chunk of a
    channel-major array is one contiguous block."""
    for layout in LAYOUTS:
        x = Tensor(stored_as(RNG.standard_normal((3, 8, 5)), layout))
        t = T.transpose(x, (1, 0, 2))
        assert np.shares_memory(t.data, x.data)
        assert t.data.flags.c_contiguous == (layout == "channel_major")
        parts = T.chunk(x, 4)
        for part in parts:
            assert np.shares_memory(part.data, x.data)
            assert is_channel_major(part.data) == (layout == "channel_major")
        back = T.concat(parts)
        assert np.array_equal(back.data, x.data)
        assert not np.shares_memory(back.data, x.data)
        assert is_channel_major(back.data) == (layout == "channel_major")
        assert back.data.flags.c_contiguous == (layout == "contiguous")


def test_repeat_axis_sums_gradient_back():
    x = Tensor(RNG.standard_normal((1, 2, 3)), requires_grad=True)
    y = T.repeat_axis(x, 2, 2)
    assert y.shape == (1, 2, 6)
    assert np.array_equal(y.data[0, 0, 0], y.data[0, 0, 1])
    w = RNG.standard_normal(y.shape)
    T.sum_all(T.mul(y, Tensor(w))).backward()
    assert np.allclose(x.grad, w.reshape(1, 2, 3, 2).sum(axis=3))


def test_scale_channels_matches_manual_broadcast():
    x = Tensor(RNG.standard_normal((2, 3, 4, 5)), requires_grad=True)
    s = Tensor(RNG.standard_normal(3), requires_grad=True)
    out = T.scale_channels(x, s)
    assert np.allclose(out.data, x.data * s.data.reshape(1, 3, 1, 1))
    T.sum_all(out).backward()
    assert np.allclose(s.grad, x.data.sum(axis=(0, 2, 3)))


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def test_allocation_recorder_counts_tensor_bytes():
    with T.track_allocations() as rec:
        Tensor(np.zeros((10, 10)))
    assert rec.bytes_allocated == 10 * 10 * 8


def test_allocation_recorder_skips_views_of_a_parent():
    x = Tensor(RNG.standard_normal((2, 4, 3)))
    with T.track_allocations() as rec:
        T.transpose(x, (1, 0, 2))
        T.crop(x, 1, 0, 2)
    assert rec.bytes_allocated == 0
    with T.track_allocations() as rec:
        y = T.reshape(T.transpose(x, (1, 0, 2)), (4, 6))  # a copy
    assert rec.bytes_allocated == y.data.nbytes


def test_mac_recorder_accumulates():
    with T.count_macs() as rec:
        T.record_macs(120)
        T.record_macs(5)
    assert rec.macs == 125


def test_nested_recorders_each_receive_every_event():
    spec = ConvSpec(2, 3, 3)
    x = Tensor(RNG.standard_normal((1, 2, 8)))
    w = Tensor(RNG.standard_normal((3, 2, 3)))
    with T.count_macs() as outer:
        with T.count_macs() as inner:
            out = conv1d(x, spec, w)
            Tensor(np.zeros(5))
        # inner has exited: only outer sees these
        T.record_macs(7)
        Tensor(np.zeros(4))
    assert inner.macs == 3 * 8 * 2 * 3  # C_out * T * C_in * K
    assert inner.bytes_allocated == out.data.nbytes + 5 * 8
    assert outer.macs == inner.macs + 7
    assert outer.bytes_allocated == inner.bytes_allocated + 4 * 8
    T.record_macs(11)
    Tensor(np.zeros(3))
    assert outer.macs == inner.macs + 7
    assert outer.bytes_allocated == inner.bytes_allocated + 4 * 8



# ---------------------------------------------------------------------------
# dtype rule: a floating array keeps its width through every op
# ---------------------------------------------------------------------------

SMALL_SP = SpectroConfig(fft_size=16, win_length=16, hop=4)  # 17 frames of 64 samples

# Every public op and conv kind, with the shapes of its tensor arguments.
FLOAT32_OPS = {
    **MULTI_INPUT_OPS,
    "mul_scalar": (lambda x: T.mul_scalar(x, 0.3), [(2, 3)]),
    "sum_all": (T.sum_all, [(2, 3)]),
    "mean_all": (T.mean_all, [(2, 3)]),
    "mean_axis": (lambda x: T.mean_axis(x, 1), [(2, 3, 4)]),
    "absolute": (T.absolute, [(2, 3)]),
    "powf": (lambda x: T.powf(x, 0.3), [(2, 3)]),
    "cos": (T.cos, [(2, 3)]),
    "sin": (T.sin, [(2, 3)]),
    "sigmoid": (T.sigmoid, [(2, 3)]),
    "reshape": (lambda x: T.reshape(x, (3, 2)), [(2, 3)]),
    "transpose": (lambda x: T.transpose(x, (1, 0)), [(2, 3)]),
    "crop": (lambda x: T.crop(x, 1, 1, 3), [(2, 3)]),
    "chunk": (lambda x: T.chunk(x, 2)[1], [(2, 4, 3)]),
    "repeat_axis": (lambda x: T.repeat_axis(x, 1, 2), [(2, 3)]),
    "stack": (lambda a, b: T.stack([a, b]), [(2, 3), (2, 3)]),
    "conv1d_depthwise": (lambda x, w, b: conv1d(x, ConvSpec(3, 3, 5, groups=3), w, b),
                         [(2, 3, 8), (3, 1, 5), (3,)]),
    "conv2d_full": (lambda x, w, b: conv2d(x, ConvSpec(3, 2, (3, 3), stride=(1, 2)), w, b),
                    [(2, 3, 5, 6), (2, 3, 3, 3), (2,)]),
    "stft_rect": (lambda x: stft_rect(x, SMALL_SP), [(2, 64)]),
    "istft_rect": (lambda r: istft_rect(r, SMALL_SP, 64), [(2, 2, SMALL_SP.bins, 17)]),
}


@pytest.mark.parametrize("name", list(FLOAT32_OPS))
def test_float32_inputs_give_float32_outputs_and_gradients(name, monkeypatch):
    """Every array an op or its backward hands to the tape is float32: the
    spy sees the gradients before `_accumulate` casts them to the
    parent's dtype."""
    op, shapes = FLOAT32_OPS[name]
    rng = np.random.default_rng(9)
    parents = [Tensor(rng.uniform(0.5, 1.5, s).astype(np.float32), requires_grad=True)
               for s in shapes]
    out = op(*parents)
    assert out.dtype == np.float32
    seen = []
    accumulate = T._accumulate
    monkeypatch.setattr(T, "_accumulate",
                        lambda t, g: (seen.append(g.dtype), accumulate(t, g)))
    proj = Tensor(rng.standard_normal(out.shape).astype(np.float32))
    T.sum_all(T.mul(out, proj)).backward()
    assert seen and set(seen) == {np.dtype(np.float32)}
    assert all(p.grad.dtype == np.float32 for p in parents)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_tensor_keeps_the_dtype_of_a_floating_array(dtype):
    data = np.arange(3, dtype=dtype)
    assert Tensor(data).dtype == dtype
    assert Tensor(data).data is data


@pytest.mark.parametrize("data", [np.arange(3), np.array([True, False]), [1, 2],
                                  [0.5, 1.5], 3, 2.5, True],
                         ids=["int_array", "bool_array", "int_list", "float_list",
                              "int", "float", "bool"])
def test_tensor_of_other_data_is_float64(data):
    t = Tensor(data)
    assert t.dtype == np.float64
    assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))
