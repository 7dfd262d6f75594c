import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primek import losses as L
from primek import tensor as T
from primek.losses import (
    LossWeights,
    anti_wrap,
    complex_loss,
    consistency_loss,
    magnitude_loss,
    phase_loss,
    time_loss,
    total_loss,
)
from primek.spectral import SpectroConfig, Spectrogram, stft, istft_rect, stft_rect
from primek.tensor import ShapeError, Tensor

RNG = np.random.default_rng(99)

CFG = SpectroConfig(fft_size=32, win_length=32, hop=8, segment_seconds=0.008,
                    sample_rate=16000)


def rand_spec(b=1, t=6, scale=1.0):
    mag = Tensor(scale * np.abs(RNG.standard_normal((b, CFG.bins, t))))
    pha = Tensor(RNG.uniform(-np.pi, np.pi, (b, CFG.bins, t)))
    return Spectrogram(mag, pha, CFG)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(magnitude=-1.0)
    with pytest.raises(ValueError):
        LossWeights(magnitude=0, phase=0, complex=0, time=0, consistency=0)


# ---------------------------------------------------------------------------
# magnitude
# ---------------------------------------------------------------------------

def test_magnitude_loss_identity_and_offset():
    m = Tensor(np.abs(RNG.standard_normal((1, 4, 5))))
    assert float(magnitude_loss(m, m).data) == 0.0
    shifted = Tensor(m.data + 1.0)
    assert np.isclose(float(magnitude_loss(shifted, m).data), 1.0)


def test_magnitude_loss_matches_direct_sum():
    a = RNG.standard_normal((2, 4, 5))
    b = RNG.standard_normal((2, 4, 5))
    got = float(magnitude_loss(Tensor(a), Tensor(b)).data)
    assert np.isclose(got, np.mean((a - b) ** 2))


def test_magnitude_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        magnitude_loss(Tensor(np.zeros((1, 4, 5))), Tensor(np.zeros((1, 4, 6))))


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

def test_phase_loss_identity_and_wrap():
    p = Tensor(RNG.uniform(-np.pi, np.pi, (1, 4, 5)))
    assert float(phase_loss(p, p).data) == 0.0
    wrapped = Tensor(p.data + 2 * np.pi)
    assert float(phase_loss(wrapped, p).data) < 1e-12


def test_phase_loss_invariant_to_integer_wraps():
    p = Tensor(RNG.uniform(-np.pi, np.pi, (1, 4, 5)))
    q = Tensor(RNG.uniform(-np.pi, np.pi, (1, 4, 5)))
    k = RNG.integers(-3, 4, (1, 4, 5)).astype(float)
    base = float(phase_loss(p, q).data)
    shifted = float(phase_loss(Tensor(p.data + 2 * np.pi * k), q).data)
    assert abs(base - shifted) < 1e-10


def test_anti_wrap_matches_direct_formula():
    x = RNG.uniform(-20, 20, 100)
    got = anti_wrap(Tensor(x)).data
    want = np.abs(x - 2 * np.pi * np.round(x / (2 * np.pi)))
    assert np.abs(got - want).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.integers(-5, 5))
def test_anti_wrap_period_property(x, k):
    a = float(anti_wrap(Tensor(np.array(x))).data)
    b = float(anti_wrap(Tensor(np.array(x + 2 * np.pi * k))).data)
    assert abs(a - b) < 1e-9
    assert 0 <= a <= np.pi + 1e-12


def test_phase_loss_matches_three_term_oracle():
    p = RNG.uniform(-np.pi, np.pi, (1, 4, 5))
    q = RNG.uniform(-np.pi, np.pi, (1, 4, 5))
    aw = lambda v: np.abs(v - 2 * np.pi * np.round(v / (2 * np.pi)))
    d = p - q
    want = (aw(d).mean()
            + aw(np.diff(d, axis=1)).mean()
            + aw(np.diff(d, axis=2)).mean())
    got = float(phase_loss(Tensor(p), Tensor(q)).data)
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------

def test_complex_loss_identity_and_periodicity():
    s = rand_spec()
    assert float(complex_loss(s, s).data) == 0.0
    wrapped = Spectrogram(s.magnitude, Tensor(s.phase.data + 2 * np.pi), CFG)
    assert float(complex_loss(wrapped, s).data) < 1e-25


def test_complex_loss_matches_rectangular_oracle():
    a, b = rand_spec(), rand_spec()
    ar = a.magnitude.data * np.cos(a.phase.data)
    ai = a.magnitude.data * np.sin(a.phase.data)
    br = b.magnitude.data * np.cos(b.phase.data)
    bi = b.magnitude.data * np.sin(b.phase.data)
    want = 0.5 * (np.mean((ar - br) ** 2) + np.mean((ai - bi) ** 2))
    assert abs(float(complex_loss(a, b).data) - want) < 1e-12


# ---------------------------------------------------------------------------
# time
# ---------------------------------------------------------------------------

def test_time_loss_identity_offset_and_oracle():
    x = Tensor(RNG.standard_normal((2, 64)))
    assert float(time_loss(x, x).data) == 0.0
    offset = Tensor(x.data + 0.5)
    assert np.isclose(float(time_loss(offset, x).data), 0.5)
    y = Tensor(RNG.standard_normal((2, 64)))
    assert np.isclose(float(time_loss(x, y).data),
                      np.mean(np.abs(x.data - y.data)))


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

def test_consistent_spectrogram_has_near_zero_loss():
    wave = Tensor(RNG.standard_normal((1, 128)))
    spec = stft(wave, CFG)
    assert float(consistency_loss(spec).data) < 1e-10


def test_zero_spectrogram_has_zero_loss():
    zero = Spectrogram(Tensor(np.zeros((1, CFG.bins, 6))),
                       Tensor(np.zeros((1, CFG.bins, 6))), CFG)
    assert float(consistency_loss(zero).data) == 0.0


def test_inconsistent_spectrogram_matches_pipeline_oracle():
    s = rand_spec(t=6)
    got = float(consistency_loss(s).data)
    assert got > 1e-6
    re = s.magnitude.data * np.cos(s.phase.data)
    im = s.magnitude.data * np.sin(s.phase.data)
    rect = np.stack([re, im], axis=1)
    target = (6 - 1) * CFG.hop
    wave = istft_rect(Tensor(rect), CFG, target)
    back = stft_rect(wave, CFG).data
    want = np.mean((rect - back[:, :, :, :6]) ** 2)
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# weighted total
# ---------------------------------------------------------------------------

def scalar(v):
    return Tensor(np.array(float(v)))


def test_total_loss_zero_components():
    w = LossWeights()
    out = total_loss(w, magnitude=scalar(0), phase=scalar(0),
                     complex_=scalar(0), time=scalar(0), consistency=scalar(0))
    assert float(out.data) == 0.0


def test_total_loss_single_component_scales_by_weight():
    w = LossWeights()
    out = total_loss(w, magnitude=scalar(2.0))
    assert np.isclose(float(out.data), w.magnitude * 2.0)


def test_total_loss_sums_every_given_component():
    w = LossWeights()
    out = total_loss(w, magnitude=scalar(1.0), phase=scalar(2.0),
                     complex_=scalar(3.0), time=scalar(4.0),
                     consistency=scalar(5.0))
    expect = (w.magnitude + 2 * w.phase + 3 * w.complex + 4 * w.time
              + 5 * w.consistency)
    assert np.isclose(float(out.data), expect)


def test_total_loss_linear_in_components():
    w = LossWeights()
    a = float(total_loss(w, magnitude=scalar(1.0), time=scalar(2.0)).data)
    b = float(total_loss(w, magnitude=scalar(3.0), time=scalar(2.0)).data)
    c = float(total_loss(w, magnitude=scalar(5.0), time=scalar(2.0)).data)
    assert np.isclose(b - a, c - b)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_losses_backpropagate_nonzero_gradients():
    est = Tensor(RNG.standard_normal((1, 4, 5)), requires_grad=True)
    ref = Tensor(RNG.standard_normal((1, 4, 5)))
    magnitude_loss(est, ref).backward()
    assert np.abs(est.grad).max() > 0

    p = Tensor(RNG.uniform(-2, 2, (1, 4, 5)), requires_grad=True)
    phase_loss(p, Tensor(RNG.uniform(-2, 2, (1, 4, 5)))).backward()
    assert np.abs(p.grad).max() > 0


def test_magnitude_loss_gradient_matches_finite_differences():
    est = Tensor(RNG.standard_normal((1, 3, 4)), requires_grad=True)
    ref = Tensor(RNG.standard_normal((1, 3, 4)))
    magnitude_loss(est, ref).backward()
    h = 1e-6
    flat, gflat = est.data.reshape(-1), est.grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = float(magnitude_loss(Tensor(est.data), ref).data)
        flat[i] = keep - h
        fm = float(magnitude_loss(Tensor(est.data), ref).data)
        flat[i] = keep
        assert abs(gflat[i] - (fp - fm) / (2 * h)) < 1e-6


def test_consistency_loss_gradient_matches_finite_differences():
    mag = Tensor(np.abs(RNG.standard_normal((1, CFG.bins, 4))) + 0.1,
                 requires_grad=True)
    pha = Tensor(RNG.uniform(-2, 2, (1, CFG.bins, 4)), requires_grad=True)

    def loss():
        return consistency_loss(Spectrogram(mag, pha, CFG))

    loss().backward()
    h = 1e-6
    for t in (mag, pha):
        flat, gflat = t.data.reshape(-1), t.grad.reshape(-1)
        for i in RNG.choice(flat.size, size=6, replace=False):
            keep = flat[i]
            flat[i] = keep + h
            fp = float(loss().data)
            flat[i] = keep - h
            fm = float(loss().data)
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(gflat[i] - fd) / (1 + max(abs(gflat[i]), abs(fd))) < 1e-6
