import json
from dataclasses import replace

import numpy as np
import pytest

from primek import config as C
from primek import losses as L
from primek import tensor as T
from primek import trainer
from primek.blocks import DenseBlockSpec, EnhancementModel
from primek.config import tiny_run_config
from primek.losses import LossWeights
from primek.spectral import Spectrogram, compress, decompress, istft, stft
from primek.tensor import Tensor
from primek.trainer import (
    OptConfig,
    OptState,
    SI_SNR_CAP_DB,
    ToyTaskSpec,
    TrainingDiverged,
    adamw_step,
    clip_grad_norm,
    load_checkpoint,
    make_dataset,
    save_checkpoint,
    si_snr,
    step_losses,
    train_toy,
)
from test_blocks import random_weight_model

RNG = np.random.default_rng(42)

TINY_TASK_KW = dict(segment_samples=2048, train_size=8, eval_size=4)

TINY_RUN = tiny_run_config()
TINY_MODEL = TINY_RUN.model
TINY_SP = TINY_RUN.spectro


def train_tiny(task, steps, out_dir, **kw):
    """train_toy with the tiny preset's model, loss and optimizer settings."""
    return train_toy(TINY_MODEL, TINY_SP, task, steps, weights=TINY_RUN.weights,
                     mode=TINY_RUN.loss_mode, opt_cfg=TINY_RUN.opt,
                     batch_size=TINY_RUN.batch_size, out_dir=out_dir, **kw)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_zero_gradient_zero_decay_is_noop():
    p = {"w": Tensor(RNG.standard_normal((3, 3)), requires_grad=True)}
    before = np.array(p["w"].data)
    state = OptState(p, OptConfig(weight_decay=0.0))
    adamw_step(p, state)
    assert np.array_equal(p["w"].data, before)
    assert state.step == 1


def test_single_scalar_step_matches_hand_arithmetic():
    cfg = OptConfig(lr=0.1, beta1=0.8, beta2=0.99, eps=1e-8, weight_decay=0.01)
    w0, g = 1.5, 0.4
    p = {"w": Tensor(np.array(w0), requires_grad=True)}
    p["w"].grad = np.array(g)
    adamw_step(p, OptState(p, cfg))
    m = (1 - cfg.beta1) * g
    v = (1 - cfg.beta2) * g * g
    m_hat = m / (1 - cfg.beta1)
    v_hat = v / (1 - cfg.beta2)
    want = w0 - cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps)
                          + cfg.weight_decay * w0)
    assert abs(float(p["w"].data) - want) < 1e-14


def test_weight_decay_only_shrinks_geometrically():
    cfg = OptConfig(lr=0.05, weight_decay=0.1)
    p = {"w": Tensor(np.array(2.0), requires_grad=True)}
    state = OptState(p, cfg)
    for _ in range(5):
        p["w"].grad = np.array(0.0)
        adamw_step(p, state)
    assert np.isclose(float(p["w"].data), 2.0 * (1 - 0.05 * 0.1) ** 5)


def test_adamw_matches_straight_line_reference():
    cfg = OptConfig(lr=3e-3, beta1=0.8, beta2=0.99, weight_decay=0.02)
    shapes = {"a": (4,), "b": (2, 3)}
    p = {k: Tensor(RNG.standard_normal(s), requires_grad=True)
         for k, s in shapes.items()}
    ref = {k: np.array(v.data) for k, v in p.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = OptState(p, cfg)
    for t in range(1, 6):
        grads = {k: RNG.standard_normal(s) for k, s in shapes.items()}
        for k in p:
            p[k].grad = np.array(grads[k])
        adamw_step(p, state)
        for k in ref:
            m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * grads[k]
            v[k] = cfg.beta2 * v[k] + (1 - cfg.beta2) * grads[k] ** 2
            mh = m[k] / (1 - cfg.beta1 ** t)
            vh = v[k] / (1 - cfg.beta2 ** t)
            ref[k] = ref[k] - cfg.lr * (mh / (np.sqrt(vh) + cfg.eps)
                                        + cfg.weight_decay * ref[k])
    for k in ref:
        assert np.abs(p[k].data - ref[k]).max() < 1e-12


def test_nan_gradient_names_the_parameter():
    p = {"bad_param": Tensor(np.zeros(3), requires_grad=True)}
    p["bad_param"].grad = np.array([0.0, np.nan, 0.0])
    with pytest.raises(TrainingDiverged, match="bad_param"):
        adamw_step(p, OptState(p, OptConfig()))


def test_grad_clip_rescales_to_max_norm():
    p = {"w": Tensor(np.zeros(4), requires_grad=True)}
    p["w"].grad = np.array([3.0, 4.0, 0.0, 0.0])  # norm 5
    norm = clip_grad_norm(p, 2.5)
    assert np.isclose(norm, 5.0)
    assert np.isclose(np.sqrt((p["w"].grad ** 2).sum()), 2.5)
    # below the bound: untouched
    p["w"].grad = np.array([0.3, 0.4, 0.0, 0.0])
    clip_grad_norm(p, 2.5)
    assert np.allclose(p["w"].grad, [0.3, 0.4, 0.0, 0.0])


# ---------------------------------------------------------------------------
# toy task
# ---------------------------------------------------------------------------

def test_dataset_is_seed_deterministic():
    task = ToyTaskSpec(**TINY_TASK_KW, seed=5)
    (c1, n1), (e1, v1) = make_dataset(task)
    (c2, n2), (e2, v2) = make_dataset(task)
    assert np.array_equal(c1, c2) and np.array_equal(n1, n2)
    assert np.array_equal(e1, e2) and np.array_equal(v1, v2)
    (c3, _), _ = make_dataset(ToyTaskSpec(**TINY_TASK_KW, seed=6))
    assert not np.array_equal(c1, c3)


def test_dataset_snr_within_configured_range():
    task = ToyTaskSpec(**TINY_TASK_KW, snr_db_min=3.0, snr_db_max=9.0)
    (clean, noisy), _ = make_dataset(task)
    for c, n in zip(clean, noisy):
        noise = n - c
        snr = 10 * np.log10((c ** 2).mean() / (noise ** 2).mean())
        assert 2.9 < snr < 9.1


def test_clean_signals_are_bounded():
    (clean, _), _ = make_dataset(ToyTaskSpec(**TINY_TASK_KW))
    assert np.abs(clean).max() <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# si-snr
# ---------------------------------------------------------------------------

def test_si_snr_identity_capped():
    x = RNG.standard_normal((2, 256))
    assert si_snr(x, x) == SI_SNR_CAP_DB


def test_si_snr_scale_invariance():
    ref = RNG.standard_normal((2, 256))
    est = ref + 0.1 * RNG.standard_normal((2, 256))
    assert np.isclose(si_snr(est, ref), si_snr(3.7 * est, ref))
    assert si_snr(2.0 * ref, ref) == SI_SNR_CAP_DB


def test_si_snr_known_hand_case():
    # both already zero-mean: proj = (<e,r>/|r|^2) r = 1.5*[1,0,-1],
    # so num = 4.5, den = |[-0.5,1,-0.5]|^2 = 1.5 -> 10*log10(3)
    ref = np.array([[1.0, 0.0, -1.0]])
    est = np.array([[1.0, 1.0, -2.0]])
    assert abs(si_snr(est, ref) - 10 * np.log10(3.0)) < 1e-12


def test_si_snr_degenerate_error_is_capped():
    # a 2-sample pair zero-means onto the same 1-d subspace: zero error
    assert si_snr(np.array([[1.0, 0.0]]), np.array([[3.0, 1.0]])) == SI_SNR_CAP_DB
    with pytest.raises(ValueError):
        si_snr(np.array([[1.0, 0.0]]), np.array([[2.0, 2.0]]))


@pytest.mark.parametrize("est", [
    np.zeros((1, 3)),
    np.full((1, 3), 3.0),
    np.array([[1.0, -2.0, 1.0]]),  # zero-mean and orthogonal to the reference
], ids=["silent", "constant", "orthogonal"])
def test_si_snr_of_no_component_along_the_reference_is_the_floor(est):
    """Silent and constant estimates once scored +100, orthogonal ones -inf."""
    assert si_snr(est, np.array([[1.0, 0.0, -1.0]])) == -SI_SNR_CAP_DB


def test_si_snr_of_a_silent_row_lowers_the_batch_mean():
    ref = RNG.standard_normal((2, 256))
    est = np.stack([ref[0], np.zeros(256)])
    assert si_snr(est, ref) == 0.0  # (+100 - 100) / 2


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=17, seed=1, config_hash="abc")
    other = EnhancementModel(TINY_MODEL, seed=99)
    meta = load_checkpoint(path, other)
    assert meta["step"] == "17"
    assert meta["config_hash"] == "abc"
    for name, p in model.named_params().items():
        assert np.array_equal(p.data, other.named_params()[name].data)


def test_checkpoint_config_text_round_trips_to_its_model_hash(tmp_path):
    """The full config dump written beside the hash comes back from a load,
    and builds a config with the recorded model hash."""
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    text = C.dump(TINY_RUN)
    save_checkpoint(path, model, step=2, seed=1,
                    config_hash=C.model_hash(TINY_RUN), config=text)
    meta = load_checkpoint(path, EnhancementModel(TINY_MODEL, seed=2))
    assert meta["config"] == text
    assert C.model_hash(C.build(C.parse(meta["config"]))) == meta["config_hash"]
    assert meta["config_hash"] == C.model_hash(TINY_RUN)


def test_checkpoint_without_config_text_loads_with_an_empty_one(tmp_path):
    """A checkpoint written before headers held the config text still loads;
    its `config` reads ""."""
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=5, seed=1, config_hash="abc", config="x = 1\n")
    first, rest = path.read_bytes().split(b"\n", 1)
    size = int.from_bytes(rest[:8], "little")
    header = json.loads(rest[8:8 + size])
    del header["config"]
    old = json.dumps(header).encode()
    path.write_bytes(first + b"\n" + len(old).to_bytes(8, "little") + old
                     + rest[8 + size:])
    other = EnhancementModel(TINY_MODEL, seed=2)
    meta = load_checkpoint(path, other, expect_hash="abc")
    assert meta == {"config_hash": "abc", "config": "", "step": "5", "seed": "1"}
    for name, p in model.named_params().items():
        assert np.array_equal(p.data, other.named_params()[name].data)


def test_checkpoint_hash_mismatch_rejected(tmp_path):
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=0, seed=1, config_hash="abc")
    with pytest.raises(ValueError, match="hash"):
        load_checkpoint(path, model, expect_hash="different")


@pytest.mark.parametrize("expect_hash", ["abc", "d5f85168c9ced196"])
def test_checkpoint_without_hash_loads_under_any_expected_hash(tmp_path,
                                                               expect_hash):
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=0, seed=1)
    meta = load_checkpoint(path, EnhancementModel(TINY_MODEL, seed=2),
                           expect_hash=expect_hash)
    assert meta["config_hash"] == ""


def test_checkpoint_model_mismatch_rejected(tmp_path):
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=0, seed=1)
    bigger = replace(TINY_MODEL, dense=DenseBlockSpec(depth=3, dilations=(1, 2, 4)))
    with pytest.raises(ValueError, match="mismatch"):
        load_checkpoint(path, EnhancementModel(bigger, seed=1))


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope", EnhancementModel(TINY_MODEL))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_checkpoint_roundtrip_keeps_dtype(tmp_path, dtype):
    def model_of(seed):
        model = EnhancementModel(TINY_MODEL, seed=seed)
        for p in model.named_params().values():
            p.data = RNG.standard_normal(p.shape).astype(dtype)
        return model

    model, other = model_of(1), model_of(2)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=0, seed=1)
    assert np.dtype(dtype).str.encode() in path.read_bytes()
    load_checkpoint(path, other)
    for name, p in model.named_params().items():
        q = other.named_params()[name]
        assert q.dtype == dtype
        assert np.array_equal(q.data, p.data)


def test_checkpoint_is_one_file_with_json_header(tmp_path):
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=3, seed=1, config_hash="abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
    first, rest = path.read_bytes().split(b"\n", 1)
    assert first == b"PRIMEK-CHECKPOINT 1"
    size = int.from_bytes(rest[:8], "little")
    header = json.loads(rest[8:8 + size])
    assert (header["config_hash"], header["step"], header["seed"]) == ("abc", 3, 1)
    params = model.named_params()
    names = sorted(params)
    assert header["tensors"] == [[n, "<f8", list(params[n].shape)] for n in names]
    assert rest[8 + size:] == b"".join(params[n].data.tobytes() for n in names)


MALFORMED = {
    "wrong_magic": lambda raw: b"NOPE" + raw[4:],
    "unreadable_header": lambda raw: raw.replace(b'{"config', b'["config', 1),
    "integer_dtype": lambda raw: raw.replace(b'"<f8"', b'"<i8"', 1),
    "truncated": lambda raw: raw[:-16],
    "trailing_bytes": lambda raw: raw + b"\0",
    "empty": lambda raw: b"",
}


@pytest.mark.parametrize("corrupt", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_checkpoint_raises_oserror_and_leaves_model(tmp_path, corrupt):
    path = tmp_path / "ckpt"
    save_checkpoint(path, EnhancementModel(TINY_MODEL, seed=1), step=0, seed=1)
    path.write_bytes(corrupt(path.read_bytes()))
    other = EnhancementModel(TINY_MODEL, seed=2)
    before = {k: p.data.copy() for k, p in other.named_params().items()}
    with pytest.raises(OSError):
        load_checkpoint(path, other)
    for k, p in other.named_params().items():
        assert np.array_equal(p.data, before[k])


def test_shape_mismatch_raises_valueerror_and_leaves_model(tmp_path):
    """Every shape is checked before any parameter is copied: the kernels
    that differ come after 22 other arrays in the file's name order."""
    path = tmp_path / "ckpt"
    odd = replace(TINY_MODEL, gpfca=replace(TINY_MODEL.gpfca,
                                            kernel_group=(3, 11, 23, 29)))
    save_checkpoint(path, EnhancementModel(odd, seed=1), step=0, seed=1)
    other = EnhancementModel(TINY_MODEL, seed=2)
    before = {k: p.data.copy() for k, p in other.named_params().items()}
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path, other)
    for k, p in other.named_params().items():
        assert np.array_equal(p.data, before[k])


def test_save_interrupted_between_renames_keeps_previous_checkpoint(
        tmp_path, monkeypatch):
    model = EnhancementModel(TINY_MODEL, seed=1)
    path = tmp_path / "ckpt"
    save_checkpoint(path, model, step=1, seed=1)

    def crash(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(trainer.os, "replace", crash)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(path, model, step=2, seed=1)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
    fresh = EnhancementModel(TINY_MODEL, seed=2)
    assert load_checkpoint(path, fresh)["step"] == "1"

    save_checkpoint(path, model, step=3, seed=1)
    assert load_checkpoint(path, fresh)["step"] == "3"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_step_losses_components_present():
    model = EnhancementModel(TINY_MODEL, seed=0)
    task = ToyTaskSpec(**TINY_TASK_KW)
    (clean, noisy), _ = make_dataset(task)
    total, comps = step_losses(model, TINY_SP, clean[:2], noisy[:2],
                               LossWeights(), mode="new")
    assert total.data.ndim == 0
    assert set(comps) == {"mag", "pha", "com", "con"}
    total_old, comps_old = step_losses(model, TINY_SP, clean[:2], noisy[:2],
                                       LossWeights(), mode="old")
    assert set(comps_old) == {"mag", "pha", "com", "time"}


def test_step_losses_mode_selects_time_or_consistency():
    model = EnhancementModel(TINY_MODEL, seed=0)
    (clean, noisy), _ = make_dataset(ToyTaskSpec(**TINY_TASK_KW))
    w = LossWeights(magnitude=0.0, phase=0.0, complex=0.0, time=1.0,
                    consistency=2.0)
    old, comps = step_losses(model, TINY_SP, clean[:2], noisy[:2], w, mode="old")
    assert float(old.data) == float(comps["time"].data)
    new, comps = step_losses(model, TINY_SP, clean[:2], noisy[:2], w, mode="new")
    assert float(new.data) == 2.0 * float(comps["con"].data)
    with pytest.raises(ValueError, match="loss mode"):
        step_losses(model, TINY_SP, clean[:2], noisy[:2], w, mode="newest")


@pytest.mark.parametrize("mode", ["new", "old"])
def test_step_losses_equals_the_inline_composition(mode):
    """step_losses is the model, the mask on the noisy compressed magnitude
    and the loss functions, in that order: its total and every parameter
    gradient equal those of the composition written out here."""
    sp, weights = TINY_SP, TINY_RUN.weights
    (clean, noisy), _ = make_dataset(ToyTaskSpec(**TINY_TASK_KW))
    clean, noisy = clean[:2], noisy[:2]
    model = random_weight_model(TINY_MODEL, seed=23)
    total, _ = step_losses(model, sp, clean, noisy, weights, mode)
    total.backward()
    got = {k: p.grad for k, p in model.named_params().items()}

    model.zero_grad()
    clean_t, n = Tensor(clean), clean.shape[1]
    noisy_c = compress(stft(Tensor(noisy), sp))
    clean_c = compress(stft(clean_t, sp))
    mask, phase_hat = model.forward(noisy_c.magnitude, noisy_c.phase)
    est_c = Spectrogram(T.mul(mask, noisy_c.magnitude), phase_hat, sp)
    mag = L.magnitude_loss(est_c.magnitude, clean_c.magnitude)
    pha = L.phase_loss(phase_hat, clean_c.phase)
    com = L.complex_loss(est_c, clean_c)
    est = decompress(est_c)
    if mode == "old":
        last = {"time": L.time_loss(istft(est, n), clean_t)}
    else:
        last = {"consistency": L.consistency_loss(est, target_len=n)}
    want = L.total_loss(weights, magnitude=mag, phase=pha, complex_=com, **last)
    want.backward()
    assert np.array_equal(total.data, want.data)
    for k, p in model.named_params().items():
        assert np.array_equal(got[k], p.grad), k


def test_zero_steps_writes_initial_checkpoint_only(tmp_path):
    task = ToyTaskSpec(**TINY_TASK_KW)
    result = train_tiny(task, 0, str(tmp_path / "run"))
    assert result.losses == []
    other = EnhancementModel(TINY_MODEL, seed=task.seed)
    meta = load_checkpoint(result.checkpoint, other)
    assert meta["step"] == "0"


def test_each_checkpoint_step_is_written_once(tmp_path, monkeypatch):
    saved = []
    monkeypatch.setattr(trainer, "save_checkpoint",
                        lambda path, model, step, **kw: saved.append(step))
    train_tiny(ToyTaskSpec(**TINY_TASK_KW), 4, str(tmp_path / "run"),
               checkpoint_every=2)
    assert saved == [0, 2, 4]


def test_short_training_is_deterministic_and_logged(tmp_path):
    task = ToyTaskSpec(**TINY_TASK_KW)
    r1 = train_tiny(task, 4, str(tmp_path / "a"))
    r2 = train_tiny(task, 4, str(tmp_path / "b"))
    assert r1.losses == r2.losses
    p1 = r1.model.named_params()
    p2 = r2.model.named_params()
    for k in p1:
        assert np.array_equal(p1[k].data, p2[k].data)
    with open(r1.log_path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("step=1 ")
    assert "total=" in lines[0] and "mag=" in lines[0]


def test_log_lines_record_gradient_norm_clipping_and_step_time(tmp_path):
    result = train_tiny(ToyTaskSpec(**TINY_TASK_KW), 2, str(tmp_path / "run"))
    with open(result.log_path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 2
    for step, (line, loss) in enumerate(zip(lines, result.losses), start=1):
        fields = dict(token.split("=") for token in line.split())
        assert list(fields) == ["step", "mag", "pha", "com", "con", "total",
                                "grad_norm", "clipped", "step_ms"]
        assert int(fields["step"]) == step
        assert float(fields["total"]) == pytest.approx(loss, abs=1e-6)
        norm = float(fields["grad_norm"])
        assert np.isfinite(norm) and norm > 0
        assert fields["clipped"] == str(int(norm > TINY_RUN.opt.grad_clip))
        assert float(fields["step_ms"]) > 0


def test_every_parameter_gets_a_gradient_from_the_loss():
    """No dead parameters, such as a conv bias that an instance norm
    cancels: rounding noise in their gradient would become full-size
    AdamW steps. Every parameter is randomised, so no zero-initialised
    head or residual scale hides a branch."""
    cfg = tiny_run_config()
    model = EnhancementModel(cfg.model, seed=0)
    rng = np.random.default_rng(0)
    for _, p in sorted(model.named_params().items()):
        if p.data.ndim >= 2:
            fan_in = int(np.prod(p.shape[1:]))
            p.data[...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), p.shape)
        else:
            p.data[...] = p.data + rng.normal(0.0, 0.1, p.shape)
    (clean, noisy), _ = make_dataset(ToyTaskSpec(**TINY_TASK_KW))
    total, _ = step_losses(model, cfg.spectro, clean[:2], noisy[:2],
                           cfg.weights, mode="new")
    total.backward()
    peak = {name: 0.0 if p.grad is None else float(np.abs(p.grad).max())
            for name, p in model.named_params().items()}
    largest = max(peak.values())
    dead = sorted(name for name, g in peak.items() if g < 1e-8 * largest)
    assert dead == []


def test_float32_training_steps_keep_float32_state():
    """A float32 model trained on float32 batches keeps its parameters,
    their gradients and the AdamW moments float32."""
    cfg = tiny_run_config()
    model = EnhancementModel(cfg.model, seed=0)
    params = model.named_params()
    for p in params.values():
        p.data = p.data.astype(np.float32)
    state = OptState(params, cfg.opt)
    (clean, noisy), _ = make_dataset(ToyTaskSpec(**TINY_TASK_KW))
    clean, noisy = clean.astype(np.float32), noisy.astype(np.float32)
    for step in range(3):
        total, comps = step_losses(model, cfg.spectro, clean[:2], noisy[:2],
                                   cfg.weights, mode=cfg.loss_mode)
        assert total.dtype == np.float32
        assert all(c.dtype == np.float32 for c in comps.values())
        model.zero_grad()
        total.backward()
        clip_grad_norm(params, cfg.opt.grad_clip)
        adamw_step(params, state)
        for name, p in params.items():
            assert p.dtype == np.float32 and p.grad.dtype == np.float32, name
            assert state.m[name].dtype == state.v[name].dtype == np.float32, name
