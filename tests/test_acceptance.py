"""End-to-end acceptance checks.

Each test exercises one headline property of the package and prints a
single PASS/FAIL line (bypassing pytest's capture so the lines are
visible in a plain `pytest` run).  Run the whole gate with:

    pytest tests/test_acceptance.py
"""

import time
import warnings

import numpy as np
import pytest

import primek.cli as cli
from primek import blocks as B
from primek import complexity as X
from primek import config as C
from primek import trainer as TR
from primek.conv import ConvSpec, conv1d, conv2d
from primek.spectral import SpectroConfig, istft, stft
from primek.tensor import Tensor
import primek.tensor as T

RNG = np.random.default_rng(0)


def report(capsys, idx, ok, msg):
    line = f"[{idx:>2}/10] {'PASS' if ok else 'FAIL'}  {msg}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------

def test_01_dense_variant_parameter_ratio(capsys):
    start = time.time()
    p_small = X.params_dsddb(4, 64, 3)
    p_full = X.params_ddb(4, 64, 3)
    ratio = 100 * p_small / p_full
    ok = (p_small == 46720 and p_full == 368640
          and f"{ratio:.2f}" == "12.67" and time.time() - start < 1.0)
    report(capsys, 1, ok, f"dense parameter ratio {p_small}/{p_full} = {ratio:.2f}%")


def test_02_analytic_counts_match_instantiated_weights(capsys):
    start = time.time()
    checked, ok = 0, True
    for n in (1, 2, 3, 4):
        for c in (8, 16, 64):
            for k in (3, 5):
                for variant, formula in (("DDB", X.params_ddb),
                                         ("DSDDB", X.params_dsddb)):
                    spec = B.DenseBlockSpec(depth=n, kernel=k,
                                            dilations=(1,) * n, variant=variant)
                    blk = B.DenseBlock(np.random.default_rng(0), c, spec)
                    ok = ok and blk.conv_weight_count() == formula(n, c, k)
                    checked += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 10
    report(capsys, 2, ok, f"analytic weight counts match {checked} instantiated "
                  f"dense blocks ({elapsed:.1f}s)")


def test_03_full_model_budget(capsys):
    cfg = C.default_run_config()
    model = B.EnhancementModel(cfg.model, seed=0)
    sp = cfg.spectro
    frames = sp.frame_count(sp.segment_samples)
    rep = X.measure(model, sp, frames, sp.bins)
    params = model.param_count()
    macs = rep["total_macs"]
    params_ok = abs(params - 1.41e6) / 1.41e6 < 0.10
    macs_ok = abs(macs - 44.64e9) / 44.64e9 < 0.15
    report(capsys, 3, params_ok and macs_ok,
           f"default model: {params:,} parameters (target 1.41M +/-10%), "
           f"{macs:,} MACs per {sp.segment_samples / sp.sample_rate:.0f}s "
           f"segment (target 44.64G +/-15%; 1 multiply-accumulate = 1 MAC "
           f"= 2 FLOPs)")


def test_04_corpus_benchmarks_substituted(capsys):
    # Listening-test and corpus-level scores need external speech datasets
    # that this repository does not ship.  They are substituted by the
    # functional checks 5-9 (gradients, conv oracle, memory scaling,
    # analysis/synthesis fidelity, end-to-end denoising gain).
    report(capsys, 4, True, "corpus-level benchmark scores need external data; "
                    "substituted by functional checks 5-9")


def test_05_gradient_suite_every_block(capsys):
    start = time.time()
    cfg = C.tiny_run_config()
    rng = np.random.default_rng(0)
    cases, model_cfg = cli._block_cases(cfg, rng)
    cases.append(cli._model_case(model_cfg, rng))
    worst_overall, min_draws, ok = 0.0, 10 ** 9, True
    for name, forward, tensors in cases:
        draws = sum(min(8, t.data.size) for t in tensors.values())
        err = cli._fd_max_rel_err(forward, tensors, rng, coords_per_tensor=8)
        worst_overall = max(worst_overall, err)
        min_draws = min(min_draws, draws)
        ok = ok and err < 1e-4 and draws >= 20
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    report(capsys, 5, ok, f"finite-difference gradients: {len(cases)} blocks, "
                  f">= {min_draws} draws each, max rel err "
                  f"{worst_overall:.2e} < 1e-4 ({elapsed:.0f}s)")


def _loop_conv1d(x, w, stride, dilation, groups, pad):
    b, cin, t = x.shape
    cout, cin_g, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t_out = (xp.shape[2] - (dilation * (k - 1) + 1)) // stride + 1
    cout_g = cout // groups
    out = np.zeros((b, cout, t_out))
    for bi in range(b):
        for oc in range(cout):
            gi = oc // cout_g
            for ot in range(t_out):
                acc = 0.0
                for ic in range(cin_g):
                    for kk in range(k):
                        acc += (w[oc, ic, kk]
                                * xp[bi, gi * cin_g + ic,
                                     ot * stride + kk * dilation])
                out[bi, oc, ot] = acc
    return out


def _loop_conv2d(x, w, dil_t, dil_f, pad_t, pad_f, groups):
    b, cin, t, f = x.shape
    cout, cin_g, kt, kf = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad_t, pad_t), (pad_f, pad_f)))
    t_out = xp.shape[2] - dil_t * (kt - 1)
    f_out = xp.shape[3] - dil_f * (kf - 1)
    cout_g = cout // groups
    out = np.zeros((b, cout, t_out, f_out))
    for bi in range(b):
        for oc in range(cout):
            gi = oc // cout_g
            for ot in range(t_out):
                for of in range(f_out):
                    acc = 0.0
                    for ic in range(cin_g):
                        for i in range(kt):
                            for j in range(kf):
                                acc += (w[oc, ic, i, j]
                                        * xp[bi, gi * cin_g + ic,
                                             ot + i * dil_t, of + j * dil_f])
                    out[bi, oc, ot, of] = acc
    return out


def test_06_convolutions_match_nested_loop_oracle(capsys):
    start = time.time()
    rng = np.random.default_rng(1)
    worst, cases = 0.0, 0

    # 1-D depthwise, every kernel size the gated unit uses, plus pointwise
    # and a full 3-tap conv
    c = 8
    cfgs_1d = [dict(k=k, groups=c) for k in (3, 11, 23, 31)]
    cfgs_1d += [dict(k=1, groups=1), dict(k=3, groups=1)]
    for cfg in cfgs_1d:
        k, g = cfg["k"], cfg["groups"]
        spec = ConvSpec(c, c, k, groups=g)
        x = Tensor(rng.standard_normal((2, c, 40)))
        w = Tensor(rng.standard_normal((c, c // g, k)))
        got = conv1d(x, spec, w).data
        want = _loop_conv1d(x.data, w.data, 1, 1, g, (k - 1) // 2)
        worst = max(worst, np.abs(got - want).max())
        cases += 1

    # 2-D 3x3, every dilation the dense blocks use, standard and depthwise
    for d in (1, 2, 4, 8):
        for g in (1, c):
            spec = ConvSpec(c, c, (3, 3), dilation=(d, 1), groups=g)
            x = Tensor(rng.standard_normal((1, c, 2 * d + 6, 5)))
            w = Tensor(rng.standard_normal((c, c // g, 3, 3)))
            got = conv2d(x, spec, w).data
            want = _loop_conv2d(x.data, w.data, d, 1, d, 1, g)
            worst = max(worst, np.abs(got - want).max())
            cases += 1

    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 120
    report(capsys, 6, ok, f"conv vs nested-loop oracle: {cases} configurations, "
                  f"max abs err {worst:.1e} < 1e-12 ({elapsed:.0f}s)")


def test_07_activation_memory_scaling(capsys):
    start = time.time()
    rep = X.memory_scaling(B.GpfcaConfig().kernel_group,
                           [250, 500, 1000, 2000, 4000], seed=2)
    s_seq, s_att = rep["gpfca_slope"], rep["attention_slope"]
    elapsed = time.time() - start
    ok = abs(s_seq - 1.0) < 0.1 and abs(s_att - 2.0) < 0.2 and elapsed < 120
    report(capsys, 7, ok, f"activation memory vs length: convolutional block slope "
                  f"{s_seq:.2f} (linear), attention reference {s_att:.2f} "
                  f"(quadratic) ({elapsed:.0f}s)")


def test_08_analysis_synthesis_fidelity(capsys):
    start = time.time()
    sp = SpectroConfig(fft_size=400, win_length=400, hop=100,
                       segment_seconds=2.0)
    cola = sp.cola_deviation()
    rng = np.random.default_rng(3)
    worst_snr = np.inf
    for _ in range(10):
        wave = Tensor(rng.standard_normal((1, sp.segment_samples)))
        with T.no_grad():
            back = istft(stft(wave, sp), sp.segment_samples)
        err = np.sum((back.data - wave.data) ** 2)
        snr = 10 * np.log10(np.sum(wave.data ** 2) / max(err, 1e-300))
        worst_snr = min(worst_snr, snr)
    elapsed = time.time() - start
    ok = cola < 1e-10 and worst_snr > 60 and elapsed < 30
    report(capsys, 8, ok, f"analysis/synthesis at 400/400/100: overlap-add deviation "
                  f"{cola:.1e} < 1e-10, worst roundtrip {worst_snr:.0f} dB "
                  f"> 60 dB over 10 random 2s signals ({elapsed:.0f}s)")


@pytest.mark.slow
def test_09_end_to_end_denoising_gain(capsys, tmp_path):
    start = time.time()
    cfg = C.tiny_run_config()
    result = TR.train_toy(
        cfg.model, cfg.spectro, cfg.task, cfg.train_steps,
        weights=cfg.weights, mode=cfg.loss_mode, opt_cfg=cfg.opt,
        out_dir=str(tmp_path / "run"), batch_size=cfg.batch_size, seed=0,
    )
    _, (eval_clean, eval_noisy) = TR.make_dataset(cfg.task)
    snr_est, snr_noisy = TR.evaluate(result.model, cfg.spectro,
                                     eval_clean, eval_noisy)
    gain = snr_est - snr_noisy
    first = float(np.mean(result.losses[:100]))
    last = float(np.mean(result.losses[-100:]))
    elapsed = time.time() - start
    ok = (gain >= 5.0 and last < first and len(eval_clean) == 32
          and elapsed < 1200)
    report(capsys, 9, ok, f"{cfg.train_steps}-step training (seed 0): SI-SNR gain "
                  f"{gain:.2f} dB >= 5 dB on {len(eval_clean)} held-out "
                  f"signals; 100-step mean loss {first:.3f} -> {last:.3f} "
                  f"({elapsed:.0f}s)")


def test_10_kernel_group_choice_matters(capsys):
    sets = [(17, 17, 17, 17), (5, 15, 21, 27), (3, 11, 23, 31)]
    c = 8
    x = Tensor(RNG.standard_normal((1, c, 40)))
    counts, outputs = [], []
    for sizes in sets:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unit = B.GatedUnit(np.random.default_rng(7), c, sizes)
        counts.append(sum(p.data.size for p in unit.named_params().values()))
        with T.no_grad():
            outputs.append(unit.forward(x).data)
    same_size = len(set(counts)) == 1
    all_differ = all(
        np.abs(outputs[i] - outputs[j]).max() > 1e-6
        for i in range(3) for j in range(i + 1, 3))
    report(capsys, 10, same_size and all_differ,
           f"kernel groups {sets} have identical parameter counts "
           f"({counts[0]} each) but pairwise-different responses")
