"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Tolerances are pinned here and nowhere else.  Where a
criterion leaves the initialization point free, the chosen point is stated
in the test (notably: the scaled-residual constant is checked at
sigma_w = sqrt(10), where depth 1e6 reaches the asymptotic regime; the
ordered-phase rate fits run at sigma_b = 0, where the kernel decays
exponentially from the first layer).
"""
import time

import numpy as np
import pytest

from deepntk.activations import CorrelationMap, make_activation
from deepntk.asymptotics import check_expansion, default_depth_grid, fit_rate
from deepntk.kernels import (Architecture, InputPair, dense_layer_arrays,
                             first_layer_dense, kind_law, limiting_kernel,
                             normalize, ntk_trace)
from deepntk.phase import InitParams, eoc_curve, variance_fixed_point
from deepntk.regression import KernelSpec, accuracy, build_gram, evolve
from deepntk.spectral import (KernelConfig, decompose, decompose_kernel,
                              jacobi_rule, zonal_profile)
from test_kernels import brute_force_conv_ntk

RELU = make_activation("relu")
TANH = make_activation("tanh")
EOC_RELU = InitParams(0.0, np.sqrt(2.0))
SQRT2 = np.sqrt(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def tanh_eoc():
    sw = eoc_curve(TANH, 0.2)
    p = InitParams(0.2, sw)
    q = variance_fixed_point(TANH, p)
    return p, CorrelationMap(TANH, q, 0.2, sw)


def spread_sphere_pairs(d: int, count: int, seed: int):
    """Random unit pairs whose dot products spread over (-0.9, 0.9).

    The depth sweeps take a max over these pairs, a proxy for the supremum
    over input pairs whose first-layer correlation is bounded away from 1.
    """
    rng = np.random.default_rng(seed)
    dots = rng.uniform(-0.9, 0.9, count)
    pairs = []
    for t in dots:
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(d)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        pairs.append(InputPair(u, t * u + np.sqrt(1 - t * t) * v))
    return pairs


def sweep_pairs(kind, activation, params, pairs, depth):
    q0 = [first_layer_dense(p, params) for p in pairs]
    qx0, qxp0, qcov0 = map(np.array, zip(*q0))
    return dense_layer_arrays(kind, activation, params, qx0, qxp0, qcov0, depth)


def test_criterion_01_relu_eoc_constant():
    t0 = time.time()
    r = check_expansion("ffnn", RELU, EOC_RELU, 20_000, gamma0=0.5)
    elapsed = time.time() - t0
    ok = r["relative_error"] < 0.05 and elapsed < 1.0
    report(1, ok, f"|l^2(1-c)/(9pi^2/2) - 1| = {r['relative_error']:.4f} "
                  f"(< 0.05), runtime {elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_02_tanh_eoc_constant(tanh_eoc):
    t0 = time.time()
    params, _ = tanh_eoc
    law = kind_law(Architecture("ffnn"), TANH, params)
    gamma = law.iterate(0.5, 10**5)
    kappa = law.constant  # 2 / f''(1), from the series row
    rel = abs(10**5 * gamma / kappa - 1.0)
    elapsed = time.time() - t0
    ok = rel < 0.05 and elapsed < 120.0
    report(2, ok, f"(sb,sw)=(0.2,{params.sigma_w:.4f}); "
                  f"|l(1-c) f''(1)/2 - 1| = {rel:.4f} (< 0.05), "
                  f"runtime {elapsed:.1f}s (< 120s)")
    assert ok


def test_criterion_03_resnet_constant():
    r = check_expansion("resnet_dense", RELU, InitParams(0.0, SQRT2),
                        20_000, gamma0=0.5)
    ok = r["relative_error"] < 0.05
    report(3, ok, f"sigma_w = sqrt(2), kappa_res = (9pi^2/2)(1+2/sw^2)^2; "
                  f"rel err = {r['relative_error']:.4f} (< 0.05)")
    assert ok


def test_criterion_04_scaled_resnet_constant():
    # zeta = 16/(s^2 sigma_w^4) is sigma_w-generic; at sigma_w = sqrt(2) the
    # log(l)^2 law only sets in at depths ~ e^90 (the offset in
    # gamma^{-1/2} = (s sigma_w^2/4)(log l + C) has C ~ 7.6 there), so the
    # constant is verified at sigma_w = sqrt(10), where l = 1e6 is inside
    # the asymptotic regime; the sqrt(2) constant itself is checked by the
    # offset-free slope extraction in the module tests.
    t0 = time.time()
    sw = np.sqrt(10.0)
    law = kind_law(Architecture("scaled_resnet_dense"), RELU, InitParams(0.0, sw))
    gamma = law.iterate(0.5, 10**6)
    zeta = law.constant
    rel = abs(np.log(10**6) ** 2 * gamma / zeta - 1.0)
    elapsed = time.time() - t0
    # diagnostic at the sqrt(2) point (not asserted; pre-asymptotic there)
    law2 = kind_law(Architecture("scaled_resnet_dense"), RELU, EOC_RELU)
    rel2 = abs(np.log(10**6) ** 2 * law2.iterate(0.5, 10**6) / law2.constant - 1.0)
    ok = rel < 0.15 and elapsed < 60.0
    report(4, ok, f"sigma_w = sqrt(10): |log(l)^2(1-c)/zeta - 1| = {rel:.4f} "
                  f"(< 0.15), runtime {elapsed:.1f}s (< 60s) "
                  f"[sqrt(2) point pre-asymptotic: {rel2:.2f}]")
    assert ok


def test_criterion_05_rate_discrimination(tanh_eoc):
    t0 = time.time()
    grid = default_depth_grid()
    gi = np.asarray(grid) - 1
    L = grid[-1]
    d = 10
    lines = []
    ok = True

    # --- ordered phase (sigma_b = 0: exponential decay from layer 1)
    for act, sw, tag in ((RELU, np.sqrt(2 * 0.99), "relu"),
                         (TANH, np.sqrt(0.99), "tanh")):
        p = InitParams(0.0, sw)
        pairs = spread_sphere_pairs(d, 10, seed=11)
        arrays = sweep_pairs("ffnn", act, p, pairs, L)
        lam = limiting_kernel(Architecture("ffnn"), act, p, pairs[0])
        resid = np.abs(arrays.ntk - lam)[gi].max(axis=1)
        fe = fit_rate(grid, resid, "exp")
        fp = fit_rate(grid, resid, "power")
        this = fe.r_squared > 0.99 and fe.r_squared > fp.r_squared
        ok = ok and this
        lines.append(f"{tag}-ordered r2(exp)={fe.r_squared:.4f}>"
                     f"r2(pow)={fp.r_squared:.4f}")

    # --- critical phase: power law with exponent in the band, the power
    # model beating the exponential one, and the fitted exponential rate
    # draining to zero as the depth range grows
    for act, params, tag in ((RELU, EOC_RELU, "relu"),
                             (TANH, tanh_eoc[0], "tanh")):
        pairs = spread_sphere_pairs(d, 10, seed=13)
        arrays = sweep_pairs("ffnn", act, params, pairs, L)
        lims = np.array([limiting_kernel(Architecture("ffnn"), act, params, p)
                         for p in pairs])
        ak = arrays.ntk / np.arange(1, L + 1)[:, None]
        resid_all = np.abs(ak - lims[None, :])
        resid = resid_all[gi].max(axis=1)
        fpow = fit_rate(grid, resid, "power")
        fexp = fit_rate(grid, resid, "exp")
        dense1 = np.unique(np.geomspace(32, 1024, 12).astype(int))
        dense2 = np.unique(np.geomspace(32, 8192, 12).astype(int))
        g1 = fit_rate(dense1, resid_all[dense1 - 1].max(axis=1), "exp").exponent
        g2 = fit_rate(dense2, resid_all[dense2 - 1].max(axis=1), "exp").exponent
        this = (-1.15 <= fpow.exponent <= -0.85
                and fpow.r_squared > 0.98 and fpow.r_squared > fexp.r_squared
                and 0 < g2 < g1)
        ok = ok and this
        lines.append(f"{tag}-eoc p={fpow.exponent:.3f} r2={fpow.r_squared:.4f} "
                     f"gamma {g1:.4f}->{g2:.4f}")

    elapsed = time.time() - t0
    ok = ok and elapsed < 1800.0
    report(5, ok, "; ".join(lines) + f"; runtime {elapsed:.0f}s (< 1800s)")
    assert ok


def test_criterion_06_resnet_normalization():
    d = 6
    x = np.full(d, 1.0)
    pair = InputPair(x, x)
    tr = ntk_trace(Architecture("resnet_dense"), pair, RELU, EOC_RELU, 8192)
    nk = normalize(tr)
    lim = limiting_kernel(Architecture("resnet_dense"), RELU, EOC_RELU, pair)
    grid = default_depth_grid()
    fit = fit_rate(grid, np.abs(nk - lim)[np.asarray(grid) - 1], "power")
    in_band = -1.1 <= fit.exponent <= -0.9
    # per-layer geometric ratio of the unnormalized kernel: its limit,
    # extracted by first-order Richardson from depths <= 100, is 1+sw^2/2
    K = tr.ntk
    g50, g100 = K[49] / K[48], K[99] / K[98]
    ghat = (100.0 * g100 - 50.0 * g50) / 50.0
    target = 1.0 + EOC_RELU.sigma_w**2 / 2.0
    ratio_ok = abs(ghat / target - 1.0) < 1e-6
    ok = in_band and ratio_ok
    report(6, ok, f"normalized diag residual exponent {fit.exponent:.4f} in "
                  f"[-1.1,-0.9]; per-layer ratio -> {ghat:.12f} vs "
                  f"{target} (rel {abs(ghat / target - 1):.1e} < 1e-6 by L=100)")
    assert ok


def test_criterion_07_finite_width_oracle():
    from deepntk.empirical import width_convergence_study
    t0 = time.time()
    rng = np.random.default_rng(1)
    x, xp = rng.standard_normal((2, 10))
    widths = [64, 128, 256, 512, 1024, 2048, 4096]
    study = width_convergence_study("ffnn", RELU, EOC_RELU, x, xp,
                                    widths, depth=3, seeds=30, base_seed=100)
    i1024 = widths.index(1024)
    rel = abs(study["mean"][i1024] - study["reference"]) / abs(study["reference"])
    slope = np.polyfit(np.log(widths), np.log(study["deviation"]), 1)[0]
    elapsed = time.time() - t0
    ok = rel < 0.05 and -0.65 <= slope <= -0.35 and elapsed < 300.0
    report(7, ok, f"width-1024 seed-mean rel err = {rel:.4f} (< 0.05); "
                  f"error-vs-width slope = {slope:.3f} in [-0.65,-0.35]; "
                  f"runtime {elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_08_spectral_structure():
    t0 = time.time()
    d, kmax = 3, 64
    rule = jacobi_rule(d)
    # calibration profile and the depth-300 ordered kernel reconstruct
    cal = decompose(np.ones(rule.order), d, kmax, rule)
    tt = np.linspace(-0.99, 0.99, 401)
    cal_err = np.abs(cal.reconstruct(tt) - 1.0).max()
    ordered = InitParams(0.3, np.sqrt(2 * 0.9))
    cfg_o = KernelConfig(Architecture("ffnn"), RELU, ordered)
    dec_o = decompose_kernel(cfg_o, d, 300, kmax, rule)
    g_o = zonal_profile(cfg_o, d, 300, tt)
    rec_err = np.abs(dec_o.reconstruct(tt) - g_o).max()
    mass_o = dec_o.normalized_mass()
    cfg_e = KernelConfig(Architecture("ffnn"), RELU, EOC_RELU)
    mass_e = decompose_kernel(cfg_e, d, 300, kmax, rule).normalized_mass()
    elapsed = time.time() - t0
    ok = (cal_err < 1e-10 and rec_err < 1e-6 and mass_o[0] > 0.99
          and mass_e[1:].sum() > mass_o[1:].sum() and elapsed < 600.0)
    report(8, ok, f"reconstruction sup err {rec_err:.2e} (< 1e-6, ordered L=300; "
                  f"calibration {cal_err:.1e}); ordered mu0 mass "
                  f"{mass_o[0]:.6f} (> 0.99); k>=1 mass critical "
                  f"{mass_e[1:].sum():.4f} > ordered {mass_o[1:].sum():.2e}")
    assert ok


def test_criterion_09_closed_form_training():
    from deepntk.cli import sphere_dataset
    from deepntk.regression import TrainingState
    ds = sphere_dataset(10, 200, seed=0)
    spec = KernelSpec(Architecture("ffnn"), RELU, EOC_RELU, 3)
    state = build_gram(ds, spec)
    cond_ok = state.min_eig / state.max_eig > 1e-10
    train_acc = accuracy(evolve(state, ds.Z, np.inf), ds.Z)
    # Euler oracle on a small PSD system (step 1e-4)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    gram = A @ A.T + 0.5 * np.eye(3)
    gram *= 0.5 / np.linalg.eigvalsh(gram).max()
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    Z = rng.standard_normal((3, 2))
    st3 = TrainingState(gram=gram, eigenvalues=eigvals[order],
                        eigenvectors=eigvecs[:, order],
                        min_eig=float(eigvals.min()),
                        max_eig=float(eigvals.max()), rank_deficient=False)
    f = np.zeros((3, 2))
    dt, t_final = 1e-4, 2.0
    for _ in range(int(t_final / dt)):
        f = f - dt / 3.0 * gram @ (f - Z)
    euler_err = np.abs(evolve(st3, Z, t_final) - f).max()
    # depth-driven degeneracy in the ordered phase
    p_ord = InitParams(0.3, np.sqrt(2 * 0.9))
    r3 = build_gram(ds, KernelSpec(Architecture("ffnn"), RELU, p_ord, 3))
    r300 = build_gram(ds, KernelSpec(Architecture("ffnn"), RELU, p_ord, 300))
    ratio3 = r3.min_eig / r3.max_eig
    ratio300 = r300.min_eig / r300.max_eig
    degeneracy_ok = ratio300 <= 1e-3 * ratio3
    ok = cond_ok and train_acc == 1.0 and euler_err < 1e-5 and degeneracy_ok
    report(9, ok, f"min/max = {state.min_eig / state.max_eig:.2e} (> 1e-10), "
                  f"train acc = {train_acc:.3f} (= 1.0); Euler err "
                  f"{euler_err:.2e} (< 1e-5); ordered min/max {ratio3:.2e} -> "
                  f"{ratio300:.2e} (factor {ratio300 / ratio3:.1e} <= 1e-3)")
    assert ok


def test_criterion_10_assumption1_reduction():
    rng = np.random.default_rng(21)
    n0, M, k, L = 3, 8, 2, 50
    cx = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
    cxp = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
    pair = InputPair(cx, cxp)
    p = InitParams(0.3, 1.2)
    full = brute_force_conv_ntk(cx, cxp, p, M, k, L, "cnn")
    norm = n0 * (2 * k + 1)
    g_xp = (p.sigma_b**2 + p.sigma_w**2 * pair.conv_inner(k) / norm)[0, 0]
    g_xx = (p.sigma_b**2 + p.sigma_w**2
            * InputPair(cx, cx).conv_inner(k) / norm)[0, 0]
    g_pp = (p.sigma_b**2 + p.sigma_w**2
            * InputPair(cxp, cxp).conv_inner(k) / norm)[0, 0]
    dense = dense_layer_arrays("ffnn", RELU, p, g_xx, g_pp, g_xp, L)
    dev = np.abs(full - dense.ntk[:, None, None]).max()
    ok = dev < 1e-10
    report(10, ok, f"translation-invariant conv grid oracle vs dense recursion: "
                   f"max dev {dev:.2e} (< 1e-10, every (a,a'), L = {L})")
    assert ok


def test_criterion_11_invariant_suites():
    from deepntk.selftest import run_all
    t0 = time.time()
    ok = run_all(verbose=False)
    elapsed = time.time() - t0
    report(11, ok, f"all module invariant suites under selftest "
                   f"({elapsed:.0f}s); includes gradient finite-difference "
                   f"checks at rel err < 1e-5")
    assert ok
