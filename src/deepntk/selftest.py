"""Invariant suites for every module, runnable from the CLI.

Each check returns (name, ok, detail).  These are the structural
invariants of the package (symmetries, monotonicities, conservation
laws, cross-validations against independent evaluations); the deeper
criterion-by-criterion validation lives in the pytest suite.
"""
from __future__ import annotations

import numpy as np

from . import activations as act
from . import asymptotics as asy
from . import empirical as emp
from . import gaussmath as gm
from . import kernels as ker
from . import phase as ph
from . import regression as reg
from . import spectral as spec
from .phase import InitParams


def _relu_quadrant_oracle(c: float) -> float:
    """E[relu(u1) relu(u2)] at unit variances via adaptive quadrature.

    Independent of the closed form and of Gauss-Hermite: integrates the
    bivariate normal density over the positive quadrant (smooth there).
    """
    from scipy.integrate import dblquad
    s = np.sqrt(1.0 - c * c)

    def integrand(z2, z1):
        u1 = z1
        u2 = c * z1 + s * z2
        return u1 * u2 * np.exp(-(z1 * z1 + z2 * z2) / 2.0) / (2.0 * np.pi)

    # u1 > 0 and u2 > 0  <=>  z1 > 0 and z2 > -c z1 / s
    val, _ = dblquad(integrand, 0.0, 12.0,
                     lambda z1: -c * z1 / s, lambda z1: 12.0,
                     epsabs=1e-12, epsrel=1e-12)
    return val


def checks_gaussmath():
    rule = gm.default_hermite()
    out = []
    # expect2 at c=1 equals expect1 of the square
    worst = max(
        abs(gm.expect2(np.tanh, q, q, 1.0, rule)
            - gm.expect1(lambda u: np.tanh(u) ** 2, q, rule))
        for q in (0.25, 1.0, 2.5)
    )
    out.append(("gaussmath.expect2_diag_equals_expect1", worst < 1e-10, f"{worst:.2e}"))
    # monotone in c for relu and tanh
    grid = np.linspace(-1.0, 1.0, 21)
    ok = True
    for g in (act.relu, np.tanh):
        vals = [gm.expect2(g, 1.0, 1.0, c, rule) for c in grid]
        ok = ok and np.all(np.diff(vals) >= -1e-12)
    out.append(("gaussmath.expect2_monotone_in_c", bool(ok), ""))
    # symmetry in (q1, q2)
    worst = max(
        abs(gm.expect2(np.tanh, 0.5, 2.0, c, rule)
            - gm.expect2(np.tanh, 2.0, 0.5, c, rule))
        for c in (-0.7, 0.0, 0.4)
    )
    out.append(("gaussmath.expect2_symmetric", worst < 1e-12, f"{worst:.2e}"))
    # hermite moments
    m2 = gm.expect1(lambda z: z * z, 1.0, rule) - 1.0
    m4 = gm.expect1(lambda z: z**4, 1.0, rule) - 3.0
    out.append(("gaussmath.hermite_moments",
                abs(m2) < 1e-12 and abs(m4) < 1e-10, f"{m2:.1e},{m4:.1e}"))
    return out


def checks_activations():
    rule = gm.default_hermite()
    relu = act.make_activation("relu")
    tanh = act.make_activation("tanh")
    out = []
    # Cauchy-Schwarz preserved by one ffnn layer step
    rng = np.random.default_rng(5)
    ok = True
    for a in (relu, tanh):
        qx, qxp = rng.uniform(0.1, 3.0, (2, 50))
        qcov = rng.uniform(-1.0, 1.0, 50) * np.sqrt(qx * qxp)
        step = ker.dense_layer_arrays("ffnn", a, InitParams(0.3, 1.2),
                                      qx, qxp, qcov, 2, last_only=True)
        ok = ok and bool(np.all(step.qcov**2 <= step.qx * step.qxp + 1e-10))
    out.append(("activations.cauchy_schwarz_step", bool(ok), ""))
    # f nondecreasing and convex on [0, 1]
    cs = np.linspace(0.0, 1.0, 101)
    q = ph.variance_fixed_point(tanh, InitParams(0.2, 1.2))
    cmap = act.CorrelationMap(tanh, q, 0.2, 1.2)
    ok = True
    for f in (act.relu_f, cmap):
        vals = np.array([f(c) for c in cs])
        d1 = np.diff(vals)
        d2 = np.diff(vals, 2)
        ok = ok and np.all(d1 >= -1e-12) and np.all(d2 >= -1e-10)
    out.append(("activations.f_monotone_convex", bool(ok), ""))
    # relu_f vs the Gauss-Hermite evaluation of the same expectation
    # (kinked integrand: the tensor rule converges only algebraically, so
    # the match is at quadrature accuracy, not closed-form accuracy)
    worst_gh = max(abs(2.0 * gm.expect2(act.relu, 1.0, 1.0, c, rule) - act.relu_f(c))
                   for c in np.linspace(-0.9, 0.9, 7))
    out.append(("activations.relu_f_vs_hermite_quadrature",
                worst_gh < 1e-2, f"{worst_gh:.2e}"))
    # relu_f against the adaptive quadrant oracle, at full accuracy
    worst = max(abs(2.0 * _relu_quadrant_oracle(c) - act.relu_f(c))
                for c in (-0.8, -0.3, 0.2, 0.7))
    out.append(("activations.relu_f_vs_adaptive_oracle", worst < 1e-8, f"{worst:.2e}"))
    # the Mehler series of the tanh maps against order-256 quadrature: every
    # certified pair within its bound SERIES_TOLERANCE sqrt(E[g1^2] E[g2^2])
    oracle = gm.gauss_hermite(256)
    qs = (0.21, 0.512, 1.0)
    cs = (-1.0 + 1e-12, -0.5, 0.3, 0.9, 1.0 - 1e-12)
    q1, q2, c = (np.array(v, dtype=np.float64).ravel()
                 for v in np.meshgrid(qs, qs, cs, indexing="ij"))
    values, certified = tanh.series.pairs(q1, q2, c)
    worst, ok = 0.0, True
    for j, g in enumerate((np.tanh, act.tanh_prime)):
        second = {q: gm.expect1(lambda u: g(u) ** 2, q, oracle) for q in qs}
        for i in np.flatnonzero(certified[:, j]):
            err = abs(values[i, j] - gm.expect2(g, q1[i], q2[i], c[i], oracle))
            bound = act.SERIES_TOLERANCE * np.sqrt(second[q1[i]] * second[q2[i]])
            worst = max(worst, err)
            ok = ok and err <= bound
    out.append(("activations.tanh_series_vs_order256", bool(ok),
                f"worst {worst:.1e}, {int(certified.sum())}/{certified.size} certified"))
    return out


def checks_phase():
    tanh = act.make_activation("tanh")
    relu = act.make_activation("relu")
    out = []
    chis = [ph.classify(tanh, InitParams(0.2, sw)).chi for sw in np.linspace(0.5, 2.0, 7)]
    out.append(("phase.chi_increasing_in_sigma_w", bool(np.all(np.diff(chis) > 0)), ""))
    # ordered ReLU variance: the closed form is the fixed point of the layer
    # map, which contracts by sigma_w^2 / 2 < 1 from any start
    p = InitParams(1.0, 0.8)
    q = ph.variance_fixed_point(relu, p)
    gap = abs(p.sigma_b**2 + p.sigma_w**2 * q / 2.0 - q)
    out.append(("phase.ordered_variance_geometric", gap <= 4e-16 * q, f"{gap:.1e}"))
    chi = ph.classify(relu, InitParams(0.0, np.sqrt(2.0))).chi
    out.append(("phase.relu_eoc_chi_exact", chi == 1.0, f"{chi!r}"))
    # the Tanh critical point from its parametric form: chi and f(1) of the
    # correlation map at the fixed point are 1 to rounding
    sw = ph.eoc_curve(tanh, 0.2)
    rep = ph.classify(tanh, InitParams(0.2, sw))
    f1 = act.CorrelationMap(tanh, rep.q_fixed, 0.2, sw)(1.0)
    worst = max(abs(rep.chi - 1.0), abs(f1 - 1.0))
    out.append(("phase.tanh_eoc_critical", worst <= 1e-13, f"{worst:.1e}"))
    return out


def checks_kernels():
    relu = act.make_activation("relu")
    tanh = act.make_activation("tanh")
    out = []
    d = 8
    rng = np.random.default_rng(11)
    x = rng.standard_normal(d)
    xp = rng.standard_normal(d)
    pair = ker.InputPair(x, xp)
    swapped = ker.InputPair(xp, x)

    # ReLU critical diagonal is exactly linear in depth
    xd = np.full(4, 1.0)
    ffnn = ker.Architecture("ffnn")
    tr = ker.ntk_trace(ffnn, ker.InputPair(xd, xd), relu, InitParams(0.0, np.sqrt(2)), 32)
    dev = np.abs(tr.ntk - 2.0 * np.arange(1, 33)).max()
    out.append(("kernels.relu_eoc_diag_linear", dev < 1e-10, f"{dev:.2e}"))

    # Tanh critical diagonal approaches its limit at a ~1/L rate
    sw = ph.eoc_curve(tanh, 0.2)
    pt = InitParams(0.2, sw)
    xs = x / np.linalg.norm(x)
    dpair = ker.InputPair(xs, xs)
    trt = ker.ntk_trace(ffnn, dpair, tanh, pt, 1024)
    lim = ker.limiting_kernel(ffnn, tanh, pt, dpair)
    grid = [2**j for j in range(5, 11)]
    resid = np.abs(trt.ntk[np.array(grid) - 1] / np.array(grid) - lim)
    slope = np.polyfit(np.log(grid), np.log(resid), 1)[0]
    out.append(("kernels.tanh_eoc_diag_rate", 0.8 <= -slope <= 1.2, f"{slope:.3f}"))

    # ordered phase: successive-ratio test of |K - lambda| converges below 1
    po = InitParams(0.3, np.sqrt(2 * 0.9))
    tro = ker.ntk_trace(ffnn, pair, relu, po, 200)
    lam = ker.limiting_kernel(ffnn, relu, po, pair)
    r = np.abs(tro.ntk - lam)
    ratios = r[100:180] / r[99:179]
    out.append(("kernels.ordered_geometric_ratio",
                bool(np.all(ratios < 1.0) and np.std(ratios[-20:]) < 0.01),
                f"ratio~{ratios[-1]:.4f}"))

    # symmetry under swapping the pair
    t1 = ker.ntk_trace(ffnn, pair, relu, po, 16).ntk
    t2 = ker.ntk_trace(ffnn, swapped, relu, po, 16).ntk
    out.append(("kernels.pair_swap_symmetry", bool(np.array_equal(t1, t2)), ""))

    # Assumption-1 CNN trace equals the FFNN trace with matched first layer
    n0, M, kf = 3, 8, 2
    base = rng.standard_normal(n0)
    cx = np.repeat(base[:, None], M, axis=1)
    cxp = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
    cpair = ker.InputPair(cx, cxp)
    tr_c = ker.ntk_trace(ker.Architecture("cnn", M, kf, True), cpair, relu, po, 20)
    # matched dense recursion from the conv first-layer covariances
    norm = n0 * (2 * kf + 1)
    g_xp = ker.first_layer_cov(po, cpair.conv_inner(kf), norm)[0, 0]
    g_xx = ker.first_layer_cov(po, ker.InputPair(cx, cx).conv_inner(kf), norm)[0, 0]
    g_pp = ker.first_layer_cov(po, ker.InputPair(cxp, cxp).conv_inner(kf), norm)[0, 0]
    dense = ker.dense_layer_arrays("ffnn", relu, po, g_xx, g_pp, g_xp, 20)
    dev = np.abs(dense.ntk - tr_c.ntk).max()
    out.append(("kernels.assumption1_matches_ffnn", dev < 1e-10, f"{dev:.2e}"))

    # PSD of the Gram over 10 random inputs
    X = rng.standard_normal((10, d))
    ds = reg.Dataset(X, np.zeros((10, 1)))
    spec_k = reg.KernelSpec(ffnn, relu, po, 5)
    state = reg.build_gram(ds, spec_k)
    out.append(("kernels.gram_psd",
                state.min_eig >= -1e-8 * state.max_eig,
                f"min={state.min_eig:.2e}"))
    return out


def checks_asymptotics():
    relu = act.make_activation("relu")
    out = []
    d = 10
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    c1 = np.array([-0.3, -0.1, 0.1, 0.3])  # sphere pairs concentrate here

    # ordered phase: exponential fit beats power fit (sigma_b = 0 keeps the
    # whole depth range in the exponential regime; see notes on criterion 5)
    po = InitParams(0.0, np.sqrt(2 * 0.99))
    grid = asy.default_depth_grid()
    qd = ker.first_layer_cov(po, 1.0, d)
    trace = ker.dense_layer_arrays("ffnn", relu, po, qd, qd,
                                   ker.first_layer_cov(po, c1, d), grid[-1])
    lam = ker.limiting_kernel(
        ker.Architecture("ffnn"), relu, po,
        ker.InputPair(X[0], X[1]))
    resid = np.abs(trace.ntk - lam)[np.array(grid) - 1].max(axis=1)
    fe = asy.fit_rate(grid, resid, "exp")
    fp = asy.fit_rate(grid, resid, "power")
    out.append(("asymptotics.ordered_exp_beats_power",
                fe.r_squared > 0.99 and fe.r_squared > fp.r_squared,
                f"r2 exp={fe.r_squared:.4f} pow={fp.r_squared:.4f}"))

    # critical phase: power fit is excellent and exp-rate shrinks with depth;
    # the pairs lie on the sphere, so the off-diagonal limit of one pair is
    # that of every pair
    pe = InitParams(0.0, np.sqrt(2))
    qd = ker.first_layer_cov(pe, 1.0, d)
    c1e = np.array([-0.5, 0.1, 0.6, 0.9])
    trace = ker.dense_layer_arrays("ffnn", relu, pe, qd, qd, qd * c1e, grid[-1])
    ak = ker.normalize(trace)
    lim = ker.limiting_kernel(ker.Architecture("ffnn"), relu, pe,
                              ker.InputPair(X[0], X[1]))
    resid = np.abs(ak - lim)[np.array(grid) - 1].max(axis=1)
    fp = asy.fit_rate(grid, resid, "power")
    dense1024 = np.unique(np.geomspace(32, 1024, 12).astype(int))
    dense8192 = np.unique(np.geomspace(32, 8192, 12).astype(int))
    r1 = np.abs(ak - lim)[dense1024 - 1].max(axis=1)
    r2 = np.abs(ak - lim)[dense8192 - 1].max(axis=1)
    g1 = asy.fit_rate(dense1024, r1, "exp").exponent
    g2 = asy.fit_rate(dense8192, r2, "exp").exponent
    out.append(("asymptotics.eoc_power_fits_and_gamma_shrinks",
                fp.r_squared > 0.99 and 0 < g2 < g1,
                f"r2={fp.r_squared:.4f} gamma {g1:.4f}->{g2:.4f}"))

    # scaled residual kernel decays slower than any L^{-p}, p >= 0.2,
    # against its limit under the depth normalisation L^{sw^2/2} log L
    ps = InitParams(0.0, np.sqrt(2))
    scaled = ker.Architecture("scaled_resnet_dense")
    depths = np.unique(np.geomspace(100, 10000, 10).astype(int))
    trace = ker.dense_layer_arrays(scaled, relu, ps, qd, qd, qd * c1e,
                                   int(depths[-1]))
    limit = ker.limiting_kernel(scaled, relu, ps, ker.InputPair(X[0], X[1]))
    resid = np.abs(ker.normalize(trace) - limit)[depths - 1].max(axis=1)
    fp = asy.fit_rate(depths, resid, "power")
    out.append(("asymptotics.scaled_resnet_slower_than_power",
                0.0 < -fp.exponent < 0.2 and resid[-1] < resid[0],
                f"fitted p={-fp.exponent:.3f}"))
    return out


def checks_spectral():
    relu = act.make_activation("relu")
    out = []
    rule = spec.jacobi_rule(3)
    # reconstruction identity, calibrated on g == 1 and then on a kernel
    dec1 = spec.decompose(np.ones(rule.order), 3, 64, rule)
    tt = np.linspace(-0.99, 0.99, 201)
    err1 = np.abs(dec1.reconstruct(tt) - 1.0).max()
    po = InitParams(0.3, np.sqrt(2 * 0.9))
    cfg = spec.KernelConfig(ker.Architecture("ffnn"), relu, po)
    dec_o = spec.decompose_kernel(cfg, 3, 300)
    g = spec.zonal_profile(cfg, 3, 300, tt)
    err2 = np.abs(dec_o.reconstruct(tt) - g).max()
    out.append(("spectral.reconstruction_identity",
                err1 < 1e-10 and err2 < 1e-6, f"{err1:.1e},{err2:.1e}"))
    # PSD: mu_k >= -1e-8 mu_0
    cfg_e = spec.KernelConfig(ker.Architecture("ffnn"), relu,
                              InitParams(0.0, np.sqrt(2)))
    dec_e = spec.decompose_kernel(cfg_e, 3, 300)
    ok = bool(np.all(dec_e.mu >= -1e-8 * dec_e.mu[0])
              and np.all(dec_o.mu >= -1e-8 * dec_o.mu[0]))
    out.append(("spectral.mu_nonnegative", ok, f"min={dec_e.mu.min():.2e}"))
    # weighted orthogonality of the Legendre family
    table = spec.legendre_table(3, 20, rule.nodes)
    G = np.einsum("kn,jn,n->kj", table, table, rule.weights)
    off = np.abs(G - np.diag(np.diag(G))).max()
    out.append(("spectral.legendre_orthogonal", off < 1e-10, f"{off:.1e}"))
    return out


def checks_regression():
    relu = act.make_activation("relu")
    out = []
    rng = np.random.default_rng(42)
    X = rng.standard_normal((12, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Z = reg.one_hot((X[:, 0] > 0).astype(int))
    ds = reg.Dataset(X, Z)
    spec_k = reg.KernelSpec(ker.Architecture("ffnn"), relu,
                            InitParams(0.0, np.sqrt(2)), 3)
    state = reg.build_gram(ds, spec_k)
    # eigen-coordinate error decays monotonically in t
    ts = [0.0, 1.0, 5.0, 25.0, 125.0]
    U = state.eigenvectors
    errs = []
    for t in ts:
        ft = reg.evolve(state, Z, t)
        errs.append(np.abs(U.T @ (ft - Z)))
    mono = all(np.all(errs[i + 1] <= errs[i] + 1e-12) for i in range(len(errs) - 1))
    out.append(("regression.evolve_monotone_contraction", bool(mono), ""))
    # predict at training points (one batch) equals evolve rows
    worst = 0.0
    for t in (0.0, 3.0, np.inf):
        ft = reg.evolve(state, Z, t)
        worst = max(worst, np.abs(reg.predict(state, ds, spec_k, X, t) - ft).max())
    out.append(("regression.predict_matches_evolve", worst < 1e-8, f"{worst:.1e}"))
    # degeneracy deepens with depth in the ordered phase; N < d keeps the
    # shallow Gram full-rank so the depth effect is the only mechanism
    Xw = rng.standard_normal((12, 20))
    Xw /= np.linalg.norm(Xw, axis=1, keepdims=True)
    dsw = reg.Dataset(Xw, reg.one_hot((Xw[:, 0] > 0).astype(int)))
    po = InitParams(0.3, np.sqrt(2 * 0.6))
    ratios = []
    for L in (3, 30, 300):
        st = reg.build_gram(dsw, reg.KernelSpec(ker.Architecture("ffnn"), relu, po, L))
        ratios.append(st.min_eig / st.max_eig)
    ok = ratios[1] <= ratios[0] / 10.0 and ratios[2] <= ratios[1] / 10.0
    out.append(("regression.ordered_degeneracy_per_decade", bool(ok),
                f"{ratios[0]:.1e},{ratios[1]:.1e},{ratios[2]:.1e}"))
    return out


def checks_empirical():
    relu = act.make_activation("relu")
    tanh = act.make_activation("tanh")
    out = []
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    ok = True
    worst = 0.0
    for arch in ("ffnn", "resnet_dense"):
        for a in (relu, tanh):
            net = emp.sample_net(arch, a, InitParams(0.4, 1.1), [4, 4, 4], 4, 9)
            g = emp.parameter_gradient(net, x)
            fd = emp.finite_difference_gradient(net, x)
            rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12)
            worst = max(worst, rel)
            ok = ok and rel < 1e-5
    out.append(("empirical.gradient_finite_difference", bool(ok), f"{worst:.1e}"))
    # layer variance statistics match the covariance chain at width 1024
    p = InitParams(0.3, 1.2)
    xs = x / np.linalg.norm(x)
    q1 = ker.first_layer_cov(p, 1.0, xs.size)
    qx = float(ker.dense_layer_arrays("ffnn", tanh, p, q1, q1, q1, 3,
                                      last_only=True).qx[0])
    samples = []
    for s in range(24):
        net = emp.sample_net("ffnn", tanh, p, [1024] * 3, 4, 100 + s)
        ys = emp.forward(net, xs)
        samples.append(np.mean(ys[-1] ** 2))
    mean, se = np.mean(samples), np.std(samples, ddof=1) / np.sqrt(len(samples))
    out.append(("empirical.variance_matches_meanfield",
                abs(mean - qx) < 3 * se + 1e-12, f"{mean:.4f} vs {qx:.4f} (se {se:.1e})"))
    return out


def run_all(verbose: bool = True) -> bool:
    suites = [
        checks_gaussmath, checks_activations, checks_phase, checks_kernels,
        checks_asymptotics, checks_spectral, checks_regression, checks_empirical,
    ]
    all_ok = True
    for suite in suites:
        for name, ok, detail in suite():
            all_ok = all_ok and ok
            if verbose:
                status = "PASS" if ok else "FAIL"
                print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    return all_ok
