"""Closed-form kernel training: Gram assembly, dynamics, prediction."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deepntk import regression
from deepntk.activations import make_activation
from deepntk.errors import InvalidDatasetError
from deepntk.kernels import Architecture, dense_layer_arrays, first_layer_cov
from deepntk.phase import InitParams
from deepntk.regression import (Dataset, KernelSpec, TrainingState, accuracy,
                                build_gram, evolve, one_hot, pair_kernel,
                                predict, rkhs_residual_coeffs)

RELU = make_activation("relu")
EOC = InitParams(0.0, np.sqrt(2.0))
FFNN = Architecture("ffnn")


def engine_kernel(spec, qx, qxp, qcov):
    """K^L of the engine run on the first-layer triples themselves."""
    return dense_layer_arrays(spec.architecture.kind, spec.activation, spec.params,
                              qx, qxp, qcov, spec.depth, keep=[spec.depth]).ntk[-1]


@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Z = one_hot((X[:, 0] > 0).astype(int))
    ds = Dataset(X, Z)
    spec = KernelSpec(FFNN, RELU, EOC, 3)
    return ds, spec, build_gram(ds, spec)


class TestDataset:
    def test_colinear_pair_rejected(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidDatasetError):
            Dataset(X, np.zeros((3, 1)))

    def test_duplicate_rows_rejected(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(InvalidDatasetError):
            Dataset(X, np.zeros((2, 1)))

    def test_zero_row_rejected(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidDatasetError):
            Dataset(X, np.zeros((2, 1)))

    def test_one_hot_inference(self):
        Z = one_hot(np.array([0, 1, 0, 2]))
        assert Z.shape == (4, 3)
        np.testing.assert_allclose(Z.sum(axis=1), 1.0)


class TestBuildGram:
    def test_single_point(self):
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([[1.0]]))
        state = build_gram(ds, KernelSpec(FFNN, RELU, EOC, 4))
        assert state.gram.shape == (1, 1)
        assert state.gram[0, 0] > 0

    def test_orthogonal_pair_depth_one(self):
        d = 2
        X = np.array([[np.sqrt(d), 0.0], [0.0, np.sqrt(d)]])
        ds = Dataset(X, one_hot(np.array([0, 1])))
        state = build_gram(ds, KernelSpec(FFNN, RELU, EOC, 1))
        np.testing.assert_allclose(state.gram, [[2.0, 0.0], [0.0, 2.0]],
                                   atol=1e-15)

    def test_symmetric_and_eigen_reconstruction(self, small):
        _, _, state = small
        assert np.array_equal(state.gram, state.gram.T)
        recon = (state.eigenvectors * state.eigenvalues) @ state.eigenvectors.T
        rel = np.abs(recon - state.gram).max() / np.abs(state.gram).max()
        assert rel < 1e-8
        assert np.all(np.diff(state.eigenvalues) <= 0)

    def test_deep_ordered_degenerate(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 6))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        ds = Dataset(X, one_hot((X[:, 0] > 0).astype(int)))
        state = build_gram(ds, KernelSpec(FFNN, RELU, InitParams(1.0, 0.1), 200))
        assert state.min_eig / state.max_eig < 1e-6
        assert state.rank_deficient


class TestEvolve:
    def test_time_zero_returns_f0(self, small):
        ds, _, state = small
        np.testing.assert_allclose(evolve(state, ds.Z, 0.0), 0.0, atol=1e-14)

    def test_infinite_time_interpolates(self, small):
        ds, _, state = small
        np.testing.assert_allclose(evolve(state, ds.Z, np.inf), ds.Z, atol=1e-8)

    def test_matches_euler_integration(self):
        # explicit Euler on df = -(1/N) KH (f - Z) dt with step 1e-4
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3))
        gram = A @ A.T + 0.5 * np.eye(3)
        gram *= 0.5 / np.linalg.eigvalsh(gram).max()  # step-1e-4 Euler regime
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        from deepntk.regression import TrainingState
        Z = rng.standard_normal((3, 2))
        state = TrainingState(gram=gram, eigenvalues=eigvals[order],
                              eigenvectors=eigvecs[:, order],
                              min_eig=float(eigvals.min()),
                              max_eig=float(eigvals.max()),
                              rank_deficient=False)
        t_final, dt = 2.0, 1e-4
        f = np.zeros((3, 2))
        for _ in range(int(t_final / dt)):
            f = f - dt / 3.0 * gram @ (f - Z)
        closed = evolve(state, Z, t_final)
        assert np.abs(closed - f).max() < 1e-5

    def test_negative_time_rejected(self, small):
        ds, _, state = small
        with pytest.raises(ValueError):
            evolve(state, ds.Z, -1.0)

    @pytest.mark.parametrize("t", [-1.0, float("nan")])
    def test_every_function_of_time_rejects_a_bad_time(self, small, t):
        ds, spec, state = small
        for run in (lambda: evolve(state, ds.Z, t),
                    lambda: predict(state, ds, spec, ds.X[0], t),
                    lambda: rkhs_residual_coeffs(state, ds.Z, t)):
            with pytest.raises(ValueError, match=f"t must be nonnegative, got {t}"):
                run()


class TestPredict:
    def test_training_points_interpolated_at_infinity(self, small):
        ds, spec, state = small
        for i in range(ds.n):
            pred = predict(state, ds, spec, ds.X[i], np.inf)
            assert np.abs(pred - ds.Z[i]).max() < 1e-6

    def test_time_zero_returns_zero(self, small):
        ds, spec, state = small
        out = predict(state, ds, spec, np.ones(5) / np.sqrt(5), 0.0)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)

    def test_matches_evolve_at_all_times(self, small):
        ds, spec, state = small
        for t in (0.0, 0.7, 13.0, np.inf):
            ft = evolve(state, ds.Z, t)
            for i in (0, 3, 7):
                assert np.abs(predict(state, ds, spec, ds.X[i], t)
                              - ft[i]).max() < 1e-8

    def test_rank_deficient_minimum_norm(self):
        # deep ordered kernel: one dominant eigenvalue, the rest negligible;
        # the pseudo-inverse prediction must match a dense least-squares solve
        rng = np.random.default_rng(23)
        X = rng.standard_normal((5, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Z = one_hot((X[:, 0] > 0).astype(int))
        ds = Dataset(X, Z)
        spec = KernelSpec(FFNN, RELU, InitParams(1.0, 0.1), 120)
        state = build_gram(ds, spec)
        assert state.rank_deficient
        probe = rng.standard_normal(4)
        probe /= np.linalg.norm(probe)
        pred = predict(state, ds, spec, probe, np.inf)
        coeffs, *_ = np.linalg.lstsq(state.gram, Z, rcond=1e-11)
        p = spec.params
        qx = np.full(5, p.sigma_b**2 + p.sigma_w**2 * (probe @ probe) / 4)
        qxp = p.sigma_b**2 + p.sigma_w**2 * np.sum(X * X, axis=1) / 4
        qcov = p.sigma_b**2 + p.sigma_w**2 * (X @ probe) / 4
        k = engine_kernel(spec, qx, qxp, qcov)
        np.testing.assert_allclose(pred, k @ coeffs, atol=1e-8)

    @pytest.mark.parametrize("act,depth", [("relu", 40), ("tanh", 5)])
    def test_batch_matches_single_points(self, act, depth):
        # 11 probes against 8 training points: (8+1)//2 = 4 rows per chunk,
        # so the batch runs three recursions
        rng = np.random.default_rng(31)
        X = rng.standard_normal((8, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        ds = Dataset(X, one_hot((X[:, 0] > 0).astype(int)))
        spec = KernelSpec(FFNN, make_activation(act), InitParams(0.2, 1.3), depth)
        state = build_gram(ds, spec)
        probes = rng.standard_normal((11, 5))
        for t in (0.7, np.inf):
            batch = predict(state, ds, spec, probes, t)
            single = np.array([predict(state, ds, spec, probes[i], t)
                               for i in range(11)])
            assert batch.shape == (11, 2)
            np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)

    def test_batch_matches_single_points_rank_deficient(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((5, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        ds = Dataset(X, one_hot((X[:, 0] > 0).astype(int)))
        spec = KernelSpec(FFNN, RELU, InitParams(1.0, 0.1), 120)
        state = build_gram(ds, spec)
        assert state.rank_deficient
        probes = rng.standard_normal((7, 4))
        batch = predict(state, ds, spec, probes, np.inf)
        single = np.array([predict(state, ds, spec, x, np.inf) for x in probes])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)


def _direct_rows(spec, A, X):
    """K^L(A[i], X[j]) from the per-pair first-layer triple, (len(A), len(X))."""
    p, d = spec.params, X.shape[1]
    m, n = len(A), len(X)
    qa = first_layer_cov(p, np.sum(A * A, axis=1), d)
    qx = first_layer_cov(p, np.sum(X * X, axis=1), d)
    return engine_kernel(spec, np.repeat(qa, n), np.tile(qx, m),
                         first_layer_cov(p, A @ X.T, d).ravel()).reshape(m, n)


def _out_of_range_case(sigma_w, d, norm, depth):
    """Six training rows and three probes (one a training row) of norm
    ``norm`` in R^d, and the ffnn spec at (0, sigma_w) and ``depth``."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, d))
    X *= norm / np.linalg.norm(X, axis=1, keepdims=True)
    ds = Dataset(X, one_hot((X[:, 0] > 0).astype(int)))
    probes = np.vstack([rng.standard_normal((2, d)) * norm / np.sqrt(d), X[1]])
    return ds, probes, KernelSpec(FFNN, RELU, InitParams(0.0, sigma_w), depth)


class TestHomogeneousGram:
    """At sigma_b = 0 the dense ReLU kinds take K^L_1 from the graded table
    (or the engine on shared unit variances) and scale by sqrt(q_x q_x');
    the per-pair engine on the first-layer triple is the reference."""

    @pytest.fixture(scope="class")
    def data(self):
        # norms from 0.3 to 3 (as with --normalize none)
        rng = np.random.default_rng(41)
        X = rng.standard_normal((9, 5)) * rng.uniform(0.3, 3.0, (9, 1))
        ds = Dataset(X, one_hot((X[:, 0] > 0).astype(int)))
        # a training row itself and a multiple of one: self pairs, c^0 = 1
        probes = np.vstack([rng.standard_normal((4, 5)), X[2], 2.5 * X[4]])
        return ds, probes

    # measured relative gaps (Gram; prediction) with the table: 1.3e-10;
    # 3.9e-11 at the EOC over 1000 layers, 2.6e-14; 1.2e-14 resnet,
    # 2.6e-15; 5.8e-16 scaled, 4.8e-13; 9.4e-14 ffnn at sigma_w = 3
    # (renormalised), 9.7e-15; 6.8e-16 ffnn at sigma_w = 1
    @pytest.mark.parametrize("kind,sigma_w,depth,gram_tol,pred_tol", [
        ("ffnn", np.sqrt(2.0), 1000, 3e-10, 2e-10),
        ("resnet_dense", 1.0, 200, 1e-13, 5e-14),
        ("scaled_resnet_dense", 1.5, 200, 1e-14, 5e-15),
        ("ffnn", 3.0, 200, 2e-12, 5e-13),
        ("ffnn", 1.0, 50, 1e-13, 1e-14),
    ])
    def test_gram_and_predict_match_the_per_pair_engine(
            self, data, kind, sigma_w, depth, gram_tol, pred_tol):
        ds, probes = data
        spec = KernelSpec(Architecture(kind), RELU, InitParams(0.0, sigma_w), depth)
        state = build_gram(ds, spec)
        direct = _direct_rows(spec, ds.X, ds.X)
        assert np.max(np.abs(state.gram - direct) / np.abs(direct)) <= gram_tol
        t = 3.0
        want = _direct_rows(spec, probes, ds.X) @ rkhs_residual_coeffs(state, ds.Z, t)
        got = predict(state, ds, spec, probes, t)
        assert np.max(np.abs(got - want)) <= pred_tol * np.max(np.abs(want))

    # K^L_1 leaves the normal range before sqrt(q_x q_x') K^L_1 does: it
    # overflows at 469 layers of sigma_w = 3 on the sphere in R^50
    # (sqrt(q_x q_x') = 0.18; 6 of 21 entries, all 21 at 470, where the
    # per-pair engine overflows too), and at norm 1e10 in R^5
    # (sqrt(q_x q_x') = 2e19) 1085 layers of sigma_w = 1 take it below
    # 5e-324 while the kernel is 3e-305.  Measured relative gaps (Gram;
    # prediction): 4.3e-12; 1.2e-12 (the table) and 6.2e-12; 3.1e-12 (past
    # 1000 layers, the recursion on every pair)
    @pytest.mark.parametrize("sigma_w,d,norm,depth,gram_tol,pred_tol", [
        (3.0, 50, 1.0, 469, 1e-11, 3e-12),
        (1.0, 5, 1e10, 1085, 2e-11, 1e-11),
    ])
    def test_unit_kernel_out_of_range(self, sigma_w, d, norm, depth,
                                      gram_tol, pred_tol):
        ds, probes, spec = _out_of_range_case(sigma_w, d, norm, depth)
        X = ds.X
        iu, ju = np.triu_indices(len(X))
        q = first_layer_cov(spec.params, np.sum(X * X, axis=1), d)
        c0 = first_layer_cov(spec.params, (X[iu] * X[ju]).sum(axis=1), d) / np.sqrt(q[iu] * q[ju])
        unit = np.abs(engine_kernel(spec, 1.0, 1.0, c0))
        assert not np.all((unit >= np.finfo(float).tiny) & (unit <= np.finfo(float).max))
        state = build_gram(ds, spec)
        direct = _direct_rows(spec, X, X)
        assert np.all(np.isfinite(direct))
        assert np.max(np.abs(state.gram - direct) / direct) <= gram_tol
        want = _direct_rows(spec, probes, X) @ rkhs_residual_coeffs(state, ds.Z, np.inf)
        got = predict(state, ds, spec, probes, np.inf)
        assert np.max(np.abs(got - want)) <= pred_tol * np.max(np.abs(want))

    def test_decay_overflow_is_silent(self):
        # every eigenvalue of the sigma_w = 3 Gram above is at least 3.1e307,
        # so at t = 3 every e^{-t lambda / N} is 0, as at t = inf; -t lambda
        # overflows to -inf for the largest (9.7e307), which must not warn
        ds, probes, spec = _out_of_range_case(3.0, 50, 1.0, 469)
        state = build_gram(ds, spec)
        assert state.eigenvalues[0] > np.finfo(float).max / 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = predict(state, ds, spec, probes, 3.0), evolve(state, ds.Z, 3.0)
        np.testing.assert_array_equal(got[0], predict(state, ds, spec, probes, np.inf))
        np.testing.assert_array_equal(got[1], evolve(state, ds.Z, np.inf))

    def test_self_pairs_keep_unit_correlation(self, data):
        # the Gram diagonal at the EOC is L q^1 (sigma_w^2 / 2)^(L-1): qdot is
        # exactly sigma_w^2 / 2 at c = 1; measured within 8.6e-14 at L = 1000
        ds, _ = data
        sw, depth = np.sqrt(2.0), 1000
        spec = KernelSpec(FFNN, RELU, InitParams(0.0, sw), depth)
        q1 = first_layer_cov(spec.params, np.sum(ds.X * ds.X, axis=1), 5)
        want = depth * q1 * (sw * sw / 2.0) ** (depth - 1)
        np.testing.assert_allclose(np.diag(build_gram(ds, spec).gram), want,
                                   rtol=2e-13, atol=0)

    @pytest.mark.slow
    @pytest.mark.parametrize("scale", ["unit", "none"])
    def test_no_less_accurate_than_the_per_pair_engine(self, scale):
        # 40-digit recursion of the same float inputs at depth 1000; measured
        # max relative errors (homogeneous, per pair) 1.22e-11, 2.99e-11 on
        # the sphere and 1.22e-11, 1.21e-10 at norms from 0.3 to 3 (the
        # homogeneous path read 2.65e-11 on both before the table)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 10))
        if scale == "unit":
            X /= np.linalg.norm(X, axis=1, keepdims=True)
        else:
            X *= rng.uniform(0.3, 3.0, (8, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
        depth, d = 1000, X.shape[1]
        spec = KernelSpec(FFNN, RELU, EOC, depth)
        iu, ju = np.triu_indices(len(X))
        sq, inner = np.sum(X * X, axis=1), (X[iu] * X[ju]).sum(axis=1)
        first = [first_layer_cov(EOC, a, d) for a in (sq[iu], sq[ju], inner)]
        homogeneous = pair_kernel(spec, sq[iu], sq[ju], inner, d)
        per_pair = engine_kernel(spec, *first)
        ref = np.array([_mpmath_relu_kernel(mpmath, *triple, EOC.sigma_w, depth)
                        for triple in zip(*first)])
        err_h = np.max(np.abs(homogeneous - ref) / ref)
        err_p = np.max(np.abs(per_pair - ref) / ref)
        assert err_h <= err_p


def _sphere_rows(seed, n, d):
    X = np.random.default_rng(seed).standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _rows(spec, A, X, tables):
    """K^L(A[i], X[j]) from pair_kernel with the given tables."""
    sq_a, sq_x = np.sum(A * A, axis=1), np.sum(X * X, axis=1)
    return pair_kernel(spec, np.repeat(sq_a, len(X)), np.tile(sq_x, len(A)),
                       (A @ X.T).ravel(), X.shape[1], tables).reshape(len(A), len(X))


def _unit_path(spec, A, X, gram=False):
    """The recursion on shared unit variances at every pair's c^0, scaled
    by sqrt(q_x q_x'), for inputs whose K^L_1 stays in the normal range.
    The inner products are summed as build_gram (``gram``) or predict
    sums them."""
    p, d = spec.params, X.shape[1]
    qa = first_layer_cov(p, np.sum(A * A, axis=1), d)
    qx = first_layer_cov(p, np.sum(X * X, axis=1), d)
    root = np.sqrt(np.outer(qa, qx))
    inner = (A[:, None, :] * X[None, :, :]).sum(axis=2) if gram else A @ X.T
    c0 = first_layer_cov(p, inner, d) / root
    unit = engine_kernel(spec, 1.0, 1.0, c0.ravel()).reshape(c0.shape)
    assert np.all(np.isfinite(unit) & (unit > 1e-300))
    return unit * root


TABLE_CASES = [("ffnn", np.sqrt(2.0)), ("ffnn", 1.0), ("ffnn", 3.0),
               ("resnet_dense", 1.0), ("scaled_resnet_dense", 1.5)]


class TestGradedTable:
    """The sigma_b = 0 ReLU Gram and prediction rows interpolate one table
    of K^L_1 per spec (see ``regression``); the engine run on the
    first-layer triple is the reference."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=150)
    @given(case=st.sampled_from(TABLE_CASES),
           depth=st.sampled_from([2, 3, 30, 300, 1000]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10),
           d=st.integers(2, 10))
    def test_table_matches_the_engine(self, case, depth, seed, n, d):
        # the claim covers the tabulated pairs, 1 - c^0 >= 1e-4, and the
        # self pairs; pairs nearer c^0 = 1 run the recursion themselves
        # (test_near_pairs_run_the_recursion).  The floor, 1e-12 of the
        # largest entry, is the engine's own rounding at L = 2 near
        # c^0 = -1: K^2 vanishes like pi - theta there, and the closed-form
        # map loses about 2e-18 / (pi - theta) to cancellation (2e-14 at
        # pi - theta = 1e-4, where the table is 2e-15 from the exact value)
        kind, sigma_w = case
        # K^1000 at sigma_w = 3 passes float max (4.5^999): build_gram refuses it
        assume(not (sigma_w == 3.0 and depth == 1000))
        X = _sphere_rows(seed, n + 3, d)
        try:
            ds = Dataset(X[:n], one_hot(np.arange(n) % 2))
        except InvalidDatasetError:
            assume(False)
        spec = KernelSpec(Architecture(kind), RELU, InitParams(0.0, sigma_w), depth)
        state = build_gram(ds, spec)
        assert state.tables[spec] is not None
        probes = X[n:]
        for A, got in ((ds.X, state.gram), (probes, _rows(spec, probes, ds.X, state.tables))):
            want = _direct_rows(spec, A, ds.X)
            c0 = A @ ds.X.T
            served = (1.0 - c0 >= 1e-4) | (c0 == 1.0)
            bound = 1e-10 * np.abs(want) + 1e-12 * np.abs(want).max()
            assert np.all(np.abs(got - want)[served] <= bound[served])

    def test_near_pairs_run_the_recursion(self):
        # probes at 1 - c^0 = 1e-6 and 1e-5 and on a training row: their
        # entries are the recursion's, bit for bit, and the rest of the
        # row comes from the table with no other run
        X = _sphere_rows(3, 8, 5)
        ds = Dataset(X, one_hot(np.arange(8) % 2))
        spec = KernelSpec(FFNN, RELU, EOC, 300)
        state = build_gram(ds, spec)
        u = np.random.default_rng(4).standard_normal(5)
        u -= (u @ X[0]) * X[0]
        u /= np.linalg.norm(u)
        probes = np.array([X[0] * np.cos(t) + u * np.sin(t)
                           for t in (np.arccos(1 - 1e-6), np.arccos(1 - 1e-5))] + [X[2]])
        got = _rows(spec, probes, ds.X, state.tables)
        near = np.abs(1.0 - probes @ ds.X.T) < 1e-4
        assert near.sum() == 3
        np.testing.assert_array_equal(got[near], _unit_path(spec, probes, ds.X)[near])

    def test_predict_runs_no_recursion(self, monkeypatch):
        X = _sphere_rows(5, 30, 6)
        ds = Dataset(X[:20], one_hot(np.arange(20) % 2))
        spec = KernelSpec(FFNN, RELU, EOC, 1000)
        runs = []
        engine = regression.dense_layer_arrays

        def counted(*args, **kwargs):
            runs.append(np.size(args[5]))
            return engine(*args, **kwargs)

        monkeypatch.setattr(regression, "dense_layer_arrays", counted)
        state = build_gram(ds, spec)
        # one run: 180 nodes, 10 panel edges and the one distinct self pair
        assert runs == [191]
        pred = predict(state, ds, spec, X[20:], 2.0)
        assert runs == [191]
        # a state built by hand has no table: its first predict makes one
        fields = {k: v for k, v in vars(state).items() if k != "tables"}
        np.testing.assert_array_equal(
            predict(TrainingState(**fields), ds, spec, X[20:], 2.0), pred)
        assert runs == [191, 190]

    def test_failed_check_runs_the_recursion_on_every_pair(self, monkeypatch):
        # with no tolerance the check fails, and the Gram and the rows are
        # the recursion's, bit for bit
        monkeypatch.setattr(regression, "_TABLE_TOL", 0.0)
        X = _sphere_rows(7, 12, 5)
        ds = Dataset(X[:9], one_hot(np.arange(9) % 2))
        spec = KernelSpec(Architecture("resnet_dense"), RELU, InitParams(0.0, 1.0), 30)
        state = build_gram(ds, spec)
        assert state.tables == {spec: None}
        np.testing.assert_array_equal(state.gram, _unit_path(spec, ds.X, ds.X, True))
        np.testing.assert_array_equal(_rows(spec, X[9:], ds.X, state.tables),
                                      _unit_path(spec, X[9:], ds.X))

    def test_deep_gram_is_the_recursion(self):
        # past 1000 layers every pair runs the recursion, as before the
        # table: bit for bit at L = 3000
        X = _sphere_rows(11, 10, 5)
        ds = Dataset(X[:8], one_hot(np.arange(8) % 2))
        spec = KernelSpec(FFNN, RELU, EOC, 3000)
        state = build_gram(ds, spec)
        assert state.tables == {}
        np.testing.assert_array_equal(state.gram, _unit_path(spec, ds.X, ds.X, True))
        np.testing.assert_array_equal(_rows(spec, X[8:], ds.X, state.tables),
                                      _unit_path(spec, X[8:], ds.X))


def _mpmath_relu_kernel(mpmath, qx, qxp, qcov, sigma_w, depth):
    """K^L of a ReLU ffnn at sigma_b = 0, 40 digits: the arc-cosine map
    (sin t + (pi - t) cos t) / pi, t = acos c, and f'(c) = (pi - t) / pi."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    qx, qxp, qcov = mp.mpf(qx), mp.mpf(qxp), mp.mpf(qcov)
    sw2 = mp.mpf(sigma_w) ** 2
    K = qcov
    for _ in range(depth - 1):
        root = mp.sqrt(qx * qxp)
        t = mp.acos(min(mp.mpf(1), max(mp.mpf(-1), qcov / root)))
        qdot = sw2 * (mp.pi - t) / mp.pi / 2
        qcov = sw2 * root / 2 * (mp.sin(t) + (mp.pi - t) * mp.cos(t)) / mp.pi
        qx, qxp = sw2 * qx / 2, sw2 * qxp / 2
        K = qdot * K + qcov
    return float(K)


class TestRkhsCoefficients:
    def test_zero_at_time_zero(self, small):
        ds, _, state = small
        assert np.abs(rkhs_residual_coeffs(state, ds.Z, 0.0)).max() == 0.0

    def test_infinite_time_solves_linear_system(self, small):
        ds, _, state = small
        a = rkhs_residual_coeffs(state, ds.Z, np.inf)
        np.testing.assert_allclose(a, np.linalg.solve(state.gram, ds.Z),
                                   atol=1e-8)

    def test_reconstructs_evolve(self, small):
        ds, _, state = small
        for t in (0.5, 4.0, np.inf):
            a = rkhs_residual_coeffs(state, ds.Z, t)
            lhs = state.gram @ a
            np.testing.assert_allclose(lhs, evolve(state, ds.Z, t), atol=1e-8)

    def test_predict_expands_in_kernel_rows(self, small):
        ds, spec, state = small
        rng = np.random.default_rng(9)
        probe = rng.standard_normal(5)
        probe /= np.linalg.norm(probe)
        t = 3.0
        a = rkhs_residual_coeffs(state, ds.Z, t)
        p = spec.params
        qx = np.full(ds.n, p.sigma_b**2 + p.sigma_w**2 * (probe @ probe) / 5)
        qxp = p.sigma_b**2 + p.sigma_w**2 * np.sum(ds.X * ds.X, axis=1) / 5
        qcov = p.sigma_b**2 + p.sigma_w**2 * (ds.X @ probe) / 5
        k = engine_kernel(spec, qx, qxp, qcov)
        np.testing.assert_allclose(predict(state, ds, spec, probe, t),
                                   k @ a, atol=1e-8)


class TestClassification:
    def test_accuracy_helper(self):
        pred = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        Z = one_hot(np.array([0, 1, 1]))
        assert accuracy(pred, Z) == pytest.approx(2.0 / 3.0)
