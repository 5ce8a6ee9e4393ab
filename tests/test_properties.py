"""Property tests: the scalar gamma path, the layer step's invariants, the
engine against a reference layer loop, the Tanh series sums."""
import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from deepntk.activations import (_SNAP, _SNAP_EDGE, SERIES_TOLERANCE,
                                 _relu_series, _tanh_maps, make_activation,
                                 phiphi_expectation, phiprime_expectation,
                                 relu_one_minus_f)
from deepntk.asymptotics import depth_law
from deepntk.kernels import dense_layer_arrays
from deepntk.phase import InitParams
from deepntk.regression import _TABLE_C

RELU = make_activation("relu")
TANH = make_activation("tanh")
DENSE_KINDS = ("ffnn", "resnet_dense", "scaled_resnet_dense")

#: deterministic draws, no example database on disk
PROPERTY = settings(deadline=None, derandomize=True, database=None)

gammas = st.one_of(st.floats(1e-14, 1e-4), st.floats(1e-4, 2.0))


@PROPERTY
@given(st.lists(gammas, min_size=1, max_size=50))
def test_scalar_one_minus_f_is_the_array_path(gs):
    array = relu_one_minus_f(np.array(gs))
    for g, a in zip(gs, array):
        assert relu_one_minus_f(g) == a


def _array_iteration(step, gamma0, depth):
    """The gamma recursion on 1-element arrays, through the array path."""
    g = np.array([gamma0])
    for l in range(2, depth + 1):
        g = step(g, l)
    return g[0]


# no shrinking: each example runs 10^4 steps of both paths
@pytest.mark.parametrize("kind", ["relu", "resnet", "scaled"])
@settings(PROPERTY, max_examples=3, phases=[Phase.generate])
@given(gamma0=st.floats(1e-3, 1.0), sigma_w=st.floats(0.5, 2.0))
def test_gamma_iterators_match_array_path(kind, gamma0, sigma_w):
    depth = 10**4
    alpha = sigma_w**2 / 2.0
    if kind == "relu":
        got = depth_law("ffnn", RELU, InitParams(0.0, np.sqrt(2.0))).iterate(gamma0, depth)
        step = lambda g, l: relu_one_minus_f(g)  # noqa: E731
    elif kind == "resnet":
        got = depth_law("resnet_dense", RELU, InitParams(0.0, sigma_w)).iterate(gamma0, depth)
        step = lambda g, l: (g + alpha * relu_one_minus_f(g)) / (1.0 + alpha)  # noqa: E731
    else:
        got = depth_law("scaled_resnet_dense", RELU,
                        InitParams(0.0, sigma_w)).iterate(gamma0, depth)

        def step(g, l):
            al = alpha / l
            return (g + al * relu_one_minus_f(g)) / (1.0 + al)
    assert got == _array_iteration(step, gamma0, depth)


def _first_layer(seed, pairs):
    rng = np.random.default_rng(seed)
    qx, qxp = rng.uniform(0.05, 3.0, (2, pairs))
    c = rng.uniform(-1.0, 1.0, pairs)
    c[0] = 1.0  # one self-pair
    qxp[0] = qx[0]
    return qx, qxp, c * np.sqrt(qx * qxp)


@pytest.mark.parametrize("kind", DENSE_KINDS)
@settings(PROPERTY, max_examples=20)
@given(sigma_b=st.floats(0.0, 1.0), sigma_w=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_every_layer_keeps_cauchy_schwarz(kind, sigma_b, sigma_w, seed):
    tr = dense_layer_arrays(kind, RELU, InitParams(sigma_b, sigma_w),
                            *_first_layer(seed, 8), 60)
    assert np.all(np.abs(tr.vcov) <= np.sqrt(tr.vx * tr.vxp) * (1.0 + 1e-12))


@pytest.mark.parametrize("kind,activation,depth", [
    pytest.param(kind, RELU, 60, id=f"relu-{kind}") for kind in DENSE_KINDS]
    + [pytest.param("ffnn", TANH, 3, id="tanh-ffnn")])
@settings(PROPERTY, max_examples=10)
@given(sigma_b=st.floats(0.0, 1.0), sigma_w=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_swapping_the_variances_keeps_the_kernel(kind, activation, depth,
                                                 sigma_b, sigma_w, seed):
    qx, qxp, qcov = _first_layer(seed, 4)
    p = InitParams(sigma_b, sigma_w)
    a = dense_layer_arrays(kind, activation, p, qx, qxp, qcov, depth)
    b = dense_layer_arrays(kind, activation, p, qxp, qx, qcov, depth)
    assert np.array_equal(a.wK, b.wK)


def _branch_pairs(seed):
    """A self-pair (the +-1 snap), 1 - c on both sides of the ReLU series
    threshold 1e-4, an anti-correlated pair and three random ones."""
    rng = np.random.default_rng(seed)
    qx, qxp = rng.uniform(0.05, 3.0, (2, 7))
    qxp[0] = qx[0]
    c = np.concatenate(([1.0, 1.0 - 5e-5, 1.0 - 2e-4, -1.0 + 1e-6],
                        rng.uniform(-1.0, 1.0, 3)))
    return qx, qxp, c * np.sqrt(qx * qxp)


@pytest.mark.parametrize("kind,activation,depth", [
    pytest.param(kind, RELU, 60, id=f"relu-{kind}") for kind in DENSE_KINDS]
    + [pytest.param("ffnn", TANH, 12, id="tanh-ffnn")])
@settings(PROPERTY, max_examples=10)
@given(sigma_b=st.floats(0.0, 1.0), sigma_w=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_a_pair_alone_is_its_row_in_a_batch(kind, activation, depth,
                                             sigma_b, sigma_w, seed):
    # renormalisation divides by the batch's largest variance, so the
    # property holds where none happens
    first = _branch_pairs(seed)
    p = InitParams(sigma_b, sigma_w)
    batch = dense_layer_arrays(kind, activation, p, *first, depth)
    assume(not np.any(batch.scale_log))
    for i in range(first[0].size):
        alone = dense_layer_arrays(kind, activation, p, *(a[i] for a in first),
                                   depth)
        for name in ("vx", "vxp", "vcov", "wK", "qdot"):
            assert np.array_equal(getattr(alone, name),
                                  getattr(batch, name)[:, i], equal_nan=True)


# ---------------------------------------------------------------------------
# the reference layer loop: the engine as it was before shared variances,
# one stacked (4, P) state with per-pair variances throughout, the ReLU maps
# on temporaries and the snap in five full-width passes
# ---------------------------------------------------------------------------

def _snap(x):
    return math.copysign(1.0, x) if 1.0 - abs(x) < _SNAP else x


def _reference_correlation(qcov, root):
    c = qcov / root
    lo, hi = float(c.min()), float(c.max())
    if 1.0 - hi < _SNAP or 1.0 + lo < _SNAP:
        np.copyto(c, np.sign(c), where=1.0 - np.abs(c) < _SNAP)
        lo, hi = _snap(lo), _snap(hi)
    return c, lo, hi


def _reference_relu(c, lo, hi):
    """(f(c), f'(c)) of ReLU: the closed form, and the series of 1 - f
    above 1 - 1e-4."""
    asin = np.arcsin(c)
    edge = 1.0 - 1e-4
    if lo > edge:
        f = 1.0 - _relu_series(1.0 - c)
    else:
        f = (c * asin + np.sqrt(1.0 - c * c)) / np.pi + c / 2.0
        if hi > edge:
            near = c > edge
            f[near] = 1.0 - _relu_series(1.0 - c[near])
    return f, asin / np.pi + 0.5


def _reference_trace(kind, activation, params, qx0, qxp0, qcov0, depth):
    """Rows vx, vxp, vcov, wK, qdot of every layer, (5, depth, P), and
    scale_log."""
    first = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                  for a in (qx0, qxp0, qcov0)))
    n = first[0].size
    state = np.empty((5, n))
    S, qdot = state[:4], state[4]
    S[:3] = [a.ravel() for a in first]
    S[3] = S[2]
    qdot[:] = np.nan
    B = np.empty_like(S)
    sb2, sw2 = params.sigma_b**2, params.sigma_w**2
    sb2_l = sb2
    skip = 1.0 if "resnet" in kind else 0.0
    hist, scale_log, log_scale = np.empty((5, depth, n)), np.zeros(depth), 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(depth):
            if i:
                w = 1.0 / (i + 1) if kind.startswith("scaled") else 1.0
                root = np.sqrt(S[0] * S[1])
                c, lo, hi = _reference_correlation(S[2], root)
                if activation.kind == "relu":
                    f, f_prime = _reference_relu(c, lo, hi)
                    B[:2] = S[:2] / 2.0
                    B[2] = 0.5 * root * f
                    qdot[:] = 0.5 * f_prime
                else:
                    _tanh_maps(activation, S[:2], c, B[:2], B[2], qdot)
                qdot *= w * sw2
                B[:3] *= sw2
                B[:3] += sb2_l
                if w != 1.0:
                    B[:3] *= w
                B[3] = qdot * S[3] + B[2]
                S *= skip
                S += B
                top = float(S[:2].max())
                if top > 1e150 or 0.0 < top < 1e-150:
                    S /= top
                    log_scale += float(np.log(top))
                    sb2_l = sb2 * np.exp(-log_scale) if sb2 else 0.0
            hist[:, i] = state
            scale_log[i] = log_scale
    return hist, scale_log


#: (sigma_b, sigma_w) per activation; ReLU at sigma_w = 3 and the residual
#: kinds at (0.5, 2) renormalise within 700 layers
_REFERENCE_INITS = {
    "relu": [(0.0, math.sqrt(2.0)), (0.3, 1.2), (1.0, 0.1), (0.0, 3.0),
             (0.5, 2.0), (0.1, 1.0)],
    "tanh": [(0.2, 1.0), (0.2, 1.5), (0.5, 2.5), (0.0, 1.3)],
}

#: correlations at the snap, on both sides of the ReLU series threshold
#: and in between
_correlations = st.one_of(
    st.sampled_from([1.0, -1.0, 1.0 - 5e-13, -1.0 + 5e-13, 1.0 - 5e-5,
                     1.0 - 2e-4, 0.0]),
    st.floats(-1.0, 1.0))


@settings(PROPERTY, max_examples=80)
@given(st.data())
def test_engine_is_the_reference_loop(data):
    activation = data.draw(st.sampled_from(["relu", "tanh"]))
    kind = "ffnn" if activation == "tanh" else data.draw(st.sampled_from(DENSE_KINDS))
    sb, sw = data.draw(st.sampled_from(_REFERENCE_INITS[activation]))
    pairs = data.draw(st.sampled_from([1, 2, 17]))
    variances = data.draw(st.sampled_from(["scalar", "equal arrays", "per pair",
                                           "one side per pair"]))
    depth = data.draw(st.one_of(st.integers(1, 40), st.just(700)))
    c = np.array(data.draw(st.lists(_correlations, min_size=pairs, max_size=pairs)))
    q = st.floats(0.05, 5.0 if activation == "relu" else 3.0)
    if variances == "per pair":
        qx = np.array(data.draw(st.lists(q, min_size=pairs, max_size=pairs)))
        qxp = np.array(data.draw(st.lists(q, min_size=pairs, max_size=pairs)))
    elif variances == "one side per pair":
        qx = data.draw(q)
        qxp = np.array(data.draw(st.lists(q, min_size=pairs, max_size=pairs)))
    else:
        qx, qxp = data.draw(q), data.draw(q)
        if variances == "equal arrays":
            qx, qxp = np.full(pairs, qx), np.full(pairs, qxp)
    qcov = c * np.sqrt(qx * qxp)
    if pairs == 1 and variances == "scalar":
        qcov = float(qcov[0])
    p = InitParams(sb, sw)
    # fresh activations: each side projects its own Tanh variances
    trace = dense_layer_arrays(kind, make_activation(activation), p, qx, qxp,
                               qcov, depth)
    hist, scale_log = _reference_trace(kind, make_activation(activation), p,
                                       qx, qxp, qcov, depth)
    shape = (depth,) + np.shape(qcov)
    for row, name in enumerate(("vx", "vxp", "vcov", "wK", "qdot")):
        got = getattr(trace, name)
        assert got.shape == shape  # shared variances come back full width
        if row < 2:  # as read-only views where they are shared
            assert got.flags.writeable == (np.unique(qx).size + np.unique(qxp).size > 2)
        assert np.array_equal(got, hist[row].reshape(shape), equal_nan=True)
        assert got.tobytes() == hist[row].tobytes()  # signed zeros too
    assert np.array_equal(trace.scale_log, scale_log)


def test_engine_is_the_reference_loop_on_the_gram_table():
    # the batch of the sigma_b = 0 ReLU Gram table as train runs it: the
    # table's correlations and the self pair (c = 1) on shared unit
    # variances.  Beside the snapped self pair the other pairs cross the
    # series threshold one by one (the mixed branch, layers 2-655), and
    # from layer 656 on every pair takes the series
    c = np.append(_TABLE_C, 1.0)
    p = InitParams(0.0, math.sqrt(2.0))
    trace = dense_layer_arrays("ffnn", RELU, p, 1.0, 1.0, c, 1000)
    hist, scale_log = _reference_trace("ffnn", RELU, p, 1.0, 1.0, c, 1000)
    for row, name in enumerate(("vx", "vxp", "vcov", "wK", "qdot")):
        assert getattr(trace, name).tobytes() == hist[row].tobytes()
    assert trace.scale_log.tobytes() == scale_log.tobytes()


@PROPERTY
@given(st.one_of(st.floats(-1.0 - 1e-9, 1.0 + 1e-9),
                 st.integers(-64, 64).map(lambda k: _SNAP_EDGE + k * 2.0**-53),
                 st.integers(-64, 64).map(lambda k: -_SNAP_EDGE + k * 2.0**-53)))
def test_snap_edge_is_the_snap_test(c):
    assert (abs(c) >= _SNAP_EDGE) == (1.0 - abs(c) < _SNAP)


@PROPERTY
@given(q1=st.floats(0.01, 6.0), q2=st.floats(0.01, 6.0), c=st.floats(-1.0, 1.0))
def test_tanh_maps_are_symmetric_in_the_variances(q1, q2, c):
    # certified series and quadrature fallback alike
    for expectation in (phiphi_expectation, phiprime_expectation):
        assert expectation(TANH, q1, q2, c) == expectation(TANH, q2, q1, c)


# up to q = 1 the tanh series is certified at every c; each certified value
# and each diagonal is within SERIES_TOLERANCE (relative) of the exact one,
# which keeps Cauchy-Schwarz exactly, hence the 2 SERIES_TOLERANCE slack
@PROPERTY
@given(q1=st.floats(0.01, 1.0), q2=st.floats(0.01, 1.0), c=st.floats(-1.0, 1.0))
def test_tanh_series_keeps_cauchy_schwarz(q1, q2, c):
    e = phiphi_expectation(TANH, q1, q2, c)
    d1, d2 = (phiphi_expectation(TANH, q, q, 1.0) for q in (q1, q2))
    assert abs(e) <= np.sqrt(d1 * d2) * (1.0 + 2.0 * SERIES_TOLERANCE)


def _in_order_series(table, q1, q2, c):
    """([tanh, tanh'] values, [tanh, tanh'] certificates) of one pair, summed
    one term at a time: sum_{k <= K} a_k(q1) a_k(q2) c^k in order, with
    K = max(K1, K2), and |c|^(K+1) sqrt(R_K(q1) R_K(q2)) against the bound."""
    r1, r2 = table._find([q1, q2])
    K = max(int(table.degree[r1]), int(table.degree[r2]))
    values, certified = [], []
    for j in range(2):
        total, power = 0.0, 1.0
        for k in range(K + 1):
            total += float(table.coef[k, j, r1]) * float(table.coef[k, j, r2]) * power
            power *= c
        tail = abs(power) * math.sqrt(float(table.remainder[r1, j, K])
                                      * float(table.remainder[r2, j, K]))
        bound = SERIES_TOLERANCE * math.sqrt(float(table.second[r1, j])
                                             * float(table.second[r2, j]))
        values.append(total)
        certified.append(tail <= bound)
    return values, certified


@PROPERTY
@given(st.lists(st.tuples(st.floats(0.01, 6.0), st.floats(0.01, 6.0),
                          st.floats(-1.0, 1.0)), min_size=1, max_size=8),
       st.data())
def test_series_pairs_are_the_in_order_sum(pairs, data):
    # lone pairs, batches of mixed degrees in any order, certified or not:
    # every value is the in-order sum, bit for bit
    table = TANH.series
    q1, q2, c = (np.array(v) for v in zip(*pairs))
    order = np.array(data.draw(st.permutations(range(c.size))))
    values, certified = table.pairs(q1, q2, c)
    shuffled = table.pairs(q1[order], q2[order], c[order])
    for i in range(c.size):
        want, want_certified = _in_order_series(table, q1[i], q2[i], c[i])
        alone = table.pairs(q1[i:i + 1], q2[i:i + 1], c[i:i + 1])
        for got, got_certified in ((values[i], certified[i]), alone,
                                   (shuffled[0][order == i][0],
                                    shuffled[1][order == i][0])):
            assert list(np.ravel(got)) == want
            assert list(np.ravel(got_certified)) == want_certified


# ---------------------------------------------------------------------------
# kept layers: a trace that keeps some depths is those rows of the full one
# ---------------------------------------------------------------------------

_TRACE_FIELDS = ("vx", "vxp", "vcov", "wK", "qdot", "scale_log")


def _assert_kept_rows(full, part, keep):
    rows = sorted(set(keep))
    assert part.layers.tolist() == [float(l) for l in rows]
    for name in _TRACE_FIELDS:
        assert np.array_equal(getattr(part, name),
                              getattr(full, name)[np.array(rows) - 1], equal_nan=True)


@pytest.mark.parametrize("kind,activation,depth", [
    pytest.param(kind, RELU, 60, id=f"relu-{kind}") for kind in DENSE_KINDS]
    + [pytest.param("ffnn", TANH, 12, id="tanh-ffnn")])
@pytest.mark.parametrize("shared", [True, False], ids=["m1", "mn"])
@settings(PROPERTY, max_examples=8)
@given(sigma_b=st.floats(0.0, 1.0), sigma_w=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_kept_layers_are_rows_of_the_full_trace(kind, activation, depth, shared,
                                                sigma_b, sigma_w, seed, data):
    keep = data.draw(st.lists(st.integers(1, depth), min_size=1, max_size=6))
    first = _branch_pairs(seed)
    if shared:  # every pair at the correlations of the batch, variance q: m = 1
        q = first[0][0]
        first = (q, q, first[2] / np.sqrt(first[0] * first[1]) * q)
    p = InitParams(sigma_b, sigma_w)
    full = dense_layer_arrays(kind, activation, p, *first, depth)
    _assert_kept_rows(full, dense_layer_arrays(kind, activation, p, *first, depth,
                                               keep=keep), keep)


@pytest.mark.parametrize("shared", [True, False], ids=["m1", "mn"])
def test_kept_layers_past_the_first_renormalisation(shared):
    # resnet_dense at (0.1, 1) first renormalises at layer 852 or 853
    q = (1.0, 1.0) if shared else (np.array([0.5, 1.5]), np.array([1.5, 0.5]))
    args = ("resnet_dense", RELU, InitParams(0.1, 1.0), *q, np.array([0.3, -0.2]), 900)
    full = dense_layer_arrays(*args)
    assert full.scale_log[850] == 0.0 and full.scale_log[-1] > 0.0
    keep = [900, 851, 1, 853, 852, 851, 899]
    _assert_kept_rows(full, dense_layer_arrays(*args, keep=keep), keep)
