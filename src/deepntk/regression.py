"""Closed-form kernel-regime training dynamics and prediction.

With a quadratic loss, the infinite-width training dynamics of the network
outputs on the training set X are linear in the Gram matrix KH = K^L(X, X).
From the initial outputs f_0 = 0 (the mean of the infinite-width prior),

    f_t(X) = (I - e^{-t KH / N}) Z,

and for a general input x,

    f_t(x) = K^L(x, X) KH^{-1} (I - e^{-t KH / N}) Z.

Everything is computed through the symmetric eigendecomposition of KH;
no explicit inverse is formed.  Eigenvalues below 1e-12 of the largest are
treated as exactly zero (minimum-norm / pseudo-inverse behaviour, reported
via ``TrainingState.rank_deficient``).  The smallest eigenvalue controls the
convergence speed of f_t, and its collapse with depth is the mechanism by
which kernel-regime training fails for deep networks.

Both the Gram and the prediction rows come from ``pair_kernel``.  For the
dense ReLU kinds at sigma_b = 0 (the EOC point (0, sqrt 2) among them) and
depth above 1, the kernel is positively homogeneous,
K^L(x, x') = sqrt(q_x q_x') K^L_1(c^0), one function of the first-layer
correlation c^0 whatever the input norms (entries whose K^L_1 leaves the
normal range come from its log).  Up to depth 1000 one recursion on
shared unit variances tabulates K^L_1 in theta = arccos(c^0): 9 panels
from arccos(1 - 1e-4) to pi, each twice as wide as the one before up to
theta = 1.81 and two equal ones past it, with 20 Chebyshev points each.
Every pair with 1 - c^0 >= 1e-4 takes its panel's barycentric
interpolant.  The same run checks the interpolant at the panel edges and
runs the pairs nearer c^0 = 1 (the self pairs among them), whose values
it keeps.  A check point more than 1e-10 of its panel's largest value
off the interpolant drops the table, and deeper Grams take none: then the
recursion runs on every pair's c^0, as it does for the pairs near 1.
``TrainingState.tables`` keeps the table of each spec, so ``predict``
interpolates its rows and runs the recursion only for pairs near
c^0 = 1.  Tanh, sigma_b > 0 and depth 1 run on the first-layer triple of
each pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .activations import ActivationModel
from .errors import DivergenceError, InvalidDatasetError
from .kernels import (Architecture, dense_layer_arrays, first_layer_cov,
                      first_layer_root)
from .phase import InitParams

_PINV_RTOL = 1e-12
_COLINEARITY_TOL = 1e-9  # rows with |cos angle| >= 1 - this are colinear
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


@dataclass(frozen=True)
class Dataset:
    """Inputs X (N, d) and targets Z (N, o); rows pairwise non-colinear."""

    X: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Z = np.asarray(self.Z, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        if X.ndim != 2 or Z.ndim != 2 or X.shape[0] != Z.shape[0]:
            raise InvalidDatasetError("X must be (N,d) and Z (N,o) with equal N")
        validate_no_colinearity(X)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def validate_no_colinearity(X: np.ndarray) -> None:
    """Reject duplicate or colinear input rows."""
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0):
        raise InvalidDatasetError("zero input row")
    G = (X / norms[:, None]) @ (X / norms[:, None]).T
    np.fill_diagonal(G, 0.0)
    bad = np.argwhere(np.abs(G) >= 1.0 - _COLINEARITY_TOL)
    if bad.size:
        i, j = bad[0]
        raise InvalidDatasetError(f"rows {i} and {j} are colinear")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel used for the Gram matrix: architecture, activation, init, depth."""

    architecture: Architecture
    activation: ActivationModel
    params: InitParams
    depth: int


@dataclass
class TrainingState:
    """Eigendecomposition of the Gram matrix plus the f_t evaluator state."""

    gram: np.ndarray
    eigenvalues: np.ndarray   # nonincreasing
    eigenvectors: np.ndarray  # columns match eigenvalues
    min_eig: float
    max_eig: float
    rank_deficient: bool
    #: the graded kernel table of each homogeneous spec (see
    #: ``pair_kernel``), None where its check failed; filled on first use
    tables: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.gram.shape[0]


def _last_layer(spec: KernelSpec, qx, qxp, qcov):
    return dense_layer_arrays(spec.architecture.kind, spec.activation,
                              spec.params, qx, qxp, qcov, spec.depth,
                              keep=[spec.depth])


#: pairs with 1 - c^0 below this run the recursion, where its rounding
#: in c (relative 1e-16 / (1 - c) in the gap) is largest; the table starts
#: there, so its layer 2 takes the closed-form ReLU map throughout
_TABLE_GAP = 1e-4
#: a check point past this, relative to its panel's largest value, drops
#: the table
_TABLE_TOL = 1e-10
#: deeper Grams run the recursion on every pair.  The engine's own
#: rounding grows like L^2 (about 2e-11 of K at L = 1000 on the critical
#: line), and the table, which interpolates node values that carry it,
#: cannot follow a per-pair run closer than that noise: at 1085 layers of
#: sigma_w = 1 it is 1.5e-11 from a 40-digit recursion and the per-pair
#: run 2.0e-11, but the two are 2.4e-11 apart
_TABLE_DEPTH = 1000


def _graded_panels():
    """The table's panel edges in theta, (10,), and, (9, 20) each, the
    cosines its recursion runs, the node abscissae and their barycentric
    weights.  Each abscissa is the arccos of the cosine the recursion
    runs, as a pair's theta is of its c^0."""
    graded = np.arccos(1.0 - _TABLE_GAP) * 2.0 ** np.arange(8.0)
    edges = np.concatenate((graded, np.linspace(graded[-1], np.pi, 3)[1:]))
    lo, hi = edges[:-1, None], edges[1:, None]
    n = 20
    t = -np.cos((np.arange(n) + 0.5) * np.pi / n)  # first kind, ascending
    cosines = np.cos((lo + hi) / 2 + (hi - lo) / 2 * t)
    nodes = np.arccos(cosines)
    gaps = (nodes[:, :, None] - nodes[:, None, :]) / (hi - lo)[:, :, None]
    gaps[:, np.arange(n), np.arange(n)] = 1.0
    return edges, cosines, nodes, 1.0 / np.prod(gaps, axis=2)


_EDGES, _NODE_C, _NODES, _WEIGHTS = _graded_panels()
#: the cosines the table's recursion runs: the nodes, then the edges
_TABLE_C = np.concatenate((_NODE_C.ravel(), np.cos(_EDGES)))


class _Table(NamedTuple):
    """K^L_1 of one homogeneous spec at the nodes: the renormalised
    last-layer kernel, (9, 20), and the scale_log of its run."""

    values: np.ndarray
    scale_log: float

    def __call__(self, theta: np.ndarray, panel: np.ndarray) -> np.ndarray:
        """The barycentric interpolant at the angles theta, each on its
        panel, summed node by node (memory linear in the pairs)."""
        num, den = np.zeros_like(theta), np.zeros_like(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(_NODES.shape[1]):
                r = _WEIGHTS[panel, j] / (theta - _NODES[panel, j])
                num += r * self.values[panel, j]
                den += r
            out = num / den
        hit = np.flatnonzero(np.isnan(out))  # theta on a node: inf / inf
        if hit.size:
            j = np.argmin(np.abs(theta[hit, None] - _NODES[panel[hit]]), axis=1)
            out[hit] = self.values[panel[hit], j]
        return out


def _unit_run(spec: KernelSpec, c) -> tuple[np.ndarray, float]:
    """The renormalised last-layer kernel of the recursion on shared unit
    variances at the correlations c, and its scale_log."""
    trace = _last_layer(spec, 1.0, 1.0, c)
    return trace.wK[-1], float(trace.scale_log[-1])


def _checked_table(wK: np.ndarray, scale_log: float) -> _Table | None:
    """The table from a run of _TABLE_C, or None where the interpolant
    misses a panel edge by more than _TABLE_TOL of the panel's largest
    value (each edge is checked on both of its panels)."""
    table = _Table(wK[:_NODES.size].reshape(_NODES.shape), scale_log)
    panel = np.repeat(np.arange(_NODES.shape[0]), 2)
    edge = panel + np.tile([0, 1], _NODES.shape[0])
    want = wK[_NODES.size:][edge]
    got = table(np.arccos(_TABLE_C[_NODES.size:])[edge], panel)
    scale = np.max(np.abs(table.values), axis=1)[panel]
    return table if np.all(np.abs(got - want) <= _TABLE_TOL * scale) else None


def _scaled(wK: np.ndarray, scale_log: float, root: np.ndarray) -> np.ndarray:
    """sqrt(q_x q_x') K^L_1 from the renormalised wK of K^L_1; entries
    whose K^L_1 = wK exp(scale_log) leaves the normal range come from
    sign exp(log |wK| + scale_log + log sqrt(q_x q_x'))."""
    with np.errstate(over="ignore"):
        unit = wK * np.exp(scale_log)
    size = np.abs(unit)
    lost = ~((size >= _TINY) & (size <= _HUGE))
    if not np.any(lost):
        return unit * root
    with np.errstate(over="ignore", divide="ignore"):
        logged = np.sign(wK) * np.exp(np.log(np.abs(wK)) + scale_log + np.log(root))
    return np.where(lost, logged, unit * root)


def pair_kernel(spec: KernelSpec, sq_x, sq_xp, inner, d: int,
                tables: dict | None = None) -> np.ndarray:
    """K^L of input pairs (x, x') in R^d from the squared norms |x|^2,
    |x'|^2 and the inner products x . x' (arrays of one shape).

    Where the kernel is positively homogeneous, K^L(x, x') =
    sqrt(q_x q_x') K^L_1(c^0), with K^L_1 the kernel at unit first-layer
    variances and c^0 = q_cov / sqrt(q_x q_x'): dense ReLU kinds at
    sigma_b = 0, depth above 1.  There the pairs take the graded table of
    K^L_1 (see the module docstring), which ``tables`` keeps by spec;
    pairs with 1 - c^0 < 1e-4, and every pair where there is no table,
    run the recursion on shared unit variances at c^0, the engine's own
    layer-2 division, so self pairs keep c = 1 exactly.  Elsewhere the
    recursion runs on the first-layer triple itself.
    """
    p = spec.params
    qx, qxp, qcov = (first_layer_cov(p, a, d) for a in (sq_x, sq_xp, inner))
    if spec.activation.kind != "relu" or p.sigma_b != 0.0 or spec.depth < 2:
        return _last_layer(spec, qx, qxp, qcov).ntk[-1]
    root = first_layer_root(qx, qxp)
    c0 = qcov / root
    tables = {} if tables is None else tables
    if spec.depth > _TABLE_DEPTH or (spec in tables and tables[spec] is None):
        return _scaled(*_unit_run(spec, c0), root)
    # NaN is direct too, and the run refuses it
    direct = ~((c0 >= -1.0) & (1.0 - c0 >= _TABLE_GAP))
    near, inverse = np.unique(c0[direct], return_inverse=True)
    if spec in tables:
        table = tables[spec]
        wK_near = _unit_run(spec, near)[0] if near.size else near
    else:
        wK, scale_log = _unit_run(spec, np.concatenate((_TABLE_C, near)))
        table = tables[spec] = _checked_table(wK, scale_log)
        if table is None:
            return _scaled(*_unit_run(spec, c0), root)
        wK_near = wK[_TABLE_C.size:]
    wK = np.empty_like(c0)
    wK[direct] = wK_near[inverse]
    theta = np.arccos(c0[~direct])
    wK[~direct] = table(theta, np.searchsorted(_EDGES[1:-1], theta))
    return _scaled(wK, table.scale_log, root)


def build_gram(dataset: Dataset, spec: KernelSpec) -> TrainingState:
    """Assemble K^L(X, X) and its symmetric eigendecomposition.

    The infinite-width kernel is diagonal in the output channels, so the
    oN x oN block system reduces to one N x N matrix applied per channel.
    """
    X = dataset.X
    n, d = X.shape
    sq = np.sum(X * X, axis=1)
    iu, ju = np.triu_indices(n)
    tables = {}
    vals = pair_kernel(spec, sq[iu], sq[ju], (X[iu] * X[ju]).sum(axis=1), d,
                       tables)
    if not np.all(np.isfinite(vals)):
        # the kernel, renormalised with the variances, can still pass float
        # max (a chaotic diagonal grows like chi^L); the engine keeps it inf
        overflow = np.any(np.isinf(vals))
        raise DivergenceError(
            f"Gram matrix has non-finite entries at depth {spec.depth}"
            + (": K^L passed the float maximum" if overflow else ""))
    gram = np.empty((n, n))
    gram[iu, ju] = vals
    gram[ju, iu] = vals
    # a kernel decaying like (sigma_w^2/2)^L goes subnormal on the diagonal
    # first, and eigh of entries near float max can overflow
    if np.min(gram.diagonal()) < _TINY:
        raise DivergenceError("Gram matrix has a diagonal entry below the smallest "
                              f"normal float at depth {spec.depth}")
    eigvals, eigvecs = np.linalg.eigh(gram)
    if not np.all(np.isfinite(eigvals)):
        raise DivergenceError(f"Gram matrix has non-finite eigenvalues at depth {spec.depth}")
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    max_eig = float(eigvals[0])
    min_eig = float(eigvals[-1])
    return TrainingState(
        gram=gram, eigenvalues=eigvals, eigenvectors=eigvecs,
        min_eig=min_eig, max_eig=max_eig,
        rank_deficient=bool(min_eig <= _PINV_RTOL * max_eig), tables=tables,
    )


def _decay_factors(state: TrainingState, t: float) -> np.ndarray:
    """e^{-t lambda / N} per eigenvalue; zeroed modes do not move.  The one
    check of the training time t, which every function of t runs."""
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    lam = state.eigenvalues
    zero = lam <= _PINV_RTOL * state.max_eig
    if np.isinf(t):
        return np.where(zero, 1.0, 0.0)
    # -t lam overflows to -inf once lam nears DBL_MAX / t; exp(-inf) = 0
    with np.errstate(over="ignore"):
        return np.where(zero, 1.0, np.exp(-t * lam / state.n))


def evolve(state: TrainingState, Z: np.ndarray, t: float) -> np.ndarray:
    """Training-set outputs f_t(X); t may be inf for the t -> oo limit."""
    Z = np.asarray(Z, dtype=np.float64)
    U = state.eigenvectors
    decay = _decay_factors(state, t)
    return Z - U @ (decay[:, None] * (U.T @ Z))


def _response_factors(state: TrainingState, t: float) -> np.ndarray:
    """(1 - e^{-t lambda / N}) / lambda per mode; zeroed modes contribute 0."""
    lam = state.eigenvalues
    zero = lam <= _PINV_RTOL * state.max_eig
    decay = _decay_factors(state, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(zero, 0.0, (1.0 - decay) / lam)
    return h


def _mode_coeffs(state: TrainingState, Z: np.ndarray, t: float) -> np.ndarray:
    """h U^T Z, h = (1 - e^{-t lambda / N}) / lambda per mode: the
    coefficients of f_t in the eigenbasis of KH."""
    h = _response_factors(state, t)
    Z = np.asarray(Z, dtype=np.float64)
    return h[:, None] * (state.eigenvectors.T @ Z)


def predict(state: TrainingState, dataset: Dataset, spec: KernelSpec,
            x_new: np.ndarray, t: float) -> np.ndarray:
    """f_t at new inputs via the closed-form generalization formula.

    ``x_new`` is one input (d,) or a batch (m, d); the result is (o,) or
    (m, o).  The kernel rows K^L(x_new, X) come from one recursion over
    the m*n cross pairs, run in chunks of (n+1)//2 rows so that a chunk
    never holds more pairs than the Gram's n(n+1)/2.  A rank-deficient Gram gives the minimum-norm
    solution.  The product is (K U)(h U^T Z); K a, with a from
    :func:`rkhs_residual_coeffs`, is the same sum in another order and
    differs in the last bits.
    """
    coeffs = _mode_coeffs(state, dataset.Z, t)
    x_new = np.asarray(x_new, dtype=np.float64)
    X_new = np.atleast_2d(x_new)
    X = dataset.X
    n, d = X.shape
    sq = np.sum(X * X, axis=1)
    sq_new = np.sum(X_new * X_new, axis=1)
    rows = (n + 1) // 2
    K = np.empty((len(X_new), n))
    for start in range(0, len(X_new), rows):
        chunk = slice(start, start + rows)
        part = X_new[chunk]
        K[chunk] = pair_kernel(spec, np.repeat(sq_new[chunk], n),
                               np.tile(sq, len(part)), (part @ X.T).ravel(),
                               d, state.tables).reshape(-1, n)
    out = (K @ state.eigenvectors) @ coeffs
    return out[0] if x_new.ndim == 1 else out


def rkhs_residual_coeffs(state: TrainingState, Z: np.ndarray, t: float) -> np.ndarray:
    """Coefficients a with f_t(x) = sum_i a_i K^L(x_i, x).

    a = KH^{-1} (I - e^{-t KH / N}) Z, through the
    eigendecomposition with the pseudo-inverse convention.
    """
    return state.eigenvectors @ _mode_coeffs(state, Z, t)


def one_hot(labels: np.ndarray) -> np.ndarray:
    """Targets as one-hot rows; classes are the sorted unique labels."""
    labels = np.asarray(labels)
    # return_inverse also keeps np.unique off its numpy.ma check (14 ms to load)
    classes, inverse = np.unique(labels, return_inverse=True)
    Z = np.zeros((labels.size, classes.size))
    Z[np.arange(labels.size), inverse] = 1.0
    return Z


def accuracy(predictions: np.ndarray, targets_onehot: np.ndarray) -> float:
    """Argmax classification accuracy."""
    return float(np.mean(
        np.argmax(predictions, axis=1) == np.argmax(targets_onehot, axis=1)
    ))
