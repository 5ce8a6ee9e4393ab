"""Closed-form kernel-regime training dynamics and prediction.

With a quadratic loss, the infinite-width training dynamics of the network
outputs on the training set X are linear in the Gram matrix KH = K^L(X, X):

    f_t(X) = e^{-t KH / N} f_0(X) + (I - e^{-t KH / N}) Z,

and for a general input x,

    f_t(x) = f_0(x) + K^L(x, X) KH^{-1} (I - e^{-t KH / N}) (Z - f_0(X)).

Everything is computed through the symmetric eigendecomposition of KH;
no explicit inverse is formed.  Eigenvalues below 1e-12 of the largest are
treated as exactly zero (minimum-norm / pseudo-inverse behaviour, reported
via ``TrainingState.rank_deficient``).  The smallest eigenvalue controls the
convergence speed of f_t, and its collapse with depth is the mechanism by
which kernel-regime training fails for deep networks.

Both the Gram and the prediction rows come from ``pair_kernel``.  For the
dense ReLU kinds at sigma_b = 0 (the EOC point (0, sqrt 2) among them) and
depth above 1, the kernel is positively homogeneous,
K^L(x, x') = sqrt(q_x q_x') K^L_1(c^0), so the recursion runs once on
shared unit variances for the whole batch, whatever the input norms
(entries whose K^L_1 leaves the normal range come from its log);
Tanh, sigma_b > 0 and depth 1 run on the first-layer triple of each pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ActivationModel, _reject_root
from .errors import DivergenceError, InvalidDatasetError
from .kernels import Architecture, dense_layer_arrays, first_layer_cov
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
    f0_train: np.ndarray
    min_eig: float
    max_eig: float
    rank_deficient: bool

    @property
    def n(self) -> int:
        return self.gram.shape[0]


def _last_layer(spec: KernelSpec, qx, qxp, qcov):
    return dense_layer_arrays(spec.architecture.kind, spec.activation,
                              spec.params, qx, qxp, qcov, spec.depth,
                              last_only=True)


def pair_kernel(spec: KernelSpec, sq_x, sq_xp, inner, d: int) -> np.ndarray:
    """K^L of input pairs (x, x') in R^d from the squared norms |x|^2,
    |x'|^2 and the inner products x . x' (arrays of one shape).

    Where the kernel is positively homogeneous, K^L(x, x') =
    sqrt(q_x q_x') K^L_1(c^0), with K^L_1 the kernel at unit first-layer
    variances and c^0 = q_cov / sqrt(q_x q_x'): dense ReLU kinds at
    sigma_b = 0, depth above 1.  There the engine runs on the shared unit
    variances (one pair of floats for the whole batch) and c^0, which is
    the engine's own layer-2 division, so self pairs keep c = 1 exactly;
    elsewhere it runs on the first-layer triple itself.

    K^L_1 can overflow to inf (or fall below the normal range) where
    sqrt(q_x q_x') K^L_1 does not; those entries are taken from the
    trace's log fields, sign exp(log |K^L_1| + log sqrt(q_x q_x')).
    """
    p = spec.params
    qx, qxp, qcov = (first_layer_cov(p, a, d) for a in (sq_x, sq_xp, inner))
    if spec.activation.kind != "relu" or p.sigma_b != 0.0 or spec.depth < 2:
        return _last_layer(spec, qx, qxp, qcov).ntk[-1]
    root = np.sqrt(qx * qxp)
    _reject_root(root)
    trace = _last_layer(spec, 1.0, 1.0, qcov / root)
    unit = trace.ntk[-1]
    size = np.abs(unit)
    lost = ~((size >= _TINY) & (size <= _HUGE))
    if not np.any(lost):
        return unit * root
    with np.errstate(over="ignore"):
        logged = trace.ntk_sign[-1] * np.exp(trace.ntk_log[-1] + np.log(root))
    return np.where(lost, logged, unit * root)


def build_gram(dataset: Dataset, spec: KernelSpec,
               f0_train: np.ndarray | None = None) -> TrainingState:
    """Assemble K^L(X, X) and its symmetric eigendecomposition.

    The infinite-width kernel is diagonal in the output channels, so the
    oN x oN block system reduces to one N x N matrix applied per channel.
    """
    X = dataset.X
    n, d = X.shape
    sq = np.sum(X * X, axis=1)
    iu, ju = np.triu_indices(n)
    vals = pair_kernel(spec, sq[iu], sq[ju], (X[iu] * X[ju]).sum(axis=1), d)
    if not np.all(np.isfinite(vals)):
        raise DivergenceError(
            f"Gram matrix has non-finite entries at depth {spec.depth}")
    gram = np.zeros((n, n))
    gram[iu, ju] = vals
    gram = gram + gram.T - np.diag(np.diag(gram))
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    f0 = np.zeros_like(dataset.Z) if f0_train is None else np.asarray(f0_train, dtype=np.float64)
    if f0.shape != dataset.Z.shape:
        raise ValueError("f0_train must match the target shape")
    max_eig = float(eigvals[0])
    min_eig = float(eigvals[-1])
    return TrainingState(
        gram=gram, eigenvalues=eigvals, eigenvectors=eigvecs, f0_train=f0,
        min_eig=min_eig, max_eig=max_eig,
        rank_deficient=bool(min_eig <= _PINV_RTOL * max_eig),
    )


def _decay_factors(state: TrainingState, t: float, n: int) -> np.ndarray:
    """e^{-t lambda / N} per eigenvalue; zeroed modes do not move."""
    lam = state.eigenvalues
    zero = lam <= _PINV_RTOL * state.max_eig
    if np.isinf(t):
        return np.where(zero, 1.0, 0.0)
    # -t lam overflows to -inf once lam nears DBL_MAX / t; exp(-inf) = 0
    with np.errstate(over="ignore"):
        return np.where(zero, 1.0, np.exp(-t * lam / n))


def evolve(state: TrainingState, Z: np.ndarray, t: float) -> np.ndarray:
    """Training-set outputs f_t(X); t may be inf for the t -> oo limit."""
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    Z = np.asarray(Z, dtype=np.float64)
    U = state.eigenvectors
    decay = _decay_factors(state, t, state.n)
    A = U.T @ (state.f0_train - Z)
    return Z + U @ (decay[:, None] * A)


def _response_factors(state: TrainingState, t: float) -> np.ndarray:
    """(1 - e^{-t lambda / N}) / lambda per mode; zeroed modes contribute 0."""
    lam = state.eigenvalues
    zero = lam <= _PINV_RTOL * state.max_eig
    decay = _decay_factors(state, t, state.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(zero, 0.0, (1.0 - decay) / lam)
    return h


def _mode_coeffs(state: TrainingState, Z: np.ndarray, t: float) -> np.ndarray:
    """h U^T (Z - f_0(X)), h = (1 - e^{-t lambda / N}) / lambda per mode: the
    coefficients of f_t - f_0 in the eigenbasis of KH."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    Z = np.asarray(Z, dtype=np.float64)
    h = _response_factors(state, t)
    return h[:, None] * (state.eigenvectors.T @ (Z - state.f0_train))


def predict(state: TrainingState, dataset: Dataset, spec: KernelSpec,
            x_new: np.ndarray, t: float, f0_new: np.ndarray | None = None) -> np.ndarray:
    """f_t at new inputs via the closed-form generalization formula.

    ``x_new`` is one input (d,) or a batch (m, d); the result is (o,) or
    (m, o), and ``f0_new`` has the same shape.  The kernel rows
    K^L(x_new, X) come from one recursion over the m*n cross pairs, run in
    chunks of (n+1)//2 rows so that a chunk never holds more pairs than the
    Gram's n(n+1)/2.  A rank-deficient Gram gives the minimum-norm
    solution.  The product is (K U)(h U^T (Z - f_0)); K a, with a from
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
                               d).reshape(-1, n)
    out = (K @ state.eigenvectors) @ coeffs
    if f0_new is not None:
        out = out + np.asarray(f0_new, dtype=np.float64)
    return out[0] if x_new.ndim == 1 else out


def rkhs_residual_coeffs(state: TrainingState, Z: np.ndarray, t: float) -> np.ndarray:
    """Coefficients a with f_t(x) - f_0(x) = sum_i a_i K^L(x_i, x).

    a = KH^{-1} (I - e^{-t KH / N}) (Z - f_0(X)), through the
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
