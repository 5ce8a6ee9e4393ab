"""Activation models and their Gaussian covariance / correlation maps.

For an activation phi and a bivariate Gaussian field with variances
qx, qxp and correlation c, one propagation layer maps

    q_next = sigma_b^2 + sigma_w^2 E[phi(u1) phi(u2)],

and the correlation function at the variance fixed point q is

    f(c) = (sigma_b^2 + sigma_w^2 E[phi(sqrt(q) Z1)
            phi(sqrt(q) (c Z1 + sqrt(1-c^2) Z2))]) / q.

ReLU admits closed forms (positive homogeneity):

    E[phi phi]   = sqrt(qx qxp)/2 * f_relu(c),
    E[phi' phi'] = 1/2 * f_relu'(c),
    f_relu(c)    = (c asin(c) + sqrt(1-c^2)) / pi + c / 2,
    f_relu'(c)   = asin(c) / pi + 1/2.

Tanh uses the dual-activation (Mehler) series.  With the orthonormal
Hermite functions h_k = He_k / sqrt(k!) and the coefficients
a_k(q) = E[g(sqrt(q) Z) h_k(Z)] of g = tanh or tanh',

    E[g(u1) g(u2)] = sum_k a_k(q1) a_k(q2) c^k,   E[g(u)^2] = sum_k a_k(q)^2.

One 1D projection per distinct variance (``gaussmath.hermite_projection``)
gives a_k for k <= SERIES_DEGREE and the Parseval remainders
R_K(q) = E[g^2] - sum_{k<=K} a_k^2.  The activation model keeps them in a
``TanhSeriesTable``, because deep recursions repeat their variances bit
for bit.  Each variance keeps the
first degree K at which the remainders of both maps are at most
SERIES_TOLERANCE E[g^2] (else SERIES_DEGREE).  A pair sums to the larger K
of its two variances.  By Cauchy-Schwarz the omitted tail is at most
|c|^{K+1} sqrt(R_K(q1) R_K(q2)).  A pair whose bound exceeds
SERIES_TOLERANCE sqrt(E[g(u1)^2] E[g(u2)^2]) (large variances, |c| near
1) goes to ``expect2_pairs`` instead, on the same order-PROJECTION_ORDER
rule: every Tanh expectation of the package, ``phase``'s moments included,
uses that one rule.  The diagonal E[tanh(u)^2] of every variance is the
rule's second moment, which the projection computes with the
coefficients, certified or not.

A layer looks its variances up once, for the pair sums and the diagonal
together (``TanhSeriesTable.layer``).  Variances all equal, or a single
pair, take the products a_k(q1) a_k(q2), tail factors and bounds of one
row pair, which every pair shares; the table keeps the last such lookup,
and variances bit for bit its own, as at a fixed point of the recursion,
reuse it with no lookup.  The sums are k-major: the table stores its
coefficients with k outermost, the powers c^k fill a (K + 1, n) array
(``np.multiply.accumulate`` along k), the products a (K + 1, 2, n or 1)
array, and ``np.add.reduce`` sums along k, the outer axis.  numpy sums an
outer axis in order but a contiguous one pairwise, and only the in-order
sum gives every pair the bits it has alone in any batch, where the powers
of a pair of lower degree are zero past its K and add exact zeros.

``CorrelationMap`` takes f(c) = (sigma_b^2 + sigma_w^2 E[tanh tanh]) / q
from the pair (q, q, c) of ``phiphi_expectation``, so every Tanh pair
value, f included, is the certified series, else ``expect2_pairs``.  It
projects the tanh row of q once, the table's row bit for bit.  As
f(c) = (sigma_b^2 + sigma_w^2 sum_k a_k(q)^2 c^k) / q, its
derivatives at 1 are weighted sums over the whole row (k <= SERIES_DEGREE),

    f^(j)(1) = (sigma_w^2 / q) sum_k k (k-1) ... (k-j+1) a_k(q)^2,

which by Price's theorem equal sigma_w^2 q^(j-1) E[tanh^(j)(sqrt(q) Z)^2].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gaussmath import (
    CORRELATION_SLACK,
    PROJECTION_ORDER,
    SERIES_DEGREE,
    clamp_correlation,
    expect1,
    expect2_pairs,
    gauss_hermite,
    hermite_projection,
)

S_RELU = 2.0 * math.sqrt(2.0) / (3.0 * math.pi)   # (1-c)^{3/2} Taylor coefficient
B_RELU = math.sqrt(2.0) / (30.0 * math.pi)        # (1-c)^{5/2} Taylor coefficient

#: Below this 1-c, arcsin/sqrt cancellation dominates; use the series.
_RELU_SERIES_THRESHOLD = 1e-4

#: A Tanh series value is used where its tail bound is at most this times
#: sqrt(E[g(u1)^2] E[g(u2)^2]).  The computed Parseval remainders have a
#: rounding floor near 1e-15 E[g^2] (the order-256 basis is orthonormal to
#: about 3e-15), two decades below.
SERIES_TOLERANCE = 1e-13

#: rows of a TanhSeriesTable, one per variance (about 4 KB each)
_SERIES_TABLE_ROWS = 256


def relu(u):
    return np.maximum(u, 0.0)


def relu_prime(u):
    # derivative at 0 defined as 0
    return (u > 0).astype(np.float64)


def tanh_prime(u):
    t = np.tanh(u)
    return 1.0 - t * t


@dataclass(frozen=True)
class ActivationModel:
    """An activation and the state behind its expectation maps.

    ReLU has closed forms only; Tanh keeps the series of the variances it
    met in ``series``.
    """

    kind: str
    series: TanhSeriesTable = field(default_factory=lambda: TanhSeriesTable(),
                                    compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.kind!r}")

    @property
    def phi(self):
        return relu if self.kind == "relu" else np.tanh

    @property
    def phi_prime(self):
        return relu_prime if self.kind == "relu" else tanh_prime


def make_activation(kind: str) -> ActivationModel:
    return ActivationModel(kind=kind)


def _relu_series(g, sqrt=np.sqrt):
    """1 - f(1-g) = g - s g^{3/2} - b g^{5/2} + O(g^{7/2}), for small g,
    summed as g - g sqrt(g) (s + b g).  With ``math.sqrt`` on a Python float
    and ``np.sqrt`` on an array these are the same IEEE operations (one
    correctly rounded square root), so both give the same bits."""
    return g - g * sqrt(g) * (S_RELU + B_RELU * g)


def _relu_deficit(g):
    """1 - f(1-g) = g/2 + (arccos(c) + g asin(c) - sqrt(1-c^2)) / pi, c = 1-g."""
    c = 1.0 - g
    return g / 2.0 + (
        np.arccos(c) + g * np.arcsin(c) - np.sqrt(g * (2.0 - g))
    ) / np.pi


#: the ReLU map's constants as 0-d arrays, which ufuncs read faster than
#: floats (to the same values), and its ufuncs as globals, read faster too
_ONE, _TWO, _HALF, _PI, _S, _B = (np.array(v) for v in (
    1.0, 2.0, 0.5, np.pi, S_RELU, B_RELU))
_mul, _add, _sub, _div = np.multiply, np.add, np.subtract, np.divide


def _relu_maps(c, lo, hi, f, f_prime, t, u):
    """(f(c), f'(c)) on the correlations c in [-1, 1], from one arcsin,
    written into the arrays f and f_prime, with t and u scratch arrays of
    c's shape; lo and hi are c's least and largest entries, or any values
    on the same sides of the series threshold.

    f takes the series of 1 - f above 1 - _RELU_SERIES_THRESHOLD, where
    the closed form loses its increment over c to cancellation.  Each form
    runs only on the correlations that take it, so a batch gives every
    correlation the bits of a lone call.  At c = 1 exactly both forms give
    f = 1, so a batch whose correlations above the threshold are all 1
    (the self pairs of a Gram) skips the series.  Every operation writes
    into the given arrays, so a layer allocates nothing but the series
    rows of a mixed batch.
    """
    asin = np.arcsin(c, f_prime)
    edge = 1.0 - _RELU_SERIES_THRESHOLD
    if lo > edge:  # f = 1 - (g - g sqrt(g) (s + b g)), g = 1 - c
        _sub(_ONE, c, t)
        np.sqrt(t, u)
        _mul(t, u, u)
        _mul(_B, t, f)
        _add(_S, f, f)
        _mul(u, f, u)
        _sub(t, u, u)
        _sub(_ONE, u, f)
    else:  # f = (c asin(c) + sqrt(1 - c c)) / pi + c / 2
        _mul(c, asin, t)
        _mul(c, c, u)
        _sub(_ONE, u, u)  # |c| <= 1: 1 - c c >= 0 without a clamp
        np.sqrt(u, u)
        _add(t, u, t)
        _div(t, _PI, t)
        _div(c, _TWO, u)
        _add(t, u, f)
        if hi > edge:
            near = np.flatnonzero(c > edge)
            g = 1.0 - c[near]
            if g.any():
                f[near] = 1.0 - _relu_series(g)
    _div(asin, _PI, asin)
    _add(asin, _HALF, asin)
    return f, f_prime


def relu_one_minus_f(gamma):
    """1 - f_relu(1 - gamma), accurate for small gamma.

    Direct evaluation of f near c = 1 loses the tiny f(c) - c increment to
    cancellation between arccos(c) and sqrt(1-c^2) (both ~ sqrt(2 gamma)).
    Below the series threshold uses
        1 - f(1-gamma) = gamma - s gamma^{3/2} - b gamma^{5/2} + O(g^{7/2});
    above it, the bracketed exact form
        1 - f(c) = gamma/2 + (arccos(c) + gamma asin(c) - sqrt(1-c^2)) / pi.
    """
    if isinstance(gamma, float):
        # Scalar path of the gamma iterators, which must give the array
        # path's values bit for bit.  The series is +, * and one correctly
        # rounded square root, the same IEEE result in Python floats as in
        # the array loops, so it runs on floats (0.2 us a step against
        # 2.5 us for numpy calls on one np.float64).  The exact form stays
        # on numpy ufuncs over np.float64: numpy's vectorised arccos and
        # arcsin differ from libm's math.acos and math.asin in the last
        # ulp (on 8 % and 3 % of gamma in [1e-4, 2] with numpy 2.4).
        if 0.0 <= gamma < _RELU_SERIES_THRESHOLD:
            return _relu_series(float(gamma), math.sqrt)
        return float(_relu_deficit(np.float64(gamma)))
    gamma = np.asarray(gamma, dtype=np.float64)
    out = np.empty_like(gamma)
    small = gamma < _RELU_SERIES_THRESHOLD
    out[small] = _relu_series(gamma[small])
    out[~small] = _relu_deficit(gamma[~small])
    return out if out.ndim else float(out)


def relu_f(c):
    """ReLU correlation map f(c) = (c asin c + sqrt(1-c^2))/pi + c/2."""
    c = np.asarray(clamp_correlation(c))
    out = _relu_maps(c, c.min(), c.max(), *(np.empty_like(c) for _ in range(4)))[0]
    return float(out) if out.ndim == 0 else out


def _series_sum(products, tail, bound, k, c):
    """The Tanh series of n pairs at the correlations c, and their
    certificates, both (2, n): row 0 tanh, row 1 tanh'.

    ``products`` is (width, 2, m), the products a_k(q1) a_k(q2) for
    k < width, with m = 1 (one row pair serves every pair, of degree
    K = width - 1; ``k`` None) or m = n (``k`` the pairs' degrees K, and
    the products are overwritten); ``tail`` and ``bound`` are (2, m).  The
    powers c^k fill a (width + 1, n) array, zero past each pair's K once
    c^(K+1) is read for the certificate.

    k is the outer axis and the map axis comes after it, so even a lone
    pair leaves k outer, and numpy sums it in order: each value has the
    bits of the in-order sum over k <= K (a contiguous k axis would be
    summed pairwise, to other bits).  The zero powers of a pair past its
    K add exact zeros, so a pair keeps in a batch the bits it has alone.
    """
    width = products.shape[0]
    powers = np.empty((width + 1, c.size))
    powers[0] = 1.0
    powers[1:] = c
    np.multiply.accumulate(powers, axis=0, out=powers)
    if k is None:
        edge = powers[width]
        terms = products * powers[:width, None]
    else:
        edge = powers[k + 1, np.arange(c.size)]
        np.copyto(powers[:width], 0.0, where=np.arange(width)[:, None] > k)
        terms = np.multiply(products, powers[:width, None], out=products)
    return np.add.reduce(terms, axis=0), np.abs(edge) * tail <= bound


class _SeriesLayer(NamedTuple):
    """The series data of one lookup of n pairs (q1, q2)."""

    #: (products, tail, bound, k) of :func:`_series_sum`, which overwrites
    #: the products of many row pairs: those are summed once
    terms: tuple
    #: E[tanh^2] of q1 (row 0) and q2 (row 1), the rule's second moments,
    #: (2, n), or (2, 1) where one row pair serves every pair
    diagonal: np.ndarray


class TanhSeriesTable:
    """Tanh series data of the variances seen last, one row per variance.

    Row r holds the coefficients ``coef[:, 0, r]`` (tanh) and
    ``coef[:, 1, r]`` (tanh'), stored k-major so that a lookup gathers its
    pairs' products in the layout the sums read, the Parseval remainders
    ``remainder[r]`` (clipped at 0), the second moments ``second[r]``
    (``second[r, 0]`` is the tanh diagonal E[tanh^2]) and the degree K.
    Unseen variances are projected in one batch; when the table is full it
    starts over.  Every :class:`ActivationModel` owns one, which only Tanh
    fills.

    :meth:`layer` looks up a layer's pairs once for their sums and their
    diagonal, and keeps the last lookup that one row pair serves: its
    products a_k(q1) a_k(q2) of tanh and tanh' up to K = max(K1, K2), tail
    factors sqrt(R_K(q1) R_K(q2)) and bounds SERIES_TOLERANCE
    sqrt(E[g(u1)^2] E[g(u2)^2]), copies that stay valid when the table
    starts over.  Lookups of many row pairs keep nothing: their products
    are (K + 1, 2, n).
    """

    def __init__(self):
        self.index: dict[float, int] = {}
        self._key: bytes | None = None
        self._last: _SeriesLayer | None = None
        self._allocate(0)

    def _allocate(self, capacity: int) -> None:
        self.coef = np.empty((SERIES_DEGREE + 1, 2, capacity))
        self.remainder = np.empty((capacity, 2, SERIES_DEGREE + 1))
        self.second = np.empty((capacity, 2))
        self.degree = np.empty(capacity, dtype=np.intp)

    def _find(self, keys: list[float]) -> list[int]:
        """The row of each variance in ``keys``, adding the missing ones.
        May replace the table's arrays: read them after the lookup."""
        missing = {v for v in keys if v not in self.index}
        if len(self.index) + len(missing) > self.degree.size:
            self.index.clear()  # start over, with every variance of keys
            missing = set(keys)
            if len(missing) > self.degree.size:
                self._allocate(max(len(missing), _SERIES_TABLE_ROWS))
        if missing:
            self._add(sorted(missing))
        return [self.index[v] for v in keys]

    def _add(self, missing: list[float]) -> None:
        m = len(missing)
        new = slice(len(self.index), len(self.index) + m)
        q = np.array(missing)
        a, s = hermite_projection(np.tanh, q)
        b, t = hermite_projection(tanh_prime, q)
        coef = np.stack((a, b), axis=1)
        self.coef[:, :, new] = coef.transpose(2, 1, 0)
        second = self.second[new]
        second[:, 0], second[:, 1] = s, t
        remainder = self.remainder[new]
        np.maximum(second[:, :, None] - np.cumsum(coef * coef, axis=2), 0.0,
                   out=remainder)
        certified = (remainder <= SERIES_TOLERANCE * second[:, :, None]).all(axis=1)
        degree = np.where(certified.any(axis=1), certified.argmax(axis=1),
                          SERIES_DEGREE)
        self.degree[new] = degree
        self.index.update(zip(missing, range(new.start, new.stop)))

    def _terms(self, r1: np.ndarray, r2: np.ndarray) -> tuple:
        """(products, tail, bound, K) of the m row pairs (r1[i], r2[i]):
        products (1 + max K, 2, m), k-major, the rest (2, m) and K (m,)."""
        k = np.maximum(self.degree[r1], self.degree[r2])
        coef = self.coef[:int(k.max()) + 1]
        products = np.take(coef, r1, axis=2)
        products *= np.take(coef, r2, axis=2)
        tail = np.sqrt(self.remainder[r1, :, k] * self.remainder[r2, :, k])
        bound = SERIES_TOLERANCE * np.sqrt(self.second[r1] * self.second[r2])
        return products, tail.T, bound.T, k

    def layer(self, q: np.ndarray) -> _SeriesLayer:
        """The series data of the n pairs (q[:n], q[n:]), for a 1D array q
        of 2n variances: one lookup serves a layer's pair sums and its
        diagonal.

        Two fast paths: a single variance, or a single pair, takes the
        products of its one row pair, which every pair shares, and the
        table keeps that lookup; variances bit for bit its own (a fixed
        point of the recursion) take it again with no lookup at all.  Other
        lookups gather their pairs' products once, k-major, and are not
        kept.
        """
        key = q.tobytes()
        if key == self._key:
            return self._last
        n = q.size // 2
        if n == 1 or np.minimum.reduce(q) == np.maximum.reduce(q):
            rows = self._find([float(q[0]), float(q[n])])
            terms = self._terms(np.array(rows[:1]), np.array(rows[1:]))[:3] + (None,)
            self._last = _SeriesLayer(terms, self.second[rows, :1])
            self._key = key
            return self._last
        values, inverse = np.unique(q, return_inverse=True)
        rows = np.array(self._find(values.tolist()), dtype=np.intp)[inverse]
        return _SeriesLayer(self._terms(rows[:n], rows[n:]),
                            self.second[rows, 0].reshape(2, n))

    def pairs(self, q1: np.ndarray, q2: np.ndarray, c: np.ndarray):
        """Series values of (E[tanh tanh], E[tanh' tanh']) for 1D arrays of
        n pairs, shape (n, 2), and a same-shaped mask of the certified ones."""
        values, certified = _series_sum(
            *self.layer(np.concatenate((q1, q2))).terms, c)
        return values.T, certified.T


def _tanh_maps(activation: ActivationModel, V, c, diag, phiphi, prime,
               scale: float = 1.0) -> None:
    """The Tanh expectations of n pairs at the correlations c, from one
    table lookup of the variances V (2, m), the rows qx and qxp, m = n or
    m = 1 (shared by every pair): E[tanh^2] of each variance into ``diag``
    (2, m), E[tanh tanh] into ``phiphi`` and ``scale`` E[tanh' tanh'] into
    ``prime``: the diagonals are the table's second moments, the pairs the
    certified series, else ``expect2_pairs`` on the order-PROJECTION_ORDER
    rule."""
    layer = activation.series.layer(V.reshape(-1))
    values, certified = _series_sum(*layer.terms, c)
    if not np.logical_and.reduce(certified, axis=None):
        qx, qxp = np.broadcast_to(V, (2, c.size))
        for j, g in enumerate((np.tanh, tanh_prime)):
            m = ~certified[j]
            if m.any():
                values[j, m] = expect2_pairs(g, qx[m], qxp[m], c[m],
                                             gauss_hermite(PROJECTION_ORDER))
    phiphi[...] = values[0]
    np.multiply(values[1], scale, out=prime)
    diag[...] = layer.diagonal


@dataclass(frozen=True)
class CorrelationMap:
    """Tanh correlation function f at a variance fixed point q.

    Satisfies f(1) = 1 when q solves q = sigma_b^2 + sigma_w^2 E[tanh(sqrt(q)Z)^2].
    f(c) is the engine's pair value E[tanh tanh] at (q, q, c), through
    :func:`phiphi_expectation`; the tanh row of q, a_k^2 for
    k <= SERIES_DEGREE, which the table holds bit for bit, serves
    :meth:`deficit` and :meth:`derivative_at_one`.  ReLU has the closed
    forms :func:`relu_f` and :func:`relu_one_minus_f`; :meth:`deficit` is
    the Tanh counterpart of the latter.
    """

    activation: ActivationModel
    q: float
    sigma_b: float
    sigma_w: float

    def __post_init__(self):
        if self.activation.kind != "tanh":
            raise ValueError("CorrelationMap is the Tanh map; ReLU has relu_f")
        if self.q <= 0:
            raise ValueError("fixed-point variance must be positive")
        if self.sigma_w <= 0:
            raise ValueError("sigma_w must be positive")
        a = hermite_projection(np.tanh, [self.q])[0][0]
        for name, value in (("_squares", a * a),
                            ("_weights", self.sigma_w**2 * a[1:] ** 2 / self.q),
                            ("_orders", np.arange(1.0, a.size))):
            object.__setattr__(self, name, value)

    def __call__(self, c: float) -> float:
        """f(c) = (sigma_b^2 + sigma_w^2 E[tanh tanh]) / q at (q, q, c)."""
        e = float(phiphi_expectation(self.activation, self.q, self.q, c))
        return (self.sigma_b**2 + self.sigma_w**2 * e) / self.q

    def deficit(self, gamma: float) -> float:
        """D(gamma) = sum_k b_k (1 - (1 - gamma)^k), b_k = sigma_w^2 a_k^2 / q,
        over the whole row: 1 - f(1 - gamma) with f(1) = 1 by construction.
        Summed as -expm1(k log1p(-gamma)) for gamma < 1: D(0) = 0 exactly."""
        if gamma < 1.0:
            powers = -np.expm1(self._orders * np.log1p(-gamma))
        else:
            powers = 1.0 - (1.0 - gamma) ** self._orders
        return float(self._weights @ powers)

    def derivative_at_one(self, j: int) -> float:
        """f^(j)(1) = (sigma_w^2 / q) sum_k k (k-1) ... (k-j+1) a_k^2 over the
        whole row, for j >= 1.

        Against 40-digit references the relative error of j = 2 and 3 is
        6e-14 and 4e-13 at q = 0.5, 4e-9 and 1.2e-7 at q = 1.3; it grows
        with q, as the tail of the row past SERIES_DEGREE does.
        """
        if j < 1:
            raise ValueError(f"derivative order must be at least 1, got {j}")
        k = np.arange(self._squares.size, dtype=np.float64)
        weights = np.ones_like(k)
        for i in range(j):
            weights *= k - i
        return float(self.sigma_w**2 * (weights @ self._squares) / self.q)


def _reject_root(root) -> None:
    """Raise where sqrt(qx qxp), an array or a float, is zero or not
    finite (variances that underflowed, overflowed or are NaN)."""
    root = np.asarray(root)
    if not (root.min() > 0.0 and root.max() < np.inf):
        raise ValueError("correlation not finite: the variances must be "
                         f"positive and finite, got sqrt(qx qxp) = {root!r}")


#: correlations within this of +-1 are snapped to exactly +-1
_SNAP = 1e-12


def _snap_edge() -> float:
    """The least double c with 1 - c < _SNAP.  1 - c rounds monotonically,
    so for any c the snap test 1 - |c| < _SNAP is |c| >= this edge."""
    edge = 1.0 - _SNAP
    while 1.0 - edge < _SNAP:
        edge = math.nextafter(edge, 0.0)
    while not 1.0 - edge < _SNAP:
        edge = math.nextafter(edge, 2.0)
    return edge


_SNAP_EDGE = _snap_edge()


def _correlation(qcov, root, out):
    """(c, lo, hi): c = qcov / root, written into ``out``, checked and
    snapped as :func:`layer_correlation` says, with its least and largest
    entries before the snap.

    The two extremes are the only reductions: they decide the range check,
    whether any entry needs the snap (which is monotone, so it maps the
    extremes to the extremes) and, for ReLU, the branch of the map, which
    reads them unsnapped: the snap moves no value across the series
    threshold.  A zero or NaN root makes c infinite or NaN and fails the
    range check, whose failure path names the root first.  A root of inf
    next to a finite qcov gives c = 0 and passes; callers rule it out
    (call under ``np.errstate(divide="ignore", invalid="ignore")``).
    """
    c = np.divide(qcov, root, out)
    # the ufuncs' own reductions skip ndarray.min's Python frame
    lo = float(np.minimum.reduce(c, axis=None))
    hi = float(np.maximum.reduce(c, axis=None))
    if not (-1.0 - CORRELATION_SLACK <= lo and hi <= 1.0 + CORRELATION_SLACK):
        _reject_root(root)
        raise ValueError(f"correlation not finite or out of range [-1,1]: {c!r}")
    # the snap of each side, in place, only where that extreme needs it
    if hi >= _SNAP_EDGE:
        np.copyto(c, 1.0, where=c >= _SNAP_EDGE)
    if lo <= -_SNAP_EDGE:
        np.copyto(c, -1.0, where=c <= -_SNAP_EDGE)
    return c, lo, hi


def layer_correlation(qcov, root):
    """Correlation qcov / root with rounding guards, root = sqrt(qx qxp).

    Rejects correlations that are not finite or lie more than
    CORRELATION_SLACK outside [-1, 1]; clamps the rest to [-1, 1] and snaps
    values within _SNAP (1e-12) of +-1 to exactly +-1: the kernel
    multiplier f'(c) has square-root sensitivity at |c| = 1, so last-ulp
    noise in the variances would otherwise contaminate self-pairs.
    Genuinely distinct pairs sit far from the snap zone (the dataset
    colinearity gate keeps |cos| below 1 - 1e-9).  A root that is zero or
    not finite (variances underflowed, overflowed or NaN) is rejected
    before the division.
    """
    root = np.asarray(root)
    _reject_root(root)
    out = np.empty(np.broadcast_shapes(np.shape(qcov), root.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _correlation(qcov, root, out)[0]


def layer_maps(activation: ActivationModel, V, root, diag, phiphi, prime):
    """The expectations of one layer, bound to the caller's buffers: the
    one implementation that the kernel engine and every pair function
    below run.

    V holds the variances qx and qxp of n pairs as rows, (2, n), and
    ``root`` holds sqrt(qx qxp), (n,).  The returned ``maps(c, lo, hi,
    scale)`` takes the checked correlations of the pairs and their
    extremes (:func:`_correlation`) and writes E[phi(u)^2] of each
    variance to ``diag`` (2, n), E[phi(u1) phi(u2)] to ``phiphi`` (n,) and
    ``scale`` E[phi'(u1) phi'(u2)] to ``prime`` (n,): ReLU in place from
    :func:`_relu_maps`, Tanh from its certified series (see the module
    docstring).  :func:`shared_layer_maps` is the same for variances that
    every pair shares.
    """
    if activation.kind == "relu":
        t, u = np.empty_like(root), np.empty_like(root)

        def maps(c, lo, hi, scale):
            _div(V, _TWO, diag)
            _relu_maps(c, lo, hi, phiphi, prime, t, u)
            _mul(_HALF, root, t)
            _mul(t, phiphi, phiphi)
            _mul(prime, 0.5 * scale, prime)
    else:
        def maps(c, lo, hi, scale):
            _tanh_maps(activation, V, c, diag, phiphi, prime, scale)
    return maps


def shared_layer_maps(activation: ActivationModel, phiphi, prime):
    """:func:`layer_maps` for n pairs that share their two variances,
    given as Python floats: ``maps(x, y, root, qcov, scale)`` takes the
    variances x and y, root = sqrt(x y) and the pairs' covariances
    ``qcov``, checks and snaps their correlations qcov / root with
    :func:`_correlation`, writes E[phi(u1) phi(u2)] to ``phiphi`` and
    ``scale`` E[phi' phi'] to ``prime``, and returns (E[phi(u)^2] of x, of
    y).  ``qcov`` is read before anything is written, so ``phiphi`` may be
    ``qcov`` itself.  Float arithmetic is IEEE arithmetic, so every value
    has the bits of :func:`layer_maps` on (2, 1) variances."""
    c = np.empty_like(phiphi)
    if activation.kind == "relu":
        t, u = np.empty_like(c), np.empty_like(c)
        # the layer's two scalars as 0-d arrays, as _relu_maps's constants
        r, h = np.array(0.0), np.array(0.0)

        def maps(x, y, root, qcov, scale):
            _relu_maps(*_correlation(qcov, root, c), phiphi, prime, t, u)
            r[()] = 0.5 * root
            _mul(phiphi, r, phiphi)
            h[()] = 0.5 * scale
            _mul(prime, h, prime)
            return x / 2.0, y / 2.0
    else:
        V, diag = np.empty(2), np.empty(2)
        V2, diag2 = V.reshape(2, 1), diag.reshape(2, 1)

        def maps(x, y, root, qcov, scale):
            V[0], V[1] = x, y
            _tanh_maps(activation, V2, _correlation(qcov, root, c)[0], diag2,
                       phiphi, prime, scale)
            return diag.tolist()
    return maps


def _pair_expectations(activation: ActivationModel, qx, qxp, c):
    """(E[phi(u1) phi(u2)], E[phi'(u1) phi'(u2)]) of the broadcast pairs at
    the correlations c, from :func:`layer_maps` on buffers of their own."""
    qx, qxp, c = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                       for a in (qx, qxp, clamp_correlation(c))))
    V = np.stack((qx.ravel(), qxp.ravel()))
    root = np.sqrt(V[0] * V[1])
    diag, E = np.empty_like(V), np.empty((2, root.size))
    c = c.ravel()
    layer_maps(activation, V, root, diag, *E)(c, c.min(), c.max(), 1.0)
    return E[0].reshape(qx.shape)[()], E[1].reshape(qx.shape)[()]


def phiphi_expectation(activation: ActivationModel, qx, qxp, c) -> np.ndarray:
    """E[phi(u1) phi(u2)] for variances qx, qxp and correlation c (vectorized)."""
    return _pair_expectations(activation, qx, qxp, c)[0]


def phiprime_expectation(activation: ActivationModel, qx, qxp, c) -> np.ndarray:
    """E[phi'(u1) phi'(u2)] for variances qx, qxp and correlation c."""
    return _pair_expectations(activation, qx, qxp, c)[1]


def _tanh_squared(u):
    return np.tanh(u) ** 2


def tanh_moment(q: float, prime: bool = False) -> float:
    """E[tanh(sqrt(q) Z)^2], or E[tanh'(sqrt(q) Z)^2] if ``prime``, on the
    order-PROJECTION_ORDER rule of the series projection."""
    square = (lambda u: tanh_prime(u) ** 2) if prime else _tanh_squared
    return expect1(square, q, gauss_hermite(PROJECTION_ORDER))

