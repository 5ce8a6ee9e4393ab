"""Gaussian quadrature and bivariate Gaussian expectations.

All kernel maps in this package reduce to one- and two-dimensional
expectations over standard normals,

    E[g(sqrt(q) Z)],                    Z ~ N(0,1),
    E[g(u1) g(u2)],                     (u1, u2) jointly Gaussian,

with u1 = sqrt(q1) Z1 and u2 = sqrt(q2) (c Z1 + sqrt(1-c^2) Z2), so that
Var(u1)=q1, Var(u2)=q2 and Corr(u1,u2)=c.  Hermite rules integrate against
the standard normal density; Jacobi rules integrate against
(1-t^2)^alpha on [-1,1] and are used by the spherical-spectrum code.

The dual-activation (Mehler) series of the Tanh maps needs the Hermite
coefficients a_k(q) = E[g(sqrt(q) Z) h_k(Z)] in the orthonormal basis
h_k = He_k / sqrt(k!); :func:`hermite_projection` computes them, for k up
to SERIES_DEGREE, with one fixed rule of order PROJECTION_ORDER.

Rules are built in numpy by the Golub-Welsch method (Golub & Welsch 1969,
Math. Comp. 23): eigenvalues of the recurrence's Jacobi matrix, then one
Newton step.  Everything here is plain 64-bit floating point; rules are
immutable, built once per order and safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NumericError

#: Order of the rule behind :func:`hermite_projection`, and the one rule of
#: every Tanh expectation (see ``activations`` and ``phase``).
PROJECTION_ORDER = 256

#: Highest Hermite order: its smallest weight is 4.8e-300; at order 370 the
#: outer weights leave the normal range and from 371 they underflow to 0.
MAX_HERMITE_ORDER = 360

#: Highest Jacobi order: the rules solve a dense n x n eigenproblem,
#: O(n^3) time (0.7 s at 2048) and O(n^2) memory.
MAX_JACOBI_ORDER = 2048

#: Highest degree k of the projection, half the rule's order.  An n-point
#: rule makes h_0..h_{n-1} discretely orthonormal, so the discrete
#: remainder sum_{k>K} a_k^2 vanishes at K = n - 1 whatever g is; below
#: n/2 the aliasing onto a_k comes from degrees past 3n/2 only.
SERIES_DEGREE = PROJECTION_ORDER // 2

#: grid points per block of :func:`expect2_pairs` (256 KB per temporary)
_BLOCK_POINTS = 2**15

#: Correlations within this distance above 1 in absolute value are clamped.
CORRELATION_SLACK = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule.

    ``kind`` is "hermite" (weight = standard normal density, nodes on the
    real line) or "jacobi" (weight = (1-t^2)^alpha_exponent on [-1, 1]).
    Nodes are strictly increasing and weights strictly positive.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    alpha_exponent: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1D of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")

    @property
    def order(self) -> int:
        return self.nodes.size


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for expectations under N(0, 1), built once per order.

    Weights sum to 1 (to rounding), so sum(w_i f(z_i)) ~= E[f(Z)] for
    Z ~ N(0,1).
    """
    return _hermite_rule(order)[0]


@cache
def _hermite_rule(order: int) -> tuple[QuadratureRule, np.ndarray]:
    """The order-n Hermite rule and the rows h_0..h_{n-1} at its nodes.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix J of
    the orthonormal recurrence (off-diagonals sqrt(k)).  J has a zero
    diagonal, so J^2 splits into an even and an odd block and the positive
    nodes are the square roots of the eigenvalues of the half-size block
    of indices i = n % 2, n % 2 + 2, ..., n - 2 (diagonal 2i + 1,
    off-diagonal sqrt((i+1)(i+2))), which leaves out the zero node of odd n.
    One Newton step on h_n (h_n' = sqrt(n) h_{n-1}) polishes the nodes and
    the Christoffel weights 1 / sum_{k<n} h_k(z_i)^2 make h_0..h_{n-1}
    discretely orthonormal; every step keeps the rule exactly symmetric.
    """
    if not 2 <= order <= MAX_HERMITE_ORDER:
        raise ValueError(f"order must be in [2, {MAX_HERMITE_ORDER}], got {order}")
    n = order
    i = np.arange(n % 2, n - 1, 2.0)
    block = np.diag(2.0 * i + 1.0)
    block += np.diag(np.sqrt((i[:-1] + 1.0) * (i[:-1] + 2.0)), -1)
    x = np.sqrt(np.linalg.eigvalsh(block))
    z = np.concatenate([-x[::-1], np.zeros(n % 2), x])
    h = _orthonormal_hermite(z, n)
    z = z - h[n] / (math.sqrt(n) * h[n - 1])
    rows = _orthonormal_hermite(z, n - 1)
    rows.setflags(write=False)
    rule = QuadratureRule(z, 1.0 / np.einsum("ki,ki->i", rows, rows), "hermite")
    return rule, rows


@cache
def gauss_jacobi(order: int, alpha_exponent: float) -> QuadratureRule:
    """Gauss-Jacobi rule on [-1, 1] with weight (1-t^2)^alpha_exponent > -1/2.

    Golub-Welsch on the Gegenbauer recurrence, lambda = alpha + 1/2: the
    nodes are the eigenvalues of the Jacobi matrix (zero diagonal,
    off-diagonals b_k), one Newton step polishes them, the weights
    1 / (p_{n-1} p_n') are log-normalised, the rule is symmetrised and the
    weights are rescaled to the total weight mu_0.  At alpha = 0 each step
    is, operation for operation, scipy's ``roots_legendre``, so even orders
    give its nodes and weights bit for bit.
    """
    if not 2 <= order <= MAX_JACOBI_ORDER:
        raise ValueError(f"order must be in [2, {MAX_JACOBI_ORDER}], got {order}")
    if alpha_exponent <= -0.5:  # C_k^lambda vanishes at lambda = 0 (Chebyshev)
        raise ValueError("alpha_exponent must exceed -1/2")
    n, lam = order, alpha_exponent + 0.5
    k = np.arange(1.0, n)
    b = k * np.sqrt((k + 2 * lam - 1) / (k * 4 * (k + lam) * (k + lam - 1)))
    x = np.linalg.eigvalsh(np.diag(b, -1))
    p, p_prev = _gegenbauer_pair(n, lam, x)
    dp = (-n * x * p + (n + 2 * lam - 1) * p_prev) / (1 - x ** 2)
    x -= p / dp
    fm = _gegenbauer_pair(n - 1, lam, x)[0]
    # fm and dp span many decades: scale each by the geometric mean of its
    # extremes before the product
    log_fm = np.log(np.abs(fm))
    log_dp = np.log(np.abs(dp))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dp /= np.exp((log_dp.max() + log_dp.min()) / 2.)
    w = 1.0 / (fm * dp)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    a = alpha_exponent  # mu_0 = 2^{2a+1} Gamma(a+1)^2 / Gamma(2a+2), 2 at a = 0
    w *= math.exp((2 * a + 1) * math.log(2.0) + 2 * math.lgamma(a + 1)
                  - math.lgamma(2 * a + 2)) / w.sum()
    return QuadratureRule(nodes=x, weights=w, kind="jacobi",
                          alpha_exponent=alpha_exponent)


def _gegenbauer_pair(n: int, lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p_n(x), p_{n-1}(x)) with p_k proportional to C_k^lam, p_1 = 2 lam x.

    Runs the difference form d_k = p_k - p_{k-1} of the recurrence, which
    at lam = 1/2 is cephes' Legendre loop step for step:
    d_{k+1} = (2(k+lam)/(k+1)) (x-1) p_k + ((k+2lam-1)/(k+1)) d_k.
    """
    p_prev = np.ones_like(x)
    p = 2 * lam * x
    d = p - 1
    x_minus_1 = x - 1
    for k in range(1, n):
        step = (2 * (k + lam) / (k + 1)) * x_minus_1
        step *= p
        d *= (k + 2 * lam - 1) / (k + 1)
        d += step
        p_prev, p = p, p + d
    return p, p_prev


def clamp_correlation(c):
    """Clamp correlations to [-1, 1], rejecting violations beyond
    CORRELATION_SLACK.

    Long kernel recursions accumulate floating-point drift that can push a
    correlation marginally past 1; anything worse than CORRELATION_SLACK,
    and any NaN, is a caller bug and raises.
    """
    c_arr = np.asarray(c, dtype=np.float64)
    if not np.all(np.abs(c_arr) <= 1.0 + CORRELATION_SLACK):
        raise ValueError(f"correlation not finite or out of range [-1,1]: {c!r}")
    clipped = np.clip(c_arr, -1.0, 1.0)
    return float(clipped) if np.isscalar(c) or c_arr.ndim == 0 else clipped


def expect1(g, q: float, rule: QuadratureRule) -> float:
    """Quadrature estimate of E[g(sqrt(q) Z)] with Z ~ N(0,1)."""
    if q < 0:
        raise ValueError(f"variance must be nonnegative, got {q}")
    if rule.kind != "hermite":
        raise ValueError("expect1 requires a hermite rule")
    vals = g(np.sqrt(q) * rule.nodes)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand evaluated to a non-finite value")
    return float(rule.weights @ vals)


def expect2(g, q1: float, q2: float, c: float, rule: QuadratureRule) -> float:
    """Tensor-product estimate of E[g(u1) g(u2)].

    (u1, u2) is the bivariate Gaussian with variances q1, q2 and
    correlation c, realized as u1 = sqrt(q1) z1,
    u2 = sqrt(q2) (c z1 + sqrt(1-c^2) z2).
    """
    if q1 < 0 or q2 < 0:
        raise ValueError("variances must be nonnegative")
    if rule.kind != "hermite":
        raise ValueError("expect2 requires a hermite rule")
    c = clamp_correlation(c)
    if q2 > q1:  # canonical order makes the estimate exactly symmetric
        q1, q2 = q2, q1
    z = rule.nodes
    w = rule.weights
    u1 = np.sqrt(q1) * z
    u2 = np.sqrt(q2) * (c * z[:, None] + np.sqrt(1.0 - c * c) * z[None, :])
    vals = g(u1)[:, None] * g(u2)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand evaluated to a non-finite value")
    return float(w @ vals @ w)


def expect2_pairs(g, q1, q2, c, rule: QuadratureRule) -> np.ndarray:
    """Vectorized :func:`expect2` over arrays of (q1, q2, c) triples.

    Returns an array of the same shape as the broadcast inputs.  Used by the
    kernel recursions, which propagate many input pairs per layer.  The grid
    is laid out as (pair, i, j) and evaluated in blocks of
    max(1, _BLOCK_POINTS // order^2) pairs (one pair of 65,536 points at
    order 256), so temporaries stay bounded at any number of pairs.  Each
    block is reduced in ``einsum``'s own loops, not BLAS, whose results
    depend on the number of rows: a pair gets the same bits whatever the
    other pairs of its call.
    """
    if rule.kind != "hermite":
        raise ValueError("expect2_pairs requires a hermite rule")
    q1, q2, c = np.broadcast_arrays(
        np.asarray(q1, dtype=np.float64),
        np.asarray(q2, dtype=np.float64),
        np.asarray(c, dtype=np.float64),
    )
    if np.any(q1 < 0) or np.any(q2 < 0):
        raise ValueError("variances must be nonnegative")
    c = clamp_correlation(c)
    q1, q2 = np.maximum(q1, q2), np.minimum(q1, q2)  # canonical order
    shape = q1.shape
    cf = np.atleast_1d(c).ravel()
    s1, s2, sc = np.sqrt(q1.ravel()), np.sqrt(q2.ravel()), np.sqrt(1.0 - cf * cf)
    z = rule.nodes
    w = rule.weights
    out = np.empty(cf.size)
    block = max(1, _BLOCK_POINTS // z.size**2)
    for start in range(0, cf.size, block):
        b = slice(start, start + block)
        u1 = s1[b, None] * z                                        # (B, i)
        mix = cf[b, None, None] * z[:, None] + sc[b, None, None] * z  # (B, i, j)
        vals = g(u1)[:, :, None] * g(s2[b, None, None] * mix)
        if not np.all(np.isfinite(vals)):
            raise NumericError("integrand evaluated to a non-finite value")
        out[b] = np.einsum("bi,i->b", np.einsum("bij,j->bi", vals, w), w)
    return out.reshape(shape)


def _orthonormal_hermite(z: np.ndarray, degree: int) -> np.ndarray:
    """Rows h_k(z) = He_k(z) / sqrt(k!), k = 0..degree, at the points z.

    Uses the three-term recurrence
    h_{k+1} = (z h_k - sqrt(k) h_{k-1}) / sqrt(k+1), which stays in range
    where He_k itself overflows.
    """
    root = np.sqrt(np.arange(degree + 1.0)).tolist()
    h = np.empty((degree + 1, z.size))
    h[0] = 1.0
    h[1] = z
    for k in range(1, degree):
        row = np.multiply(z, h[k], out=h[k + 1])
        row -= root[k] * h[k - 1]
        row /= root[k + 1]
    return h


@cache
def _projection_basis() -> tuple[QuadratureRule, np.ndarray]:
    """The projection rule and its weighted basis w_i h_k(z_i), built on first use.

    The rule makes h_0..h_{n-1} orthonormal to 3e-15, and the moments at
    q <= 0.5 come within 5e-16 of 30-digit values."""
    rule, rows = _hermite_rule(PROJECTION_ORDER)
    basis = np.ascontiguousarray((rows[:SERIES_DEGREE + 1] * rule.weights).T)
    basis.setflags(write=False)
    return rule, basis


def hermite_projection(g, q) -> tuple[np.ndarray, np.ndarray]:
    """Hermite coefficients and second moments of g(sqrt(q) Z), per variance.

    For a 1D array q of V variances returns ``(a, s)``: a has shape
    (V, SERIES_DEGREE + 1) with a[v, k] = E[g(sqrt(q_v) Z) h_k(Z)], and
    s[v] = E[g(sqrt(q_v) Z)^2], both from the order-PROJECTION_ORDER rule.
    Then E[g(u1) g(u2)] = sum_k a_k(q1) a_k(q2) c^k (Mehler) and
    s - sum_{k<=K} a_k^2 is the Parseval remainder of the first K + 1 terms.
    The sums run in ``einsum``'s own loops, not BLAS, whose results depend
    on the number of rows: a variance gets the same bits in any batch.
    """
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0):
        raise ValueError("variances must be nonnegative")
    rule, basis = _projection_basis()
    vals = g(np.sqrt(q)[:, None] * rule.nodes)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand evaluated to a non-finite value")
    return (np.einsum("vn,nk->vk", vals, basis),
            np.einsum("vn,n->v", vals * vals, rule.weights))
