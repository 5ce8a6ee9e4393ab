"""Variance fixed points, phase classification, and the critical curve.

An initialization (sigma_b, sigma_w) is classified by

    chi = sigma_w^2 E[phi'(sqrt(q) Z)^2],

where q = q(sigma_b, sigma_w) is the limiting layer variance.  chi < 1 is
the ordered phase (correlations collapse to 1 exponentially), chi > 1 the
chaotic phase, and chi = 1 the critical boundary where correlations decay
polynomially and gradients neither vanish nor explode.

ReLU has closed forms: q = sigma_b^2 / (1 - sigma_w^2/2) for sigma_w <
sqrt(2), chi = sigma_w^2 / 2, and the critical set is the single point
(0, sqrt(2)) with input-dependent variance q^1(x) = sigma_w^2 ||x||^2 / d,
which the kernel recursions thread through explicitly instead of a global
fixed point.

Tanh reads m(q) = E[tanh(sqrt(q) Z)^2] and p(q) = E[tanh'(sqrt(q) Z)^2]
from the order-256 projection rule (``activations.tanh_moment``), and each
solve is one bracketed root in q: the fixed point solves
q = sigma_b^2 + sigma_w^2 m(q), and on the critical curve chi = 1,
sigma_w^2 = 1 / p(q) and sigma_b^2 = q - m(q) / p(q)
(Schoenholz et al. 2017; Hayou, Doucet & Rousseau 2019).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import ActivationModel, tanh_moment
from .errors import DivergenceError, NoSolutionError

#: |chi - 1| tolerance separating the critical set from the two phases.
PHASE_TOL = 1e-8

#: largest critical sigma_w that eoc_curve returns
_MAX_CRITICAL_SIGMA_W = 10.0

_SQRT2 = np.sqrt(2.0)

#: Taylor coefficients of q - m(q)/p(q) at q = 0, of q^3 to q^8, from the
#: Taylor series of tanh^2 and tanh'^2 and the Gaussian moments
#: E[Z^(2k)] = (2k-1)!!.  The series is asymptotic; cut after q^8 it is
#: within 6e-13 (relative) of the function for q <= 1.3e-3.
_EOC_SERIES = (4.0 / 3.0, -8.0, 748.0 / 15.0, -1048.0 / 3.0, 862088.0 / 315.0,
               -118288.0 / 5.0)

#: up to this sigma_b (q* = 1.2e-3) the critical curve solves the series:
#: q - m(q)/p(q) = 4 q^3 / 3 + ... is computed from m/p = q (1 + O(q^2)),
#: whose rounding, about 1e-16 q, costs q* about 3e-17 / q*^2 of its value
#: (31 % at sigma_b = 1e-12, q* = 9.1e-9).  Against 60-digit mpmath the
#: series gives sigma_w to 2.5e-16 at 5e-5, the direct solve to 3.6e-15
#: there and 4.3e-16 at 1e-4.
_SERIES_SIGMA_B = 5e-5


def _root(h, a: float, b: float, h_a: float, h_b: float) -> float:
    """Root of h between a and b, where h(a) and h(b) have opposite signs.

    The Illinois variant of regula falsi: a secant step inside the bracket,
    halving h at the end that the step leaves in place.  Stops when h
    vanishes or the bracket is a few ulp wide.
    """
    for _ in range(100):
        x = b - h_b * ((b - a) / (h_b - h_a))
        h_x = h(x)
        if (h_x > 0.0) != (h_b > 0.0):
            a, h_a = b, h_b
        else:
            h_a /= 2.0
        b, h_b = x, h_x
        if h_x == 0.0 or abs(b - a) <= 4e-16 * abs(b):
            break
    return b


@dataclass(frozen=True)
class InitParams:
    """Weight/bias scales of the initialization."""

    sigma_b: float
    sigma_w: float

    def __post_init__(self):
        # the squares enter every recursion; a Python float's ** raises
        # OverflowError where its product is inf
        sb, sw = float(self.sigma_b), float(self.sigma_w)
        if not (0.0 <= sb and sb * sb < math.inf):
            raise ValueError("sigma_b must be finite and nonnegative, with a finite "
                             f"square, got {self.sigma_b}")
        if not (0.0 < sw and sw * sw < math.inf):
            raise ValueError("sigma_w must be finite and positive, with a finite "
                             f"square, got {self.sigma_w}")


@dataclass(frozen=True)
class PhaseReport:
    """Classification of one (sigma_b, sigma_w) point."""

    q_fixed: float
    chi: float
    phase: str  # "ordered" | "chaotic" | "eoc"


def variance_fixed_point(activation: ActivationModel, params: InitParams) -> float:
    """Limiting variance of the layer map q -> sigma_b^2 + sigma_w^2 E[phi^2].

    For ReLU with sigma_w > sqrt(2), or a closed form past float max, the
    variance diverges; on the ReLU critical point (0, sqrt(2)) every
    variance is fixed, and 1.0 is returned (the kernel recursions carry
    each input's own variance).  Tanh with sigma_b = 0 and sigma_w <= 1
    has the stable fixed point 0; otherwise the positive root of
    h(q) = sigma_b^2 + sigma_w^2 m(q) - q, with m(q) = E[tanh^2] on the
    order-256 rule.
    """
    sb, sw = params.sigma_b, params.sigma_w
    if activation.kind == "relu":
        if abs(sw - _SQRT2) <= 1e-12 and sb == 0.0:
            return 1.0
        if sw >= _SQRT2 - 1e-12:
            raise DivergenceError(f"ReLU variance diverges for sigma_w={sw} >= sqrt(2) "
                                  f"and sigma_b={sb}")
        q = sb * sb / (1.0 - sw * sw / 2.0)
        if q == math.inf:
            raise DivergenceError(f"ReLU variance {sb}^2 / (1 - {sw}^2 / 2) "
                                  "is past float max")
        return q
    sb2, sw2 = sb * sb, sw * sw
    if sb2 == 0.0 and sw <= 1.0:
        return 0.0

    def h(q):  # h(q) / q, which keeps its scale as q -> 0+
        return (sb2 + sw2 * tanh_moment(q)) / q - 1.0

    lo = sb2 or 1e-150  # with sigma_b = 0, h(q) / q -> sigma_w^2 - 1 > 0
    h_lo = h(lo)
    if h_lo <= 0.0:  # sigma_b = 0 and sigma_w within rounding of 1, or
        # sigma_w^2 m(q) below the rounding of q = sigma_b^2
        return lo if sb2 else 0.0
    hi = sb2 + sw2  # m < 1 there
    return _root(h, lo, hi, h_lo, h(hi))


def chi_coefficient(activation: ActivationModel, params: InitParams,
                    q_fixed: float) -> float:
    """chi = sigma_w^2 E[phi'(sqrt(q) Z)^2]; closed form sigma_w^2/2 for ReLU."""
    if activation.kind == "relu":
        # (sigma_w/sqrt(2))^2 rather than sigma_w^2/2: exact 1.0 at criticality
        return float((params.sigma_w / _SQRT2) ** 2)
    if q_fixed == 0.0:
        # limit q -> 0+: phi'(0)^2 = 1
        return params.sigma_w**2
    return params.sigma_w**2 * tanh_moment(q_fixed, prime=True)


def classify(activation: ActivationModel, params: InitParams) -> PhaseReport:
    """PhaseReport for one initialization point."""
    q = variance_fixed_point(activation, params)
    chi = chi_coefficient(activation, params, q)
    if abs(chi - 1.0) <= PHASE_TOL:
        phase = "eoc"
    elif chi < 1.0:
        phase = "ordered"
    else:
        phase = "chaotic"
    return PhaseReport(q_fixed=q, chi=chi, phase=phase)


def _series_root(sb2: float) -> float:
    """The root q* of q^3 (4/3 - 8 q + ...) = sigma_b^2 (``_EOC_SERIES``),
    by the fixed point q = cbrt(sigma_b^2 / (4/3 - 8 q + ...)), which
    contracts by about 2 q per step."""
    q = float(np.cbrt(0.75 * sb2))
    for _ in range(8):
        q = float(np.cbrt(sb2 / np.polyval(_EOC_SERIES[::-1], q)))
    return q


def eoc_curve(activation: ActivationModel, sigma_b: float) -> float:
    """sigma_w with chi(sigma_b, sigma_w) = 1: the critical curve.

    For Tanh with sigma_b > 0 the fixed point q solves
    q - m(q) / p(q) = sigma_b^2, and sigma_w = sqrt(1 / p(q)).  A
    critical sigma_w above 10 raises NoSolutionError.

    Accuracy is that of the order-256 moments: sigma_w is within 1e-15 of
    30-digit mpmath values at sigma_b = 0.05 and 0.2 (q* = 0.15, 0.51) and
    3.3e-9 at sigma_b = 1 (q* = 3.04, where the rule misses E[tanh^2] by
    3.7e-11 and E[tanh'^2] by 4.1e-9).  The miss in E[tanh'^2] grows to
    2.3e-4 at q = 10 and 8 % at q = 40, near sigma_b = 5.  On the critical
    curve up to sigma_b = 5e-5 (q* <= 1.2e-3), q* is the root of the Taylor
    series of q - m/p (``_series_root``), where the difference of the
    moments loses q* to rounding: sigma_w is then within 2.5e-16 of
    mpmath down to sigma_b = 1e-14.
    """
    if not 0.0 <= sigma_b < math.inf:
        raise ValueError(f"sigma_b must be finite and nonnegative, got {sigma_b}")
    if activation.kind == "relu":
        if sigma_b != 0.0:
            raise NoSolutionError("ReLU critical set is the single point (0, sqrt(2))")
        return float(_SQRT2)

    sb2 = sigma_b * sigma_b
    if sb2 == 0.0:
        # the fixed point q = 0: chi = sigma_w^2 in the q -> 0+ limit,
        # so the phase boundary sits at sigma_w = 1 exactly
        return 1.0

    # past q = 3.7e4 tanh rounds to 1 at every node and p(q) to 0: m / p
    # and 1 / p are inf there
    def h(q):
        p = tanh_moment(q, prime=True)
        return q - tanh_moment(q) / p - sb2 if p else -math.inf

    def critical_sigma_w(q):
        p = tanh_moment(q, prime=True)
        return float(np.sqrt(1.0 / p)) if p else math.inf

    if sigma_b <= _SERIES_SIGMA_B:
        return critical_sigma_w(_series_root(sb2))

    # h(0) = -sigma_b^2 (m(0) = 0, p(0) = 1), and the doubling starts at the
    # sigma_b -> 0 root of h ~ 4 q^3 / 3 - sigma_b^2; critical_sigma_w grows
    # with q
    lo, h_lo, hi = 0.0, -sb2, float(np.cbrt(0.75 * sb2))
    h_hi = h(hi)
    while h_hi <= 0.0 and critical_sigma_w(hi) <= _MAX_CRITICAL_SIGMA_W:
        lo, h_lo, hi = hi, h_hi, 2.0 * hi
        h_hi = h(hi)
    sw = critical_sigma_w(_root(h, lo, hi, h_lo, h_hi)) if h_hi > 0.0 else np.inf
    if sw > _MAX_CRITICAL_SIGMA_W:
        raise NoSolutionError(
            f"no critical sigma_w in (0, {_MAX_CRITICAL_SIGMA_W:g}] for sigma_b={sigma_b}"
        )
    return sw
