"""Depth expansions of correlations and empirical convergence-rate fits.

On the critical initialization the correlation c^l of two inputs approaches
1 polynomially, with exact leading constants:

    ReLU feedforward:    1 - c^l ~ kappa / l^2,      kappa = 9 pi^2 / 2
    Tanh feedforward:    1 - c^l ~ kappa / l,        kappa = 2 / f''(1)
    ReLU residual:       1 - c^l ~ kappa_res / l^2,  kappa_res = (9 pi^2/2)(1 + 2/sigma_w^2)^2
    scaled residual:     1 - c^l ~ zeta / log(l)^2,  zeta = 16 / (s^2 sigma_w^4)

with s = 2 sqrt(2)/(3 pi) the 3/2-order Taylor coefficient of the ReLU
correlation map.  The iterators below track gamma = 1 - c directly so the
recursions stay accurate long after 1 - c falls below double rounding of c.

``fit_rate`` estimates decay laws of kernel residuals in their natural
transform domains (log-log for powers, log-linear for exponentials,
log against log log for inverse powers of log L), each by a linear
least-squares fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import (
    B_RELU,
    S_RELU,
    ActivationModel,
    CorrelationMap,
    relu_one_minus_f,
)
from .phase import InitParams, classify, variance_fixed_point

KAPPA_RELU = 9.0 * np.pi**2 / 2.0


@dataclass(frozen=True)
class ExpansionConstants:
    """Exact constants of the leading depth expansions."""

    kappa_relu: float = KAPPA_RELU
    s: float = S_RELU
    b: float = B_RELU

    @staticmethod
    def kappa_tanh(corr_map: CorrelationMap) -> float:
        """2 / f''(1), the 1/l coefficient for smooth critical maps."""
        return 2.0 / corr_map.derivative_at_one(2)

    @staticmethod
    def zeta_tanh(corr_map: CorrelationMap) -> float:
        """f'''(1) / 6, the cubic Taylor coefficient at 1."""
        return corr_map.derivative_at_one(3) / 6.0

    @staticmethod
    def kappa_resnet(sigma_w: float) -> float:
        """(9 pi^2 / 2)(1 + 2/sigma_w^2)^2."""
        return KAPPA_RELU * (1.0 + 2.0 / sigma_w**2) ** 2

    @staticmethod
    def zeta_scaled(sigma_w: float) -> float:
        """16 / (s^2 sigma_w^4)."""
        return 16.0 / (S_RELU**2 * sigma_w**4)


def theoretical_correlation(architecture_kind: str, activation: ActivationModel,
                            params: InitParams, depth: int,
                            corr_map: CorrelationMap | None = None) -> float:
    """Leading-order prediction of c^l on the critical initialization."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    l = float(depth)
    if architecture_kind == "ffnn":
        if activation.kind == "relu":
            report = classify(activation, params)
            if report.phase != "eoc":
                raise ValueError("expansion is critical-initialization only")
            k = KAPPA_RELU
            return 1.0 - k / l**2 + 3.0 * np.sqrt(k) * np.log(l) / l**3
        if corr_map is None:
            q = variance_fixed_point(activation, params)
            corr_map = CorrelationMap(activation, q, params.sigma_b, params.sigma_w)
        report = classify(activation, params)
        if report.phase != "eoc":
            raise ValueError("expansion is critical-initialization only")
        return 1.0 - ExpansionConstants.kappa_tanh(corr_map) / l
    if architecture_kind in ("resnet_dense", "resnet_conv"):
        return 1.0 - ExpansionConstants.kappa_resnet(params.sigma_w) / l**2
    if architecture_kind in ("scaled_resnet_dense", "scaled_resnet_conv"):
        return 1.0 - ExpansionConstants.zeta_scaled(params.sigma_w) / np.log(l) ** 2
    raise ValueError(f"unsupported architecture {architecture_kind!r}")


# ---------------------------------------------------------------------------
# gamma-space correlation iterators (1 - c tracked exactly)
# ---------------------------------------------------------------------------

def iterate_relu_correlation(gamma0: float, depth: int,
                             record_at: list[int] | None = None):
    """Iterate the ReLU correlation map; returns gamma at requested depths.

    Depth counts map applications starting from gamma0 at depth 1, i.e.
    the value at depth l is the (l-1)-fold image of gamma0.
    """
    return _iterate_gamma(gamma0, depth, record_at, lambda g, l: relu_one_minus_f(g))


def iterate_resnet_correlation(gamma0: float, depth: int, sigma_w: float,
                               record_at: list[int] | None = None):
    """Residual correlation map, in deficit form:

    c' = (c + alpha f(c)) / (1+alpha)  <=>  g' = (g + alpha (1-f(1-g))) / (1+alpha).
    """
    alpha = sigma_w**2 / 2.0
    return _iterate_gamma(
        gamma0, depth, record_at,
        lambda g, l: (g + alpha * relu_one_minus_f(g)) / (1.0 + alpha),
    )


def iterate_scaled_resnet_correlation(gamma0: float, depth: int, sigma_w: float,
                                      record_at: list[int] | None = None):
    """Scaled residual map with layer-l block weight sigma_w^2 / (2l)."""
    half_sw2 = sigma_w**2 / 2.0

    def step(g, l):
        al = half_sw2 / l
        return (g + al * relu_one_minus_f(g)) / (1.0 + al)

    return _iterate_gamma(gamma0, depth, record_at, step)


def iterate_tanh_correlation(corr_map: CorrelationMap, c0: float, depth: int,
                             record_at: list[int] | None = None):
    """Iterate the Tanh correlation map; returns 1 - c values."""
    return _iterate_gamma(1.0 - c0, depth, record_at,
                          lambda g, l: 1.0 - corr_map(1.0 - g))


def _iterate_gamma(gamma0, depth, record_at, step):
    record = sorted(set(record_at or [depth]))
    out = {}
    g = float(gamma0)
    if 1 in record:
        out[1] = g
    for l in range(2, depth + 1):
        g = step(g, l)
        if l in record:
            out[l] = g
    return [out[l] for l in record]


def check_expansion(architecture_kind: str, activation: ActivationModel,
                    params: InitParams, depth: int, gamma0: float = 0.5,
                    corr_map: CorrelationMap | None = None) -> dict:
    """Empirical limit of the rescaled correlation deficit vs its constant.

    Returns the deficit gamma = 1 - c at ``depth``, the rescaled product
    (l^2 gamma, l gamma, or log(l)^2 gamma as appropriate), the exact
    constant, and their relative error.
    """
    l = depth
    if architecture_kind == "ffnn" and activation.kind == "relu":
        gamma = iterate_relu_correlation(gamma0, l)[0]
        product, constant = l**2 * gamma, KAPPA_RELU
    elif architecture_kind == "ffnn":
        if corr_map is None:
            q = variance_fixed_point(activation, params)
            corr_map = CorrelationMap(activation, q, params.sigma_b, params.sigma_w)
        gamma = iterate_tanh_correlation(corr_map, 1.0 - gamma0, l)[0]
        product, constant = l * gamma, ExpansionConstants.kappa_tanh(corr_map)
    elif architecture_kind in ("resnet_dense", "resnet_conv"):
        gamma = iterate_resnet_correlation(gamma0, l, params.sigma_w)[0]
        product, constant = l**2 * gamma, ExpansionConstants.kappa_resnet(params.sigma_w)
    elif architecture_kind in ("scaled_resnet_dense", "scaled_resnet_conv"):
        gamma = iterate_scaled_resnet_correlation(gamma0, l, params.sigma_w)[0]
        product, constant = np.log(l) ** 2 * gamma, ExpansionConstants.zeta_scaled(params.sigma_w)
    else:
        raise ValueError(f"unsupported architecture {architecture_kind!r}")
    return {
        "depth": l,
        "gamma": gamma,
        "product": product,
        "constant": constant,
        "relative_error": abs(product / constant - 1.0),
    }


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares decay-law fit in the model's transform domain.

    ``exponent`` is the signed power p for r = A L^p, the decay rate gamma
    for r = A exp(-gamma L) (positive means decay), and the positive power
    p for r = A / log(L)^p.
    """

    model: str
    exponent: float
    prefactor: float
    r_squared: float
    fit_range: tuple[int, int]


def _linear_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def fit_rate(depths, residuals, model: str) -> RateFit:
    """Fit residual decay vs depth under one of four laws.

    power:     r = A L^p          (log r vs log L)
    power_log: r = A log(L) L^p   (log r - log log L vs log L)
    exp:       r = A e^{-gamma L} (log r vs L)
    inv_log:   r = A / log(L)^p   (log r vs log log L)

    Each law is linear in its transform domain, so one linear least-squares
    fit there is the exact solution (for inv_log, log r = log A - p log log L).
    """
    depths = np.asarray(depths, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if depths.size < 8:
        raise ValueError("need at least 8 depth samples")
    if np.any(residuals <= 0):
        raise ValueError("residuals must be positive (floor them upstream)")
    rng = (int(depths.min()), int(depths.max()))
    logr = np.log(residuals)
    if model == "power":
        slope, intercept, r2 = _linear_fit(np.log(depths), logr)
        return RateFit("power", slope, float(np.exp(intercept)), r2, rng)
    if model == "power_log":
        slope, intercept, r2 = _linear_fit(np.log(depths), logr - np.log(np.log(depths)))
        return RateFit("power_log", slope, float(np.exp(intercept)), r2, rng)
    if model == "exp":
        slope, intercept, r2 = _linear_fit(depths, logr)
        return RateFit("exp", -slope, float(np.exp(intercept)), r2, rng)
    if model == "inv_log":
        slope, intercept, r2 = _linear_fit(np.log(np.log(depths)), logr)
        return RateFit("inv_log", -slope, float(np.exp(intercept)), r2, rng)
    raise ValueError(f"unknown model {model!r}")


def default_depth_grid(j_max: int = 8, base: int = 32) -> list[int]:
    """Geometric depth grid base * 2^j, j = 0..j_max (transients below 32 excluded)."""
    return [base * 2**j for j in range(j_max + 1)]
