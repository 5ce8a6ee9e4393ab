"""Variance fixed points, phase classification, the critical curve."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepntk.activations import CorrelationMap, make_activation, tanh_moment
from deepntk.errors import DivergenceError, NoSolutionError
from deepntk.gaussmath import PROJECTION_ORDER, expect1, gauss_hermite
from deepntk.phase import (PHASE_TOL, InitParams, classify, eoc_curve,
                           variance_fixed_point)

RELU = make_activation("relu")
TANH = make_activation("tanh")

# critical sigma_w at sigma_b = 0.2, frozen from an independent adaptive
# quadrature + brentq computation (scipy.integrate.quad to 1e-13)
TANH_EOC_SW_02 = 1.304145840056574

# critical sigma_w by 30-digit mpmath (adaptive quadrature of both moments,
# findroot in q), rounded to 20 digits
MPMATH_EOC_SW = {0.05: 1.1225390047695756452, 0.2: 1.3041458400565114416,
                 1.0: 1.8555891011388918127}


class TestVarianceFixedPoint:
    def test_relu_ordered_closed_form(self):
        q = variance_fixed_point(RELU, InitParams(1.0, 0.1))
        assert abs(q - 1.0 / (1.0 - 0.005)) < 1e-10

    def test_relu_critical_returns_one(self):
        # every variance is fixed there; the phase grid reports 1.0
        assert variance_fixed_point(RELU, InitParams(0.0, np.sqrt(2.0))) == 1.0

    def test_relu_chaotic_diverges(self):
        with pytest.raises(DivergenceError):
            variance_fixed_point(RELU, InitParams(0.0, 1.6))

    def test_relu_critical_with_bias_diverges(self):
        with pytest.raises(DivergenceError):
            variance_fixed_point(RELU, InitParams(0.5, np.sqrt(2.0)))

    def test_tanh_self_consistency(self):
        p = InitParams(0.2, TANH_EOC_SW_02)
        q = variance_fixed_point(TANH, p)
        resid = q - (p.sigma_b**2 + p.sigma_w**2 * expect1(
            lambda u: np.tanh(u) ** 2, q, gauss_hermite(PROJECTION_ORDER)))
        assert abs(resid) < 1e-10

    def test_tanh_degenerate_zero_bias(self):
        assert variance_fixed_point(TANH, InitParams(0.0, 0.9)) == 0.0

    def test_tanh_bias_past_the_rounding_of_the_moment(self):
        # sigma_w^2 m(q) <= 1 is below half an ulp of sigma_b^2 = 1e308
        q = variance_fixed_point(TANH, InitParams(1e154, 1.0))
        assert q == 1e154 * 1e154
        assert classify(TANH, InitParams(1e154, 1.0)).phase == "ordered"

    def test_tanh_zero_bias_chaotic_positive_fixed_point(self):
        q = variance_fixed_point(TANH, InitParams(0.0, 1.5))
        assert q > 0.1


class TestClassify:
    def test_relu_deep_ordered(self):
        rep = classify(RELU, InitParams(1.0, 0.1))
        assert rep.phase == "ordered"
        assert abs(rep.chi - 0.005) < 1e-15

    def test_relu_critical_point(self):
        rep = classify(RELU, InitParams(0.0, np.sqrt(2.0)))
        assert rep.phase == "eoc"
        assert rep.chi == 1.0
        assert type(rep.chi) is float  # selftest prints its repr

    def test_tanh_near_critical_paper_point(self):
        # the commonly quoted (0.2, 1.298) sits 3.4e-3 inside the ordered
        # phase; the true critical sigma_w is 1.30415 (independent adaptive
        # quadrature oracle, frozen above)
        rep = classify(TANH, InitParams(0.2, 1.298))
        assert abs(rep.chi - 1.0) < 5e-3

    def test_tanh_chaotic(self):
        rep = classify(TANH, InitParams(0.2, 2.0))
        assert rep.phase == "chaotic"

    def test_degenerate_flagged(self):
        assert classify(TANH, InitParams(0.0, 0.9)).q_fixed == 0.0


class TestEocCurve:
    def test_matches_independent_oracle(self):
        sw = eoc_curve(TANH, 0.2)
        assert abs(sw - TANH_EOC_SW_02) < 1e-4

    def test_near_commonly_quoted_value(self):
        # the literature-standard 1.298 is a rounded version of 1.3041
        assert abs(eoc_curve(TANH, 0.2) - 1.298) < 7e-3

    def test_zero_bias_limit(self):
        assert abs(eoc_curve(TANH, 0.0) - 1.0) < 1e-6

    def test_round_trip_classifies_critical(self):
        sw = eoc_curve(TANH, 0.35)
        assert classify(TANH, InitParams(0.35, sw)).phase == "eoc"

    def test_relu_curve_is_singleton(self):
        assert eoc_curve(RELU, 0.0) == np.sqrt(2.0)
        with pytest.raises(NoSolutionError):
            eoc_curve(RELU, 0.5)

    @pytest.mark.parametrize("sigma_b,rtol", [(0.05, 1e-13), (0.2, 1e-13), (1.0, 1e-8)])
    def test_matches_mpmath(self, sigma_b, rtol):
        # at sigma_b = 1 (q* = 3.04) the order-256 moments limit the accuracy
        assert abs(eoc_curve(TANH, sigma_b) / MPMATH_EOC_SW[sigma_b] - 1.0) <= rtol

    @pytest.mark.parametrize("sigma_b", [0.05, 0.2])
    def test_critical_by_chi_and_by_the_map(self, sigma_b):
        sw = eoc_curve(TANH, sigma_b)
        rep = classify(TANH, InitParams(sigma_b, sw))
        cmap = CorrelationMap(TANH, rep.q_fixed, sigma_b, sw)
        assert abs(rep.chi - 1.0) <= 1e-13
        assert abs(cmap(1.0) - 1.0) <= 1e-13
        assert abs(cmap.derivative_at_one(1) - 1.0) <= 1e-13

    # sigma_w - 1 on the critical curve, 60-digit mpmath: the root of
    # q - m(q)/p(q) = sigma_b^2 with m, p by mpmath.quad, sigma_w = p(q*)^(-1/2)
    TINY_BIAS_SW_MINUS_1 = {
        1e-14: "4.217163326508746210309105e-10",
        1e-12: "9.085602964160697572628143e-9",
        1e-10: "1.957433820584371845340516e-7",
        1e-8: "4.217163326448748118003755e-6",
        1e-6: "9.085602904200421410132713e-5",
        1e-5: "4.217162728348142349995919e-4",
        3e-5: "8.772047848960781226049113e-4",
        5e-5: "1.23310455053313451226447e-3",
        1e-4: "1.957427905027639184410551e-3",
    }

    @pytest.mark.parametrize("sigma_b", sorted(TINY_BIAS_SW_MINUS_1))
    def test_tiny_bias_matches_mpmath(self, sigma_b):
        # near q = 0 the curve is 4 q^3 / 3 = sigma_b^2; the series root
        # up to sigma_b = 5e-5 and the direct solve above it read within
        # 4.3e-16 (at 1e-4; 2.5e-16 at most up to 5e-5), where the direct
        # solve alone was 1.1e-10 off at 1e-10 and 2.8e-9 at 1e-12
        mpmath = pytest.importorskip("mpmath")
        ref = mpmath.mpf(1) + mpmath.mpf(self.TINY_BIAS_SW_MINUS_1[sigma_b])
        assert abs(mpmath.mpf(eoc_curve(TANH, sigma_b)) - ref) <= 5e-16

    def test_no_critical_sigma_w_above_ten(self):
        # far out on the curve the critical sigma_w passes 10
        with pytest.raises(NoSolutionError):
            eoc_curve(TANH, 100.0)

    @pytest.mark.parametrize("sigma_b", [1e10, 1e154])
    def test_no_critical_sigma_w_where_p_underflows(self, sigma_b):
        # the search starts past q = 3.7e4, where p(q) is 0 on the rule
        with pytest.raises(NoSolutionError):
            eoc_curve(TANH, sigma_b)


class TestInvariants:
    def test_chi_monotone_in_sigma_w(self):
        chis = [classify(TANH, InitParams(0.2, sw)).chi
                for sw in np.linspace(0.5, 2.0, 9)]
        assert np.all(np.diff(chis) > 0)

    def test_ordered_variance_reached_from_wide_starts(self):
        p = InitParams(1.0, 0.8)
        target = p.sigma_b**2 / (1.0 - p.sigma_w**2 / 2.0)
        for q0 in (1e-3, 1.0, 1e3):
            q = q0
            prev_delta = np.inf
            for it in range(5000):
                qn = p.sigma_b**2 + p.sigma_w**2 * q / 2.0
                delta = abs(qn - q)
                assert delta < prev_delta or delta < 1e-15
                prev_delta = delta
                q = qn
                if delta < 1e-15:
                    break
            assert abs(q - target) < 1e-9


@settings(deadline=None, derandomize=True, database=None)
@given(sigma_b=st.floats(0.0, 1.0), sigma_w=st.floats(0.5, 2.5))
def test_tanh_fixed_point_solves_its_equation(sigma_b, sigma_w):
    params = InitParams(sigma_b, sigma_w)
    rep = classify(TANH, params)
    q = rep.q_fixed
    h = sigma_b**2 + sigma_w**2 * tanh_moment(q) - q
    assert abs(h) <= 4 * np.spacing(max(q, sigma_b**2))
    want = ("eoc" if abs(rep.chi - 1.0) <= PHASE_TOL
            else "ordered" if rep.chi < 1.0 else "chaotic")
    assert rep.phase == want
