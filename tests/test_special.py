"""Tests for the associated Legendre module.

Oracles used here are independent of the evaluation path under test:
integer cases are checked against an explicit Rodrigues-polynomial
construction, the differential equation is checked by second-order central
differences, and the value-at-zero formula against the series.
"""
import math

import numpy as np
import pytest
import scipy.special as sps

from spheregap.errors import DomainError, GammaPoleError
from spheregap.special import (
    _hyp2f1_batch,
    gamma_fn,
    legendre_p,
    legendre_p_at_zero,
    legendre_p_dx,
    legendre_p_many,
)


# ---------------------------------------------------------------- gamma


def test_gamma_classic_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-12


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
def test_gamma_pole(x):
    with pytest.raises(GammaPoleError, match="gamma pole"):
        gamma_fn(x)


def test_gamma_overflow_is_a_domain_error():
    assert gamma_fn(171.0) == pytest.approx(math.factorial(170), rel=1e-14)
    for call in (lambda: gamma_fn(172.0),
                 lambda: legendre_p(400, -400, 0.3),
                 lambda: legendre_p_at_zero(700, -400)):
        with pytest.raises(DomainError, match="overflows"):
            call()


def test_gamma_functional_equation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(0.1, 49.0)
        assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-12 * gamma_fn(x + 1.0)
    # reflection for negative arguments
    for _ in range(20):
        x = rng.uniform(0.05, 0.95)
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        assert abs(lhs - math.pi / math.sin(math.pi * x)) < 1e-10 * abs(lhs)


# ------------------------------------------------- Rodrigues oracle


def _rodrigues_negative_order(ell: int, m: int, x: float) -> float:
    """P_ell^{-m}(x) = (ell-m)!/(ell+m)! (1-x^2)^{m/2} d^m/dx^m P_ell(x)."""
    coeffs = np.zeros(ell + 1)
    coeffs[ell] = 1.0
    deriv = np.polynomial.legendre.legder(coeffs, m)
    val = np.polynomial.legendre.legval(x, deriv)
    ratio = math.factorial(ell - m) / math.factorial(ell + m)
    return ratio * (1.0 - x * x) ** (m / 2.0) * val


def test_endpoint_value_negative_order():
    assert legendre_p(3.0, -2.0, 1.0) == 0.0


def test_integer_example_against_rodrigues():
    # P_3^2(x) = 15 x (1 - x^2); the negative order carries Gamma(2)/Gamma(6)
    x = 0.6
    expected = (gamma_fn(2.0) / gamma_fn(6.0)) * 15.0 * x * (1.0 - x * x)
    got = legendre_p(3.0, -2.0, x)
    assert abs(got - expected) < 1e-14
    assert abs(got - _rodrigues_negative_order(3, 2, x)) < 1e-14


def test_integer_order_agreement_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        ell = m + int(rng.integers(0, 5))
        x = float(rng.uniform(-0.98, 0.98))
        ref = _rodrigues_negative_order(ell, m, x)
        got = legendre_p(float(ell), float(-m), x)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


# ------------------------------------------------- ODE residual


def _ode_residual(ell, mu, x, h=1e-4):
    lam = ell * (ell + 1.0)
    f = legendre_p_many(ell, mu, np.array([x - h, x, x + h]))
    d1 = (f[2] - f[0]) / (2.0 * h)
    d2 = (f[2] - 2.0 * f[1] + f[0]) / (h * h)
    return (1.0 - x * x) * d2 - 2.0 * x * d1 + (lam - mu * mu / (1.0 - x * x)) * f[1]


def test_ode_residual_integer_pair():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-0.9, 0.9, size=20):
        assert abs(_ode_residual(2.0, -2.0, float(x))) < 1e-6


@pytest.mark.parametrize("ell,mu", [(2.5, -2.5), (4.5, -2.5), (7.0 / 3.0 + 2.0, -7.0 / 3.0)])
def test_ode_residual_admissible_noninteger(ell, mu):
    rng = np.random.default_rng(int(ell * 100))
    for x in rng.uniform(-0.9, 0.9, size=20):
        assert abs(_ode_residual(ell, mu, float(x))) < 1e-6


def test_ode_residual_generic_pair_continuation_path():
    # not admissible (degree + order far from an integer): exercises the
    # numerical continuation for x < 0, which carries solver noise, so the
    # bound is looser than for the admissible parity route
    rng = np.random.default_rng(5)
    for x in rng.uniform(-0.85, -0.05, size=8):
        assert abs(_ode_residual(3.7, -1.5, float(x))) < 1e-3


# ------------------------------------------------- endpoint behavior


@pytest.mark.parametrize("ell,mu", [(3.0, -2.0), (4.5, -2.5), (2.5, -2.5), (6.0, -4.0)])
def test_endpoint_vanishing_monotone(ell, mu):
    xs = np.array([1.0 - 10.0**-k for k in range(2, 7)])
    plus = np.abs(legendre_p_many(ell, mu, xs))
    minus = np.abs(legendre_p_many(ell, mu, -xs))
    for vals in (plus, minus):
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-5


def test_degree_reflection():
    rng = np.random.default_rng(13)
    cases = [(3.7, -1.5), (2.0, -2.0), (5.5, -2.5), (4.2, -1.7)]
    for ell, mu in cases:
        for x in rng.uniform(-0.95, 0.999, size=10):
            a = legendre_p(ell, mu, float(x))
            b = legendre_p(-ell - 1.0, mu, float(x))
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# ------------------------------------------------- value at zero


def test_at_zero_examples():
    assert legendre_p_at_zero(3.0, -2.0) == 0.0
    assert legendre_p_at_zero(5.0, -4.0) == 0.0
    val = legendre_p_at_zero(2.0, -2.0)
    assert val != 0.0
    assert abs(val - 0.125) < 1e-14


def test_at_zero_matches_series_on_admissible_pairs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        mu = -float(rng.uniform(0.3, 5.0))
        ell = -mu + float(rng.integers(0, 6))
        formula = legendre_p_at_zero(ell, mu)
        series = legendre_p(ell, mu, 0.0)
        assert abs(formula - series) < 1e-10


# ------------------------------------------------- derivative and errors


# thin triangles; the four triangle modes whose normalization fails on the
# benchmark (beta = 0.75 and 1 rad); the benchmark's 108 triangle modes,
# beta from pi/2 to 3 pi/2 with k <= 3 and j <= 3
_SLOPE_CASES = ([(0.3, 3, 2), (0.2, 3, 0), (0.75, 2, 3), (0.75, 3, 2), (0.75, 3, 3), (1.0, 3, 3)]
                + [(f * math.pi, k, j) for f in (0.5, 0.625, 0.75, 0.875, 1, 1.125, 1.25, 1.375, 1.5)
                   for k in range(1, 4) for j in range(4)])


@pytest.mark.parametrize("beta, k, j", _SLOPE_CASES)
def test_triangle_edge_slope_against_mpmath(beta, k, j):
    # the slope at x = 0 that scales the triangle's radial factor
    import mpmath

    x = k * math.pi / beta
    ell, mu = x + 2 * j + 1, -x
    with mpmath.workdps(30):
        ref = mpmath.diff(lambda y: mpmath.legenp(ell, mu, y), 0)
        assert abs(legendre_p_dx(ell, mu) - ref) <= 1e-14 * abs(ref)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the series loses every digit at degree 40, order -20")
def test_high_order_value_against_mpmath():
    # P_40^-20(0.2) is +1.634e-33 at 40 digits; the series returns -7.612e-29
    import mpmath

    with mpmath.workdps(40):
        ref = float(mpmath.legenp(40, -20, 0.2))
    assert abs(legendre_p(40.0, -20.0, 0.2) - ref) <= 1e-9 * abs(ref)


def test_domain_errors():
    with pytest.raises(DomainError):
        legendre_p(3.0, -2.0, -1.0)
    with pytest.raises(DomainError):
        legendre_p(3.0, -2.0, 1.2)
    with pytest.raises(DomainError):
        legendre_p(3.0, 2.0, 0.5)  # positive order is out of scope


def test_nan_arguments_are_domain_errors():
    # every non-finite argument, NaN or infinite
    nan, inf = math.nan, math.inf
    for call in (lambda: legendre_p(2.0, -1.0, nan),
                 lambda: legendre_p(nan, -1.0, 0.3),
                 lambda: legendre_p(2.0, nan, 0.3),
                 lambda: legendre_p(inf, -1.0, 0.3),
                 lambda: legendre_p(-inf, -1.0, 0.3),
                 lambda: legendre_p(3.0, -inf, 0.3),
                 lambda: legendre_p_many(2.0, -1.0, np.array([0.3, nan])),
                 lambda: legendre_p_many(nan, -1.0, np.array([0.3])),
                 lambda: legendre_p_dx(nan, -1.0),
                 lambda: legendre_p_dx(2.0, nan),
                 lambda: legendre_p_dx(2.0, -inf),
                 lambda: legendre_p_at_zero(nan, -1.0),
                 lambda: legendre_p_at_zero(2.0, nan),
                 lambda: legendre_p_at_zero(inf, -1.0),
                 lambda: legendre_p_at_zero(2.0, -inf),
                 lambda: gamma_fn(nan),
                 lambda: gamma_fn(inf),
                 lambda: gamma_fn(-inf)):
        with pytest.raises(DomainError):
            call()


# ---------------------------------------------------------------- hypergeometric series


def test_series_against_scipy():
    rng = np.random.default_rng(89)
    w = rng.uniform(0.0, 0.55, size=200)
    for a, b, c in [(4.0, -3.0, 3.0), (8.5, -7.5, 3.5), (3.2, -2.2, 2.7), (1.3, -0.3, 1.1)]:
        vals, conv, _ = _hyp2f1_batch(a, b, c, w, 1e-14, 800)
        assert conv.all()
        ref = sps.hyp2f1(a, b, c, w)
        assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(1.0 + np.abs(ref))


def test_series_terminating_polynomial_exact():
    # b a negative integer terminates the series; sums can pass through zero
    vals, conv, _ = _hyp2f1_batch(4.0, -3.0, 3.0, np.array([0.5]), 1e-14, 100)
    assert conv.all()
    assert abs(vals[0] - 0.0) < 1e-15


def test_series_nonconvergent_flagged():
    # w = 1 makes the ratio approach 1; with a tiny term budget the kernel
    # must report non-convergence, not a silent value
    vals, conv, resid = _hyp2f1_batch(0.5, 0.7, 1.9, np.array([0.999]), 1e-14, 10)
    assert not conv.any()
    assert resid[0] > 0.0
