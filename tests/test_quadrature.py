"""The pure-Python Gauss-Legendre rule against mpmath's rule at 40 digits
(Golub-Welsch, an independent method), its exact symmetry, and its
exactness on polynomials."""
import math

import mpmath
import numpy as np
import pytest

from spheregap.quadrature import gauss_legendre


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 100])
def test_rule_matches_mpmath(n):
    x, w = gauss_legendre(-1.0, 1.0, n)
    assert isinstance(x, tuple) and isinstance(w, tuple)
    assert len(x) == len(w) == n
    with mpmath.workdps(40):
        x_ref, w_ref = mpmath.gauss_quadrature(n, "legendre")
        node_err = max(abs(xi - xr) for xi, xr in zip(x, x_ref))
        weight_err = max(abs(wi - wr) / wr for wi, wr in zip(w, w_ref))
    assert node_err <= 2.3e-16
    assert weight_err <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 100, 200])
def test_rule_is_exactly_symmetric(n):
    x, w = gauss_legendre(-1.0, 1.0, n)
    assert list(x) == sorted(x)
    assert x == tuple(-xi for xi in reversed(x))
    assert w == tuple(reversed(w))
    if n % 2:
        assert x[n // 2] == 0.0


@pytest.mark.parametrize("n", range(1, 21))
def test_rule_integrates_polynomials_exactly(n):
    x, w = gauss_legendre(-1.0, 1.0, n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(wi * xi**k for xi, wi in zip(x, w)) - exact) <= 1e-14


def test_rule_on_an_interval():
    # the affine image of the reference rule integrates x^2 over [0, pi/2]
    x, w = gauss_legendre(0.0, math.pi / 2, 7)
    assert 0.0 < x[0] and x[-1] < math.pi / 2
    assert math.fsum(w) == pytest.approx(math.pi / 2, rel=1e-15)
    assert math.fsum(wi * xi * xi for xi, wi in zip(x, w)) == pytest.approx(
        (math.pi / 2) ** 3 / 3, rel=1e-15)


@pytest.mark.parametrize("n", [0, -1])
def test_rule_needs_a_node(n):
    with pytest.raises(ValueError, match="node count must be positive"):
        gauss_legendre(0.0, 1.0, n)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_rule_needs_an_integer_node_count(n):
    with pytest.raises(ValueError, match="node count must be an integer"):
        gauss_legendre(0.0, 1.0, n)


def test_rule_takes_a_numpy_integer():
    assert gauss_legendre(0.0, 1.0, np.int64(5)) == gauss_legendre(0.0, 1.0, 5)
