"""Tests for the closed-form spectra, gaps, eigenfunctions and normalization."""
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

import spheregap.spectra as spectra
from spheregap.errors import ConvergenceError, DomainError
from spheregap.quadrature import gauss_legendre
from spheregap.spectra import (
    COALESCE_ULPS,
    LuneSpec,
    ModeIndex,
    TriangleSpec,
    eigenfunction_eval,
    eigenvalue,
    gap,
    gap_regime,
    normalization_constant,
    spectrum,
)

PI = math.pi


# ------------------------------------------------------------ eigenvalues


def test_lune_eigenvalue_examples():
    assert eigenvalue(LuneSpec(PI), ModeIndex(1, 0)) == 2.0
    assert eigenvalue(LuneSpec(PI / 2), ModeIndex(1, 1)) == 12.0
    # beta = 2*pi itself is outside the open angle interval; the formula
    # limit (1/2)(3/2) = 3/4 is approached from inside
    near = eigenvalue(LuneSpec(2.0 * PI * (1.0 - 1e-12)), ModeIndex(1, 0))
    assert abs(near - 0.75) < 1e-10


def test_triangle_eigenvalue_examples():
    tri = TriangleSpec(PI / 2)
    assert eigenvalue(tri, ModeIndex(1, 0)) == 12.0
    assert eigenvalue(tri, ModeIndex(1, 1)) == 30.0
    assert eigenvalue(tri, ModeIndex(2, 0)) == 30.0
    assert eigenvalue(TriangleSpec(PI), ModeIndex(1, 0)) == 6.0


def test_spec_validation():
    with pytest.raises(ValueError):
        LuneSpec(0.0)
    with pytest.raises(ValueError):
        LuneSpec(2.0 * PI)
    with pytest.raises(ValueError):
        TriangleSpec(-0.1)
    with pytest.raises(ValueError):
        ModeIndex(0, 0)
    with pytest.raises(ValueError):
        ModeIndex(1, -1)
    for k, j in ((1.5, 0), (1, 0.5), (1.0, 0), ("1", 0)):
        with pytest.raises(ValueError, match="must be integers"):
            ModeIndex(k, j)
    mode = ModeIndex(np.int64(2), np.int32(1))
    assert eigenvalue(LuneSpec(PI / 2), mode) == eigenvalue(LuneSpec(PI / 2), ModeIndex(2, 1))


# ------------------------------------------------------------ spectrum


def _brute_force_spectrum(spec, count, kmax=40, jmax=40):
    vals = sorted(
        (eigenvalue(spec, ModeIndex(k, j)), k, j)
        for k in range(1, kmax + 1)
        for j in range(0, jmax + 1)
    )
    entries = []
    for lam, k, j in vals:
        if entries and lam - entries[-1][0] <= 1e-9 * max(1.0, lam):
            entries[-1][1].append((k, j))
        else:
            entries.append((lam, [(k, j)]))
    return [(lam, sorted(modes)) for lam, modes in entries[:count]]


def _as_tuples(entries):
    return [(e.eigenvalue, [(m.k, m.j) for m in e.modes]) for e in entries]


def test_spectrum_triangle_equilateral():
    got = _as_tuples(spectrum(TriangleSpec(PI / 2), 2))
    assert got == [(12.0, [(1, 0)]), (30.0, [(1, 1), (2, 0)])]


def test_spectrum_lune_examples_against_brute_force():
    got = _as_tuples(spectrum(LuneSpec(PI / 2), 3))
    assert got == [(6.0, [(1, 0)]), (12.0, [(1, 1)]), (20.0, [(1, 2), (2, 0)])]
    got = _as_tuples(spectrum(LuneSpec(PI), 2))
    assert got == [(2.0, [(1, 0)]), (6.0, [(1, 1), (2, 0)])]


@pytest.mark.parametrize("spec", [LuneSpec(PI / 2), LuneSpec(1.2345), LuneSpec(5.0),
                                  TriangleSpec(PI / 2), TriangleSpec(0.7), TriangleSpec(4.4)])
def test_spectrum_matches_brute_force(spec):
    got = _as_tuples(spectrum(spec, 12))
    ref = _brute_force_spectrum(spec, 12)
    assert len(got) == 12
    for (lam_a, modes_a), (lam_b, modes_b) in zip(got, ref):
        assert abs(lam_a - lam_b) < 1e-9 * max(1.0, lam_b)
        assert modes_a == modes_b


@pytest.mark.parametrize("spec_type", [LuneSpec, TriangleSpec])
@pytest.mark.parametrize("beta", [1e-8, 1e-9, 1e-10])
def test_spectrum_keeps_thin_levels_apart(spec_type, beta):
    # neighbouring levels (1, j) differ by about 2 beta / pi relative (twice
    # that for the triangle), far more than rounding; a relative coalescing
    # tolerance of 1e-9 merged them on lunes from beta = 1e-9 on
    spec = spec_type(beta)
    got = _as_tuples(spectrum(spec, 3))
    assert got == [(eigenvalue(spec, ModeIndex(1, j)), [(1, j)]) for j in range(3)]


def _sorted_box_spectrum(spec, count):
    """spectrum by one sort of all count^2 modes k <= count, j < count,
    coalesced as spectrum does."""
    entries = []
    for lam, k, j in sorted((eigenvalue(spec, ModeIndex(k, j)), k, j)
                            for k in range(1, count + 1) for j in range(count)):
        if entries and lam - entries[-1][0] <= COALESCE_ULPS * math.ulp(lam):
            entries[-1][1].append((k, j))
        elif len(entries) == count:
            break
        else:
            entries.append((lam, [(k, j)]))
    return [(lam, sorted(modes)) for lam, modes in entries]


@pytest.mark.parametrize("spec_type", [LuneSpec, TriangleSpec])
@pytest.mark.parametrize("beta", [PI / 2, PI / 3, 1.0, 0.3, 1.5 * PI, 1e-9])
def test_spectrum_equals_the_sorted_box(spec_type, beta):
    spec = spec_type(beta)
    for count in range(1, 41):
        assert _as_tuples(spectrum(spec, count)) == _sorted_box_spectrum(spec, count)


@pytest.mark.parametrize("spec", [LuneSpec(0.3), TriangleSpec(1.0)])
def test_spectrum_evaluates_two_eigenvalues_per_mode(monkeypatch, spec):
    # each visited mode adds at most two to the heap; sorting the whole
    # box took count^2 = 4e6 evaluations here
    calls = []
    monkeypatch.setattr(spectra, "eigenvalue",
                        lambda spec, mode: calls.append(1) or eigenvalue(spec, mode))
    entries = spectrum(spec, 2000)
    assert len(entries) == 2000
    assert len(calls) <= 2 * sum(len(entry.modes) for entry in entries) + 3


def test_spectrum_count_validation(monkeypatch):
    with pytest.raises(ValueError):
        spectrum(TriangleSpec(PI / 2), 0)
    # a count that is not an integer is refused before any eigenvalue is
    # evaluated: 2.5 used to walk the whole box, as no level count equals it
    calls = []
    monkeypatch.setattr(spectra, "eigenvalue", lambda spec, mode: calls.append(1))
    for count in (2.5, 4.0, 1e6 + 0.5, "3", None):
        with pytest.raises(ValueError, match="count must be an integer"):
            spectrum(LuneSpec(1.0), count)
    assert calls == []
    monkeypatch.undo()
    assert spectrum(LuneSpec(1.0), np.int64(3)) == spectrum(LuneSpec(1.0), 3)


# ------------------------------------------------------------ gap


def test_gap_examples():
    assert gap(LuneSpec(PI)) == 4.0
    assert gap(TriangleSpec(PI / 2)) == 18.0
    t = 0.01
    expected = 4.0 * PI / (PI / 2 - t) + 10.0
    assert abs(gap(TriangleSpec(PI / 2 - t)) - expected) < 1e-12 * expected


def _spectral_gap(spec):
    """The definition of the gap, min(lambda(1, 1), lambda(2, 0)) - lambda(1, 0)."""
    return (min(eigenvalue(spec, ModeIndex(1, 1)), eigenvalue(spec, ModeIndex(2, 0)))
            - eigenvalue(spec, ModeIndex(1, 0)))


def test_gap_matches_piecewise_closed_form():
    rng = np.random.default_rng(23)
    for beta in rng.uniform(0.02, 2.0 * PI - 0.02, size=50):
        for spec in (LuneSpec(float(beta)), TriangleSpec(float(beta))):
            g = gap(spec)
            ref = _spectral_gap(spec)
            assert abs(g - ref) <= 1e-12 * ref


def test_gap_regime_crossover():
    eps = 1e-9
    assert gap_regime(LuneSpec(PI - eps)) == "beta<=pi"
    assert gap_regime(LuneSpec(PI + eps)) == "beta>pi"
    assert gap_regime(TriangleSpec(PI / 2 - eps)) == "beta<=pi/2"
    assert gap_regime(TriangleSpec(PI / 2 + eps)) == "beta>pi/2"
    # the two branches agree at the crossover angle
    assert abs((3.0 + 1.0) - gap(LuneSpec(PI))) < 1e-12
    assert abs((3.0 * 4.0 + 3.0 * 2.0) - gap(TriangleSpec(PI / 2))) < 1e-12


def test_gap_divergence_as_angle_shrinks():
    betas = np.logspace(math.log10(3.0), -4, 30)
    gaps = np.array([gap(LuneSpec(float(b))) for b in betas])
    assert np.all(np.diff(gaps) > 0.0)  # decreasing beta, increasing gap
    for b, g in zip(betas, gaps):
        if b <= PI:
            assert abs(g - (2.0 * PI / b + 2.0)) <= 2.0 * math.ulp(g)
    assert gaps[-1] > 2.0 * PI * 1e4


def _mp_gap(spec):
    """min(lambda(1, 1), lambda(2, 0)) - lambda(1, 0) in mpmath, with 50
    digits to spare beyond the cancellation of eigenvalues of size x^2,
    x = pi/beta, to a gap of size x."""
    digits = 50 + 2 * max(0, math.ceil(-math.log10(spec.beta)))
    with mpmath.workdps(digits):
        x = mpmath.pi / mpmath.mpf(spec.beta)
        # the degree k x + j (lune) or k x + 2j + 1 (triangle) of mode (k, j)
        step, shift = (1, 0) if isinstance(spec, LuneSpec) else (2, 1)

        def lam(k, j):
            degree = k * x + step * j + shift
            return degree * (degree + 1)

        return min(lam(1, 1), lam(2, 0)) - lam(1, 0)


@pytest.mark.parametrize("spec_type", [LuneSpec, TriangleSpec])
@pytest.mark.parametrize("beta", [1e-2, 1e-4, 1e-6, 1e-10, 1e-14, 1e-100, 1e-300])
def test_gap_on_thin_domains_is_exact_to_rounding(spec_type, beta):
    # lambda_1 and lambda_2 are of size x^2 and the gap of size x: their
    # difference in floats would lose about log10(x) digits, then overflow
    spec = spec_type(beta)
    exact = _mp_gap(spec)
    assert abs(mpmath.mpf(gap(spec)) - exact) <= 4 * math.ulp(float(exact))


def test_gap_and_eigenvalues_raise_where_they_overflow():
    with pytest.raises(DomainError, match="not finite"):
        gap(LuneSpec(1e-320))
    with pytest.raises(DomainError, match="not finite"):
        gap(TriangleSpec(5e-308))
    # l(l+1) overflows below beta ~ 2.3e-154, while the gap does not
    assert math.isfinite(gap(LuneSpec(1e-300)))
    for spec in (LuneSpec(1e-300), TriangleSpec(1e-300)):
        with pytest.raises(DomainError, match="not finite"):
            eigenvalue(spec, ModeIndex(1, 0))
        with pytest.raises(DomainError):
            spectrum(spec, 3)
    assert math.isfinite(eigenvalue(LuneSpec(1e-150), ModeIndex(1, 0)))


def test_triangle_spectrum_within_lune_spectrum():
    for beta in (PI / 2, 1.1, 2.8):
        lune_vals = [e.eigenvalue for e in spectrum(LuneSpec(beta), 80)]
        tri_vals = [e.eigenvalue for e in spectrum(TriangleSpec(beta), 20)]
        for lam in tri_vals:
            assert any(abs(lam - lv) <= 1e-9 * max(1.0, lam) for lv in lune_vals)


# ------------------------------------------------------------ eigenfunctions


def test_eigenfunction_triangle_closed_forms():
    tri = TriangleSpec(PI / 2)
    rng = np.random.default_rng(29)
    closed = {
        ModeIndex(1, 0): lambda r, t: math.sin(r) ** 2 * math.cos(r) * math.sin(2 * t),
        ModeIndex(1, 1): lambda r, t: (3 * math.cos(r) ** 5 - 4 * math.cos(r) ** 3
                                       + math.cos(r)) * math.sin(2 * t),
        ModeIndex(2, 0): lambda r, t: math.cos(r) * math.sin(r) ** 4 * math.sin(4 * t),
    }
    for mode, ref in closed.items():
        for _ in range(50):
            r = float(rng.uniform(0.05, PI / 2 - 0.05))
            t = float(rng.uniform(0.05, PI / 2 - 0.05))
            assert abs(eigenfunction_eval(tri, mode, r, t) - ref(r, t)) < 1e-10


def test_eigenfunction_dirichlet_edges():
    tri = TriangleSpec(PI / 2)
    mode = ModeIndex(1, 0)
    assert eigenfunction_eval(tri, mode, 0.7, 0.0) == 0.0
    assert abs(eigenfunction_eval(tri, mode, PI / 2, 0.9)) < 1e-12
    rng = np.random.default_rng(31)
    for spec in (TriangleSpec(1.3), LuneSpec(2.1)):
        for entry in spectrum(spec, 3):
            for mode in entry.modes:
                r_max = PI / 2 if isinstance(spec, TriangleSpec) else PI
                for _ in range(100):
                    r = float(rng.uniform(0.0, r_max))
                    assert abs(eigenfunction_eval(spec, mode, r, 0.0)) < 1e-8
                    assert abs(eigenfunction_eval(spec, mode, r, spec.beta)) < 1e-8
                if isinstance(spec, TriangleSpec):
                    for _ in range(100):
                        t = float(rng.uniform(0.0, spec.beta))
                        assert abs(eigenfunction_eval(spec, mode, PI / 2, t)) < 1e-8


def test_eigenfunction_domain_error():
    tri = TriangleSpec(PI / 2)
    with pytest.raises(DomainError):
        eigenfunction_eval(tri, ModeIndex(1, 0), PI / 2 + 0.1, 0.3)
    with pytest.raises(DomainError):
        eigenfunction_eval(tri, ModeIndex(1, 0), 0.3, -0.1)
    # at beta = 0.01 the order is -100 pi and Gamma(1 - order) overflows
    with pytest.raises(DomainError, match="overflows"):
        eigenfunction_eval(TriangleSpec(0.01), ModeIndex(1, 0), 0.5, 0.001)
    with pytest.raises(DomainError, match="overflows"):
        normalization_constant(LuneSpec(0.01), ModeIndex(1, 0))


def test_underflowing_thin_domains_raise_domain_error():
    # just above the overflow range the triangle's radial scale P'(0) and the
    # lune's squared norm underflow to 0, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="radial scale"):
            eigenfunction_eval(TriangleSpec(0.019), ModeIndex(1, 0), 0.5, 0.0095)
        with pytest.raises(DomainError, match="radial scale"):
            normalization_constant(TriangleSpec(0.019), ModeIndex(1, 0))
        for beta in (0.019, 0.03):
            with pytest.raises(DomainError, match="squared norm"):
                normalization_constant(LuneSpec(beta), ModeIndex(1, 0))
    # a norm that is finite but unsettled stays a ConvergenceError, as for the
    # thin modes that lose digits in the Legendre series
    for spec, mode in ((LuneSpec(0.05), ModeIndex(1, 0)),
                       (TriangleSpec(0.75), ModeIndex(2, 3)), (TriangleSpec(0.75), ModeIndex(3, 2)),
                       (TriangleSpec(0.75), ModeIndex(3, 3)), (LuneSpec(0.75), ModeIndex(3, 3)),
                       (TriangleSpec(1.0), ModeIndex(3, 3))):
        with pytest.raises(ConvergenceError):
            normalization_constant(spec, mode)


def test_diverging_series_reports_an_infinite_residual():
    # at beta = 1e-5 the Legendre series overflows before it could converge;
    # the error carries inf rather than the nan of an inf/inf ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            eigenfunction_eval(LuneSpec(1e-5), ModeIndex(1, 0), 0.3, 5e-6)
    assert err.value.residual == math.inf


def _fd_sphere_laplacian(spec, mode, r, theta, h=1e-4):
    """Round-sphere Laplacian via central differences of the eigenfunction."""
    u = lambda rr, tt: eigenfunction_eval(spec, mode, rr, tt)
    u0 = u(r, theta)
    u_r = (u(r + h, theta) - u(r - h, theta)) / (2 * h)
    u_rr = (u(r + h, theta) - 2 * u0 + u(r - h, theta)) / h**2
    u_tt = (u(r, theta + h) - 2 * u0 + u(r, theta - h)) / h**2
    return u_rr + math.cos(r) / math.sin(r) * u_r + u_tt / math.sin(r) ** 2, u0


# count kept low enough that the central-difference truncation, which grows
# like degree^4 * h^2, stays inside the 1e-6 residual budget
@pytest.mark.parametrize("spec,count", [(TriangleSpec(PI / 2), 2),
                                        (TriangleSpec(1.3), 3),
                                        (LuneSpec(2.2), 3)])
def test_spectrum_soundness_pointwise_residual(spec, count):
    rng = np.random.default_rng(37)
    r_max = PI / 2 if isinstance(spec, TriangleSpec) else PI
    for entry in spectrum(spec, count):
        lam = entry.eigenvalue
        for mode in entry.modes:
            for _ in range(100):
                r = float(rng.uniform(0.2, r_max - 0.2))
                t = float(rng.uniform(0.05, spec.beta - 0.05))
                lap, u0 = _fd_sphere_laplacian(spec, mode, r, t)
                assert abs(lap + lam * u0) < 1e-6


# ------------------------------------------------------------ normalization


def test_normalization_constants_equilateral():
    tri = TriangleSpec(PI / 2)
    expected = {
        ModeIndex(1, 0): math.sqrt(105.0 / (2.0 * PI)),
        ModeIndex(1, 1): math.sqrt(1155.0 / (8.0 * PI)),
        ModeIndex(2, 0): math.sqrt(3465.0 / (32.0 * PI)),
    }
    for mode, ref in expected.items():
        got = normalization_constant(tri, mode)
        assert abs(got - ref) <= 1e-8 * ref


@functools.cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _leggauss_norm_sq(spec, mode, n):
    """The squared norm of normalization_constant from numpy's n-point rule."""
    from spheregap.spectra import _radial_values

    x, w = _leggauss(n)
    rq, rw = 0.5 * spec.r_max * x + 0.5 * spec.r_max, 0.5 * spec.r_max * w
    return float(np.sum(rw * _radial_values(spec, mode, rq) ** 2 * np.sin(rq)) * (0.5 * spec.beta))


def test_normalization_matches_the_numpy_rule():
    # the pure-Python rule moves the constants by rounding only: the beta in
    # [pi/2, 3 pi/2], k <= 3, j <= 3 set of the eigenfunction benchmark
    worst = 0.0
    for beta_pi in (0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.375, 1.5):
        for spec in (LuneSpec(beta_pi * PI), TriangleSpec(beta_pi * PI)):
            for k in range(1, 4):
                for j in range(4):
                    mode = ModeIndex(k, j)
                    ref = 1.0 / math.sqrt(_leggauss_norm_sq(spec, mode, 200))
                    worst = max(worst, abs(normalization_constant(spec, mode) - ref) / ref)
    assert worst <= 1e-10


@pytest.mark.parametrize("domain, beta, k, j", [
    ("triangle", 0.75, 2, 3), ("triangle", 0.75, 3, 2), ("triangle", 0.75, 3, 3),
    ("lune", 0.75, 3, 3), ("triangle", 1.0, 3, 3),
])
def test_normalization_settles_as_with_the_numpy_rule(domain, beta, k, j):
    # on thin domains the full-versus-half check fails where it failed with
    # numpy's rule (the Legendre series loses digits there)
    spec, mode = (LuneSpec if domain == "lune" else TriangleSpec)(beta), ModeIndex(k, j)
    full, half = (_leggauss_norm_sq(spec, mode, n) for n in (200, 100))
    if abs(full - half) > 1e-9 * abs(full):
        with pytest.raises(ConvergenceError):
            normalization_constant(spec, mode)
    else:
        expected = 1.0 / math.sqrt(full)
        assert normalization_constant(spec, mode) == pytest.approx(expected, rel=1e-10)


def test_normalization_lune_against_tensor_quadrature():
    spec = LuneSpec(PI)
    mode = ModeIndex(1, 0)
    got = normalization_constant(spec, mode)
    # independent oracle: full 2D tensor rule over pointwise evaluations
    rq, rw = gauss_legendre(0.0, PI, 200)
    tq, tw = gauss_legendre(0.0, PI, 200)
    total = 0.0
    for r, wr in zip(rq, rw):
        row = sum(wt * eigenfunction_eval(spec, mode, float(r), float(t)) ** 2
                  for t, wt in zip(tq, tw))
        total += wr * math.sin(r) * row
    assert abs(got - 1.0 / math.sqrt(total)) < 1e-10
    # for this mode the radial factor is sin(r)/2, so the norm is pi/6
    assert abs(got - math.sqrt(6.0 / PI)) < 1e-10


def test_normalized_eigenfunction_has_unit_norm():
    spec = TriangleSpec(1.1)
    mode = ModeIndex(2, 1)
    c = normalization_constant(spec, mode)
    rq, rw = gauss_legendre(0.0, PI / 2, 120)
    tq, tw = gauss_legendre(0.0, spec.beta, 120)
    total = 0.0
    for r, wr in zip(rq, rw):
        row = sum(wt * eigenfunction_eval(spec, mode, float(r), float(t)) ** 2
                  for t, wt in zip(tq, tw))
        total += wr * math.sin(r) * row
    assert abs(c * c * total - 1.0) < 1e-9

