"""Tests for the bilinear pairings, the gap variation I(z, b), and the
closed-form verification table."""
import math

import mpmath
import numpy as np
import pytest

import spheregap.variation as variation
from spheregap.quadrature import gauss_legendre
from spheregap.spectra import (
    ModeIndex,
    TriangleSpec,
    eigenfunction_eval,
    gap,
    normalization_constant,
)
from spheregap.variation import (
    C1,
    C2,
    C3,
    MIN_GAP_VARIATION,
    AppendixReport,
    BilinearTermTable,
    PairingSpec,
    gap_variation_grid,
    gap_variation_table,
    lambda1_dot,
    pairing_terms,
    second_eigenvalue_form,
    verify_appendix,
)

from pointwise_oracles import gap_variation_I_closed

PI = math.pi
SQ23 = math.sqrt(C2 * C3)


# ------------------------------------------------------------ term values


def test_first_mode_pairing_terms():
    table = pairing_terms(PairingSpec("u1", "u1", (0.0, 1.0)))
    assert abs(table["I"] - (-C1 * 1408.0 / (1575.0 * PI))) < 1e-9
    assert abs(table["II"] - (C1 * 64.0 / (1575.0 * PI))) < 1e-9
    assert abs(table.total - (-28.0 / PI)) < 1e-9
    table_a = pairing_terms(PairingSpec("u1", "u1", (1.0, 0.0)))
    assert abs(table_a["V"] - (-C1 * 8.0 / 15.0)) < 1e-9
    assert abs(table_a.total - (-28.0 / PI)) < 1e-9


def test_pairing_totals_match_closed_forms():
    expected = {
        ("u1", "u1"): lambda a, b: -28.0 * (a + b) / PI,
        ("u2_1", "u2_1"): lambda a, b: -77.0 * b / PI - 44.0 * a / PI,
        ("u2_2", "u2_1"): lambda a, b: 11.0 * math.sqrt(3.0) * b / PI,
        ("u2_1", "u2_2"): lambda a, b: 11.0 * math.sqrt(3.0) * b / PI,
        ("u2_2", "u2_2"): lambda a, b: -55.0 * b / PI - 88.0 * a / PI,
    }
    directions = [(0.0, 1.0), (1.0, 0.0), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8)]
    for pair, ref in expected.items():
        for a, b in directions:
            total = pairing_terms(PairingSpec(*pair, (a, b))).total
            assert abs(total - ref(a, b)) < 1e-12


def test_mixed_pairing_equals_sqrtC2C3_form():
    # sqrt(C2 C3) * 16/105 is the same closed value as 11 sqrt(3)/pi
    assert abs(SQ23 * 16.0 / 105.0 - 11.0 * math.sqrt(3.0) / PI) < 1e-14
    total = pairing_terms(PairingSpec("u2_1", "u2_2", (0.0, 1.0))).total
    assert abs(total - SQ23 * 16.0 / 105.0) < 1e-9


def test_term_v_vanishes_for_mixed_pairings():
    for pair in (("u2_2", "u2_1"), ("u2_1", "u2_2")):
        table = pairing_terms(PairingSpec(*pair, (1.0, 0.0)))
        assert abs(table["V"]) < 1e-12


def test_terms_separability_against_2d_quadrature():
    """Each separated term must agree with the plain 2D tensor integral."""
    from spheregap.variation import _MODES

    rq, rw = map(np.asarray, gauss_legendre(0.0, PI / 2, 64))
    tq, tw = map(np.asarray, gauss_legendre(0.0, PI / 2, 64))
    R, T = np.meshgrid(rq, tq, indexing="ij")
    W = np.outer(rw, tw)

    def field(mode, r_order, theta_order):
        # the library's mode values at every point of the grid, whose r are
        # the nodes of radial_at_nodes
        radial = np.array(mode.radial_at_nodes)[:, r_order, None]
        angular = np.vectorize(lambda t: mode.angular(t, theta_order))(T)
        return mode.norm * radial * angular

    for left, right in [("u1", "u1"), ("u2_2", "u2_1"), ("u2_2", "u2_2")]:
        ml, mr = _MODES[left], _MODES[right]
        u_l = field(ml, 0, 0)
        sin_r, cos_r = np.sin(R), np.cos(R)
        d_r, d_rr = field(mr, 1, 0), field(mr, 2, 0)
        d_rt, d_tt = field(mr, 1, 1), field(mr, 0, 2)
        b_terms = (
            (4 / PI) * np.sum(W * u_l * np.sin(T) * d_rr * sin_r),
            (2 / PI) * np.sum(W * u_l * np.sin(T) * cos_r / sin_r * d_r * sin_r),
            (4 / PI) * np.sum(W * u_l * R * np.cos(T) / sin_r**2 * d_rt * sin_r),
            (4 / PI) * np.sum(W * u_l * R * np.sin(T) * cos_r / sin_r**3 * d_tt * sin_r),
        )
        a_term = (4 / PI) * np.sum(W * u_l / sin_r**2 * d_tt * sin_r)
        table_b = pairing_terms(PairingSpec(left, right, (0.0, 1.0)))
        table_a = pairing_terms(PairingSpec(left, right, (1.0, 0.0)))
        for sep, full in zip(table_b.terms[:4], b_terms):
            assert abs(sep - full) < 1e-9
        assert abs(table_a.terms[4] - a_term) < 1e-9


@pytest.mark.parametrize("name, eigenvalue", [("u1", 12.0), ("u2_1", 30.0), ("u2_2", 30.0)])
def test_derived_radial_derivatives_solve_the_eigen_equation(name, eigenvalue):
    # R, R' and R'' from the mode's table and the d/dr rule solve
    # R'' + cot(r) R' + (lambda - f^2 / sin^2 r) R = 0 at the pairing nodes
    mode = variation._MODES[name]
    nodes = gauss_legendre(0.0, PI / 2, 64)[0]
    for r, (value, slope, curvature) in zip(nodes, mode.radial_at_nodes):
        terms = (curvature, math.cos(r) / math.sin(r) * slope,
                 (eigenvalue - mode.freq**2 / math.sin(r) ** 2) * value)
        assert abs(math.fsum(terms)) <= 1e-9 * max(map(abs, terms))


@pytest.mark.parametrize("name, mode", [("u1", ModeIndex(1, 0)), ("u2_1", ModeIndex(1, 1)),
                                        ("u2_2", ModeIndex(2, 0))])
def test_mode_tables_are_the_normalized_eigenfunctions(name, mode):
    # away from the pole, where eigenfunction_eval loses the digits of
    # 1 - cos r (8.9e-5 relative at r = 1e-6)
    spec = TriangleSpec(PI / 2)
    table_mode = variation._MODES[name]
    scale = normalization_constant(spec, mode)
    for r in (0.3, 0.9, 1.4):
        radial = math.fsum(k * math.cos(r) ** p * math.sin(r) ** q
                           for (p, q), k in table_mode.tables[0].items())
        for theta in (0.2, 0.7, 1.1):
            ref = scale * eigenfunction_eval(spec, mode, r, theta)
            got = table_mode.norm * radial * table_mode.angular(theta, 0)
            assert abs(got - ref) <= 1e-12 * abs(ref)


def test_bilinear_table_validation():
    with pytest.raises(ValueError):
        BilinearTermTable((1.0, 0.0, 0.0, 0.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        PairingSpec("u1", "nope")
    with pytest.raises(ValueError):
        PairingSpec("u1", "u1", (1.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        PairingSpec("u1", "u1", (-1.0, 0.0))


# ------------------------------------------------------------ lambda1 dot


def test_lambda1_dot_values():
    assert lambda1_dot((0.0, 1.0)) == pytest.approx(28.0 / PI, rel=1e-15, abs=0.0)
    assert lambda1_dot((1.0, 0.0)) == pytest.approx(28.0 / PI, rel=1e-15, abs=0.0)
    s = 1.0 / math.sqrt(2.0)
    assert lambda1_dot((s, s)) == pytest.approx(28.0 * math.sqrt(2.0) / PI, rel=1e-15, abs=0.0)


def test_direction_derivatives_validate_direction():
    with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
        lambda1_dot((2.0, 0.0))
    with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
        second_eigenvalue_form((3.0, 4.0))


def test_second_eigenvalue_form_eigenvalues():
    # direction (0, 1): eigenvalues of the 2x2 form are 44/pi and 88/pi
    q = second_eigenvalue_form((0.0, 1.0))
    vals = np.sort(np.linalg.eigvalsh(q))
    assert vals[0] == pytest.approx(44.0 / PI, rel=1e-15, abs=0.0)
    assert vals[1] == pytest.approx(88.0 / PI, rel=1e-15, abs=0.0)


def _exact_form(a, b):
    """(lambda1', smaller and larger eigenvalue of the second form) in mpmath
    at the given float direction, from the paper's closed forms."""
    a, b, pi = mpmath.mpf(a), mpmath.mpf(b), mpmath.pi
    q11, q22, q12 = (44 * a + 77 * b) / pi, (88 * a + 55 * b) / pi, -11 * mpmath.sqrt(3) * b / pi
    half_split = mpmath.sqrt((q11 - q22) ** 2 + 4 * q12**2) / 2
    middle = (q11 + q22) / 2
    return 28 * (a + b) / pi, middle - half_split, middle + half_split


def test_first_variation_is_exact_to_rounding():
    # the closed-form totals give lambda1' and the split lambda2 slopes to
    # rounding over random directions, the axes included
    rng = np.random.default_rng(89)
    angles = np.concatenate([[0.0, PI / 2], rng.uniform(0.0, PI / 2, 1998)])
    worst = 0.0
    with mpmath.workdps(40):
        for phi in angles:
            direction = (math.cos(phi), math.sin(phi))
            got = (lambda1_dot(direction), *np.linalg.eigvalsh(second_eigenvalue_form(direction)))
            for value, exact in zip(got, _exact_form(*direction)):
                worst = max(worst, float(abs(value - exact) / exact))
    assert worst <= 1e-15


# ------------------------------------------------------------ I(z, b)


def test_gap_variation_is_second_form_minus_lambda1_dot():
    # I(z, (a, b)) = v^T Q v - lambda1' with v = (cos z, sin z)
    rng = np.random.default_rng(83)
    for _ in range(200):
        z = float(rng.uniform(0.0, 2.0 * PI))
        b = float(rng.uniform(0.0, 1.0))
        direction = (math.sqrt(1.0 - b * b), b)
        v = np.array([math.cos(z), math.sin(z)])
        expected = v @ second_eigenvalue_form(direction) @ v - lambda1_dot(direction)
        assert abs(gap_variation_grid(z, direction) - expected) <= 1e-13


def test_gap_variation_matches_closed_form():
    rng = np.random.default_rng(79)
    for _ in range(200):
        z = float(rng.uniform(0.0, 2.0 * PI))
        b = float(rng.uniform(0.0, 1.0))
        a = math.sqrt(1.0 - b * b)
        assert abs(gap_variation_grid(z, (a, b)) - gap_variation_I_closed(z, b)) < 1e-10


def test_gap_variation_direction_validation():
    with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
        gap_variation_grid(0.3, (0.9, 0.9))
    with pytest.raises(ValueError, match="nonnegative"):
        gap_variation_grid(0.3, (-0.6, 0.8))
    for direction in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
            gap_variation_grid(0.0, direction)


def test_minimum_on_the_pure_a_branch():
    # b = 0 and sin(z) = 0 realizes the minimum 16/pi
    for z in (0.0, PI, 2.0 * PI):
        assert abs(gap_variation_grid(z, (1.0, 0.0)) - 16.0 / PI) < 1e-12


def test_grid_minimum():
    result = gap_variation_table(400, 400).minimum
    assert abs(result.value - 16.0 / PI) < 1e-6
    assert result.value >= 16.0 / PI - 1e-9


def test_grid_step_counts_must_be_positive():
    for z_steps, b_steps in ((0, 0), (0, 5), (5, 0), (-1, 5)):
        with pytest.raises(ValueError, match="step counts must be >= 1"):
            gap_variation_table(z_steps, b_steps)
        with pytest.raises(ValueError, match="step counts must be >= 1"):
            gap_variation_table(z_steps, b_steps, b=0.5)


def test_grid_equals_the_broadcast_evaluation():
    # every cell against numpy in the broadcast form the grid once took: the
    # same linspace, the same closed-form totals and the same operations
    table = gap_variation_table(721, 201)
    zs, bs = np.linspace(0.0, 2.0 * PI, 721), np.linspace(0.0, 1.0, 201)
    assert table.z == tuple(zs.tolist()) and table.b == tuple(bs.tolist())
    a = np.sqrt(1.0 - bs**2)
    total = {pair: a * ca + bs * cb for pair, (ca, cb) in variation._EXPECTED_TOTALS.items()}
    p, q = np.cos(zs[:, None]), np.sin(zs[:, None])
    u2_part = (p * p * total[("u2_1", "u2_1")]
               + p * q * (total[("u2_1", "u2_2")] + total[("u2_2", "u2_1")])
               + q * q * total[("u2_2", "u2_2")])
    expected = -u2_part + total[("u1", "u1")]
    # a row may differ only where numpy's cos or sin differs from math's
    same_trig = [np.cos(z) == math.cos(z) and np.sin(z) == math.sin(z) for z in table.z]
    got = np.asarray(table.values)
    assert any(same_trig)
    assert np.array_equal(got[same_trig], expected[same_trig])


def test_grid_is_exact_to_rounding():
    # I(z, b) at a seeded sample of the grid the variation command prints,
    # against mpmath at the same float z, b and a = sqrt(1 - b^2)
    table = gap_variation_table(721, 201)
    zs, bs, values = map(np.asarray, (table.z, table.b, table.values))
    a_values = np.sqrt(1.0 - bs**2)
    rng = np.random.default_rng(97)
    cells = zip(rng.integers(0, 721, 3000), rng.integers(0, 201, 3000))
    worst = 0.0
    with mpmath.workdps(40):
        for iz, ib in cells:
            a, b = mpmath.mpf(a_values[ib]), mpmath.mpf(bs[ib])
            p, q = mpmath.cos(mpmath.mpf(zs[iz])), mpmath.sin(mpmath.mpf(zs[iz]))
            # v^T Q v - lambda1' with v = (cos z, sin z)
            exact = (p * p * (44 * a + 77 * b) - 2 * p * q * 11 * mpmath.sqrt(3) * b
                     + q * q * (88 * a + 55 * b) - 28 * (a + b)) / mpmath.pi
            worst = max(worst, float(abs(values[iz, ib] - exact) / exact))
    assert worst <= 2e-15


def test_variation_table_one_direction():
    # a single direction ignores b_steps; b follows from a when only a is given
    for kwargs in ({"b": 0.8}, {"a": 0.6}, {"a": 0.6, "b": 0.8}):
        table = gap_variation_table(37, 5, **kwargs)
        values = np.asarray(table.values)
        assert values.shape == (37, 1)
        assert table.b[0] == pytest.approx(0.8, abs=1e-15)
        iz = int(np.argmin(values[:, 0]))
        assert table.minimum.value == values[iz, 0]
        assert table.minimum.z == table.z[iz] and table.minimum.b == table.b[0]
        assert table.minimum.value == pytest.approx(
            gap_variation_I_closed(table.minimum.z, 0.8), abs=1e-12)
    # the 1e-12 rule of geometry.check_direction
    for a, b in ((0.6, 0.6), (0.6, 0.8000000001)):
        with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
            gap_variation_table(5, 5, a=a, b=b)


def test_variation_lower_bound_everywhere():
    rng = np.random.default_rng(83)
    floor = 16.0 / PI - 1e-9
    for _ in range(500):
        z = float(rng.uniform(0.0, 2.0 * PI))
        b = float(rng.uniform(0.0, 1.0))
        assert gap_variation_I_closed(z, b) >= floor
        assert gap_variation_grid(z, (math.sqrt(1 - b * b), b)) >= floor


def test_slope_reference_consistency():
    # d/dt [4 pi / (pi/2 - t) + 10] at t = 0
    ref = 4.0 * PI / (PI / 2.0) ** 2
    assert abs(ref - MIN_GAP_VARIATION) < 1e-12
    assert abs(gap_variation_table(500, 500).minimum.value - ref) < 1e-12
    # one-sided difference of the exact gap curve, the gap of the half-lune
    # triangle of angle pi/2 - t: for t < 0 the angle passes pi/2 and the
    # other branch, of slope 60/pi, takes over
    h = 1e-6
    fd = (gap(TriangleSpec(PI / 2 - h)) - gap(TriangleSpec(PI / 2))) / h
    assert abs(fd - ref) < 1e-4
    assert gap(TriangleSpec(PI / 2)) == 18.0


def _exact_gap_slope(a, b):
    """Gamma'(0; a, b) = min over z of I(z, (a, b)) = (38(a+b) - 22 sqrt(1-ab))/pi:
    the smaller eigenvalue of second_eigenvalue_form, whose eigenvalues are
    (66(a+b) -+ 22 sqrt(1-ab))/pi, minus lambda1_dot = 28(a+b)/pi."""
    return (38.0 * (a + b) - 22.0 * np.sqrt(1.0 - a * b)) / PI


def test_grid_columns_attain_the_exact_slope():
    # I(z) = c + R cos(2(z - z*)) with R = 22 sqrt(1-ab)/pi, half the spread
    # of the form's eigenvalues, so a z step dz leaves the column minimum at
    # most R (1 - cos dz) above the exact one
    table = gap_variation_table(721, 201)
    bs = np.asarray(table.b)
    a = np.sqrt(1.0 - bs**2)
    exact = _exact_gap_slope(a, bs)
    column_min = np.asarray(table.values).min(axis=0)
    dz = table.z[1] - table.z[0]
    spacing_bound = 22.0 * np.sqrt(1.0 - a * bs) / PI * (1.0 - math.cos(dz))
    assert np.all(exact <= column_min + 1e-13)
    assert np.all(column_min - exact <= spacing_bound + 1e-13)
    # the slope is smallest, 16/pi, exactly on the axes ab = 0
    assert exact[0] == pytest.approx(16.0 / PI, abs=1e-14)
    assert exact[-1] == pytest.approx(16.0 / PI, abs=1e-14)
    assert np.all(exact[1:-1] > 16.0 / PI)


# ------------------------------------------------------------ verification


def test_verify_appendix_passes():
    report = verify_appendix()
    assert isinstance(report, AppendixReport)
    assert len(report.entries) == 30  # 25 term rows + 5 total rows
    assert report.passed
    assert max(e.abs_err for e in report.entries) < 1e-9
    labels = [e.label for e in report.entries]
    assert "u1*u1:I" in labels and "u2_2*u2_2:total" in labels


def test_verify_appendix_reports_failures_instead_of_passing_silently(monkeypatch):
    # one printed value off by 1e-6: only its entry fails, and the report with it
    terms = list(variation._EXPECTED_TERMS[("u1", "u1")])
    terms[0] += 1e-6
    monkeypatch.setitem(variation._EXPECTED_TERMS, ("u1", "u1"), tuple(terms))
    report = verify_appendix()
    assert not report.passed
    assert [e.label for e in report.failures()] == ["u1*u1:I"]
