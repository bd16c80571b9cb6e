"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured quantities. The heavy finite-element criteria reuse cached solves
within the module.
"""
import math
import time

import numpy as np
import pytest

from spheregap.fem import assemble, gap_slope, solve_smallest
from spheregap.geometry import DeformationParams
from spheregap.special import legendre_p, legendre_p_many
from spheregap.spectra import (
    LuneSpec,
    ModeIndex,
    TriangleSpec,
    eigenvalue,
    gap,
    spectrum,
)
from spheregap.variation import gap_variation_table, verify_appendix

PI = math.pi
REF_SLOPE = 16.0 / PI


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def equilateral_solutions():
    """Eigenvalues of the undeformed triangle for grid_n in {24, 48, 96}."""
    out = {}
    for n in (24, 48, 96):
        problem = assemble(DeformationParams(0.0, 1.0, 0.0), n)
        vals, _ = solve_smallest(problem, 3)
        out[n] = vals
    return out


@pytest.fixture(scope="module")
def variation_minimum():
    return gap_variation_table(2000, 2000).minimum


def test_criterion_01_closed_form_spectrum():
    tri = TriangleSpec(PI / 2)
    spectrum(tri, 2)  # warm caches before timing
    start = time.perf_counter()
    entries = spectrum(tri, 2)
    elapsed = time.perf_counter() - start
    ok = (
        entries[0].eigenvalue == 12.0
        and [(m.k, m.j) for m in entries[0].modes] == [(1, 0)]
        and entries[1].eigenvalue == 30.0
        and [(m.k, m.j) for m in entries[1].modes] == [(1, 1), (2, 0)]
        and elapsed < 1e-3
    )
    _report(1, "equilateral spectrum 12 and 30 with multiplicities 1, 2", ok,
            f"runtime {elapsed * 1e3:.3f} ms")


def test_criterion_02_gap_formulas():
    rng = np.random.default_rng(2024)
    betas = rng.uniform(0.02, 2.0 * PI - 0.02, size=50)
    start = time.perf_counter()
    worst = 0.0
    for beta in betas:
        for spec in (LuneSpec(float(beta)), TriangleSpec(float(beta))):
            # the definition, min(lambda(1, 1), lambda(2, 0)) - lambda(1, 0)
            ref = (min(eigenvalue(spec, ModeIndex(1, 1)), eigenvalue(spec, ModeIndex(2, 0)))
                   - eigenvalue(spec, ModeIndex(1, 0)))
            worst = max(worst, abs(gap(spec) - ref) / ref)
    elapsed = time.perf_counter() - start
    eps = 1e-9
    crossover_ok = (
        abs(gap(LuneSpec(PI - eps)) - (2 * PI / (PI - eps) + 2)) < 1e-10
        and abs(gap(LuneSpec(PI + eps)) - (3 * (PI / (PI + eps)) ** 2 + PI / (PI + eps))) < 1e-10
        and abs(gap(TriangleSpec(PI / 2 - eps)) - (4 * PI / (PI / 2 - eps) + 10)) < 1e-10
        and abs(gap(TriangleSpec(PI / 2 + eps)) - (3 * (PI / (PI / 2 + eps)) ** 2 + 3 * PI / (PI / 2 + eps))) < 1e-10
    )
    ok = worst <= 1e-12 and crossover_ok and elapsed < 1e-2
    _report(2, "piecewise gap formulas over 50 random angles per domain", ok,
            f"worst rel err {worst:.2e}, runtime {elapsed * 1e3:.2f} ms")


def test_criterion_03_gap_divergence():
    betas = np.logspace(math.log10(3.0), -4, 40)
    start = time.perf_counter()
    gaps = np.array([gap(LuneSpec(float(b))) for b in betas])
    elapsed = time.perf_counter() - start
    formula = 2.0 * PI / betas + 2.0
    in_branch = betas <= PI
    rel = np.abs(gaps[in_branch] - formula[in_branch]) / formula[in_branch]
    ok = (
        bool(np.all(np.diff(gaps) > 0.0))
        and gaps[-1] > 6e4
        and float(rel.max()) <= 2.0 * np.finfo(float).eps
        and elapsed < 1e-2
    )
    _report(3, "lune gap 2*pi/beta + 2 increases without bound as beta -> 0", ok,
            f"gap(1e-4) = {gaps[-1]:.5g}, runtime {elapsed * 1e3:.2f} ms")


def test_criterion_04_appendix_reproduction():
    start = time.perf_counter()
    report = verify_appendix()
    elapsed = time.perf_counter() - start
    worst = max(entry.abs_err for entry in report.entries)
    n_terms = sum(1 for e in report.entries if not e.label.endswith("total"))
    n_totals = sum(1 for e in report.entries if e.label.endswith("total"))
    ok = report.passed and n_terms == 25 and n_totals == 5 and elapsed < 1.0
    _report(4, "all 25 pairing terms and 5 totals match closed forms", ok,
            f"worst abs err {worst:.2e}, runtime {elapsed:.3f} s")


def test_criterion_05_variation_minimum(variation_minimum):
    start = time.perf_counter()
    result = gap_variation_table(2000, 2000).minimum
    elapsed = time.perf_counter() - start
    diff = abs(result.value - REF_SLOPE)
    ok = diff < 1e-6 and elapsed < 30.0
    _report(5, "2000x2000 grid minimum of I(z, b) equals 16/pi", ok,
            f"min {result.value:.10f}, |diff| {diff:.2e}, runtime {elapsed:.2f} s")


def test_criterion_06_remark_cross_check(variation_minimum):
    ref = 4.0 * PI / (PI / 2.0) ** 2  # d/dt [4 pi / (pi/2 - t) + 10] at t = 0
    ok = (
        abs(ref - REF_SLOPE) < 1e-12
        and abs(variation_minimum.value - ref) < 1e-12
        and gap(TriangleSpec(PI / 2)) == 18.0
    )
    _report(6, "d/dt of the exact one-sided gap curve equals min I = 16/pi", ok,
            f"slope {ref:.12f}, min I {variation_minimum.value:.12f}")


def test_criterion_07_fem_accuracy_and_order(equilateral_solutions):
    start = time.perf_counter()
    vals96 = equilateral_solutions[96]
    errors = {n: abs(equilateral_solutions[n][0] - 12.0) for n in (24, 48, 96)}
    elapsed = time.perf_counter() - start  # fixture already built; timing below
    rate_1 = math.log2(errors[24] / errors[48])
    rate_2 = math.log2(errors[48] / errors[96])
    ok = (
        abs(vals96[0] - 12.0) < 0.005 * 12.0
        and abs(vals96[1] - 30.0) < 0.01 * 30.0
        and 1.7 < rate_1 < 2.5
        and 1.7 < rate_2 < 2.5
    )
    _report(7, "grid-96 eigenvalues within 0.5%/1% and h^2 convergence", ok,
            f"lam1 {vals96[0]:.5f}, lam2 {vals96[1]:.5f}, orders {rate_1:.2f}/{rate_2:.2f}")


def test_criterion_07_runtime():
    start = time.perf_counter()
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), 96)
    solve_smallest(problem, 3)
    elapsed = time.perf_counter() - start
    _report(7, "grid-96 assemble-and-solve runtime under 2 minutes",
            elapsed < 120.0, f"runtime {elapsed:.2f} s")


def test_criterion_08_gap_slope_axis_directions():
    grid_n = 96
    t_values = [0.02, 0.01, 0.005]
    start = time.perf_counter()
    ok = True
    details = []
    for direction in ((1.0, 0.0), (0.0, 1.0)):
        result = gap_slope(direction, t_values, grid_n)
        slope_ok = abs(result.slope - REF_SLOPE) < 0.05 * REF_SLOPE
        # along either axis the gap of T(t) is that of the half-lune
        # triangle of angle pi/2 - t
        exact = [gap(TriangleSpec(PI / 2 - t)) for t in result.t_values]
        curve_ok = all(abs(g - e) < 0.01 * e for g, e in zip(result.gaps, exact))
        ok = ok and slope_ok and curve_ok
        details.append(f"(a,b)={direction}: slope {result.slope:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _report(8, "axis-direction slopes within 5% of 16/pi, gaps within 1% of exact",
            ok, "; ".join(details) + f"; runtime {elapsed:.1f} s")


def test_criterion_09_slope_lower_bound_sampled_directions():
    grid_n = 64
    t_values = [0.02, 0.01, 0.005]
    floor = REF_SLOPE * 0.95
    slopes = []
    ok = True
    for angle_deg in (0.0, 27.0, 45.0, 63.0, 90.0):
        a = math.cos(math.radians(angle_deg))
        b = math.sin(math.radians(angle_deg))
        if a < 1e-12:
            a = 0.0
            b = 1.0
        result = gap_slope((a, b), t_values, grid_n)
        slopes.append(result.slope)
        ok = ok and result.slope >= floor
    _report(9, "slope >= 0.95 * 16/pi for five sampled directions", ok,
            "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


def test_criterion_10_special_function_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(5150)
    ok = True
    # ODE residual at stated step and tolerance
    for ell, mu in ((2.0, -2.0), (4.5, -2.5), (5.0, -4.0)):
        lam = ell * (ell + 1.0)
        for x in rng.uniform(-0.9, 0.9, size=20):
            h = 1e-4
            f = legendre_p_many(ell, mu, np.array([x - h, x, x + h]))
            d1 = (f[2] - f[0]) / (2 * h)
            d2 = (f[2] - 2 * f[1] + f[0]) / h**2
            resid = (1 - x * x) * d2 - 2 * x * d1 + (lam - mu * mu / (1 - x * x)) * f[1]
            ok = ok and abs(resid) < 1e-6
    # endpoint vanishing, monotone through x = +-(1 - 10^-k)
    for ell, mu in ((3.0, -2.0), (4.5, -2.5)):
        xs = np.array([1.0 - 10.0**-k for k in range(2, 7)])
        for side in (xs, -xs):
            vals = np.abs(legendre_p_many(ell, mu, side))
            ok = ok and bool(np.all(np.diff(vals) < 0.0))
    # degree reflection
    for ell, mu in ((3.7, -1.5), (5.5, -2.5)):
        for x in rng.uniform(-0.9, 0.999, size=10):
            ok = ok and abs(legendre_p(ell, mu, float(x))
                            - legendre_p(-ell - 1.0, mu, float(x))) < 1e-9
    # integer-order agreement with the Rodrigues construction
    for _ in range(25):
        m = int(rng.integers(1, 5))
        ell = m + int(rng.integers(0, 5))
        x = float(rng.uniform(-0.95, 0.95))
        coeffs = np.zeros(ell + 1)
        coeffs[ell] = 1.0
        dm = np.polynomial.legendre.legval(x, np.polynomial.legendre.legder(coeffs, m))
        ref = math.factorial(ell - m) / math.factorial(ell + m) * (1 - x * x) ** (m / 2) * dm
        ok = ok and abs(legendre_p(float(ell), float(-m), x) - ref) <= 1e-9 * max(1.0, abs(ref))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(10, "special-function property suite at stated tolerances", ok,
            f"runtime {elapsed:.2f} s")
