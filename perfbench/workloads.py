"""The benchmark's workloads: operation lists made from a seed, and their checks.

A CLI workload is a list of `spheregap` commands, each run in a fresh
process as `python -m spheregap.cli ARGS`. The library workload is a list
of eigenfunction jobs that eigen_driver.py runs in one process. Every check
compares an output with oracles.py, never with stored program output.
A check returns a list of error messages; an empty list means the output
is correct.
"""
import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

PI = math.pi

SPECTRUM_BETAS_PI = ("0.1", "0.125", "0.2", "0.25", "0.4", "0.5", "0.75", "1", "1.25", "1.5", "1.75")
SOLVE_T = 0.05
SLOPE_GRID_N = 96
EIGEN_BETAS = tuple(f"{b}*pi" for b in (0.5, 0.625, 0.75, 0.875, 1, 1.125, 1.25, 1.375, 1.5))
# normalization_constant raises ConvergenceError on these thin-domain modes
# at every call (cancellation in the Legendre series); they stay in the
# workload as counted failures, with points that do not depend on the seed.
THIN_FAILING = (("triangle", "0.75", 2, 3), ("triangle", "0.75", 3, 2), ("triangle", "0.75", 3, 3),
                ("lune", "0.75", 3, 3), ("triangle", "1", 3, 3))
EIGEN_TOL = 1e-8  # of max |u| over the interior points, inside and on the boundary


@dataclass(frozen=True)
class CliOp:
    name: str
    args: tuple
    check: Callable[[str], list]


@dataclass(frozen=True)
class CliWorkload:
    ops: tuple
    reruns: tuple  # ops run once more when a run makes one round only; their stdout must repeat


@dataclass(frozen=True)
class EigenWorkload:
    jobs: tuple  # dicts: domain, beta_text, beta, k, j, points (interior points first), interior


def _parse(text, fmt):
    """(summary, rows) of a CSV or JSON command output."""
    if fmt == "json":
        payload = json.loads(text)
        return payload.get("summary", {}), payload["rows"]
    lines = text.splitlines()
    summary = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        summary[key] = value
    return summary, list(csv.DictReader(lines))


def _off(got, want, tol):
    """True when got misses want by more than tol."""
    return not abs(got - want) <= tol


def _rows(errs, rows, count):
    if len(rows) != count:
        errs.append(f"{len(rows)} rows, want {count}")


# closed-form-cli ----------------------------------------------------------

def _spectrum(domain, beta_pi, count, fmt):
    want = oracles.spectrum_levels(domain, float(beta_pi) * PI, count)

    def check(text):
        errs = []
        _, rows = _parse(text, fmt)
        _rows(errs, rows, count)
        for row, (lam, modes) in zip(rows, want):
            if _off(float(row["eigenvalue"]), lam, 1e-12 * lam):
                errs.append(f"eigenvalue {row['eigenvalue']}, want {lam!r}")
            if (int(row["multiplicity"]) != len(modes)
                    or row["modes"] != ";".join(f"{k}:{j}" for k, j in modes)):
                errs.append(f"level {lam!r}: modes {row['modes']}, want {modes}")
        return errs

    args = ("spectrum", "--domain", domain, "--beta-pi", beta_pi, "--count", str(count),
            "--format", fmt)
    return CliOp(f"spectrum-{domain}", args, check)


def _gap_curve(domain, lo_pi, hi_pi, steps, fmt):
    lo, hi = float(lo_pi) * PI, float(hi_pi) * PI

    def check(text):
        errs = []
        _, rows = _parse(text, fmt)
        _rows(errs, rows, steps + 1)
        for i, row in enumerate(rows):
            beta = float(row["beta"])
            gap, regime = oracles.gap_closed_form(domain, beta)
            if _off(beta, lo + (hi - lo) * i / steps, 1e-14 * hi):
                errs.append(f"row {i}: beta {beta!r} off the grid")
            if _off(float(row["gap"]), gap, 1e-12 * gap) or row["regime"] != regime:
                errs.append(f"beta {beta!r}: gap {row['gap']} {row['regime']}, want {gap!r} {regime}")
        return errs

    args = ("gap-curve", "--domain", domain, "--beta-min-pi", lo_pi, "--beta-max-pi", hi_pi,
            "--steps", str(steps), "--format", fmt)
    return CliOp(f"gap-curve-{domain}", args, check)


def _check_variation_summary(errs, summary, rows_min):
    value = float(summary["min_value"])
    at_argmin = oracles.variation_I(float(summary["argmin_z"]), float(summary["argmin_b"]))
    if _off(value, rows_min, 1e-12) or _off(value, at_argmin, 1e-12):
        errs.append(f"min_value {value!r}, want {rows_min!r} (I at argmin {at_argmin!r})")
    if value < oracles.MIN_GAP_VARIATION - 1e-12:
        errs.append(f"min_value {value!r} below 16/pi")
    if _off(float(summary["reference_16_over_pi"]), oracles.MIN_GAP_VARIATION, 1e-15):
        errs.append(f"reference_16_over_pi {summary['reference_16_over_pi']}")
    if _off(float(summary["abs_diff"]), abs(value - oracles.MIN_GAP_VARIATION), 1e-15):
        errs.append(f"abs_diff {summary['abs_diff']}")


def _variation_grid(z_steps, b_steps):
    def check(text):
        errs = []
        summary, rows = _parse(text, "csv")
        _rows(errs, rows, z_steps * b_steps)
        best = math.inf
        for idx, row in enumerate(rows):
            iz, ib = divmod(idx, b_steps)
            z, b, value = float(row["z"]), float(row["b"]), float(row["value"])
            if _off(z, 2 * PI * iz / (z_steps - 1), 1e-12) or _off(b, ib / (b_steps - 1), 1e-12):
                errs.append(f"row {idx}: (z, b) = ({z!r}, {b!r}) off the grid")
            want = oracles.variation_I(z, b)
            best = min(best, want)
            if _off(value, want, 1e-12):
                errs.append(f"I({z!r}, {b!r}) = {value!r}, want {want!r}")
        _check_variation_summary(errs, summary, best)
        if _off(float(summary["min_value"]), oracles.MIN_GAP_VARIATION, 1e-12):
            errs.append(f"grid minimum {summary['min_value']}, want 16/pi")
        return errs

    args = ("variation", "--z-steps", str(z_steps), "--b-steps", str(b_steps))
    return CliOp("variation-grid", args, check)


def _variation_direction(b_text, z_steps):
    b = float(b_text)

    def check(text):
        errs = []
        summary, rows = _parse(text, "csv")
        _rows(errs, rows, z_steps)
        best = math.inf
        for row in rows:
            z, value = float(row["z"]), float(row["value"])
            want = oracles.variation_I(z, b)
            best = min(best, want)
            if float(row["b"]) != b or _off(value, want, 1e-12):
                errs.append(f"I({z!r}, {row['b']}) = {value!r}, want {want!r}")
        _check_variation_summary(errs, summary, best)
        if float(summary["argmin_b"]) != b:
            errs.append(f"argmin_b {summary['argmin_b']}, want {b!r}")
        return errs

    args = ("variation", "--b", b_text, "--z-steps", str(z_steps))
    return CliOp("variation-direction", args, check)


def _verify_appendix(fmt):
    a, b = 0.6, 0.8  # the direction at which verify-appendix checks the totals

    def check(text):
        errs = []
        summary, rows = _parse(text, fmt)
        _rows(errs, rows, 6 * len(oracles.PAIRING_TOTALS))
        if int(summary["passed"]) != 1:
            errs.append(f"passed={summary['passed']}")
        totals = set()
        for row in rows:
            computed, expected = float(row["computed"]), float(row["expected"])
            if not abs(computed - expected) < 1e-9 or _off(float(row["abs_err"]), abs(computed - expected), 1e-15):
                errs.append(f"{row['label']}: computed {computed!r}, expected {expected!r}, abs_err {row['abs_err']}")
            pair, _, term = row["label"].partition(":")
            if term == "total":
                totals.add(pair)
                ca, cb = oracles.PAIRING_TOTALS[pair]
                if _off(computed, a * ca + b * cb, 1e-9):
                    errs.append(f"{pair} total {computed!r}, paper {a * ca + b * cb!r}")
        if totals != set(oracles.PAIRING_TOTALS):
            errs.append(f"totals reported for {sorted(totals)}")
        return errs

    return CliOp(f"verify-appendix-{fmt}", ("verify-appendix", "--format", fmt), check)


def _closed_form_ops(rng):
    lo = lambda: f"{rng.uniform(0.02, 0.1):.4f}"
    hi = lambda: f"{rng.uniform(1.8, 1.95):.4f}"
    return (
        _spectrum("lune", rng.choice(SPECTRUM_BETAS_PI), 30, "csv"),
        _spectrum("triangle", rng.choice(SPECTRUM_BETAS_PI), 30, "json"),
        _gap_curve("lune", lo(), hi(), 2000, "json"),
        _gap_curve("triangle", lo(), hi(), 2000, "csv"),
        _variation_grid(721, 201),
        _variation_direction(f"{rng.uniform(0.15, 0.85):.6f}", 721),
        _verify_appendix("csv"),
        _verify_appendix("json"),
    )


# FEM commands -----------------------------------------------------------------

def _direction(degrees):
    """CLI strings for the unit direction at `degrees`; the axes are exact."""
    if degrees in (0, 90):
        return ("1", "0") if degrees == 0 else ("0", "1")
    rad = math.radians(degrees)
    return repr(math.cos(rad)), repr(math.sin(rad))


def _h(grid_n):
    return (PI / 2) / (grid_n - 1)


def _solve(degrees, t, grid_n, fmt):
    a_text, b_text = _direction(degrees)
    a, b = float(a_text), float(b_text)
    h2 = _h(grid_n) ** 2
    axis = degrees in (0, 90)
    # Along an axis T(t) is the half-lune triangle of angle pi/2 - t. In
    # general T(t) lies inside that triangle for angle pi/2 - max(a, b) t,
    # so its eigenvalues lie above that triangle's (domain monotonicity).
    # Conforming Q1 eigenvalues lie above the exact ones by O(lambda h^2).
    exact = oracles.smallest_eigenvalues("triangle", PI / 2 - max(a, b) * t, 4)

    def check(text):
        errs = []
        summary, rows = _parse(text, fmt)
        _rows(errs, rows, 4)
        vals = [float(row["eigenvalue"]) for row in rows]
        for i, (got, lam) in enumerate(zip(vals, exact)):
            upper = lam * (1 + 0.1 * lam * h2) if axis else math.inf
            if not lam * (1 - 1e-9) <= got <= upper:
                errs.append(f"lambda_{i + 1} = {got!r} outside [{lam!r}, {upper!r}]")
        if not axis and vals:
            first_order = 12 + 28 * (a + b) * t / PI
            allowance = 144 / PI**2 * ((a + b) * t) ** 2 + 0.1 * vals[0] ** 2 * h2
            if _off(vals[0], first_order, allowance):
                errs.append(f"lambda_1 = {vals[0]!r}, want {first_order!r} +- {allowance!r}")
        if len(vals) >= 2 and _off(float(summary["gap"]), vals[1] - vals[0], 1e-12):
            errs.append(f"gap {summary['gap']} is not lambda_2 - lambda_1")
        return errs

    args = ("solve", "--a", a_text, "--b", b_text, "--t", repr(t), "--grid-n", str(grid_n),
            "--modes", "4", "--format", fmt)
    return CliOp(f"solve-{degrees:g}deg-n{grid_n}", args, check)


def _gap_slope(degrees, t_values, grid_n, fmt):
    a_text, b_text = _direction(degrees)
    a, b = float(a_text), float(b_text)
    allowance = 10 * _h(grid_n) ** 2   # relative; measured slope error 4 h^2 at n = 96
    gap_allowance = 5 * _h(grid_n) ** 2  # relative; measured 2 h^2
    reference = oracles.variation_min_over_z(a, b)

    def check(text):
        errs = []
        summary, rows = _parse(text, fmt)
        _rows(errs, rows, len(t_values))
        slope, gap0 = float(summary["slope"]), float(summary["gap_at_zero"])
        if int(summary["warning"]) != 0:
            errs.append("warning=1")
        if _off(slope, reference, allowance * reference):
            errs.append(f"slope {slope!r}, want min_z I = {reference!r}")
        if slope < oracles.MIN_GAP_VARIATION * (1 - allowance):
            errs.append(f"slope {slope!r} below 16/pi")
        if _off(gap0, 18.0, 18.0 * gap_allowance):
            errs.append(f"gap_at_zero {gap0!r}, want 18")
        for row, t in zip(rows, t_values):
            t_row, gap, row_slope = float(row["t"]), float(row["gap"]), float(row["slope"])
            if t_row != t or _off(row_slope, (gap - gap0) / t, 1e-9 * abs(row_slope)):
                errs.append(f"t={row['t']}: slope {row_slope!r} is not (gap - gap_at_zero) / t")
            if degrees in (0, 90) and _off(gap, oracles.one_sided_gap(t), gap_allowance * gap):
                errs.append(f"t={t!r}: gap {gap!r}, want {oracles.one_sided_gap(t)!r}")
        return errs

    args = ("gap-slope", "--a", a_text, "--b", b_text,
            "--t-list", ",".join(repr(t) for t in t_values), "--grid-n", str(grid_n),
            "--format", fmt)
    return CliOp(f"gap-slope-{degrees}deg", args, check)


def _fem_ops(rng):
    angle = round(rng.uniform(30.0, 60.0), 3)
    scale = round(rng.uniform(0.8, 1.25), 4)
    t_values = [round(t * scale, 8) for t in (0.02, 0.01, 0.005)]
    return (
        _solve(0, SOLVE_T, 192, "csv"),
        _solve(angle, SOLVE_T, 256, "json"),
        _gap_slope(45, t_values, SLOPE_GRID_N, "json"),
        _gap_slope(90, t_values, SLOPE_GRID_N, "csv"),
    )


def cli(rng):
    """The closed-form commands, then the FEM commands; after a single round,
    the full variation grid and the gap slope along (0, 1) are run once more."""
    ops = _closed_form_ops(rng) + _fem_ops(rng)
    names = [op.name for op in ops]
    return CliWorkload(ops, reruns=(names.index("variation-grid"), names.index("gap-slope-90deg")))


# eigenfunctions -------------------------------------------------------------

def eigen_cases():
    """(domain, beta text, k, j) of every job: beta in [pi/2, 3pi/2], k <= 3,
    j <= 3, then the thin-domain failing set."""
    main = [(domain, beta, k, j)
            for beta in EIGEN_BETAS
            for domain in ("lune", "triangle")
            for k in range(1, 4)
            for j in range(4)]
    return main + list(THIN_FAILING)


def _points(rng, domain, beta):
    """16 jittered interior points, then 7 on Dirichlet edges and poles."""
    r_max = PI if domain == "lune" else PI / 2
    u = lambda: rng.uniform(0.1, 0.9)
    interior = [(r_max * (i + u()) / 4, beta * (m + u()) / 4) for i in range(4) for m in range(4)]
    edges = [(r_max * u(), 0.0), (r_max * u(), 0.0), (r_max * u(), beta), (r_max * u(), beta),
             (0.0, beta * u()), (r_max, beta * u()), (r_max, beta * u())]
    return interior + edges, len(interior)


def eigenfunctions(rng):
    fixed = random.Random(0)
    jobs = []
    for case in eigen_cases():
        domain, beta_text, k, j = case
        beta = oracles.beta_value(beta_text)
        points, interior = _points(fixed if case in THIN_FAILING else rng, domain, beta)
        jobs.append({"domain": domain, "beta_text": beta_text, "beta": beta, "k": k, "j": j,
                     "points": points, "interior": interior})
    return EigenWorkload(tuple(jobs))


def eigen_reference(job):
    """mpmath values of the normalized mode at the job's interior points."""
    return oracles.normalized_values(job["domain"], job["beta_text"], job["k"], job["j"],
                                     job["points"][:job["interior"]])


def check_eigen(job, values, reference):
    """Normalized values against the reference, up to one global sign."""
    n = job["interior"]
    scale = max(abs(v) for v in reference)
    inside = values[:n]
    miss = min(max(abs(g - w) for g, w in zip(inside, reference)),
               max(abs(g + w) for g, w in zip(inside, reference))) / scale
    errs = []
    if not miss <= EIGEN_TOL:
        errs.append(f"misses the Ferrers reference by {miss:.3e} of max|u|")
    edge = max(abs(v) for v in values[n:]) / scale
    if not edge <= EIGEN_TOL:
        errs.append(f"|u| on the boundary reaches {edge:.3e} of max|u|")
    return errs


WORKLOADS = {
    "cli": cli,
    "eigenfunctions": eigenfunctions,
}
