"""Closed-form Dirichlet spectra of spherical lunes and half-lune triangles.

A lune of opening angle beta is the region between two meridians in geodesic
polar coordinates (r, theta), 0 <= r <= pi, 0 <= theta <= beta; the
half-lune triangle is its upper half 0 <= r <= pi/2 with the extra Dirichlet
edge r = pi/2 (angles beta, pi/2, pi/2; equilateral when beta = pi/2).
Separation of variables gives eigenfunctions

    u = P_l^(-k pi/beta)(cos r) * sin(k pi theta / beta)

with degree l = k pi/beta + j for the lune and l = k pi/beta + 2j + 1 for
the triangle, and eigenvalues l(l+1).

Spectra and gaps need math only; the functions of the eigenfunction half
import numpy and the special functions where they use them.
"""
import heapq
import math
import numbers
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

# modes whose eigenvalues lie within this many ulps of a level's smallest
# one join that level: coincident degrees at rational beta / pi differ by
# rounding alone (at most 4 ulps of lambda observed), while neighbouring
# levels differ by about 2 beta / pi relative, which stays above it down to
# beta of about 1e-14
COALESCE_ULPS = 8

# Gauss-Legendre points per axis of the normalization integral
_NORM_NODES = 200


@dataclass(frozen=True)
class _DomainSpec:
    """Domain 0 <= r <= r_max, 0 <= theta <= beta, beta in (0, 2*pi). A
    subclass sets r_max, the (beta, label) crossover of the gap regimes
    (second eigenvalue mode (1, 1) up to it, (2, 0) above) and degree(mode)."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 2.0 * math.pi:
            raise ValueError(f"beta must lie in (0, 2*pi), got {self.beta}")


@dataclass(frozen=True)
class LuneSpec(_DomainSpec):
    """Spherical lune with opening angle beta in (0, 2*pi)."""

    r_max = math.pi
    crossover = (math.pi, "pi")

    def degree(self, mode: "ModeIndex") -> float:
        """Legendre degree k*pi/beta + j of the radial factor."""
        return mode.k * math.pi / self.beta + mode.j


@dataclass(frozen=True)
class TriangleSpec(_DomainSpec):
    """Half-lune triangle bounded by theta = 0, theta = beta, r = pi/2: its
    modes are the lune modes odd about the equator r = pi/2."""

    r_max = math.pi / 2
    crossover = (math.pi / 2, "pi/2")

    def degree(self, mode: "ModeIndex") -> float:
        """Legendre degree k*pi/beta + 2j + 1 of the radial factor."""
        return mode.k * math.pi / self.beta + 2 * mode.j + 1


@dataclass(frozen=True)
class ModeIndex:
    """Separated-mode index: angular wavenumber k >= 1, radial index j >= 0."""

    k: int
    j: int

    def __post_init__(self):
        # numbers.Integral covers int and the numpy integer types
        if not (isinstance(self.k, numbers.Integral) and isinstance(self.j, numbers.Integral)):
            raise ValueError(f"k and j must be integers, got k = {self.k!r}, j = {self.j!r}")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.j < 0:
            raise ValueError("j must be a nonnegative integer")


@dataclass(frozen=True)
class SpectrumEntry:
    """One distinct eigenvalue with every mode index that attains it."""

    eigenvalue: float
    modes: tuple


def eigenvalue(spec, mode: ModeIndex) -> float:
    """l(l+1) with l = spec.degree(mode). Raises DomainError when it is not
    finite, as for beta below about 2.3e-154."""
    x = spec.degree(mode)
    lam = x * (x + 1.0)
    if not math.isfinite(lam):
        raise DomainError(f"eigenvalue {lam} of mode ({mode.k}, {mode.j}) "
                          f"at beta = {spec.beta} is not finite")
    return lam


def spectrum(spec, count: int) -> list:
    """The `count` smallest distinct eigenvalues, each with its full mode list.

    Both eigenvalue formulas increase strictly in k and in j, so (1, 0) ..
    (count, 0) are count distinct values, and so are (1, 0) .. (1, count - 1):
    every mode of the count smallest distinct eigenvalues has k <= count and
    j < count, and the returned mode lists are complete. Modes whose values
    differ by at most COALESCE_ULPS ulps are reported as one entry; below
    beta of about 1e-14 neighbouring lune levels come that close and merge.

    The modes of that box are visited in ascending (eigenvalue, k, j) order
    by a heap merge: (k, j) enters the heap when (k, j - 1) leaves it, or
    (k - 1, 0) when j = 0, both with smaller eigenvalues. Visiting M modes
    evaluates at most 2M + 1 eigenvalues, not count^2.
    """
    if count < 1:
        raise ValueError("count must be >= 1")

    def candidate(k, j):
        # (k, j) decides between equal eigenvalues, so mode is never compared
        mode = ModeIndex(k, j)
        return eigenvalue(spec, mode), k, j, mode

    heap = [candidate(1, 0)]
    entries = []
    while heap:
        lam, k, j, mode = heapq.heappop(heap)
        if entries and lam - entries[-1][0] <= COALESCE_ULPS * math.ulp(lam):
            entries[-1][1].append(mode)
        elif len(entries) == count:
            break
        else:
            entries.append((lam, [mode]))
        if j + 1 < count:
            heapq.heappush(heap, candidate(k, j + 1))
        if j == 0 and k < count:
            heapq.heappush(heap, candidate(k + 1, 0))
    return [
        SpectrumEntry(lam, tuple(sorted(modes, key=lambda m: (m.k, m.j))))
        for lam, modes in entries
    ]


def gap(spec) -> float:
    """Fundamental gap lambda_2 - lambda_1 in closed form, with x = pi/beta.

    Up to the crossover angle spec.crossover the second eigenvalue is mode
    (1, 1) and the gap is 2x + 2 (lune) or 4x + 10 (triangle); above it,
    mode (2, 0) and 3x^2 + x or 3x^2 + 3x. Written in x, the gap keeps full
    relative precision on thin domains, where it is the difference of two
    eigenvalues of size x^2. Raises DomainError when it is not finite (beta
    below about 3.5e-308 for the lune, 7e-308 for the triangle).
    """
    x = math.pi / spec.beta
    above = spec.beta > spec.crossover[0]
    if isinstance(spec, LuneSpec):
        value = 3.0 * x * x + x if above else 2.0 * x + 2.0
    else:
        value = 3.0 * x * x + 3.0 * x if above else 4.0 * x + 10.0
    if not math.isfinite(value):
        raise DomainError(f"gap {value} at beta = {spec.beta} is not finite")
    return value


def gap_regime(spec) -> str:
    """Which branch of the piecewise gap formula is active."""
    edge, label = spec.crossover
    return f"beta>{label}" if spec.beta > edge else f"beta<={label}"


def _radial_values(spec, mode: ModeIndex, r):
    import numpy as np
    from . import special

    degree, order = spec.degree(mode), -(mode.k * math.pi / spec.beta)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    x = np.cos(r)
    # south pole r = pi maps to x = -1; admissible modes vanish there
    x_clip = np.where(x <= -1.0, 0.0, x)
    vals = special.legendre_p_many(degree, order, x_clip)
    vals = np.where(x <= -1.0, 0.0, vals)
    if isinstance(spec, TriangleSpec):
        # slope of P in x = cos(r) at the r = pi/2 edge; nonzero because the
        # radial factor vanishes there and solves a second-order ODE
        slope = special.legendre_p_dx(degree, order)
        if slope == 0.0 or not math.isfinite(slope):
            raise DomainError(f"radial scale P'(0) = {slope} of mode ({mode.k}, {mode.j}) "
                              f"at beta = {spec.beta} is zero or not finite")
        vals = vals / slope
    return vals


def eigenfunction_eval(spec, mode: ModeIndex, r: float, theta: float) -> float:
    """Unnormalized separated eigenfunction at (r, theta).

    Vanishes on every Dirichlet edge. For triangles the radial factor is
    scaled to unit slope in cos(r) at the r = pi/2 edge, so for beta = pi/2
    the three lowest modes reduce to the plain trigonometric forms
    sin^2(r)cos(r)sin(2 theta), (3cos^5 - 4cos^3 + cos)(r)sin(2 theta) and
    cos(r)sin^4(r)sin(4 theta). On thin triangles that scale underflows to
    0 (beta = 0.019, mode (1, 0)), and DomainError is raised.
    """
    if not (0.0 <= theta <= spec.beta) or not (0.0 <= r <= spec.r_max):
        raise DomainError(
            f"point (r={r}, theta={theta}) outside the coordinate domain"
        )
    x = mode.k * math.pi / spec.beta
    return float(_radial_values(spec, mode, r)[0] * math.sin(x * theta))


def normalization_constant(spec, mode: ModeIndex) -> float:
    """Constant c making c * eigenfunction have unit L2 norm on the domain.

    The norm integral (weight sin r dr dtheta) separates. Its angular factor,
    the integral of sin^2(k pi theta / beta) over [0, beta], is beta / 2; the
    radial one is evaluated with a _NORM_NODES-point Gauss-Legendre rule and
    checked against half as many. A norm that underflows to 0, as on thin
    lunes (beta = 0.03, mode (1, 0)), raises DomainError.
    """
    import numpy as np
    from . import quadrature

    def norm_sq(n):
        rq, rw = map(np.array, quadrature.gauss_legendre(0.0, spec.r_max, n))
        rad = _radial_values(spec, mode, rq)
        return float(np.sum(rw * rad**2 * np.sin(rq)) * (0.5 * spec.beta))

    full = norm_sq(_NORM_NODES)
    if not (full > 0.0 and math.isfinite(full)):
        raise DomainError(f"squared norm {full} of mode ({mode.k}, {mode.j}) "
                          f"at beta = {spec.beta} is zero or not finite")
    half = norm_sq(_NORM_NODES // 2)
    if abs(full - half) > 1e-9 * abs(full):
        raise ConvergenceError(
            "normalization quadrature did not settle", abs(full - half) / abs(full)
        )
    return 1.0 / math.sqrt(full)
