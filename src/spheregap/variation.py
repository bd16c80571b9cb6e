"""First variation of the fundamental gap at the right-angled equilateral triangle.

The three normalized eigenfunctions of the beta = pi/2 triangle are

    u1     = sqrt(105/(2 pi))  sin^2(r) cos(r) sin(2 theta)
    u2_1   = sqrt(1155/(8 pi)) (3cos^5(r) - 4cos^3(r) + cos(r)) sin(2 theta)
    u2_2   = sqrt(3465/(32 pi)) cos(r) sin^4(r) sin(4 theta)

(eigenvalues 12, 30, 30). For a deformation direction (a, b) the derivative
of an eigenvalue at t = 0 is -<L1 u, u> with the first-order operator L1 of
the geometry module; each pairing integral splits into five separated terms
(labelled I..V below, mirroring the five terms of L1) that are products of a
theta-integral and an r-integral over [0, pi/2]. The gap variation

    I(z, b) = -<L1 u2, u2> + <L1 u1, u1>,   u2 = cos(z) u2_1 + sin(z) u2_2,

has global minimum 16/pi over z in [0, 2 pi], b in [0, 1] (a = sqrt(1-b^2)),
which equals d/dt [4 pi / (pi/2 - t) + 10] at t = 0, the exact gap slope of
the one-sided deformations.
"""
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import check_direction
from .quadrature import gauss_legendre

PI = math.pi
C1 = 105.0 / (2.0 * PI)
C2 = 1155.0 / (8.0 * PI)
C3 = 3465.0 / (32.0 * PI)

TERM_LABELS = ("I", "II", "III", "IV", "V")
MODE_NAMES = ("u1", "u2_1", "u2_2")

MIN_GAP_VARIATION = 16.0 / PI

# Gauss-Legendre points per axis of every pairing integral; the integrands
# are trigonometric polynomials (times r in two terms), converged at 64
_NODES = 64


class _Mode:
    """Closed-form separated mode N * R(r) * S(theta) with analytic derivatives."""

    def __init__(self, norm, radial, d_radial, d2_radial, angular_freq):
        self.norm = norm
        self.R = radial
        self.dR = d_radial
        self.d2R = d2_radial
        self.freq = angular_freq

    def S(self, t):
        return np.sin(self.freq * t)

    def dS(self, t):
        return self.freq * np.cos(self.freq * t)

    def d2S(self, t):
        return -self.freq**2 * np.sin(self.freq * t)


def _r1(r):
    return np.sin(r) ** 2 * np.cos(r)


def _dr1(r):
    return 2.0 * np.sin(r) * np.cos(r) ** 2 - np.sin(r) ** 3


def _d2r1(r):
    return 2.0 * np.cos(r) ** 3 - 7.0 * np.sin(r) ** 2 * np.cos(r)


def _r2(r):
    c = np.cos(r)
    return 3.0 * c**5 - 4.0 * c**3 + c


def _dr2(r):
    c, s = np.cos(r), np.sin(r)
    return (-15.0 * c**4 + 12.0 * c**2 - 1.0) * s


def _d2r2(r):
    c, s = np.cos(r), np.sin(r)
    return (60.0 * c**3 - 24.0 * c) * s**2 + (-15.0 * c**4 + 12.0 * c**2 - 1.0) * c


def _r3(r):
    return np.cos(r) * np.sin(r) ** 4


def _dr3(r):
    c, s = np.cos(r), np.sin(r)
    return -(s**5) + 4.0 * s**3 * c**2


def _d2r3(r):
    c, s = np.cos(r), np.sin(r)
    return -13.0 * s**4 * c + 12.0 * s**2 * c**3


_MODES = {
    "u1": _Mode(math.sqrt(C1), _r1, _dr1, _d2r1, 2.0),
    "u2_1": _Mode(math.sqrt(C2), _r2, _dr2, _d2r2, 2.0),
    "u2_2": _Mode(math.sqrt(C3), _r3, _dr3, _d2r3, 4.0),
}


@dataclass(frozen=True)
class PairingSpec:
    """A (left, right) pair of mode names and a unit deformation direction."""

    left: str
    right: str
    direction: tuple = (0.0, 1.0)

    def __post_init__(self):
        for name in (self.left, self.right):
            if name not in _MODES:
                raise ValueError(f"unknown mode {name!r}; choose from {MODE_NAMES}")
        check_direction(*self.direction)


@dataclass(frozen=True)
class BilinearTermTable:
    """The five separated terms of one pairing integral and their sum."""

    terms: tuple
    total: float

    def __post_init__(self):
        if abs(self.total - math.fsum(self.terms)) > 1e-12:
            raise ValueError("total is not the sum of the terms")

    def __getitem__(self, label: str) -> float:
        return self.terms[TERM_LABELS.index(label)]


def pairing_terms(spec: PairingSpec) -> BilinearTermTable:
    """Term-by-term quadrature of integral of u_left * (L1 u_right) over the triangle.

    Each term is a product of a theta-integral and an r-integral evaluated by
    _NODES-point Gauss-Legendre rules.
    """
    a, b = spec.direction
    left, right = _MODES[spec.left], _MODES[spec.right]
    rq, rw = gauss_legendre(0.0, PI / 2, _NODES)
    tq, tw = gauss_legendre(0.0, PI / 2, _NODES)
    nn = left.norm * right.norm
    s, c = np.sin(rq), np.cos(rq)

    th_ss = float(np.sum(tw * left.S(tq) * right.S(tq) * np.sin(tq)))
    th_cd = float(np.sum(tw * left.S(tq) * np.cos(tq) * right.dS(tq)))
    th_sd2 = float(np.sum(tw * left.S(tq) * np.sin(tq) * right.d2S(tq)))
    th_d2 = float(np.sum(tw * left.S(tq) * right.d2S(tq)))

    rl, drr, d2rr, rr = left.R(rq), right.dR(rq), right.d2R(rq), right.R(rq)
    term_1 = (4.0 / PI) * b * nn * th_ss * float(np.sum(rw * rl * d2rr * s))
    term_2 = (2.0 / PI) * b * nn * th_ss * float(np.sum(rw * rl * drr * c))
    term_3 = (4.0 / PI) * b * nn * th_cd * float(np.sum(rw * rq * rl * drr / s))
    term_4 = (4.0 / PI) * b * nn * th_sd2 * float(np.sum(rw * rq * rl * rr * c / s**2))
    term_5 = (4.0 / PI) * a * nn * th_d2 * float(np.sum(rw * rl * rr / s))
    terms = (term_1, term_2, term_3, term_4, term_5)
    return BilinearTermTable(terms, math.fsum(terms))


@cache
def _direction_coefficients():
    """(a-coefficient, b-coefficient) of each pairing total; totals are linear in (a, b)."""
    out = {}
    for left in MODE_NAMES:
        for right in MODE_NAMES:
            if (left == "u1") != (right == "u1"):
                continue  # cross terms with u1 are not needed
            ca = pairing_terms(PairingSpec(left, right, (1.0, 0.0))).total
            cb = pairing_terms(PairingSpec(left, right, (0.0, 1.0))).total
            out[(left, right)] = (ca, cb)
    return out


def _pairing_totals(direction) -> dict:
    """a * c_a + b * c_b of every pairing total of _direction_coefficients,
    for a direction (a, b) or broadcast arrays of them; raises ValueError
    unless every (a, b) passes geometry.check_direction."""
    a, b = direction
    check_direction(a, b)
    return {pair: a * ca + b * cb for pair, (ca, cb) in _direction_coefficients().items()}


def lambda1_dot(direction) -> float:
    """Derivative of the first eigenvalue at t = 0: -<L1 u1, u1> = 28(a+b)/pi."""
    return -_pairing_totals(direction)[("u1", "u1")]


def second_eigenvalue_form(direction) -> np.ndarray:
    """Quadratic form q -> -<L1 u2, u2> on the second eigenspace, as a 2x2 matrix."""
    total = _pairing_totals(direction)
    off = -(total[("u2_1", "u2_2")] + total[("u2_2", "u2_1")]) / 2.0
    return np.array([[-total[("u2_1", "u2_1")], off], [off, -total[("u2_2", "u2_2")]]])


def gap_variation_grid(z, direction) -> np.ndarray:
    """Gap variation I(z, (a, b)) over broadcast arrays of z, a and b.

    z is the mixing angle of the second eigenfunction, u2 = cos(z) u2_1
    + sin(z) u2_2; every (a, b) must pass geometry.check_direction. Pass
    z[:, None] against 1D a and b for the (z, b) grid.
    """
    total = _pairing_totals([np.asarray(c, dtype=float) for c in direction])
    p, q = np.cos(z), np.sin(z)
    u2_part = (p * p * total[("u2_1", "u2_1")]
               + p * q * (total[("u2_1", "u2_2")] + total[("u2_2", "u2_1")])
               + q * q * total[("u2_2", "u2_2")])
    return -u2_part + total[("u1", "u1")]


def gap_variation_I(z: float, direction) -> float:
    """Gap variation I(z, (a, b)) at one point; see gap_variation_grid."""
    return float(gap_variation_grid(z, direction))


def gap_variation_I_closed(z: float, b: float) -> float:
    """Closed trigonometric form of I(z, b), for cross-checking the quadrature."""
    a = math.sqrt(1.0 - b * b)
    cz, sz = math.cos(z), math.sin(z)
    return (b * (27.0 / PI + cz * cz * 22.0 / PI - cz * sz * 22.0 * math.sqrt(3.0) / PI)
            + a * (16.0 / PI + sz * sz * 44.0 / PI))


@dataclass(frozen=True)
class VariationMinimum:
    value: float
    z: float
    b: float


@dataclass(frozen=True)
class VariationTable:
    """I(z, b) on a grid: values[i, k] belongs to (z[i], b[k])."""

    z: np.ndarray
    b: np.ndarray
    values: np.ndarray
    minimum: VariationMinimum


def gap_variation_table(z_steps: int, b_steps: int, *, a=None, b=None) -> VariationTable:
    """I(z, b) at z_steps angles z spanning [0, 2 pi] and its grid minimum.

    Without a or b the directions are b_steps values of b spanning [0, 1]
    with a = sqrt(1 - b^2). Otherwise there is one direction,
    (sqrt(1 - b^2), b), with b = sqrt(1 - a^2) when only a is given; a
    given a must equal sqrt(1 - b^2) to within 1e-9. Raises ValueError for
    step counts below 1 or a direction off the unit circle.
    """
    if z_steps < 1 or b_steps < 1:
        raise ValueError("step counts must be >= 1")
    zs = np.linspace(0.0, 2.0 * PI, z_steps)
    if a is None and b is None:
        bs = np.linspace(0.0, 1.0, b_steps)
        a_values = np.sqrt(1.0 - bs**2)
    else:
        if b is None:
            b = math.sqrt(max(0.0, 1.0 - a**2))
        derived = math.sqrt(max(0.0, 1.0 - b**2))
        if a is not None and not abs(a - derived) <= 1e-9:
            raise ValueError("direction must satisfy a = sqrt(1 - b^2)")
        a_values, bs = np.array([derived]), np.array([b])
    values = gap_variation_grid(zs[:, None], (a_values, bs))
    iz, ib = np.unravel_index(np.argmin(values), values.shape)
    minimum = VariationMinimum(float(values[iz, ib]), float(zs[iz]), float(bs[ib]))
    return VariationTable(zs, bs, values, minimum)


def minimize_gap_variation(z_steps: int = 2000, b_steps: int = 2000) -> VariationMinimum:
    """Grid minimum of I(z, b) over [0, 2 pi] x [0, 1]; expected value 16/pi."""
    return gap_variation_table(z_steps, b_steps).minimum


# printed closed-form values for every pairing term (b-part for I..IV, a-part for V)
_SQ23 = math.sqrt(C2 * C3)
_EXPECTED_TERMS = {
    ("u1", "u1"): (
        -C1 * 1408.0 / (1575.0 * PI),
        C1 * 64.0 / (1575.0 * PI),
        C1 * (16.0 / 450.0 - 448.0 / (3375.0 * PI)),
        C1 * (3328.0 / (3375.0 * PI) - 128.0 / 225.0),
        -C1 * 8.0 / 15.0,
    ),
    ("u2_1", "u2_1"): (
        -C2 * 6656.0 / (5775.0 * PI),
        C2 * 256.0 / (17325.0 * PI),
        C2 * (8.0 / 225.0 - 2816.0 / (23625.0 * PI)),
        C2 * (29696.0 / (23625.0 * PI) - 128.0 / 225.0),
        -C2 * 32.0 / 105.0,
    ),
    ("u2_2", "u2_1"): (
        _SQ23 * 8192.0 / (40425.0 * PI),
        -_SQ23 * 2048.0 / (121275.0 * PI),
        _SQ23 * (1936.0 / 11025.0 - 833536.0 / (3472875.0 * PI)),
        _SQ23 * (188416.0 / (3472875.0 * PI) - 256.0 / 11025.0),
        0.0,
    ),
    ("u2_1", "u2_2"): (
        _SQ23 * 2048.0 / (14553.0 * PI),
        _SQ23 * 1024.0 / (72765.0 * PI),
        _SQ23 * (2704.0 / 11025.0 - 1291264.0 / (3472875.0 * PI)),
        _SQ23 * (753664.0 / (3472875.0 * PI) - 1024.0 / 11025.0),
        0.0,
    ),
    ("u2_2", "u2_2"): (
        -C3 * 139264.0 / (218295.0 * PI),
        C3 * 4096.0 / (218295.0 * PI),
        C3 * (32.0 / 3969.0 - 45056.0 / (1250235.0 * PI)),
        C3 * (163840.0 / (250047.0 * PI) - 2048.0 / 3969.0),
        -C3 * 16.0**2 / 315.0,
    ),
}

# combined totals as (a-coefficient, b-coefficient)
_EXPECTED_TOTALS = {
    ("u1", "u1"): (-28.0 / PI, -28.0 / PI),
    ("u2_1", "u2_1"): (-44.0 / PI, -77.0 / PI),
    ("u2_2", "u2_1"): (0.0, 11.0 * math.sqrt(3.0) / PI),
    ("u2_1", "u2_2"): (0.0, 11.0 * math.sqrt(3.0) / PI),
    ("u2_2", "u2_2"): (-88.0 / PI, -55.0 / PI),
}

_TOTAL_CHECK_DIRECTION = (0.6, 0.8)
# largest absolute difference from a closed form that an entry may show
_APPENDIX_TOL = 1e-9


@dataclass(frozen=True)
class AppendixEntry:
    label: str
    computed: float
    expected: float
    abs_err: float
    passed: bool


@dataclass(frozen=True)
class AppendixReport:
    entries: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]


def verify_appendix() -> AppendixReport:
    """Compare every pairing term and total against its printed closed form.

    Terms I..IV are checked at direction (a, b) = (0, 1) and term V at
    (1, 0), isolating their direction coefficient; totals are checked at
    (0.6, 0.8), exercising both parts at once. A difference >= 1e-9 marks
    the entry (and the report) as failed rather than raising.
    """
    entries = []
    for pair, expected in _EXPECTED_TERMS.items():
        got_b = pairing_terms(PairingSpec(*pair, (0.0, 1.0)))
        got_a = pairing_terms(PairingSpec(*pair, (1.0, 0.0)))
        computed = (*got_b.terms[:4], got_a.terms[4])
        for label, comp, exp in zip(TERM_LABELS, computed, expected):
            err = abs(comp - exp)
            entries.append(AppendixEntry(
                f"{pair[0]}*{pair[1]}:{label}", comp, exp, err, err < _APPENDIX_TOL))
        a, b = _TOTAL_CHECK_DIRECTION
        tot = pairing_terms(PairingSpec(*pair, (a, b))).total
        exp_tot = a * _EXPECTED_TOTALS[pair][0] + b * _EXPECTED_TOTALS[pair][1]
        err = abs(tot - exp_tot)
        entries.append(AppendixEntry(
            f"{pair[0]}*{pair[1]}:total", tot, exp_tot, err, err < _APPENDIX_TOL))
    return AppendixReport(tuple(entries), _APPENDIX_TOL)
