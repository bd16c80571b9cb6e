"""First variation of the fundamental gap at the right-angled equilateral triangle.

The three normalized eigenfunctions of the beta = pi/2 triangle are

    u1     = sqrt(105/(2 pi))  sin^2(r) cos(r) sin(2 theta)
    u2_1   = sqrt(1155/(8 pi)) cos(r) sin^2(r) (1 - 3cos^2(r)) sin(2 theta)
    u2_2   = sqrt(3465/(32 pi)) cos(r) sin^4(r) sin(4 theta)

(eigenvalues 12, 30, 30). _MODES holds each radial factor once, as a table
{(p, q): coefficient} of cos^p(r) sin^q(r); its r-derivatives follow from
the one rule d/dr (c^p s^q) = -p c^(p-1) s^(q+1) + q c^(p+1) s^(q-1).
For a deformation direction (a, b) the derivative of an eigenvalue at
t = 0 is -<L1 u, u> with the first-order operator L1 of the deformed
Laplacian, written once as the five-row table L1_TERMS
(terms I..V). Each pairing integral splits into five separated terms, each
a product of a theta-integral and an r-integral over [0, pi/2]: I..IV are
its coefficients of b and V of a, so its total in the direction (a, b) is
_along((a, b), (c_a, c_b)) = a c_a + b c_b, with c_a = V, c_b = I + .. + IV.
_EXPECTED_TERMS and _EXPECTED_TOTALS print both in closed form;
lambda1_dot, second_eigenvalue_form and the gap variation

    I(z, b) = -<L1 u2, u2> + <L1 u1, u1>,   u2 = cos(z) u2_1 + sin(z) u2_2,

evaluate those closed forms, and verify_appendix checks them, term by
term and total by total, against one Gauss-Legendre quadrature of
pairing_terms per pair. I has global minimum 16/pi over z in [0, 2 pi],
b in [0, 1] (a = sqrt(1-b^2)), which equals d/dt [4 pi / (pi/2 - t) + 10]
at t = 0, the exact gap slope of the one-sided deformations.

The module needs math only. One routine computes I at one z over a list
of directions: gap_variation_grid is it for one direction, and
gap_variation_table calls it once per z and holds its grid as tuples and
array('d') rows.
"""
import math
import numbers
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

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


def _d_dr(table: dict) -> dict:
    """d/dr of a radial table, term by term by the rule of the module docstring."""
    out = {}
    for (p, q), k in table.items():
        if p:
            out[p - 1, q + 1] = out.get((p - 1, q + 1), 0) - p * k
        if q:
            out[p + 1, q - 1] = out.get((p + 1, q - 1), 0) + q * k
    return out


class _Mode:
    """Closed-form separated mode norm * R(r) * sin(freq * theta), with R a
    table {(p, q): coefficient} of cos^p(r) sin^q(r); R' and R'' are
    derived from it by _d_dr when the mode is built."""

    def __init__(self, norm, table, angular_freq):
        self.norm = norm
        self.tables = (table, _d_dr(table), _d_dr(_d_dr(table)))
        self.freq = angular_freq

    @cached_property
    def radial_at_nodes(self):
        """(R, R', R'') at each node of pairing_terms' rule, each a math.fsum
        over its table; computed on first use."""
        values = []
        for x in gauss_legendre(0.0, PI / 2, _NODES)[0]:
            c, s = math.cos(x), math.sin(x)
            values.append(tuple(math.fsum(k * c**p * s**q for (p, q), k in table.items())
                                for table in self.tables))
        return values

    def angular(self, theta, order):
        """The order-th derivative (0, 1 or 2) of sin(freq * theta)."""
        f = self.freq
        if order == 0:
            return math.sin(f * theta)
        if order == 1:
            return f * math.cos(f * theta)
        return -f**2 * math.sin(f * theta)


# the radial factors of the module docstring: sin^2 cos, cos sin^2 - 3cos^3 sin^2
# and cos sin^4. The second is 3cos^5 - 4cos^3 + cos, written with the factor
# sin^2 that makes it small at the pole, where the cos powers cancel
_MODES = {
    "u1": _Mode(math.sqrt(C1), {(1, 2): 1}, 2.0),
    "u2_1": _Mode(math.sqrt(C2), {(3, 2): -3, (1, 2): 1}, 2.0),
    "u2_2": _Mode(math.sqrt(C3), {(1, 4): 1}, 4.0),
}


class L1Term(NamedTuple):
    """One term const * (a or b) * radial(r) * angular(theta) * d_r^i d_theta^j of L1."""

    component: str  # "a" or "b", the direction component that scales the term
    constant: float
    radial: Callable
    angular: Callable
    r_order: int
    theta_order: int


# The first-order operator of the deformed Laplacian, Delta_t = Delta_round
# + t * L1 + O(t^2), one row per term I..V:
#   L1 = (4/pi) b sin(th) d_rr + (2/pi) b sin(th) cot(r) d_r
#      + (4/pi) b r cos(th) csc^2(r) d_r d_th
#      + (4/pi) b r sin(th) cot(r) csc^2(r) d_th^2 + (4/pi) a csc^2(r) d_th^2.
# Its coefficients are singular at the pole r = 0.
L1_TERMS = (
    L1Term("b", 4.0 / PI, lambda r: 1.0, math.sin, 2, 0),
    L1Term("b", 2.0 / PI, lambda r: math.cos(r) / math.sin(r), math.sin, 1, 0),
    L1Term("b", 4.0 / PI, lambda r: r / math.sin(r) ** 2, math.cos, 1, 1),
    L1Term("b", 4.0 / PI, lambda r: r * math.cos(r) / math.sin(r) ** 3, math.sin, 0, 2),
    L1Term("a", 4.0 / PI, lambda r: 1.0 / math.sin(r) ** 2, lambda theta: 1.0, 0, 2),
)


@dataclass(frozen=True)
class BilinearTermTable:
    """The five separated terms I..V of one pairing integral: I..IV are its
    coefficients of b, V its coefficient of a."""

    terms: tuple

    def __getitem__(self, label: str) -> float:
        return self.terms[TERM_LABELS.index(label)]

    @property
    def coefficients(self) -> tuple:
        """(c_a, c_b) = (V, fsum(I..IV)), the pairing's total in direction
        (a, b) being _along((a, b), coefficients)."""
        return self.terms[4], math.fsum(self.terms[:4])


def pairing_terms(left: str, right: str) -> BilinearTermTable:
    """Term-by-term quadrature of integral of u_left * (L1 u_right) over the
    triangle, each term taken without its direction factor a or b.

    Each row of L1_TERMS gives one term, a product of a theta-integral and
    an r-integral (area element sin r), each a math.fsum over the same
    _NODES-point Gauss-Legendre rule on [0, pi/2], with the radial values of
    the modes' radial_at_nodes. Raises ValueError for a name not in
    MODE_NAMES.
    """
    if not {left, right} <= _MODES.keys():
        raise ValueError(f"unknown mode in {(left, right)}; choose from {MODE_NAMES}")
    left, right = _MODES[left], _MODES[right]
    nodes, weights = gauss_legendre(0.0, PI / 2, _NODES)
    nn = left.norm * right.norm
    r_left = [w * rad[0] * math.sin(x) for x, w, rad in zip(nodes, weights, left.radial_at_nodes)]
    theta_left = [w * left.angular(x, 0) for x, w in zip(nodes, weights)]
    return BilinearTermTable(tuple(
        term.constant * nn
        * math.fsum(lw * term.angular(x) * right.angular(x, term.theta_order)
                    for x, lw in zip(nodes, theta_left))
        * math.fsum(lw * term.radial(x) * rad[term.r_order]
                    for x, lw, rad in zip(nodes, r_left, right.radial_at_nodes))
        for term in L1_TERMS
    ))


def _along(direction, coefficients) -> float:
    """a * c_a + b * c_b: a pairing total in the direction (a, b) from its
    (a-coefficient, b-coefficient)."""
    (a, b), (ca, cb) = direction, coefficients
    return a * ca + b * cb


def _form_totals(direction) -> tuple:
    """(c1, c11, c12, c22) in the direction (a, b): the closed-form pairing
    totals <L1 u1, u1>, <L1 u2_1, u2_1>, <L1 u2_1, u2_2> + <L1 u2_2, u2_1>
    and <L1 u2_2, u2_2>, each _along (a, b) from _EXPECTED_TOTALS.
    Raises ValueError unless (a, b) passes geometry.check_direction."""
    check_direction(*direction)
    total = {pair: _along(direction, c) for pair, c in _EXPECTED_TOTALS.items()}
    return (total[("u1", "u1")], total[("u2_1", "u2_1")],
            total[("u2_1", "u2_2")] + total[("u2_2", "u2_1")], total[("u2_2", "u2_2")])


def lambda1_dot(direction) -> float:
    """Derivative of the first eigenvalue at t = 0: -<L1 u1, u1> = 28(a+b)/pi."""
    return -_form_totals(direction)[0]


def second_eigenvalue_form(direction) -> tuple:
    """Quadratic form q -> -<L1 u2, u2> on the second eigenspace, as a 2x2
    tuple of rows."""
    _, c11, c12, c22 = _form_totals(direction)
    off = -c12 / 2.0
    return ((-c11, off), (off, -c22))


def gap_variation_grid(z: float, direction) -> float:
    """Gap variation I(z, (a, b)) at one mixing angle z and direction (a, b).

    z is the mixing angle of the second eigenfunction, u2 = cos(z) u2_1
    + sin(z) u2_2; (a, b) must pass geometry.check_direction.
    """
    return _gap_variation_row(z, [_form_totals(direction)])[0]


def _gap_variation_row(z: float, columns) -> array:
    """I at the mixing angle z for each (c1, c11, c12, c22) of columns, the
    _form_totals of one direction each: c1 - (cos^2 z c11 + cos z sin z c12
    + sin^2 z c22), as array('d')."""
    p, q = math.cos(z), math.sin(z)
    pp, pq, qq = p * p, p * q, q * q
    return array("d", [c1 - (pp * c11 + pq * c12 + qq * c22) for c1, c11, c12, c22 in columns])


@dataclass(frozen=True)
class VariationMinimum:
    value: float
    z: float
    b: float


@dataclass(frozen=True)
class VariationTable:
    """I(z, b) on a grid: values[i][k] belongs to (z[i], b[k]). z and b are
    tuples of floats, values a tuple of one array('d') row per z."""

    z: tuple
    b: tuple
    values: tuple
    minimum: VariationMinimum


def _linspace(stop: float, num: int) -> tuple:
    """num floats spanning [0, stop]: i * (stop / (num - 1)) and then stop
    itself, as numpy.linspace(0, stop, num) makes them."""
    if num == 1:
        return (0.0,)
    step = stop / (num - 1)
    return tuple(i * step for i in range(num - 1)) + (stop,)


def gap_variation_table(z_steps: int, b_steps: int, *, a=None, b=None) -> VariationTable:
    """I(z, b) at z_steps angles z spanning [0, 2 pi] and its grid minimum.

    Without a or b the directions are b_steps values of b spanning [0, 1]
    with a = sqrt(1 - b^2). Otherwise there is one direction,
    (sqrt(1 - b^2), b), with b = sqrt(1 - a^2) when only a is given; the
    given (a, b), or a with its derived b, must pass
    geometry.check_direction. Each row is _gap_variation_row at its z, as
    gap_variation_grid is for one direction. Where several cells share the
    minimal value, the first in z-major order is the minimum. Raises
    ValueError for step counts that are not integers (int or numpy integer)
    >= 1, or for a direction that check_direction rejects.
    """
    if not (isinstance(z_steps, numbers.Integral) and isinstance(b_steps, numbers.Integral)):
        raise ValueError(f"step counts must be integers, got {z_steps!r} and {b_steps!r}")
    if z_steps < 1 or b_steps < 1:
        raise ValueError("step counts must be >= 1")
    zs = _linspace(2.0 * PI, z_steps)
    if a is None and b is None:
        bs = _linspace(1.0, b_steps)
        a_values = [math.sqrt(1.0 - bv * bv) for bv in bs]
    else:
        # a**2 or b**2 can overflow far off [-1, 1], where check_direction fails
        if b is None:
            b = math.sqrt(1.0 - a**2) if abs(a) <= 1.0 else 0.0
        derived = math.sqrt(1.0 - b**2) if abs(b) <= 1.0 else 0.0
        check_direction(derived if a is None else a, b)
        a_values, bs = [derived], (float(b),)
    columns = [_form_totals(d) for d in zip(a_values, bs)]
    values = [_gap_variation_row(zv, columns) for zv in zs]
    row_min = [min(row) for row in values]
    iz = row_min.index(min(row_min))
    ib = values[iz].index(row_min[iz])
    minimum = VariationMinimum(row_min[iz], zs[iz], bs[ib])
    return VariationTable(zs, bs, tuple(values), minimum)


# printed closed-form values of every pairing term as pairing_terms returns
# them: the coefficient of b for I..IV, of a for V
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

# each pair's (c_a, c_b), the (V, I + II + III + IV) of its row above in
# closed form: the first variation reads these, and verify_appendix checks
# them against the quadrature
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

    One pairing_terms quadrature per pair gives its terms I..IV (its
    coefficients of b) and V (of a), each checked against _EXPECTED_TERMS;
    its total is checked at (a, b) = (0.6, 0.8), both parts at once, as
    _along gives it from the computed and from the _EXPECTED_TOTALS
    coefficients. A difference >= 1e-9 marks the entry (and the report) as
    failed rather than raising.
    """
    entries = []
    for pair, expected in _EXPECTED_TERMS.items():
        table = pairing_terms(*pair)
        rows = [*zip(TERM_LABELS, table.terms, expected),
                ("total", _along(_TOTAL_CHECK_DIRECTION, table.coefficients),
                 _along(_TOTAL_CHECK_DIRECTION, _EXPECTED_TOTALS[pair]))]
        for label, comp, exp in rows:
            err = abs(comp - exp)
            entries.append(AppendixEntry(
                f"{pair[0]}*{pair[1]}:{label}", comp, exp, err, err < _APPENDIX_TOL))
    return AppendixReport(tuple(entries), _APPENDIX_TOL)
