"""Geometry of the deformed-triangle family T(t).

T is the right-angled equilateral triangle with vertices (0, 0), (pi/2, 0),
(pi/2, pi/2) in geodesic polar coordinates about the north pole; T(t) moves
the apex to (pi/2 - b t, pi/2 - a t) with a^2 + b^2 = 1, a, b >= 0. The
family is realized on the fixed coordinate rectangle by the diffeomorphism

    F_t(r, theta) = (r - l(z, psi) * 2r/pi, psi),    psi = (1 - A) theta,

where A = 2 a t / pi, z = z(a, b, t) is the apex offset angle, and
l(alpha, theta) is the spherical side-length function below. Pulling the
round metric back through F_t turns the eigenvalue problem on T(t) into a
variable-coefficient problem on the rectangle; this module supplies the
weak-form coefficient fields of the exact pullback metric that the
finite-element assembly samples. The first-order (in t) correction
operator L1 of the Laplacian is the table variation.L1_TERMS.

Directions need math only, so the closed-form first variation loads no
numpy through check_direction; the coefficient fields import numpy where
they use it.
"""
import math
from dataclasses import dataclass

_HALF_PI = math.pi / 2


def check_direction(a: float, b: float) -> None:
    """Raise ValueError unless (a, b) is a deformation direction.

    A direction has a, b >= 0 and |a^2 + b^2 - 1| <= 1e-12; NaN fails the
    unit-circle test.
    """
    if a < 0 or b < 0:
        raise ValueError("direction components must be nonnegative")
    if not abs(a * a + b * b - 1.0) <= 1e-12:
        raise ValueError("direction must satisfy a^2 + b^2 = 1")


@dataclass(frozen=True)
class DeformationParams:
    """Deformation direction (a, b) on the unit circle and magnitude t >= 0."""

    a: float
    b: float
    t: float = 0.0

    def __post_init__(self):
        check_direction(self.a, self.b)
        if not self.t >= 0:
            raise ValueError("deformation magnitude t must be >= 0")
        if _HALF_PI - self.a * self.t <= 0 or _HALF_PI - self.b * self.t <= 0:
            raise ValueError("t too large: the moved apex leaves the quadrant")


def side_distance(alpha, theta):
    """Distance from the equator to the slanted side, as a function of longitude.

    For the spherical triangle with a side of length theta on the equator,
    a right angle at its far end and angle alpha at the near end,

        l(alpha, theta) = arcsin( sin(alpha) sin(theta)
                                  / sqrt(1 - sin^2(alpha) cos^2(theta)) ).

    The denominator vanishes only at alpha = pi/2, theta = 0; the limit 0
    along theta -> 0 is returned there. Accepts scalars or arrays.
    """
    import numpy as np

    sa, st, ct = np.sin(alpha), np.sin(theta), np.cos(theta)
    den_sq = 1.0 - sa**2 * ct**2
    tiny = den_sq < 1e-30
    den = np.sqrt(np.where(tiny, 1.0, den_sq))
    val = np.arcsin(np.clip(sa * st / den, -1.0, 1.0))
    out = np.where(tiny, 0.0, val)
    return float(out) if np.ndim(out) == 0 else out


def side_distance_dtheta(alpha, theta):
    """Analytic d/dtheta of side_distance: sin(a)cos(a)cos(th) / (1 - sin^2(a)cos^2(th))."""
    import numpy as np

    sa, ca = np.sin(alpha), np.cos(alpha)
    ct = np.cos(theta)
    out = sa * ca * ct / (1.0 - sa**2 * ct**2)
    return float(out) if np.ndim(out) == 0 else out


def apex_offset(params: DeformationParams) -> float:
    """Angle z(a, b, t) the slanted side makes at the vertex (pi/2, 0).

    Defined by l(z, pi/2 - a t) = b t; in closed form
    z = arcsin( sin(b t) / sqrt(cos^2(a t) + sin^2(b t) sin^2(a t)) ).
    """
    sb = math.sin(params.b * params.t)
    ca = math.cos(params.a * params.t)
    sa = math.sin(params.a * params.t)
    return math.asin(sb / math.sqrt(ca * ca + sb * sb * sa * sa))


def _deformation_fields(params: DeformationParams, theta):
    """(A, psi, l, L) at longitude theta, with L = d/dtheta [l(z, (1-A) theta)]."""
    import numpy as np

    z = apex_offset(params)
    A = 2.0 * params.a * params.t / math.pi
    psi = (1.0 - A) * np.asarray(theta, dtype=float)
    l = side_distance(z, psi)
    L = (1.0 - A) * side_distance_dtheta(z, psi)
    return A, psi, l, L


def metric_coefficients(params: DeformationParams, r, theta):
    """Weak-form coefficient fields (g^rr, g^rth, g^thth) * sqrt(det g) and sqrt(det g).

    Vectorized over r, theta; these are the only metric quantities the
    discrete eigensolver samples. Valid for r > 0.
    """
    import numpy as np

    r = np.asarray(r, dtype=float)
    A, psi, l, L = _deformation_fields(params, theta)
    c1 = 1.0 - 2.0 * l / math.pi
    s = np.sin(r * c1)
    one_m_a = 1.0 - A
    w11 = (4.0 * r**2 / math.pi**2) * L**2 / (c1 * one_m_a * s) + one_m_a * s / c1
    w12 = (2.0 * r / math.pi) * L / (one_m_a * s)
    w22 = c1 / (one_m_a * s)
    m = c1 * one_m_a * s
    return w11, w12, w22, m
