"""Geometry of the deformed-triangle family T(t).

T is the right-angled equilateral triangle with vertices (0, 0), (pi/2, 0),
(pi/2, pi/2) in geodesic polar coordinates about the north pole; T(t) moves
the apex to (pi/2 - b t, pi/2 - a t) with a^2 + b^2 = 1, a, b >= 0. The
family is realized on the fixed coordinate rectangle by the diffeomorphism

    F_t(r, theta) = (r - l(z, psi) * 2r/pi, psi),    psi = (1 - A) theta,

where A = 2 a t / pi, z = z(a, b, t) is the apex offset angle, and
l(alpha, theta) is the spherical side-length function below. Both follow
from Napier's rule for a right spherical triangle, tan(opposite side) =
tan(angle) sin(adjacent side): tan l(alpha, theta) = tan(alpha) sin(theta),
and the apex tangent is k = tan z = tan(b t) / cos(a t). The fields are
l = arctan(k sin psi) and its slope, with no inverse sine or square root.
Pulling the round metric back through F_t turns the eigenvalue problem on
T(t) into a variable-coefficient problem on the rectangle; this module
supplies the weak-form coefficient fields of the exact pullback metric
that the finite-element assembly samples. The first-order (in t) correction
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


def _napier(k, psi):
    """(l, dl/dpsi) where tan l = k sin psi, Napier's rule for the right
    spherical triangle whose angle at the vertex on the equator has tangent k."""
    import numpy as np

    u = k * np.sin(psi)
    return np.arctan(u), k * np.cos(psi) / (1.0 + u * u)


def side_distance(alpha, theta):
    """Distance from the equator to the slanted side, as a function of longitude.

    For the spherical triangle with a side of length theta on the equator,
    a right angle at its far end and angle alpha at the near end, Napier's
    rule gives tan l = tan(alpha) sin(theta), so

        l(alpha, theta) = arctan( tan(alpha) sin(theta) ),

    with the tangent k = tan(alpha) as the one parameter. Defined for
    alpha in [0, pi/2]; at alpha = pi/2, theta = 0 the float tan(alpha) is
    finite and l = 0, the limit along theta -> 0. Accepts scalars or arrays.
    """
    import numpy as np

    out = _napier(np.tan(alpha), theta)[0]
    return float(out) if np.ndim(out) == 0 else out


def _apex_tangent(params: DeformationParams) -> float:
    """tan z = tan(b t) / cos(a t), Napier's rule l(z, pi/2 - a t) = b t."""
    return math.tan(params.b * params.t) / math.cos(params.a * params.t)


def apex_offset(params: DeformationParams) -> float:
    """Angle z(a, b, t) the slanted side makes at the vertex (pi/2, 0).

    Defined by l(z, pi/2 - a t) = b t; by Napier's rule its tangent is
    k = tan z = tan(b t) / cos(a t), and z = arctan(k).
    """
    return math.atan(_apex_tangent(params))


def _deformation_fields(params: DeformationParams, theta):
    """(A, psi, l, L) at longitude theta, with L = d/dtheta [l(z, (1-A) theta)].

    Both fields come from the apex tangent k: with u = k sin(psi),
    l = arctan(u) and L = (1 - A) k cos(psi) / (1 + u^2).
    """
    import numpy as np

    A = 2.0 * params.a * params.t / math.pi
    psi = (1.0 - A) * np.asarray(theta, dtype=float)
    l, dl = _napier(_apex_tangent(params), psi)
    return A, psi, l, (1.0 - A) * dl


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
