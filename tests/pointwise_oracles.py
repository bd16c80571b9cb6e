"""Pointwise geometry of T(t) and the closed trigonometric form of I(z, b).

These are the tests' independent oracles: the deformation map, its Jacobian
and the pullback metric at one point check `geometry.metric_coefficients`,
and `gap_variation_I_closed` checks `variation.gap_variation_grid`.
"""
import math
from dataclasses import dataclass

import numpy as np

from spheregap.geometry import DeformationParams, _deformation_fields

_HALF_PI = math.pi / 2
PI = math.pi


@dataclass(frozen=True)
class CoordPoint:
    """Point of the coordinate rectangle [0, pi/2] x [0, pi/2]."""

    r: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.r <= _HALF_PI) or not (0.0 <= self.theta <= _HALF_PI):
            raise ValueError(f"({self.r}, {self.theta}) outside the coordinate rectangle")


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric 2x2 metric at a point, components in (r, theta) order."""

    g_rr: float
    g_rtheta: float
    g_thetatheta: float

    @property
    def det(self) -> float:
        return self.g_rr * self.g_thetatheta - self.g_rtheta**2

    def inv(self) -> "MetricTensor":
        d = self.det
        return MetricTensor(self.g_thetatheta / d, -self.g_rtheta / d, self.g_rr / d)

    def as_array(self) -> np.ndarray:
        return np.array([[self.g_rr, self.g_rtheta], [self.g_rtheta, self.g_thetatheta]])


def deform_map(params: DeformationParams, p: CoordPoint) -> CoordPoint:
    """Image F_t(p); fixes (0, 0) and (pi/2, 0), sends the apex to the moved apex."""
    A, psi, l, _ = _deformation_fields(params, p.theta)
    return CoordPoint(p.r - l * 2.0 * p.r / math.pi, float(psi))


def deform_jacobian(params: DeformationParams, p: CoordPoint) -> np.ndarray:
    """Analytic Jacobian dF_t at p (rows: image coords, columns: d/dr, d/dtheta)."""
    A, psi, l, L = _deformation_fields(params, p.theta)
    return np.array([
        [1.0 - 2.0 * l / math.pi, -2.0 * p.r / math.pi * L],
        [0.0, 1.0 - A],
    ])


def pullback_metric(params: DeformationParams, p: CoordPoint) -> MetricTensor:
    """Pullback g_t = dF_t^T g_S(F_t(p)) dF_t of the round metric; degenerate at r = 0.

    det(g_t) = (1 - 2l/pi)^2 (1 - A)^2 sin^2(r (1 - 2l/pi)) in closed form.
    """
    A, psi, l, L = _deformation_fields(params, p.theta)
    c1 = 1.0 - 2.0 * l / math.pi
    s = math.sin(p.r * c1)
    a12 = -2.0 * p.r / math.pi * L
    return MetricTensor(
        g_rr=c1 * c1,
        g_rtheta=c1 * a12,
        g_thetatheta=a12 * a12 + (1.0 - A) ** 2 * s * s,
    )


def pullback_det(params: DeformationParams, r, theta):
    """Closed-form determinant of the pullback metric; vectorized."""
    A, psi, l, _ = _deformation_fields(params, theta)
    c1 = 1.0 - 2.0 * np.asarray(l) / math.pi
    return (c1 * (1.0 - A) * np.sin(np.asarray(r) * c1)) ** 2


def gap_variation_I_closed(z: float, b: float) -> float:
    """Closed trigonometric form of I(z, b), for cross-checking the library."""
    a = math.sqrt(1.0 - b * b)
    cz, sz = math.cos(z), math.sin(z)
    return (b * (27.0 / PI + cz * cz * 22.0 / PI - cz * sz * 22.0 * math.sqrt(3.0) / PI)
            + a * (16.0 / PI + sz * sz * 44.0 / PI))
