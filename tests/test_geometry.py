"""Tests for the deformation geometry: side lengths, map, metric, operator."""
import math

import numpy as np
import pytest

from spheregap.geometry import (
    DeformationParams,
    apex_offset,
    check_direction,
    metric_coefficients,
    side_distance,
)
from spheregap.variation import L1_TERMS

from pointwise_oracles import (
    CoordPoint,
    deform_jacobian,
    deform_map,
    pullback_det,
    pullback_metric,
)

PI = math.pi


def _unit(a):
    return DeformationParams(a, math.sqrt(1.0 - a * a), 0.0)


def _neville(ts, ys):
    ts = np.asarray(ts, float)
    cur = np.asarray(ys, float).copy()
    for k in range(1, len(ts)):
        cur = np.array([
            (cur[i + 1] * ts[i] - cur[i] * ts[i + k]) / (ts[i] - ts[i + k])
            for i in range(len(cur) - 1)
        ])
    return float(cur[0])


# -------------------------------------------------------- side_distance


def test_side_distance_edge_values():
    assert side_distance(0.0, 0.7) == 0.0
    for alpha in (0.2, 0.9, 1.4):
        assert abs(side_distance(alpha, PI / 2) - alpha) < 1e-14
    # removable singularity at alpha = pi/2, theta = 0
    assert side_distance(PI / 2, 0.0) == 0.0


def test_side_distance_respects_spherical_relations():
    # rebuild the defining relations: cos(l1) = cos(l) cos(theta) and
    # sin(l1) = sin(l)/sin(alpha) must be consistent on the closed domain
    rng = np.random.default_rng(41)
    for _ in range(200):
        alpha = float(rng.uniform(0.05, PI / 2 - 0.05))
        theta = float(rng.uniform(0.05, PI / 2))
        l = side_distance(alpha, theta)
        sin_l1 = math.sin(l) / math.sin(alpha)
        cos_l1 = math.cos(l) * math.cos(theta)
        assert abs(sin_l1**2 + cos_l1**2 - 1.0) < 1e-12


def test_side_distance_small_angle_slope():
    # l(b*t, theta) ~ b sin(theta) t for small t
    theta = 0.9
    b = 0.8
    ts = [1e-3, 5e-4, 2.5e-4]
    slope = _neville(ts, [side_distance(b * t, theta) / t for t in ts])
    assert abs(slope - b * math.sin(theta)) < 1e-9


def test_side_distance_dtheta_matches_finite_difference():
    # along (0, 1) A = 0 and z = alpha, so the slope field L is dl/dtheta
    from spheregap.geometry import _deformation_fields

    rng = np.random.default_rng(43)
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 1.5))
        theta = float(rng.uniform(0.05, PI / 2 - 0.05))
        h = 1e-6
        fd = (side_distance(alpha, theta + h) - side_distance(alpha, theta - h)) / (2 * h)
        L = _deformation_fields(DeformationParams(0.0, 1.0, alpha), theta)[3]
        assert abs(fd - L) < 1e-8


# -------------------------------------------------------- apex offset


def test_apex_offset_values():
    assert apex_offset(DeformationParams(0.6, 0.8, 0.0)) == 0.0
    for t in (0.01, 0.1, 0.3):
        assert abs(apex_offset(DeformationParams(0.0, 1.0, t)) - t) < 1e-15


def test_apex_offset_slope_is_b():
    for a in (0.0, 0.3, 0.9):
        b = math.sqrt(1.0 - a * a)
        ts = [1e-3, 5e-4, 2.5e-4]
        slope = _neville(ts, [apex_offset(DeformationParams(a, b, t)) / t for t in ts])
        assert abs(slope - b) < 1e-9


def test_apex_offset_defining_identity():
    rng = np.random.default_rng(47)
    for _ in range(50):
        a = float(rng.uniform(0.0, 1.0))
        b = math.sqrt(1.0 - a * a)
        t = float(rng.uniform(0.0, 0.3))
        params = DeformationParams(a, b, t)
        z = apex_offset(params)
        assert abs(side_distance(z, PI / 2 - a * t) - b * t) < 1e-12


def test_check_direction():
    for b in np.linspace(0.0, 1.0, 201):
        check_direction(math.sqrt(1.0 - b * b), float(b))
    check_direction(0.6, 0.8)
    check_direction(1.0 + 4e-13, 0.0)
    for a, b in ((-0.6, 0.8), (0.6, -0.8), (-1.0, 0.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            check_direction(a, b)
    for a, b in ((1.0 + 1e-12, 0.0), (0.7071067812, 0.7071067812), (math.nan, 1.0),
                 (0.0, math.nan), (3.0, 4.0)):
        with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
            check_direction(a, b)


def test_deformation_params_validation():
    with pytest.raises(ValueError):
        DeformationParams(0.5, 0.5, 0.0)  # not unit
    with pytest.raises(ValueError):
        DeformationParams(-0.6, 0.8, 0.0)
    with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
        DeformationParams(math.nan, 1.0, 0.0)
    with pytest.raises(ValueError):
        DeformationParams(0.0, 1.0, -0.1)
    with pytest.raises(ValueError, match="t must be >= 0"):
        DeformationParams(0.0, 1.0, math.nan)
    with pytest.raises(ValueError):
        DeformationParams(0.0, 1.0, 2.0)  # apex leaves the quadrant


# -------------------------------------------------------- deformation map


def test_deform_map_identity_at_zero():
    params = DeformationParams(0.6, 0.8, 0.0)
    rng = np.random.default_rng(53)
    for _ in range(20):
        p = CoordPoint(float(rng.uniform(0, PI / 2)), float(rng.uniform(0, PI / 2)))
        q = deform_map(params, p)
        assert q.r == p.r and q.theta == p.theta


def test_deform_map_vertices_and_apex():
    for a in (0.0, 0.28, 1.0):
        b = math.sqrt(1.0 - a * a)
        params = DeformationParams(a, b, 0.07)
        q = deform_map(params, CoordPoint(PI / 2, PI / 2))
        assert abs(q.r - (PI / 2 - b * 0.07)) < 1e-13
        assert abs(q.theta - (PI / 2 - a * 0.07)) < 1e-13
        fixed = deform_map(params, CoordPoint(0.0, 0.0))
        assert fixed.r == 0.0 and fixed.theta == 0.0
        corner = deform_map(params, CoordPoint(PI / 2, 0.0))
        assert corner.r == PI / 2 and corner.theta == 0.0


def test_deform_map_pole_edge():
    params = DeformationParams(0.6, 0.8, 0.1)
    A = 2 * 0.6 * 0.1 / PI
    for theta in (0.2, 0.9, 1.5):
        q = deform_map(params, CoordPoint(0.0, theta))
        assert q.r == 0.0
        assert abs(q.theta - (1 - A) * theta) < 1e-15


def test_deform_map_injective_at_max_deformation():
    # numerical Jacobian determinant stays positive on a 100x100 grid at t = 0.2
    h = 1e-6
    for a in (0.0, 0.5, 1.0):
        params = DeformationParams(a, math.sqrt(1 - a * a), 0.2)
        rs = np.linspace(h, PI / 2 - h, 100)
        ths = np.linspace(h, PI / 2 - h, 100)
        min_det = math.inf
        for r in rs:
            for th in ths:
                pr = deform_map(params, CoordPoint(r + h, th))
                mr = deform_map(params, CoordPoint(r - h, th))
                pt = deform_map(params, CoordPoint(r, th + h))
                mt = deform_map(params, CoordPoint(r, th - h))
                j11 = (pr.r - mr.r) / (2 * h)
                j12 = (pt.r - mt.r) / (2 * h)
                j21 = (pr.theta - mr.theta) / (2 * h)
                j22 = (pt.theta - mt.theta) / (2 * h)
                min_det = min(min_det, j11 * j22 - j12 * j21)
        assert min_det > 0.0


def test_deformed_hypotenuse_is_a_great_circle():
    # the image of the r = pi/2 edge must lie on the geodesic through
    # (pi/2, 0) and the moved apex: check coplanarity in 3-space
    def embed(r, theta):
        return np.array([
            math.sin(r) * math.cos(theta),
            math.sin(r) * math.sin(theta),
            math.cos(r),
        ])

    for a in (0.0, 0.35, 1.0):
        params = DeformationParams(a, math.sqrt(1 - a * a), 0.12)
        v1 = embed(PI / 2, 0.0)
        apex = deform_map(params, CoordPoint(PI / 2, PI / 2))
        v2 = embed(apex.r, apex.theta)
        for theta in np.linspace(0.05, PI / 2 - 0.05, 40):
            q = deform_map(params, CoordPoint(PI / 2, float(theta)))
            assert q.r <= PI / 2 + 1e-15
            v = embed(q.r, q.theta)
            assert abs(np.linalg.det(np.stack([v1, v2, v]))) < 1e-10


def test_hypotenuse_matches_side_relation():
    params = DeformationParams(0.6, 0.8, 0.1)
    z = apex_offset(params)
    for theta in np.linspace(0.0, PI / 2, 25):
        q = deform_map(params, CoordPoint(PI / 2, float(theta)))
        assert abs((PI / 2 - q.r) - side_distance(z, q.theta)) < 1e-10


# -------------------------------------------------------- pullback metric


def test_metric_round_at_zero_deformation():
    params = DeformationParams(0.6, 0.8, 0.0)
    rng = np.random.default_rng(59)
    for _ in range(20):
        p = CoordPoint(float(rng.uniform(0.05, PI / 2)), float(rng.uniform(0, PI / 2)))
        g = pullback_metric(params, p)
        assert g.g_rr == 1.0
        assert g.g_rtheta == 0.0
        assert abs(g.g_thetatheta - math.sin(p.r) ** 2) < 1e-15


def test_metric_determinant_closed_form():
    rng = np.random.default_rng(61)
    for _ in range(100):
        a = float(rng.uniform(0, 1))
        params = DeformationParams(a, math.sqrt(1 - a * a), float(rng.uniform(0, 0.2)))
        p = CoordPoint(float(rng.uniform(0.02, PI / 2)), float(rng.uniform(0, PI / 2)))
        g = pullback_metric(params, p)
        ref = pullback_det(params, p.r, p.theta)
        assert abs(g.det - ref) < 1e-12
        assert g.g_rr > 0 and g.det > 0  # positive definite


def test_metric_matches_numerical_jacobian():
    # oracle: finite-difference Jacobian of the map, then J^T g_S(F(p)) J
    h = 1e-6
    rng = np.random.default_rng(67)
    cases = [(0.0, 1.0, 0.01, CoordPoint(PI / 4, PI / 4))]
    for _ in range(15):
        a = float(rng.uniform(0, 1))
        cases.append((a, math.sqrt(1 - a * a), float(rng.uniform(0, 0.15)),
                      CoordPoint(float(rng.uniform(0.1, PI / 2 - 0.01)),
                                 float(rng.uniform(0.05, PI / 2 - 0.05)))))
    for a, b, t, p in cases:
        params = DeformationParams(a, b, t)
        pr = deform_map(params, CoordPoint(p.r + h, p.theta))
        mr = deform_map(params, CoordPoint(p.r - h, p.theta))
        pt = deform_map(params, CoordPoint(p.r, p.theta + h))
        mt = deform_map(params, CoordPoint(p.r, p.theta - h))
        jac = np.array([
            [(pr.r - mr.r) / (2 * h), (pt.r - mt.r) / (2 * h)],
            [(pr.theta - mr.theta) / (2 * h), (pt.theta - mt.theta) / (2 * h)],
        ])
        image = deform_map(params, p)
        g_round = np.diag([1.0, math.sin(image.r) ** 2])
        ref = jac.T @ g_round @ jac
        got = pullback_metric(params, p).as_array()
        assert np.max(np.abs(got - ref)) < 1e-8


def test_analytic_jacobian_matches_finite_difference():
    params = DeformationParams(0.48, math.sqrt(1 - 0.48**2), 0.09)
    h = 1e-6
    p = CoordPoint(0.8, 1.1)
    pr = deform_map(params, CoordPoint(p.r + h, p.theta))
    mr = deform_map(params, CoordPoint(p.r - h, p.theta))
    pt = deform_map(params, CoordPoint(p.r, p.theta + h))
    mt = deform_map(params, CoordPoint(p.r, p.theta - h))
    fd = np.array([
        [(pr.r - mr.r) / (2 * h), (pt.r - mt.r) / (2 * h)],
        [(pr.theta - mr.theta) / (2 * h), (pt.theta - mt.theta) / (2 * h)],
    ])
    assert np.max(np.abs(deform_jacobian(params, p) - fd)) < 1e-9


def test_metric_inverse_and_coefficients():
    params = DeformationParams(0.3, math.sqrt(1 - 0.09), 0.08)
    p = CoordPoint(0.9, 0.7)
    g = pullback_metric(params, p)
    ginv = g.inv()
    prod = g.as_array() @ ginv.as_array()
    assert np.max(np.abs(prod - np.eye(2))) < 1e-13
    w11, w12, w22, m = metric_coefficients(params, p.r, p.theta)
    sqrt_det = math.sqrt(g.det)
    assert abs(m - sqrt_det) < 1e-13
    assert abs(w11 - ginv.g_rr * sqrt_det) < 1e-12
    assert abs(w12 - ginv.g_rtheta * sqrt_det) < 1e-12
    assert abs(w22 - ginv.g_thetatheta * sqrt_det) < 1e-12


# -------------------------------------------------- first-order asymptotics


def test_deformation_field_first_order():
    # L(theta; t)/t -> b cos(theta) and dL/dtheta / t -> -b sin(theta)
    from spheregap.geometry import _deformation_fields

    def L_of(params, theta):
        return _deformation_fields(params, theta)[3]

    rng = np.random.default_rng(71)
    for _ in range(10):
        a = float(rng.uniform(0, 1))
        b = math.sqrt(1 - a * a)
        theta = float(rng.uniform(0.1, PI / 2 - 0.1))
        ts = [4e-3, 2e-3, 1e-3]
        slope = _neville(ts, [L_of(DeformationParams(a, b, t), theta) / t for t in ts])
        assert abs(slope - b * math.cos(theta)) < 1e-7
        h = 1e-5

        def dL(t):
            params = DeformationParams(a, b, t)
            return (L_of(params, theta + h) - L_of(params, theta - h)) / (2 * h)

        slope2 = _neville(ts, [dL(t) / t for t in ts])
        assert abs(slope2 - (-b * math.sin(theta))) < 1e-6


def test_side_length_field_first_order():
    # l(z, (1-A) theta) = b sin(theta) t + O(t^2)
    from spheregap.geometry import _deformation_fields

    for a, theta in [(0.0, 0.6), (0.7, 1.2), (1.0, 0.4)]:
        b = math.sqrt(1 - a * a)
        ts = [4e-3, 2e-3, 1e-3]
        slope = _neville(
            ts,
            [_deformation_fields(DeformationParams(a, b, t), theta)[2] / t for t in ts],
        )
        assert abs(slope - b * math.sin(theta)) < 1e-8


# -------------------------------------------------- first-order operator


def _apply_l1(direction, derivatives, r, theta):
    """L1 u at (r, theta) from the rows of variation.L1_TERMS; derivatives
    maps (r order, theta order) to that partial derivative of u there."""
    component = dict(zip("ab", direction))
    return sum(term.constant * component[term.component] * term.radial(r) * term.angular(theta)
               * derivatives[term.r_order, term.theta_order] for term in L1_TERMS)


def test_operator_zero_field():
    zero = dict.fromkeys([(2, 0), (1, 0), (1, 1), (0, 2)], 0.0)
    assert _apply_l1((0.6, 0.8), zero, 0.8, 0.4) == 0.0


def test_operator_pure_angular_direction():
    # a = 1, b = 0 keeps only the (4/pi) a csc^2(r) d_theta^2 term
    derivatives = {(1, 0): 1.3, (2, 0): -0.4, (1, 1): 2.2, (0, 2): 0.9}
    got = _apply_l1((1.0, 0.0), derivatives, 0.7, 0.3)
    assert abs(got - (4 / PI) * 0.9 / math.sin(0.7) ** 2) < 1e-15


def test_operator_is_first_order_term_of_deformed_laplacian():
    """(Delta_t - Delta_round) u / t -> L1 u with the exact-metric Laplacian.

    The deformed Laplacian is computed from the weak-form metric fields that
    the FEM samples, by finite differences of the flux (g^ij sqrt(det g) d_j u),
    entirely independent of the table variation.L1_TERMS that pairing_terms
    integrates.
    """
    u = lambda r, th: math.sin(r) ** 2 * math.cos(r) * math.sin(2 * th)
    u_r = lambda r, th: (2 * math.sin(r) * math.cos(r) ** 2 - math.sin(r) ** 3) * math.sin(2 * th)
    u_th = lambda r, th: 2 * math.sin(r) ** 2 * math.cos(r) * math.cos(2 * th)
    u_rr = lambda r, th: (2 * math.cos(r) ** 3 - 7 * math.sin(r) ** 2 * math.cos(r)) * math.sin(2 * th)
    u_rth = lambda r, th: (2 * math.sin(r) * math.cos(r) ** 2 - math.sin(r) ** 3) * 2 * math.cos(2 * th)
    u_thth = lambda r, th: -4 * math.sin(r) ** 2 * math.cos(r) * math.sin(2 * th)

    def laplacian(params, r, th, h=1e-5):
        def flux(rr, tt):
            w11, w12, w22, _ = metric_coefficients(params, rr, tt)
            return (w11 * u_r(rr, tt) + w12 * u_th(rr, tt),
                    w12 * u_r(rr, tt) + w22 * u_th(rr, tt))

        _, _, _, m = metric_coefficients(params, r, th)
        fr_p, _ = flux(r + h, th)
        fr_m, _ = flux(r - h, th)
        _, ft_p = flux(r, th + h)
        _, ft_m = flux(r, th - h)
        return ((fr_p - fr_m) / (2 * h) + (ft_p - ft_m) / (2 * h)) / m

    rng = np.random.default_rng(73)
    for _ in range(10):
        r = float(rng.uniform(0.3, 1.2))
        th = float(rng.uniform(0.2, 1.3))
        a = float(rng.uniform(0, 1))
        b = math.sqrt(1 - a * a)
        base = laplacian(DeformationParams(a, b, 0.0), r, th)
        ts = [1e-2, 5e-3, 2.5e-3]
        slope = _neville(
            ts, [(laplacian(DeformationParams(a, b, t), r, th) - base) / t for t in ts]
        )
        derivatives = {(1, 0): u_r(r, th), (2, 0): u_rr(r, th), (1, 1): u_rth(r, th),
                       (0, 2): u_thth(r, th)}
        assert abs(slope - _apply_l1((a, b), derivatives, r, th)) < 1e-4


# ------------------------------------------------ accuracy over the range


# directions (cos phi, sin phi) at phi = 0, 27, 45, 60 and 90 degrees
_DIRECTIONS = [(1.0, 0.0), (math.cos(math.radians(27)), math.sin(math.radians(27))),
               (math.sqrt(0.5), math.sqrt(0.5)), (0.5, math.sqrt(0.75)), (0.0, 1.0)]
# fractions of a direction's largest t, at which the moved apex reaches the
# edge of the quadrant: max(a, b) t = pi/2
_FRACTIONS = (0.05, 0.5, 0.9, 0.99, 0.999)


def _relative_error(got, ref):
    return 0.0 if got == ref else float(abs(got - ref) / abs(ref))


def test_geometry_matches_the_arcsin_form_to_rounding():
    # 50-digit mpmath of the arcsin/sqrt side-length form, which shares no
    # code path with the tangent form under test. On this grid the tangent
    # form is off by at most 1.4e-13 (L at 0.999 of the largest t); the
    # arcsin form in floats loses 2.1e-7 relative in l and 4.5e-6 in L there
    import mpmath as mp

    from spheregap.geometry import _deformation_fields

    def side(alpha, psi):
        """l(alpha, psi) and its psi-slope in the arcsin form."""
        sa = mp.sin(alpha)
        den_sq = 1 - sa**2 * mp.cos(psi) ** 2
        return (mp.asin(sa * mp.sin(psi) / mp.sqrt(den_sq)),
                sa * mp.cos(alpha) * mp.cos(psi) / den_sq)

    thetas = np.linspace(0.0, PI / 2, 42)[1:-1]
    worst = 0.0
    with mp.workdps(50):
        for a, b in _DIRECTIONS:
            for f in _FRACTIONS:
                t = f * (PI / 2) / max(a, b)
                params = DeformationParams(a, b, t)
                at, bt = mp.mpf(a) * t, mp.mpf(b) * t
                z = mp.asin(mp.sin(bt) / mp.sqrt(mp.cos(at) ** 2
                                                 + mp.sin(bt) ** 2 * mp.sin(at) ** 2))
                z_float = apex_offset(params)
                worst = max(worst, _relative_error(z_float, z))
                one_m_a = 1 - 2 * at / mp.pi
                _, _, l, L = _deformation_fields(params, thetas)
                for theta, l_i, L_i in zip(thetas, l, L):
                    l_ref, dl_ref = side(z, one_m_a * theta)
                    worst = max(worst, _relative_error(l_i, l_ref),
                                _relative_error(L_i, one_m_a * dl_ref),
                                _relative_error(side_distance(z_float, theta),
                                                side(mp.mpf(z_float), theta)[0]))
    assert worst <= 1e-12, worst
