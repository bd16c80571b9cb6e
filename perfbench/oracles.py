"""Reference values for the benchmark, computed apart from spheregap.

Closed forms come from the paper (eigenvalues l(l+1), the piecewise gap
curves, the trigonometric form of I(z, b), the pairing totals); the
eigenfunction references use mpmath's Ferrers function and the closed-form
Gegenbauer norm. Nothing here imports spheregap.
"""
import math

import mpmath as mp

PI = math.pi
SQRT3 = math.sqrt(3.0)
MIN_GAP_VARIATION = 16.0 / PI
DPS = 20

# Pairing totals <u_left, L1 u_right> as (a-coefficient, b-coefficient),
# from the paper's appendix.
PAIRING_TOTALS = {
    "u1*u1": (-28.0 / PI, -28.0 / PI),
    "u2_1*u2_1": (-44.0 / PI, -77.0 / PI),
    "u2_2*u2_1": (0.0, 11.0 * SQRT3 / PI),
    "u2_1*u2_2": (0.0, 11.0 * SQRT3 / PI),
    "u2_2*u2_2": (-88.0 / PI, -55.0 / PI),
}


def mode_degree(domain, beta, k, j):
    """Degree l of the radial Ferrers factor of mode (k, j); its order is -k*pi/beta."""
    x = k * PI / beta
    return x + j if domain == "lune" else x + 2 * j + 1


def spectrum_levels(domain, beta, count):
    """The `count` smallest distinct eigenvalues l(l+1), each with its modes (k, j).

    The modes (1, 0), ..., (1, count - 1) already give `count` distinct
    levels, so every wanted mode has a degree l no larger than that of
    (1, count - 1); l grows in k and in j, so enumerating up to that degree
    is complete. Values closer than 1e-9 (relative) are one level.
    """
    top = mode_degree(domain, beta, 1, count - 1) * (1 + 1e-9)
    modes = []
    k = 1
    while mode_degree(domain, beta, k, 0) <= top:
        j = 0
        while (l := mode_degree(domain, beta, k, j)) <= top:
            modes.append((l * (l + 1.0), k, j))
            j += 1
        k += 1
    modes.sort()
    levels = []
    for lam, k, j in modes:
        if levels and lam - levels[-1][0] <= 1e-9 * lam:
            levels[-1][1].append((k, j))
        else:
            levels.append((lam, [(k, j)]))
    return [(lam, sorted(modes)) for lam, modes in levels[:count]]


def smallest_eigenvalues(domain, beta, m):
    """The m smallest eigenvalues, repeated by multiplicity."""
    out = []
    for lam, modes in spectrum_levels(domain, beta, m):
        out.extend([lam] * len(modes))
    return out[:m]


def gap_closed_form(domain, beta):
    """(gap, regime label) of the piecewise closed forms with x = pi/beta."""
    x = PI / beta
    if domain == "lune":
        return (3 * x * x + x, "beta>pi") if beta > PI else (2 * x + 2, "beta<=pi")
    if beta > PI / 2:
        return 3 * x * x + 3 * x, "beta>pi/2"
    return 4 * x + 10, "beta<=pi/2"


def variation_I(z, b):
    """The paper's trigonometric form of the gap variation I(z, b), a = sqrt(1 - b^2)."""
    a = math.sqrt(1.0 - b * b)
    cz, sz = math.cos(z), math.sin(z)
    return (b * (27 + 22 * cz * cz - 22 * SQRT3 * cz * sz) + a * (16 + 44 * sz * sz)) / PI


def variation_min_over_z(a, b):
    """min over z of I(z, b): I = (38(a+b) + (11b - 22a) cos 2z - 11 sqrt3 b sin 2z) / pi."""
    return (38 * (a + b) - math.hypot(11 * b - 22 * a, 11 * SQRT3 * b)) / PI


def one_sided_gap(t):
    """Exact gap of T(t) for the directions (1, 0) and (0, 1)."""
    return 4 * PI / (PI / 2 - t) + 10


def beta_value(beta_text):
    """The angle written as "0.75" (radians) or "0.75*pi", as a float."""
    return float(beta_text[:-3]) * PI if beta_text.endswith("*pi") else float(beta_text)


def _mp_beta(beta_text):
    return mp.mpf(beta_text[:-3]) * mp.pi if beta_text.endswith("*pi") else mp.mpf(beta_text)


def normalized_values(domain, beta_text, k, j, points):
    """c * P(cos r) * sin(k pi theta / beta) at the points, with unit L2 norm.

    With m = k pi / beta and l = m + n (n = j, or 2j + 1 for the triangle),
    P_l^-m(x) = (1 - x^2)^(m/2) C_n^(m+1/2)(x) up to a constant, and the
    Gegenbauer norm gives the integral of P^2 over [-1, 1] as
    2/(2l+1) * Gamma(l-m+1)/Gamma(l+m+1); P^2 is even, so the triangle's
    range [0, 1] holds half of it. The angular factor adds beta/2.
    """
    with mp.workdps(DPS):
        # m and l at working precision, so l - m is exactly the integer n
        # and P is the eigenfunction's radial factor all the way to x = -1
        beta = _mp_beta(beta_text)
        m = k * mp.pi / beta
        l = m + (j if domain == "lune" else 2 * j + 1)
        radial = 2 / (2 * l + 1) * mp.gamma(l - m + 1) / mp.gamma(l + m + 1)
        if domain == "triangle":
            radial /= 2
        c = 1 / mp.sqrt(radial * beta / 2)
        return [float(c * mp.legenp(l, -m, mp.cos(r), type=2) * mp.sin(m * th))
                for r, th in points]
