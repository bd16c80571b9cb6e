"""Associated Legendre functions of real degree and non-positive real order.

Evaluates the Ferrers function of the first kind P_l^mu(x) on (-1, 1] for
real degree l and order mu <= 0, together with the Gamma function and the
closed-form value P_l^mu(0) and slope dP_l^mu/dx at x = 0 (the derivative
is taken there only). These are the radial building blocks of the
separated Dirichlet eigenfunctions on spherical lunes and half-lune
triangles: there the order is -k*pi/beta and the degree exceeds |mu| by a
nonnegative integer.

Evaluation strategy
-------------------
For x >= 0 we use the hypergeometric representation about x = 1,

    P_l^mu(x) = ((1+x)/(1-x))^(mu/2) / Gamma(1-mu)
                * 2F1(l+1, -l; 1-mu; (1-x)/2),

whose series converges quickly for (1-x)/2 <= 1/2 and whose prefactor stays
finite for mu <= 0. For x < 0 two routes are used:

* if l + mu is an integer (every admissible eigenfunction pair is of this
  kind), the connection formula between P_l^mu(-x) and P_l^mu(x) collapses
  to the exact parity rule P_l^mu(-x) = (-1)^(l+mu) P_l^mu(x), which keeps
  machine accuracy arbitrarily close to the endpoint;
* otherwise the general Legendre ODE is integrated numerically from x = 0
  (initial value and slope in closed form) with an adaptive high-order
  scheme at absolute tolerance 1e-12. Only this branch imports scipy.
"""
import math

import numpy as np

from .errors import ConvergenceError, DomainError, GammaPoleError

_MAX_TERMS = 800
_INTEGER_TOL = 1e-9
# relative size of the last series terms at which a sum counts as converged;
# finite-difference oracles amplify truncation jumps by 1/h^2
_SERIES_TOL = 1e-13


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, at least 12 significant digits for |x| <= 50.

    Raises GammaPoleError at the poles x = 0, -1, -2, ..., and DomainError
    for a non-finite x or where Gamma(x) exceeds the float range (x above
    about 171.6).
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0 and abs(x - round(x)) < 1e-14:
        raise GammaPoleError(f"gamma pole at x = {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a float") from None


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def _hyp2f1_batch(a: float, b: float, c: float, w, tol: float, max_terms: int):
    """Gauss series sum_n (a)_n (b)_n / ((c)_n n!) w^n over an array of w.

    A point counts as converged once |term| < tol * |partial sum| for three
    consecutive terms. Returns (values, converged, residuals) where
    residuals holds the last |term| / |sum| seen per point.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    total = np.ones_like(w)
    term = np.ones_like(w)
    streak = np.zeros(w.shape, dtype=np.int64)
    active = np.ones(w.shape, dtype=bool)
    resid = np.ones_like(w)
    for n in range(max_terms):
        ratio = (a + n) * (b + n) / ((c + n) * (1.0 + n))
        term[active] = term[active] * ratio * w[active]
        total[active] += term[active]
        # a zero term means the series terminated (polynomial case)
        small = (np.abs(term) < tol * np.abs(total)) | (term == 0.0)
        streak[active & small] += 1
        streak[active & ~small] = 0
        resid[active] = np.abs(term[active]) / np.maximum(np.abs(total[active]), 1e-300)
        active &= streak < 3
        if not active.any():
            break
    return total, ~active, resid


def _series_many(degree, order, x):
    """Hypergeometric-series evaluation for an array of x in [0, 1]."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    at_one = x >= 1.0
    out[at_one] = 0.0 if order < 0 else 1.0
    rest = ~at_one
    if rest.any():
        xr = x[rest]
        w = 0.5 * (1.0 - xr)
        # a diverging sum overflows to inf or nan; it then never converges
        # and is reported below, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            vals, conv, resid = _hyp2f1_batch(
                degree + 1.0, -degree, 1.0 - order, w, _SERIES_TOL, _MAX_TERMS
            )
        if not conv.all():
            reached = float(resid[~conv].max())
            raise ConvergenceError("hypergeometric series did not converge",
                                   reached if math.isfinite(reached) else math.inf)
        pref = ((1.0 + xr) / (1.0 - xr)) ** (0.5 * order) / gamma_fn(1.0 - order)
        out[rest] = pref * vals
    return out


def _ode_continue(degree, order, x_neg):
    """Integrate the general Legendre ODE from x = 0 to negative arguments."""
    from scipy.integrate import solve_ivp

    lam = degree * (degree + 1.0)
    mu2 = order * order
    y0 = [legendre_p_at_zero(degree, order), legendre_p_dx(degree, order)]

    def rhs(x, y):
        one_m_x2 = 1.0 - x * x
        return [y[1], (2.0 * x * y[1] - (lam - mu2 / one_m_x2) * y[0]) / one_m_x2]

    x_neg = np.asarray(x_neg, dtype=float)
    order_idx = np.argsort(x_neg)[::-1]
    sol = solve_ivp(
        rhs,
        (0.0, float(x_neg.min())),
        y0,
        t_eval=x_neg[order_idx],
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
    )
    if not sol.success:
        raise ConvergenceError(f"ODE continuation failed: {sol.message}", math.inf)
    out = np.empty_like(x_neg)
    out[order_idx] = sol.y[0]
    return out


def _check_parameters(degree: float, order: float) -> None:
    """Raise DomainError unless the degree is finite and the order is finite
    and <= 0."""
    if not math.isfinite(degree):
        raise DomainError(f"degree must be finite, got {degree}")
    if not -math.inf < order <= 0:
        raise DomainError(f"order must be finite and <= 0, got {order}")


def legendre_p_many(degree: float, order: float, x) -> np.ndarray:
    """P_l^mu at an array of points x in (-1, 1], order mu <= 0."""
    _check_parameters(degree, order)
    if degree < -0.5:
        degree = -degree - 1.0  # P is invariant under degree -> -degree - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x > -1.0) & (x <= 1.0)):
        raise DomainError("argument outside (-1, 1]")
    out = np.empty_like(x)
    neg = x < 0.0
    out[~neg] = _series_many(degree, order, x[~neg])
    if neg.any():
        m = degree + order
        if abs(m - round(m)) < _INTEGER_TOL:
            # parity rule, exact for degree - |order| integer
            sign = -1.0 if int(round(m)) % 2 else 1.0
            out[neg] = sign * _series_many(degree, order, -x[neg])
        else:
            out[neg] = _ode_continue(degree, order, x[neg])
    return out


def legendre_p(degree: float, order: float, x: float) -> float:
    """Ferrers function P_l^mu(x) for real degree l, order mu <= 0, x in (-1, 1].

    Solves (1-x^2) R'' - 2x R' + [l(l+1) - mu^2/(1-x^2)] R = 0. For mu < 0
    the value tends to 0 as x -> 1.
    """
    return float(legendre_p_many(degree, order, np.array([x]))[0])


def legendre_p_dx(degree: float, order: float) -> float:
    """Slope dP_l^mu/dx at x = 0, from the recurrence DLMF 14.10.5

        (1 - x^2) dP_l^mu/dx = (mu - l - 1) P_{l+1}^mu(x) + (l + 1) x P_l^mu(x),

    which at x = 0 is the closed form (mu - l - 1) P_{l+1}^mu(0). No other
    point is offered: both callers, the triangle's edge scale and the start
    of the ODE branch, need the slope at zero only.
    """
    _check_parameters(degree, order)
    return (order - degree - 1.0) * legendre_p_at_zero(degree + 1.0, order)


def legendre_p_at_zero(degree: float, order: float) -> float:
    """Closed-form P_l^mu(0) = 2^mu sqrt(pi) / (Gamma((l-mu)/2 + 1) Gamma(1/2 - (l+mu)/2)).

    A pole of either Gamma factor makes the whole expression an exact zero.
    """
    _check_parameters(degree, order)
    g1_arg = 0.5 * (degree - order) + 1.0
    g2_arg = 0.5 - 0.5 * (degree + order)
    if _is_nonpositive_integer(g1_arg) or _is_nonpositive_integer(g2_arg):
        return 0.0
    return 2.0**order * math.sqrt(math.pi) / (gamma_fn(g1_arg) * gamma_fn(g2_arg))
