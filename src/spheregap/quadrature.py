"""Gauss-Legendre rules on finite intervals, in pure Python.

The nodes are the roots of P_n, found by Newton's method on the three-term
recurrence (n P_n = (2n - 1) x P_{n-1} - (n - 1) P_{n-2}) from the
asymptotic guess cos(pi (i + 3/4) / (n + 1/2)); the weights are
2 / ((1 - x^2) P_n'(x)^2). Only the roots in (0, 1) are computed, and the
rule is mirrored from them, so nodes and weights are exactly symmetric.
"""
import math
import numbers
from functools import lru_cache

# Newton steps per root; from the asymptotic guess a root settles in about 4
_MAX_NEWTON = 20


def _legendre_and_slope(n: int, x: float):
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence."""
    p, p_prev = x, 1.0
    for k in range(2, n + 1):
        p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=64)
def _reference_rule(n: int):
    """The n-point rule on [-1, 1] as (nodes, weights), nodes ascending."""
    roots = []  # (node, weight) of each root in (0, 1), the largest first
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(_MAX_NEWTON):
            p, dp = _legendre_and_slope(n, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        dp = _legendre_and_slope(n, x)[1]
        roots.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    # the middle root of an odd rule is 0 exactly
    middle = [(0.0, 2.0 / _legendre_and_slope(n, 0.0)[1] ** 2)] if n % 2 else []
    pairs = [(-x, w) for x, w in roots] + middle + roots[::-1]
    return tuple(x for x, _ in pairs), tuple(w for _, w in pairs)


def gauss_legendre(a: float, b: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b], as two
    tuples of floats, nodes ascending. Raises ValueError unless n is an
    integer (int or numpy integer) >= 1."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"node count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("node count must be positive")
    x, w = _reference_rule(n)
    scale, shift = 0.5 * (b - a), 0.5 * (b + a)
    return tuple(scale * xi + shift for xi in x), tuple(scale * wi for wi in w)
