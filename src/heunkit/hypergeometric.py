"""Series evaluators for the Gauss and confluent hypergeometric functions.

These exist to cross-check other parts of the toolkit (series degenerations
and closed-form candidate solutions), so they are deliberately minimal:
plain power series on their natural domains, no analytic continuation, no
transformation formulas. Keeping the trusted base small is the point.

Contiguous-relation check used by the test suite (a standard relation in
the first parameter):

    (c-a) F(a-1,b;c;z) + (2a-c+(b-a)z) F(a,b;c;z) + a(z-1) F(a+1,b;c;z) = 0.
"""

from __future__ import annotations

from .errors import PoleParameter, SlowConvergence

TAIL_REL = 1e-14
MAX_TERMS = 20000
SERIES_DOMAIN_GUARD = 0.97


def _is_nonpositive_integer(c):
    c = complex(c)
    return (abs(c.imag) <= 1e-12 and c.real <= 0.5 and
            abs(c.real - round(c.real)) <= 1e-12)


def _sum_series(ratio, z):
    """1 + sum of t_k = t_{k-1} ratio(k-1) z, stopped once a term and the
    next are both below TAIL_REL relative to the sum."""
    total = term = 1.0 + 0j
    for k in range(MAX_TERMS):
        term *= ratio(k) * z
        total += term
        bound = TAIL_REL * max(1.0, abs(total))
        if abs(term) <= bound and abs(term * ratio(k + 1) * z) <= bound:
            return total
    raise SlowConvergence(f"series did not meet the tail bound at z = {z}")


def gauss_2f1(a, b, c, z):
    """Sum of the Gauss series  sum_k (a)_k (b)_k / ((c)_k k!) z^k, |z| < 1.

    Raises PoleParameter when c is a non-positive integer and
    SlowConvergence too close to the unit circle.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        raise PoleParameter(f"c = {c} is a non-positive integer")
    if abs(z) >= 1.0:
        raise ValueError(f"|z| = {abs(z):.4g} outside the series domain")
    if abs(z) > SERIES_DOMAIN_GUARD:
        raise SlowConvergence(f"|z| = {abs(z):.4g} too close to 1 for the series")
    return _sum_series(lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), z)


def gauss_2f1_derivative(a, b, c, z, order=1):
    """d^order/dz^order of the Gauss series via the parameter-shift rule."""
    a, b, c = complex(a), complex(b), complex(c)
    factor = 1.0 + 0j
    for j in range(order):
        factor *= (a + j) * (b + j) / (c + j)
    return factor * gauss_2f1(a + order, b + order, c + order, z)


def confluent_1f1(a, c, z):
    """Kummer series  sum_k (a)_k / ((c)_k k!) z^k (entire in z)."""
    a, c, z = complex(a), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        raise PoleParameter(f"c = {c} is a non-positive integer")
    return _sum_series(lambda k: (a + k) / ((c + k) * (k + 1.0)), z)


def contiguous_residual(a, b, c, z):
    """Residual of the documented contiguous relation (should be ~0)."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    val = ((c - a) * gauss_2f1(a - 1, b, c, z)
           + (2 * a - c + (b - a) * z) * gauss_2f1(a, b, c, z)
           + a * (z - 1) * gauss_2f1(a + 1, b, c, z))
    scale = max(1.0, abs(gauss_2f1(a, b, c, z)))
    return abs(val) / scale
