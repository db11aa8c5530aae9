"""Power series solutions from one coefficient recurrence.

An equation is cleared of denominators into A(s) w'' + B(s) w' + C(s) w = 0
in the local variable s. Writing w = s**rho * sum h_m s**m, the coefficient
of s**(k+rho-2) gives

    sum_m P_{k-m}(m + rho) h_m = 0,   P_d(x) = a_d x(x-1) + b_{d-1} x + c_{d-2},

so every new term is -(sum of the earlier ones)/pivot, the pivot being the
first P_d that does not vanish. ``recurrence_terms`` runs that one loop for
every series in the package, and ``sum_until`` is the one rule that ends a
sum at a point:

* a regular singular point (``frobenius_series``): A, B, C are the
  equation's cached ``LinearODE.cleared`` polynomials shifted to the point
  by ``ode.local_form``, the classifier's own local analysis, where A has
  a root of multiplicity lead = max(ord_p, ord_q), 1 or 2. P_d vanishes
  for d < lead, so the pivot of h_n is the indicial polynomial
  P_lead(n + rho), whose roots are the exponents. Division by it fails
  exactly when the exponents differ by the integer n; that is the
  logarithmic case and frobenius_series refuses rather than return a wrong
  series. ``frobenius_value`` sums it at a point z until the tail rule
  holds, so the series is as long as z and the tolerance need.
  ``heun.heun_series`` and ``heun.heun_value`` are these on the general
  Heun equation, whose cleared form is the exact T = z(z-1)(z-f) with lead
  1 at each simple root (``heun.general_heun``), with the exponents passed
  in exactly: the Heun three-term recurrence;
* an ordinary point (path transport in ``engine``): A(0) != 0 and rho = 0,
  so h_0 = w and h_1 = w' are free and the pivot of h_n is a_0 n(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParameter, LogarithmicCase, OutsideRadius, \
    OverflowGuard, TruncationFailure
from .ode import local_form, regular_exponents
from .poly import near

INTEGER_TOL = 1e-9
PIVOT_FLOOR = 1e-10  # LogarithmicCase below this pivot, relative to A, B, C
MAX_SERIES_TERMS = 4096  # TruncationFailure beyond this many terms


def is_integer(x):
    """Whether the complex x is within INTEGER_TOL of an integer."""
    return abs(x.imag) <= INTEGER_TOL and abs(x.real - round(x.real)) <= INTEGER_TOL


@dataclass(frozen=True)
class LocalSeries:
    """w(z) = (z - center)**exponent * sum coeffs[k] (z - center)**k, with
    coeffs[0] = 1 and the stated convergence radius."""

    center: complex
    exponent: complex
    coeffs: tuple
    radius: float


class SeriesValue(NamedTuple):
    w: complex
    dw: complex
    tail: float


def recurrence_weights(a, b, c):
    """The P_d of the module docstring as (a_d, b_{d-1} - a_d, c_{d-2}),
    so that P_d(x) = (a_d x + b_{d-1} - a_d) x + c_{d-2}; a, b, c are the
    ascending coefficients of the cleared A, B, C."""
    size = max(len(a), len(b) + 1, len(c) + 2)
    a = tuple(a) + (0j,) * (size - len(a))
    b = (0j,) + tuple(b) + (0j,) * (size - 1 - len(b))
    c = (0j, 0j) + tuple(c) + (0j,) * (size - 2 - len(c))
    return [(ad, bd - ad, cd) for ad, bd, cd in zip(a, b, c)]


def recurrence_terms(weights, lead, rho, cols, pivot_floor=0.0):
    """Append the next coefficient to every list in ``cols`` and yield its
    index, once per iteration, forever.

    ``lead`` is the offset d of the pivot: the order of A's root at the
    center (0 at an ordinary point). All columns share the weights, so
    carrying a fundamental pair costs little more than one solution.
    Raises LogarithmicCase when |pivot| <= pivot_floor * max(1, n**2).
    """
    pa, pb, pc = weights[lead]
    higher = [(d - lead, w) for d, w in enumerate(weights) if d > lead]
    n = len(cols[0])
    while True:
        x = n + rho
        pivot = (pa * x + pb) * x + pc
        if abs(pivot) <= pivot_floor * max(1.0, n * n):
            raise LogarithmicCase(
                f"recurrence pivot vanishes at order {n}; exponents are "
                "resonant and this branch needs a logarithm")
        ws = []
        for back, (wa, wb, wc) in higher:
            m = n - back
            if m < 0:
                break
            y = m + rho
            ws.append((m, (wa * y + wb) * y + wc))
        for h in cols:
            acc = 0j
            for m, wgt in ws:
                acc += wgt * h[m]
            h.append(-acc / pivot)
        yield n
        n += 1


def sum_until(weights, lead, rho, cols, r, tol, max_terms, pivot_floor=0.0):
    """Extend the columns with recurrence_terms until the tail rule holds at
    distance r > 0 from the center; return whether it did by max_terms.

    Term n is the largest |h_n| r**n over the columns, weighted by
    max(1, n/r) to bound the derivative's term too. The rule: the last
    ``window`` terms sum to at most tol, window being the recurrence depth
    beyond lead and at least 2, so a run of zero coefficients cannot end a
    sum early (after O. V. Motygin, "On evaluation of the Heun functions").
    """
    window = max(2, len(weights) - 1 - lead)
    rn = r ** (len(cols[0]) - 1)
    errs = []
    for n in recurrence_terms(weights, lead, rho, cols, pivot_floor):
        rn *= r
        errs.append(rn * max(1.0, n / r) * max([abs(h[n]) for h in cols]))
        if n > window and sum(errs[-window:]) <= tol:
            return True
        if n >= max_terms:
            return False


def local_exponents(ode, z0):
    """Indicial exponents at the regular singular point that z0 names, and
    the recurrence they belong to as (center, lead, weights, scale).

    One ``ode.local_form`` gives both: the point is the cleared point that
    z0 is ``near``, the exponents are its classification's, larger real
    part first, and lead is its multiplicity in A (1 or 2). Raises
    NotRegular at an ordinary or an irregular point.
    """
    local = local_form(ode, complex(z0))
    center, ord_p, ord_q, a, b, c = local
    weights = recurrence_weights(a, b, c)
    return regular_exponents(local.point(), z0), (
        center, max(ord_p, ord_q), weights, max(map(abs, a + b + c)))


def convergence_radius(ode, z0):
    """Distance from z0 to the nearest finite singular point that z0 is not
    ``near``: the radius of every series about the point z0 names."""
    return min((abs(loc - z0) for loc in ode.cleared()[3] if not near(loc, z0)),
               default=math.inf)


def _branch(ode, z0, branch, exponents):
    """(rho, (center, lead, weights, scale)) of one branch at the point
    that z0 matches; see frobenius_series."""
    roots, local = local_exponents(ode, z0)
    r1, r2 = roots if exponents is None else exponents
    if branch == "second":
        if is_integer(r1 - r2):
            raise LogarithmicCase(
                f"exponents {r1}, {r2} differ by an integer; the second "
                "solution carries a logarithm")
        return r2, local
    if branch == "first":
        return r1, local
    raise InvalidParameter(f"branch must be 'first' or 'second', got {branch!r}")


def frobenius_series(ode, z0, branch="first", n_terms=60, exponents=None):
    """Frobenius solution at a regular singular point of any rational ODE,
    with n_terms terms after the first.

    The series is centered on the finite singular point that z0 matches
    (see local_exponents) and converges out to the nearest other one.
    branch="first" takes the exponent with the larger real part (the
    solution that always exists); "second" takes the other one and raises
    LogarithmicCase when the exponents differ by an integer. A caller that
    knows the exponents exactly passes them as (first, second) instead.
    """
    rho, (center, lead, weights, scale) = _branch(ode, z0, branch, exponents)
    h = [1.0 + 0j]
    terms = recurrence_terms(weights, lead, rho, [h],
                             pivot_floor=PIVOT_FLOOR * scale)
    for _ in range(n_terms):
        next(terms)
    return LocalSeries(center, rho, tuple(h), convergence_radius(ode, center))


def frobenius_value(ode, z0, branch, z, tol, exponents=None):
    """(SeriesValue, LocalSeries) of frobenius_series's solution at z, summed
    until sum_until's rule holds relative to max(1, |(z - center)**rho|),
    the leading term, as a Taylor step measures against its state.

    At z = center only exponent 0 has a value: w = h_0, w' = h_1. Raises
    OutsideRadius at or beyond the radius (before summing) and at the
    center for rho != 0, TruncationFailure after MAX_SERIES_TERMS terms.
    """
    rho, (center, lead, weights, scale) = _branch(ode, z0, branch, exponents)
    radius = convergence_radius(ode, center)
    s = complex(z) - center
    r = abs(s)
    if r >= radius:
        raise OutsideRadius(f"|z - center| = {r:.6g} >= radius {radius:.6g}")
    h = [1.0 + 0j]
    floor = PIVOT_FLOOR * scale
    if r == 0.0:
        next(recurrence_terms(weights, lead, rho, [h], floor))
    else:
        head = abs(_power(s, rho))  # 0 on underflow: any sum is exact enough
        bound = tol * max(1.0, head) / head if head else math.inf
        if not sum_until(weights, lead, rho, [h], r, bound, MAX_SERIES_TERMS,
                         floor):
            raise TruncationFailure(
                f"series at z={z} did not reach tol {tol:.3e} in "
                f"{MAX_SERIES_TERMS} terms")
    series = LocalSeries(center, rho, tuple(h), radius)
    return eval_local(series, z), series


def _power(s, rho):
    try:
        return s ** rho
    except OverflowError:  # a typed domain error, not a traceback
        raise OverflowGuard(f"|z - center|**exponent = {abs(s):.6g}**{rho} "
                            "exceeds the float range") from None


def eval_local(series, z):
    """Evaluate a LocalSeries and its derivative at z.

    Returns SeriesValue(w, dw, tail) where tail, the truncation estimate,
    is the larger magnitude of the last two retained terms: one coefficient
    that happens to be near zero does not make the sum look converged.
    Raises OutsideRadius when |z - center| >= radius.
    """
    s = complex(z) - series.center
    if abs(s) >= series.radius:
        raise OutsideRadius(
            f"|z - center| = {abs(s):.6g} >= radius {series.radius:.6g}")
    # Horner for S = sum h_k s^k and T = sum k h_k s^(k-1)
    S = 0j
    T = 0j
    for k in range(len(series.coeffs) - 1, -1, -1):
        S = S * s + series.coeffs[k]
        if k >= 1:
            T = T * s + k * series.coeffs[k]
    rho = series.exponent
    if s == 0:
        if rho == 0:
            dw = series.coeffs[1] if len(series.coeffs) > 1 else 0j
            return SeriesValue(series.coeffs[0], dw, 0.0)
        raise OutsideRadius(
            "evaluation exactly at the expansion center needs exponent 0")
    head = _power(s, rho)
    w = head * S
    dw = head * (rho * S / s + T)
    last = max(len(series.coeffs) - 2, 0)
    tail = max(abs(h) * abs(s) ** k
               for k, h in enumerate(series.coeffs[last:], last)) * abs(head)
    return SeriesValue(w, dw, tail)
