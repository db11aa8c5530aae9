"""Power series solutions from one coefficient recurrence.

An equation is cleared of denominators into A(s) w'' + B(s) w' + C(s) w = 0
in the local variable s. Writing w = s**rho * sum h_m s**m, the coefficient
of s**(k+rho-2) gives

    sum_m P_{k-m}(m + rho) h_m = 0,   P_d(x) = a_d x(x-1) + b_{d-1} x + c_{d-2},

so every new term is -(sum of the earlier ones)/pivot, the pivot being the
first P_d that does not vanish. ``sum_until`` runs that one loop for every
series in the package and holds the one tail rule that ends a sum at a
point. It carries one column or a pair (a fundamental pair on a Taylor
step): one column adds each weight P_d(m + rho) to its sum as the weight
is formed, a pair forms each weight once for both columns, and a column's
coefficients come out bit for bit the same either way. ``eval_local``
applies the tail rule at rounding level to stop Horner at the prefix a
point needs, and ``_horner`` gives every sum's value and derivative:

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
* an ordinary point (``transport``, the Taylor re-expansion behind every
  path in ``engine``, after O. V. Motygin, "On evaluation of the Heun
  functions", and ``mpmath.odefun``): A(0) != 0 and rho = 0, so h_0 = w
  and h_1 = w' are free and the pivot of h_n is a_0 n(n-1). Each step
  shifts the cleared polynomials to its center and ends at the next
  vertex, or sooner: at STEP_FRACTION of the distance to the nearest
  singular point (series ratio at most 1/2), and at twice the scale on
  which the coefficients change a solution (this bounds steps where no
  singular point is near, as for the harmonic oscillator). All columns
  share the shifted polynomials and weights, so a fundamental pair walks a
  path in one pass. Caps on steps per path and terms per step raise
  StepUnderflow instead of looping on inputs that cannot converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParameter, LogarithmicCase, OutsideRadius, \
    OverflowGuard, SingularityTooClose, StepUnderflow, TruncationFailure
from .ode import local_form, regular_exponents
from .poly import ROUNDING, near, taylor_shift

INTEGER_TOL = 1e-9
PIVOT_FLOOR = 1e-10  # LogarithmicCase below this pivot, relative to A, B, C
MAX_SERIES_TERMS = 4096  # TruncationFailure beyond this many terms
CLEARANCE_FACTOR = 1e-3
STEP_FRACTION = 0.5  # step / distance to the nearest finite singular point
MAX_STEPS = 10_000  # Taylor steps per path
MAX_TERMS = 400  # series terms per Taylor step


def is_integer(x):
    """Whether the complex x is within INTEGER_TOL of an integer."""
    return abs(x.imag) <= INTEGER_TOL and abs(x.real - round(x.real)) <= INTEGER_TOL


@dataclass(frozen=True)
class LocalSeries:
    """w(z) = (z - center)**exponent * sum coeffs[k] (z - center)**k, with
    coeffs[0] = 1 and the stated convergence radius; window is the tail
    rule's (see sum_until) for the recurrence that made coeffs."""

    center: complex
    exponent: complex
    coeffs: tuple
    radius: float
    window: int = 2


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


def _window(weights, lead):
    return max(2, len(weights) - 1 - lead)


def sum_until(weights, lead, rho, cols, r, tol, max_terms, pivot_floor=0.0):
    """Append the next coefficient to each list in ``cols``, one column or
    a pair, until the tail rule holds at distance r > 0 from the center, or
    up to index max_terms (always, for a negative tol); return whether the
    rule held. ``lead`` is the offset d of the pivot: the order of A's root
    at the center (0 at an ordinary point). Raises LogarithmicCase when
    |pivot| <= pivot_floor * max(1, n**2).

    Term n sums weight * h_m over m = n - 1, n - 2, ... down to n - depth,
    with weight P_{lead+n-m}(m + rho): one column adds each weight as it is
    formed, a pair forms it once for both. Either way a column's sum starts
    at 0j and adds the same products in the same order, so its
    coefficients do not depend on whether it shares the pass.

    The tail rule: term n is the largest |h_n| r**n over the columns (NaN
    if any column's is), weighted by max(1, n/r) to bound the derivative's
    term too; it holds once the last ``window`` terms sum to at most tol,
    window being the recurrence depth beyond lead and at least 2, so a run
    of zero coefficients cannot end a sum early.
    """
    if len(cols) not in (1, 2):
        raise InvalidParameter(f"sum_until carries one column or a pair, "
                               f"got {len(cols)}")
    pa, pb, pc = weights[lead]
    higher = weights[lead + 1:]
    depth = len(higher)
    window = _window(weights, lead)
    h = cols[0]
    h2 = cols[1] if len(cols) == 2 else None
    n = len(h)
    ys = [m + rho for m in range(n)]  # m + rho for every stored h_m
    rn = r ** (n - 1)
    errs = []
    while n <= max_terms:
        x = n + rho
        pivot = (pa * x + pb) * x + pc
        if abs(pivot) <= pivot_floor * (n * n or 1):
            raise LogarithmicCase(
                f"recurrence pivot vanishes at order {n}; exponents are "
                "resonant and this branch needs a logarithm")
        m = n
        acc = 0j
        if h2 is None:
            for wa, wb, wc in (higher if n >= depth else higher[:n]):
                m -= 1
                y = ys[m]
                acc += ((wa * y + wb) * y + wc) * h[m]
            term = -acc / pivot
            big = abs(term)
        else:
            acc2 = 0j
            for wa, wb, wc in (higher if n >= depth else higher[:n]):
                m -= 1
                y = ys[m]
                weight = (wa * y + wb) * y + wc
                acc += weight * h[m]
                acc2 += weight * h2[m]
            term, term2 = -acc / pivot, -acc2 / pivot
            h2.append(term2)
            big = abs(term)
            mag = abs(term2)
            if mag > big or mag != mag:
                big = mag
        h.append(term)
        ys.append(x)
        rn *= r
        err = rn * (n / r if n > r else 1.0) * big
        errs.append(err)
        if err <= tol and n > window and sum(errs[-window:]) <= tol:
            return True
        n += 1
    return False


def _horner(h, s):
    """S = sum h_k s^k and S' = sum k h_k s^(k-1), by Horner's rule."""
    S = dS = 0j
    for k in range(len(h) - 1, 0, -1):
        S = S * s + h[k]
        dS = dS * s + k * h[k]
    return S * s + h[0], dS


def point_segment_distance(p, a, b):
    """Distance from point p to the segment [a, b]."""
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def check_clearance(sing, vertices):
    """Raise SingularityTooClose when the polyline through ``vertices``
    passes within CLEARANCE_FACTOR times the local spacing of a singular
    point: its distance to the nearest other one, so tight geometries and
    wide ones are treated alike (max(1, |s|) for a lone point)."""
    for i, s in enumerate(sing):
        clearance = CLEARANCE_FACTOR * min(
            (abs(s - o) for j, o in enumerate(sing) if j != i),
            default=max(1.0, abs(s)))
        for a, b in zip(vertices[:-1], vertices[1:]):
            d = point_segment_distance(s, a, b)
            if d < clearance:
                raise SingularityTooClose(
                    f"path within {d:.3e} of singular point {s} "
                    f"(clearance {clearance:.3e})")


def _coefficient_scale(a, b, c):
    """Distance over which the terms b_k s^k w' and c_k s^k w grow to the
    size of a_0 w'': the step bound where no singular point is near."""
    a0 = abs(a[0])
    scale = math.inf
    for k, bk in enumerate(b):
        if bk != 0:
            scale = min(scale, (a0 / abs(bk)) ** (1.0 / (k + 1)))
    for k, ck in enumerate(c):
        if ck != 0:
            scale = min(scale, (a0 / abs(ck)) ** (1.0 / (k + 2)))
    return scale


def _taylor_step(a, b, c, dz, cols, tol):
    """Carry the (w, w') columns from the center of the shifted polynomials
    a, b, c to center + dz with one series each."""
    # each column scaled to max(1, |w|, |w'|) = 1, so one tail test fits all
    scales = [max(1.0, abs(w), abs(dw)) for w, dw in cols]
    h = [[w / s, dw / s] for (w, dw), s in zip(cols, scales)]
    if not sum_until(recurrence_weights(a, b, c), 0, 0j, h, abs(dz), tol,
                     MAX_TERMS):
        raise StepUnderflow(f"Taylor series did not reach tol {tol:.3e} "
                            f"in {MAX_TERMS} terms (step {dz:.3e})")
    out = []
    for hc, s in zip(h, scales):
        w, dw = _horner(hc, dz)
        out.append((w * s, dw * s))
    return out


def transport(cleared, vertices, cols, tol):
    """Carry (w, w') columns from the first vertex of a polyline to the
    last. cleared is LinearODE.cleared(): A, B, C of A w'' + B w' + C w = 0
    and the finite singular points, from which the path must keep its
    clearance. Raises SingularityTooClose / StepUnderflow."""
    A, B, C, sing = cleared
    check_clearance(sing, vertices)
    z = vertices[0]
    cols = [(complex(w), complex(dw)) for w, dw in cols]
    steps = 0
    for zb in vertices[1:]:
        while z != zb:
            steps += 1
            if steps > MAX_STEPS:
                raise StepUnderflow(f"more than {MAX_STEPS} Taylor steps; "
                                    f"stopped at z = {z}")
            a, b, c = (taylor_shift(P.coeffs, z) for P in (A, B, C))
            reach = min(STEP_FRACTION * min((abs(z - s) for s in sing),
                                            default=math.inf),
                        2.0 * _coefficient_scale(a, b, c))
            d = zb - z
            z_next = zb if abs(d) <= reach else z + d * (reach / abs(d))
            if z_next == z:
                raise StepUnderflow(f"a step of {reach:.3e} does not move "
                                    f"z = {z}")
            cols = _taylor_step(a, b, c, z_next - z, cols, tol)
            z = z_next
    return cols


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
    sum_until(weights, lead, rho, [h], 1.0, -1.0, n_terms, PIVOT_FLOOR * scale)
    return LocalSeries(center, rho, tuple(h), convergence_radius(ode, center),
                       _window(weights, lead))


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
        sum_until(weights, lead, rho, [h], 1.0, -1.0, 1, floor)
    else:
        head = abs(_power(s, rho))  # 0 on underflow: any sum is exact enough
        bound = tol * max(1.0, head) / head if head else math.inf
        if not sum_until(weights, lead, rho, [h], r, bound, MAX_SERIES_TERMS,
                         floor):
            raise TruncationFailure(
                f"series at z={z} did not reach tol {tol:.3e} in "
                f"{MAX_SERIES_TERMS} terms")
    series = LocalSeries(center, rho, tuple(h), radius, _window(weights, lead))
    return eval_local(series, z), series


def _power(s, rho):
    try:
        return s ** rho
    except OverflowError:  # a typed domain error, not a traceback
        raise OverflowGuard(f"|z - center|**exponent = {abs(s):.6g}**{rho} "
                            "exceeds the float range") from None


def eval_local(series, z):
    """Evaluate a LocalSeries and its derivative at z.

    Horner sums only the prefix that z needs: it ends after the first run
    of terms |h_k| |s|**k max(1, k/|s|) that meets sum_until's tail rule
    with tol ROUNDING (a quarter ulp) times the largest term so far.
    Returns SeriesValue(w, dw, tail) where tail, the truncation estimate,
    is the larger magnitude of the last two stored terms: one coefficient
    that happens to be near zero does not make the sum look converged.
    Raises OutsideRadius when |z - center| >= radius.
    """
    s = complex(z) - series.center
    r = abs(s)
    if r >= series.radius:
        raise OutsideRadius(
            f"|z - center| = {r:.6g} >= radius {series.radius:.6g}")
    h, rho = series.coeffs, series.exponent
    if s == 0:
        if rho == 0:
            return SeriesValue(h[0], h[1] if len(h) > 1 else 0j, 0.0)
        raise OutsideRadius(
            "evaluation exactly at the expansion center needs exponent 0")
    window, errs, big, lim, rk, k = series.window, [], 0.0, 0.0, 1.0, 0
    for k, hk in enumerate(h):
        err = abs(hk) * rk * (k / r if k > r else 1.0)
        errs.append(err)
        if err > big:
            big, lim = err, ROUNDING * err
        elif err <= lim and k > window and sum(errs[-window:]) <= lim:
            break
        rk *= r
    S, T = _horner(h[:k + 1], s)
    head = _power(s, rho)
    last = max(len(h) - 2, 0)
    tail = max(abs(c) * r ** j for j, c in enumerate(h[last:], last)) * abs(head)
    return SeriesValue(head * S, head * (rho * S / s + T), tail)
