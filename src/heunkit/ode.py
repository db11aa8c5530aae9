"""Second-order linear ODEs with rational coefficients.

An ODE is stored as w'' + p(z) w' + q(z) w = 0 with p, q rational. The
classifier follows the pole-order criterion: a finite point is regular
singular when p has at most a simple pole and q at most a double pole
there; anything worse is irregular. The point at infinity is classified
by the same pole-order rule applied to the equation in t = 1/z at t = 0,
whose orders and residues are read off the degrees and leading
coefficients of p and q (no reduction, no root finding).

A finite point is read from the cleared form A w'' + B w' + C w = 0 of
``LinearODE.cleared`` alone, by ``local_form``, which the classifier,
``indicial_exponents`` and ``series.local_exponents`` share; its points
are the cleared form's own (a Heun equation reports exactly 0, 1 and f).

Irregular severity is reported as a rational Poincare rank obtained from
the Newton-polygon slopes of the two coefficients,

    rank = max( ord(p) - 1, (ord(q) - 2)/2, 0 ),

which admits half-integer values (field-in-a-Coulomb-problem equations
genuinely have rank 3/2 at infinity, and the classifier must not round).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import NotRegular, PoleAtSample
from .poly import TAU_GCD, TAU_POLE, Polynomial, RationalFunction, \
    _transitive_groups, make_rational, near, taylor_shift


class PointKind(enum.Enum):
    ORDINARY = "ordinary"
    REGULAR = "regular"
    IRREGULAR = "irregular"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SingularPoint:
    """A classified point. ``location is None`` means the point at infinity."""

    location: Optional[complex]
    kind: PointKind
    rank: Fraction
    exponents: Optional[tuple] = None

    @property
    def at_infinity(self):
        return self.location is None

    def __repr__(self):
        loc = "inf" if self.location is None else f"{self.location:.6g}"
        exp = "" if self.exponents is None else f", exponents={self.exponents}"
        return f"SingularPoint({loc}, {self.kind.value}, rank={self.rank}{exp})"


@dataclass(frozen=True)
class LinearODE:
    """w'' + p(z) w' + q(z) w = 0 with rational p and q."""

    p: RationalFunction
    q: RationalFunction

    @staticmethod
    def from_coefficients(p_num, p_den, q_num, q_den):
        return LinearODE(make_rational(p_num, p_den), make_rational(q_num, q_den))

    @staticmethod
    def from_polynomials(A, B, C):
        """A(z) w'' + B(z) w' + C(z) w = 0, given ascending coefficient lists."""
        A = A if isinstance(A, Polynomial) else Polynomial(A)
        return LinearODE(make_rational(B, A), make_rational(C, A))

    def shifted(self, s):
        """The equation satisfied by v(z) = w(z + s)."""
        return LinearODE(self.p.shifted(s), self.q.shifted(s))

    def cleared(self):
        """(A, B, C, points): the same equation as A w'' + B w' + C w = 0
        with polynomial A, B, C, and the tuple of its finite singular
        points, sorted by real then imaginary part.

        A is monic with exactly those points as roots, each with
        multiplicity max(ord_p, ord_q); B = p A and C = q A. Cached on the
        instance.
        """
        cached = self.__dict__.get("_cleared")
        if cached is not None:
            return cached
        # the poles of p and q, those near each other merged at their mean
        locs = [loc for rf in (self.p, self.q) for loc, _ in rf.poles()]
        centers = sorted((sum(g) / len(g) for g in _transitive_groups(locs, near)),
                         key=lambda z: (z.real, z.imag))
        points = [(loc, self.p.pole_order_at(loc)[0], self.q.pole_order_at(loc)[0])
                  for loc in centers]

        def times(rf, slot):
            # rf * A as a polynomial: the factors of A that rf's poles leave
            rest = [loc for loc, *orders in points
                    for _ in range(max(orders) - orders[slot])]
            lead = 1.0 / rf.den.coeffs[-1]
            return rf.num * Polynomial.from_roots(rest, lead)

        A = Polynomial.from_roots([loc for loc, *orders in points
                                   for _ in range(max(orders))])
        out = (A, times(self.p, 0), times(self.q, 1),
               tuple(loc for loc, _, _ in points))
        self.__dict__["_cleared"] = out
        return out


def _indicial_roots(p_res, q_res2):
    """Roots of rho(rho-1) + p_res*rho + q_res2, ordered by descending real
    part (descending imaginary part on a near-tie)."""
    b = complex(p_res) - 1.0
    # with q_res2 = 0, sq = -b makes the roots exactly 1 - p_res and 0
    sq = -b if q_res2 == 0 else complex(b * b - 4.0 * complex(q_res2)) ** 0.5
    r1 = (-b + sq) / 2.0
    r2 = (-b - sq) / 2.0
    scale = max(1.0, abs(r1), abs(r2))
    tied = abs(r1.real - r2.real) <= 1e-12 * scale
    if (not tied and r1.real < r2.real) or (tied and r1.imag < r2.imag):
        r1, r2 = r2, r1
    # + 0.0 turns a signed zero into 0.0, so no exponent prints as -0
    return (complex(r1.real + 0.0, r1.imag + 0.0),
            complex(r2.real + 0.0, r2.imag + 0.0))


def _point(location, ord_p, ord_q, residues):
    """The SingularPoint where p and q have poles of these orders;
    ``residues()`` gives (p_res, q_res2) for the indicial equation and is
    called only when the point is regular."""
    if ord_p == 0 and ord_q == 0:
        return SingularPoint(location, PointKind.ORDINARY, Fraction(0))
    if ord_p <= 1 and ord_q <= 2:
        return SingularPoint(location, PointKind.REGULAR, Fraction(0),
                             _indicial_roots(*residues()))
    rank = max(Fraction(ord_p - 1), Fraction(ord_q - 2, 2), Fraction(0))
    return SingularPoint(location, PointKind.IRREGULAR, rank)


class LocalForm(NamedTuple):
    """The cleared equation about a point: the pole orders of p and q there
    and A, B, C as ascending coefficients a, b, c in z - center."""
    center: complex
    ord_p: int
    ord_q: int
    a: list
    b: list
    c: list

    def point(self):
        """The SingularPoint at the center. With m = max(ord_p, ord_q) the
        residues of p and q are b_{m-1}/a_m and c_{m-2}/a_m, the recurrence's
        pivot weight; each is 0 below the pole order it counts (1, 2)."""
        m = max(self.ord_p, self.ord_q)
        a, b, c = self.a, self.b, self.c
        return _point(self.center, self.ord_p, self.ord_q, lambda: (
            b[m - 1] / a[m] if self.ord_p == 1 else 0j,
            c[m - 2] / a[m] if self.ord_q == 2 else 0j))


def local_form(ode, z0):
    """The LocalForm at the cleared point that the finite location z0 is
    ``near``, or at z0 itself when it is near none (an ordinary point)."""
    A, B, C, points = ode.cleared()
    center = next((loc for loc in points if near(loc, z0)), z0)
    return LocalForm(center, ode.p.pole_order_at(center)[0],
                     ode.q.pole_order_at(center)[0],
                     *(taylor_shift(P.coeffs, center) for P in (A, B, C)))


def _classify_at(ode, z0):
    return local_form(ode, z0).point()


def regular_exponents(pt, where):
    """pt's exponents; NotRegular naming ``where`` unless pt is regular."""
    if pt.kind is not PointKind.REGULAR:
        raise NotRegular(f"point {where} is {pt.kind.value}, not regular singular")
    return pt.exponents


def _degree_and_lead(rf):
    """(deg num - deg den, lead num / lead den), with degree -inf for the
    zero function; common factors change neither, so rf need not be
    reduced."""
    if rf.is_zero:
        return -math.inf, 0j
    return rf.num.degree - rf.den.degree, rf.num.coeffs[-1] / rf.den.coeffs[-1]


def _classify_at_infinity(ode):
    """The SingularPoint at infinity (DLMF §2.7(i)).

    With z = 1/t, v(t) = w(1/t) solves v'' + P v' + Q v = 0 with
    P = 2/t - p(1/t)/t**2 and Q = q(1/t)/t**4. Near t = 0, p(1/t) is
    c_p t**(-k_p) + ..., where k = deg num - deg den and c = lead num /
    lead den of p (likewise k_q, c_q of q). So:

    - the residue of P is r = 2 - (c_p if k_p = -1, else 0); it counts as
      0 when |r| <= TAU_GCD * max(1, |c_p|);
    - ord P = k_p + 2 when p is not zero and k_p >= 0, else 1 when r != 0
      and 0 when r = 0;
    - ord Q = max(k_q + 4, 0), or 0 when q is zero.

    Infinity is ordinary when both orders are 0, regular when ord P <= 1
    and ord Q <= 2, with exponents from r and c_q (if k_q = -2, else 0),
    and irregular otherwise, with the finite-point rank formula.
    """
    k_p, c_p = _degree_and_lead(ode.p)
    k_q, c_q = _degree_and_lead(ode.q)
    c_res = c_p if k_p == -1 else 0j
    r = 2.0 - c_res
    if abs(r) <= TAU_GCD * max(1.0, abs(c_res)):
        r = 0j
    ord_p = k_p + 2 if k_p >= 0 else (1 if r else 0)
    ord_q = max(k_q + 4, 0)
    return _point(None, ord_p, ord_q,
                  lambda: (r, c_q if k_q == -2 else 0j))


def classify_singularities(ode):
    """All finite singular points plus the (always reported) point at infinity.

    Finite poles of p or q each appear exactly once; infinity carries its
    own classification, including the ordinary case.
    """
    points = [_classify_at(ode, z0) for z0 in ode.cleared()[3]]
    points.append(_classify_at_infinity(ode))
    return points


def singularity_signature(points):
    """Canonical {location-label: kind-string} map for claim checking.

    Finite locations are rounded to 9 decimals; infinity maps to "inf".
    Ordinary infinity is omitted (it is not a singular point).
    """
    sig = {}
    for pt in points:
        if pt.kind is PointKind.ORDINARY:
            continue
        if pt.at_infinity:
            sig["inf"] = pt.kind.value
        else:
            loc = pt.location
            key = complex(round(loc.real, 9) + 0.0, round(loc.imag, 9) + 0.0)
            sig[key] = pt.kind.value
    return sig


def indicial_exponents(ode, z0):
    """Indicial roots at a regular singular point (z0=None for infinity).

    Roots are ordered by descending real part (then descending imaginary
    part). Raises NotRegular at ordinary or irregular points.
    """
    pt = _classify_at(ode, z0) if z0 is not None else _classify_at_infinity(ode)
    return regular_exponents(pt, "inf" if z0 is None else z0)


def normalized_residual(ode, samples):
    """Max normalized residual of (z, w, w', w'') samples against any
    equation with callable coefficients ``ode.p`` and ``ode.q``.

    Per sample: |w'' + p w' + q w| / max(1, |w''|, |p w'|, |q w|).
    """
    worst = 0.0
    for z, w, dw, ddw in samples:
        pw = ode.p(z) * dw
        qw = ode.q(z) * w
        res = abs(ddw + pw + qw)
        worst = max(worst, res / max(1.0, abs(ddw), abs(pw), abs(qw)))
    return worst


def ode_residual(ode, samples):
    """``normalized_residual`` of a LinearODE; raises PoleAtSample when a
    sample sits within TAU_POLE of a pole of p or q."""
    samples = list(samples)
    for z, *_ in samples:
        for rf in (ode.p, ode.q):
            for loc, _ in rf.poles():
                if abs(z - loc) <= TAU_POLE * max(1.0, abs(loc)):
                    raise PoleAtSample(f"sample {z} lies on a pole at {loc}")
    return normalized_residual(ode, samples)
