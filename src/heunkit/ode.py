"""Second-order linear ODEs with rational coefficients.

An ODE is stored as w'' + p(z) w' + q(z) w = 0 with p, q rational. The
classifier follows the pole-order criterion: a finite point is regular
singular when p has at most a simple pole and q at most a double pole
there; anything worse is irregular. The point at infinity is classified
by substituting z = 1/t and running the same finite-point machinery at
t = 0 (one code path for everything).

Irregular severity is reported as a rational Poincare rank obtained from
the Newton-polygon slopes of the two coefficients,

    rank = max( ord(p) - 1, (ord(q) - 2)/2, 0 ),

which admits half-integer values (field-in-a-Coulomb-problem equations
genuinely have rank 3/2 at infinity, and the classifier must not round).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotRegular, PoleAtSample
from .poly import (
    TAU_POLE,
    CLUSTER_REL,
    Polynomial,
    RationalFunction,
    make_rational,
)


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

    def location_label(self):
        return "inf" if self.location is None else self.location

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
        A = Polynomial(A) if not isinstance(A, Polynomial) else A
        B = Polynomial(B) if not isinstance(B, Polynomial) else B
        C = Polynomial(C) if not isinstance(C, Polynomial) else C
        return LinearODE(make_rational(B.coeffs, A.coeffs),
                         make_rational(C.coeffs, A.coeffs))

    def shifted(self, s):
        """The equation satisfied by v(z) = w(z + s)."""
        return LinearODE(self.p.shifted(s), self.q.shifted(s))

    def at_infinity(self):
        """The equation in t = 1/z satisfied by v(t) = w(1/t):
        v'' + P v' + Q v = 0 with P = 2/t - p(1/t)/t**2, Q = q(1/t)/t**4."""
        cached = self.__dict__.get("_at_infinity")
        if cached is not None:
            return cached
        two_over_t = make_rational((2.0,), (0, 1.0))
        inv_t2 = make_rational((1.0,), (0, 0, 1.0))
        inv_t4 = make_rational((1.0,), (0, 0, 0, 0, 1.0))
        P = two_over_t - self.p.compose_reciprocal() * inv_t2
        Q = self.q.compose_reciprocal() * inv_t4
        out = LinearODE(P, Q)
        self.__dict__["_at_infinity"] = out
        return out

    def cleared(self):
        """(A, B, C, points): the same equation as A w'' + B w' + C w = 0
        with polynomial A, B, C, and the tuple of its finite singular points.

        A is monic with exactly those points as roots, each with
        multiplicity max(ord_p, ord_q); B = p A and C = q A. Cached like
        at_infinity.
        """
        cached = self.__dict__.get("_cleared")
        if cached is not None:
            return cached
        points = self.finite_singular_points()

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

    def finite_singular_points(self):
        """Cluster-merged pole locations with (ord_p, ord_q) pole orders."""
        merged = []  # [sum, count, ord_p, ord_q]
        for rf, slot in ((self.p, 2), (self.q, 3)):
            for loc, mult in rf.poles():
                placed = False
                for m in merged:
                    center = m[0] / m[1]
                    if abs(loc - center) <= CLUSTER_REL * max(1.0, abs(center), abs(loc)):
                        m[0] += loc
                        m[1] += 1
                        m[slot] = mult
                        placed = True
                        break
                if not placed:
                    rec = [loc, 1, 0, 0]
                    rec[slot] = mult
                    merged.append(rec)
        out = [(m[0] / m[1], m[2], m[3]) for m in merged]
        out.sort(key=lambda r: (r[0].real, r[0].imag))
        return out


def _classify_orders(ord_p, ord_q):
    if ord_p == 0 and ord_q == 0:
        return PointKind.ORDINARY, Fraction(0)
    if ord_p <= 1 and ord_q <= 2:
        return PointKind.REGULAR, Fraction(0)
    rank = max(Fraction(ord_p - 1), Fraction(ord_q - 2, 2), Fraction(0))
    return PointKind.IRREGULAR, rank


def _indicial_roots(p_res, q_res2):
    """Roots of rho(rho-1) + p_res*rho + q_res2, ordered by descending real
    part (descending imaginary part on a near-tie)."""
    b = complex(p_res) - 1.0
    disc = complex(b * b - 4.0 * complex(q_res2))
    sq = disc ** 0.5
    r1 = (-b + sq) / 2.0
    r2 = (-b - sq) / 2.0
    scale = max(1.0, abs(r1), abs(r2))
    tied = abs(r1.real - r2.real) <= 1e-12 * scale
    if (not tied and r1.real < r2.real) or (tied and r1.imag < r2.imag):
        r1, r2 = r2, r1
    return r1, r2


def _classify_finite(ode, z0, ord_p, ord_q):
    kind, rank = _classify_orders(ord_p, ord_q)
    exponents = None
    if kind is PointKind.REGULAR:
        p_res = ode.p.limit_coefficient(z0, 1)
        q_res2 = ode.q.limit_coefficient(z0, 2)
        exponents = _indicial_roots(p_res, q_res2)
    return SingularPoint(z0, kind, rank, exponents)


def classify_singularities(ode):
    """All finite singular points plus the (always reported) point at infinity.

    Finite poles of p or q each appear exactly once; infinity carries its
    own classification, including the ordinary case.
    """
    points = [
        _classify_finite(ode, z0, op, oq)
        for z0, op, oq in ode.finite_singular_points()
    ]
    inf_ode = ode.at_infinity()
    op, _ = inf_ode.p.pole_order_at(0j)
    oq, _ = inf_ode.q.pole_order_at(0j)
    kind, rank = _classify_orders(op, oq)
    exponents = None
    if kind is PointKind.REGULAR:
        exponents = _indicial_roots(inf_ode.p.limit_coefficient(0j, 1),
                                    inf_ode.q.limit_coefficient(0j, 2))
    points.append(SingularPoint(None, kind, rank, exponents))
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
    if z0 is None:
        inf_ode = ode.at_infinity()
        return indicial_exponents(inf_ode, 0j)
    op, loc = ode.p.pole_order_at(z0)
    oq, loc_q = ode.q.pole_order_at(z0)
    kind, _ = _classify_orders(op, oq)
    if kind is not PointKind.REGULAR:
        raise NotRegular(f"point {z0} is {kind.value}, not regular singular")
    return _indicial_roots(ode.p.limit_coefficient(z0, 1),
                           ode.q.limit_coefficient(z0, 2))


def fuchs_exponent_sum(ode):
    """Sum of all indicial exponents over every singular point (incl. infinity).

    For a Fuchsian equation with N regular singular points this equals N - 2.
    Raises NotRegular if any singular point is irregular.
    """
    total = 0j
    count = 0
    for pt in classify_singularities(ode):
        if pt.kind is PointKind.ORDINARY:
            continue
        if pt.kind is not PointKind.REGULAR:
            raise NotRegular("equation is not Fuchsian")
        total += pt.exponents[0] + pt.exponents[1]
        count += 1
    return total, count


def ode_residual(ode, samples):
    """Max normalized residual of (z, w, w', w'') samples against the ODE.

    Per sample: |w'' + p w' + q w| / max(1, |w''|, |p w'|, |q w|).
    Raises PoleAtSample when a sample sits within TAU_POLE of a pole.
    """
    worst = 0.0
    for z, w, dw, ddw in samples:
        for rf in (ode.p, ode.q):
            for loc, _ in rf.poles():
                if abs(z - loc) <= TAU_POLE * max(1.0, abs(loc)):
                    raise PoleAtSample(f"sample {z} lies on a pole at {loc}")
        pw = ode.p(z) * dw
        qw = ode.q(z) * w
        res = abs(ddw + pw + qw)
        scale = max(1.0, abs(ddw), abs(pw), abs(qw))
        worst = max(worst, res / scale)
    return worst
