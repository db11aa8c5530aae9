"""Complex polynomials and rational functions.

Coefficients are stored ascending: ``Polynomial((1, 2, 3))`` is 1 + 2z + 3z².
Everything is an immutable value; arithmetic returns new objects.

Rational functions are kept in reduced form: common roots of numerator and
denominator are cancelled by numeric root matching (tolerance ``TAU_GCD``).

Roots are found in pure Python: low-order zero coefficients give exact
zero roots, the rest has closed-form roots up to degree 2 and Ehrlich-Aberth
roots above (Ehrlich, CACM 10 (1967); Aberth, Math. Comp. 27 (1973)), from
start points on the Newton-polygon radii (Bini, Numer. Algorithms 13
(1996)). An m-fold root comes back as m approximations scattered by about
eps**(1/m); ``clustered_roots`` accepts such a group as one root only when
the first m derivatives vanish at its mean, then polishes the mean by
Newton on P^(m-1), where the root is simple. Clustered roots are cached by
coefficient tuple.

``near`` is the one rule for when two locations are the same point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonFiniteInput, ZeroDenominator

# Relative threshold below which trailing coefficients are treated as zero.
TRIM_REL = 1e-14
# Root-matching tolerance for numerator/denominator cancellation.
TAU_GCD = 1e-9
# Pole-detection tolerance, relative to local scale.
TAU_POLE = 1e-10
# Clustering tolerance for repeated roots (the approximations of an m-fold
# root scatter by ~eps**(1/m), so this must be much looser than eps).
CLUSTER_REL = 1e-6
MAX_ABERTH = 100  # Ehrlich-Aberth sweeps; each root stops on its own test
POLISH_STEPS = 4  # Newton steps on P^(m-1) for a verified m-fold root


def near(a, b):
    """Whether the locations a and b are the same point:
    |a - b| <= CLUSTER_REL * max(1, |a|, |b|)."""
    return abs(a - b) <= CLUSTER_REL * max(1.0, abs(a), abs(b))


def _trim(coeffs):
    coeffs = tuple(complex(c) for c in coeffs)
    if not all(map(cmath.isfinite, coeffs)):
        raise NonFiniteInput(f"polynomial coefficients must be finite, got "
                             f"{list(coeffs)}")
    if not coeffs:
        return (0j,)
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return (0j,)
    k = len(coeffs)
    while k > 1 and abs(coeffs[k - 1]) <= TRIM_REL * scale:
        k -= 1
    return coeffs[:k]


class Polynomial:
    """Immutable dense polynomial with complex coefficients (ascending);
    an inf or nan coefficient raises NonFiniteInput."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def scale(self):
        """Magnitude of the largest coefficient (0 for the zero polynomial)."""
        return max(abs(c) for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0j,) * (n - len(self.coeffs))
        b = other.coeffs + (0j,) * (n - len(other.coeffs))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial((other,))
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(other * c for c in self.coeffs))
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def derivative(self):
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def deflate(self, root):
        """Synthetic division by (z - root); the remainder is discarded."""
        out = [0j] * self.degree
        acc = 0j
        for k in range(self.degree, 0, -1):
            acc = self.coeffs[k] + acc * root
            out[k - 1] = acc
        return Polynomial(out) if out else Polynomial((0j,))

    def shifted(self, s):
        """Coefficients of p(z + s)."""
        return Polynomial(taylor_shift(self.coeffs, s))

    def roots(self):
        """All complex roots, each as often as its multiplicity (no
        clustering applied here)."""
        zeros = next((k for k, a in enumerate(self.coeffs) if a != 0), self.degree)
        c = self.coeffs[zeros:]
        if len(c) > 3:
            found = _aberth(_start_points(c), lambda z: _horner_newton(c, z))
        elif len(c) == 3:  # the quadratic formula without cancellation
            sq = cmath.sqrt(c[1] * c[1] - 4.0 * c[2] * c[0])
            half = -0.5 * (c[1] + (sq if (c[1].conjugate() * sq).real >= 0 else -sq))
            found = [half / c[2], c[0] / half]
        else:
            found = [-c[0] / c[1]] if len(c) == 2 else []
        return [0j] * zeros + found

    def clustered_roots(self):
        """Roots grouped into (center, multiplicity) pairs, sorted by
        location. Groups are linked generously (an m-fold root scatters by
        eps**(1/m)) and then verified against the polynomial's derivatives
        at the group mean; a group that fails is split."""
        return list(_clustered_roots(self.coeffs))

    @staticmethod
    def from_roots(roots, lead=1.0):
        p = Polynomial((complex(lead),))
        for r in roots:
            p = p * Polynomial((-complex(r), 1.0))
        return p


@lru_cache(maxsize=1024)
def _clustered_roots(coeffs):
    poly = Polynomial(coeffs)
    groups = _transitive_groups(poly.roots(), lambda a, b: abs(a - b)
                                <= 3.0 * _EPS ** 0.25 * max(1.0, abs(a), abs(b)))
    return tuple(sorted((c for g in groups for c in _verified_root_clusters(poly, g)),
                        key=lambda c: (c[0].real, c[0].imag)))


def _start_points(c):
    """Bini's start points: for each edge (i, j) of the upper convex hull of
    the points (k, log|c_k|), j - i points on the circle of radius (|c_i| /
    |c_j|)**(1 / (j - i)), turned by 2 pi i / n + 0.7 so no two line up."""
    hull = []
    for k, a in enumerate(c):
        if a != 0:
            y = math.log(abs(a))
            # drop the last vertex while it lies on or below the chord to (k, y)
            while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                     <= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
                hull.pop()
            hull.append((k, y))
    n = len(c) - 1
    return [cmath.rect(math.exp((yi - yj) / (j - i)),
                       2.0 * math.pi * (m / (j - i) + i / n) + 0.7)
            for (i, yi), (j, yj) in zip(hull, hull[1:]) for m in range(j - i)]


def _horner_newton(c, z):
    """(P(z), P'(z)) by Horner for ascending c, or None when |P(z)| <= eps
    sum |c_k| |z|**k: its Newton correction |P/P'| is then within what
    rounding the coefficients could cause."""
    r = abs(z)
    p, dp, bound = c[-1], 0j, abs(c[-1])
    for a in c[-2::-1]:
        p, dp, bound = p * z + a, dp * z + p, bound * r + abs(a)
    return None if abs(p) <= _EPS * bound else (p, dp)


def _aberth(z, newton):
    """Ehrlich-Aberth sweeps that update each approximation in z in place
    and return z. newton(z) gives (P(z), P'(z)), or any common multiple of
    the two, or None once P(z) is within its rounding, which stops that
    approximation; so does a correction below eps |z|. A single
    approximation makes the sweep Newton's method."""
    live = range(len(z))
    for _ in range(MAX_ABERTH):
        moving = []
        for i in live:
            zi = z[i]
            pd = newton(zi)
            if pd is None:
                continue
            p, dp = pd
            den = dp - p * sum(1.0 / (zi - zj) for j, zj in enumerate(z) if j != i)
            if den:
                z[i] = zi - p / den
            if not den or abs(z[i] - zi) > _EPS * abs(z[i]):
                moving.append(i)
        live = moving
        if not live:
            break
    return z


def taylor_shift(coeffs, s):
    """Coefficients of p(z + s), built by Horner recursion in (z + s)."""
    s = complex(s)
    out = [complex(coeffs[-1])]
    for k in range(len(coeffs) - 2, -1, -1):
        new = [0j] * (len(out) + 1)
        for i, c in enumerate(out):
            new[i + 1] += c
            new[i] += c * s
        new[0] += complex(coeffs[k])
        out = new
    return out


def _transitive_groups(points, linked):
    """Union points into groups, joining any pair for which linked(a, b)."""
    groups = []
    for p in sorted(points, key=lambda w: (w.real, w.imag)):
        hits = [g for g in groups if any(linked(p, q) for q in g)]
        if not hits:
            groups.append([p])
        else:
            hits[0].append(p)
            for other in hits[1:]:
                hits[0].extend(other)
                groups.remove(other)
    return groups


# Verified multiplicity detection: an exact m-fold root makes the first m
# derivatives vanish, so a candidate cluster of size m is accepted only if
# |P^(i)(center)| <= (MULT_BASE**(m-i) + (deg + 1) eps) * scale_i for every
# i < m, the eps term being the rounding of the evaluation. Distinct roots
# closer than ~MULT_BASE may still be merged; that is the honest
# resolution limit of multiplicity detection in double precision.
MULT_BASE = 3e-5
_EPS = 2.220446049250313e-16
ROUNDING = 2.0 ** -55  # a series' tail rule, relative to the largest term


def _verified_root_clusters(poly, group):
    m = len(group)
    if m == 1:
        return [(group[0], 1)]
    center = sum(group) / m
    deriv = poly
    for i in range(m):
        scale = max(deriv.scale(), 1e-300) * max(1.0, abs(center)) ** max(deriv.degree, 0)
        if abs(deriv(center)) > (MULT_BASE ** (m - i)
                                 + (deriv.degree + 1) * _EPS) * scale:
            break
        last, deriv = deriv, deriv.derivative()
    else:
        # an m-fold root of P is a simple root of P^(m-1) = last
        for _ in range(POLISH_STEPS):
            step = last(center) / deriv(center) if deriv(center) else 0j
            center -= step
            if abs(step) <= _EPS * abs(center):
                break
        return [(center, m)]
    # not a genuine m-fold root: split at the tight tolerance and recurse
    sub = _transitive_groups(group, near)
    if len(sub) == 1:
        return [(center, m)]
    return [c for g in sub for c in _verified_root_clusters(poly, g)]


@dataclass(frozen=True)
class RationalFunction:
    """Reduced ratio of two polynomials."""

    num: Polynomial
    den: Polynomial

    def __call__(self, z):
        return self.num(z) / self.den(z)

    @property
    def is_zero(self):
        return self.num.is_zero

    def poles(self):
        """Clustered (location, order) pairs; reduced form makes these genuine."""
        if self.num.is_zero:
            return []
        return self.den.clustered_roots()

    def pole_order_at(self, z0):
        """(order, location) of the pole ``near`` z0, else (0, z0)."""
        for loc, mult in self.poles():
            if near(loc, z0):
                return mult, loc
        return 0, z0

    def partial_fractions(self):
        """(quotient, principal) with r(z) = quotient(z) + the sum over the
        poles s of sum_j c_j (z - s)**-j: the polynomial part of num / den
        as ascending coefficients, and (s, [c_1, ..., c_m]) for each pole of
        order m, read from the Taylor series of (z - s)**m r(z) at s."""
        d, rest = self.den.coeffs, list(self.num.coeffs)
        quotient = [0j] * max(len(rest) - len(d) + 1, 1)
        inv = 1.0 / d[-1]
        for k in range(len(rest) - len(d), -1, -1):
            quotient[k] = inv * rest[k + len(d) - 1]
            for i, di in enumerate(d):
                rest[k + i] -= quotient[k] * di
        principal = []
        for s, m in self.poles():
            rest = self.den
            for _ in range(m):
                rest = rest.deflate(s)
            n, d = (taylor_shift(P.coeffs, s) + [0j] * m for P in (self.num, rest))
            g = []
            for k in range(m):
                g.append((n[k] - sum(d[i] * g[k - i] for i in range(1, k + 1)))
                         / d[0])
            principal.append((s, g[::-1]))
        return quotient, principal

    def shifted(self, s):
        return RationalFunction(self.num.shifted(s), self.den.shifted(s))


def make_rational(num_coeffs, den_coeffs):
    """Build a reduced RationalFunction from ascending coefficient lists.

    Raises ZeroDenominator when the denominator is identically zero. Common
    roots (within TAU_GCD, after multiplicity clustering) cancel.
    """
    num, den = (c if isinstance(c, Polynomial) else Polynomial(c)
                for c in (num_coeffs, den_coeffs))
    if den.is_zero:
        raise ZeroDenominator("denominator is identically zero")
    if num.is_zero:
        return RationalFunction(Polynomial((0j,)), Polynomial((1.0,)))
    if den.degree == 0:
        return RationalFunction(num * (1.0 / den.coeffs[0]), Polynomial((1.0,)))
    nroots = num.clustered_roots()
    used, new_n, new_d = set(), [], []
    for dloc, dmult in den.clustered_roots():
        # the nearest numerator root not yet cancelled, if within TAU_GCD
        best = min((i for i in range(len(nroots)) if i not in used),
                   key=lambda i: abs(nroots[i][0] - dloc), default=None)
        if best is None or abs(nroots[best][0] - dloc) > TAU_GCD * max(1.0, abs(dloc)):
            new_d.append((dloc, dmult))
            continue
        used.add(best)
        nloc, nmult = nroots[best]
        k = min(nmult, dmult)
        new_n += [(nloc, nmult - k)] if nmult > k else []
        new_d += [(dloc, dmult - k)] if dmult > k else []
    if not used:
        return RationalFunction(num, den)
    new_n += [r for i, r in enumerate(nroots) if i not in used]
    # an exactly monic denominator: reducing the result again, as parsing its
    # printed text does, changes no digit
    lead = num.coeffs[-1] / den.coeffs[-1]
    return RationalFunction(
        Polynomial.from_roots([loc for loc, m in new_n for _ in range(m)], lead),
        Polynomial.from_roots([loc for loc, m in new_d for _ in range(m)]))
