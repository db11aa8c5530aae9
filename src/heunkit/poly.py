"""Complex polynomials and rational functions.

Coefficients are stored ascending: ``Polynomial((1, 2, 3))`` is 1 + 2z + 3z².
Everything is an immutable value; arithmetic returns new objects.

Rational functions are kept in reduced form: common roots of numerator and
denominator are cancelled by numeric root matching (tolerance ``TAU_GCD``).
Root finding goes through the numpy companion matrix; multiple roots come
back as small clusters, so multiplicities are recovered by clustering and
the cluster mean is used as the root location (the mean of a multiplicity-m
cluster is far more accurate than its members).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDenominator

# Relative threshold below which trailing coefficients are treated as zero.
TRIM_REL = 1e-14
# Root-matching tolerance for numerator/denominator cancellation.
TAU_GCD = 1e-9
# Pole-detection tolerance, relative to local scale.
TAU_POLE = 1e-10
# Clustering tolerance for repeated roots (companion-matrix roots of an
# m-fold root scatter by ~eps**(1/m), so this must be much looser than eps).
CLUSTER_REL = 1e-6


def _as_complex_tuple(coeffs):
    return tuple(complex(c) for c in coeffs)


def _trim(coeffs):
    coeffs = _as_complex_tuple(coeffs)
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
    """Immutable dense polynomial with complex coefficients (ascending)."""

    __slots__ = ("coeffs", "_root_cache")

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))
        object.__setattr__(self, "_root_cache", None)

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
        """All complex roots (with multiplicity, as returned by the
        companion matrix; no clustering applied here)."""
        if self.degree < 1:
            return []
        arr = np.array(list(reversed(self.coeffs)), dtype=complex)
        return [complex(r) for r in np.roots(arr)]

    def clustered_roots(self):
        """Roots grouped into (center, multiplicity) pairs.

        Candidate groups are linked generously (the scatter of an m-fold
        root scales like eps**(1/m)) and then verified against the
        polynomial's derivatives at the group mean, splitting groups that
        fail the multiplicity test.
        """
        if self._root_cache is not None:
            return self._root_cache
        roots = self.roots()
        if not roots:
            out = []
        else:
            groups = _transitive_groups(
                roots,
                lambda a, b: 3.0 * _EPS ** 0.25 * max(1.0, abs(a), abs(b)))
            out = []
            for g in groups:
                out.extend(_verified_root_clusters(self, g))
            out.sort(key=lambda c: (c[0].real, c[0].imag))
        object.__setattr__(self, "_root_cache", out)
        return out

    @staticmethod
    def from_roots(roots, lead=1.0):
        p = Polynomial((complex(lead),))
        for r in roots:
            p = p * Polynomial((-complex(r), 1.0))
        return p


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


def _transitive_groups(points, radius_of):
    """Union points into groups, linking any pair within radius_of(a, b)."""
    groups = []
    for p in sorted(points, key=lambda w: (w.real, w.imag)):
        hits = [g for g in groups if any(abs(p - q) <= radius_of(p, q) for q in g)]
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
# |P^(i)(center)| <= MULT_BASE**(m-i) * scale_i for every i < m. Distinct
# roots closer than ~MULT_BASE may still be merged; that is the honest
# resolution limit of multiplicity detection in double precision.
MULT_BASE = 3e-5
_EPS = 2.220446049250313e-16


def _verified_root_clusters(poly, group):
    m = len(group)
    if m == 1:
        return [(group[0], 1)]
    center = sum(group) / m
    deriv = poly
    ok = True
    for i in range(m):
        scale = max(deriv.scale(), 1e-300) * max(1.0, abs(center)) ** max(deriv.degree, 0)
        if abs(deriv(center)) > MULT_BASE ** (m - i) * scale:
            ok = False
            break
        deriv = deriv.derivative()
    if ok:
        return [(center, m)]
    # not a genuine m-fold root: split at the tight tolerance and recurse
    sub = _transitive_groups(
        group, lambda a, b: CLUSTER_REL * max(1.0, abs(a), abs(b)))
    if len(sub) == 1:
        return [(center, m)]
    out = []
    for g in sub:
        out.extend(_verified_root_clusters(poly, g))
    return out


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

    def pole_order_at(self, z0, rel_tol=CLUSTER_REL):
        for loc, mult in self.poles():
            if abs(loc - z0) <= rel_tol * max(1.0, abs(loc), abs(z0)):
                return mult, loc
        return 0, z0

    def limit_coefficient(self, z0, order):
        """lim (z-z0)**order * r(z), assuming the pole order at z0 is <= order."""
        m, loc = self.pole_order_at(z0)
        if m > order:
            raise ZeroDivisionError(f"pole of order {m} > {order} at {z0}")
        den = self.den
        for _ in range(m):
            den = den.deflate(loc)
        if m == order:
            return self.num(z0) / den(z0)
        return 0j

    def partial_fractions(self):
        """(quotient, principal) with r(z) = quotient(z) + the sum over the
        poles s of sum_j c_j (z - s)**-j: the polynomial part of num / den
        as ascending coefficients, and (s, [c_1, ..., c_m]) for each pole of
        order m, read from the Taylor series of (z - s)**m r(z) at s."""
        quotient = np.polydiv(self.num.coeffs[::-1], self.den.coeffs[::-1])[0]
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
        return quotient[::-1].tolist(), principal

    def shifted(self, s):
        return RationalFunction(self.num.shifted(s), self.den.shifted(s))


def make_rational(num_coeffs, den_coeffs):
    """Build a reduced RationalFunction from ascending coefficient lists.

    A Polynomial is taken as it is, so its cached roots serve every call
    that shares it. Raises ZeroDenominator when the denominator is
    identically zero. Common roots (within TAU_GCD, after multiplicity
    clustering) cancel.
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
    droots = den.clustered_roots()
    cancelled = False
    new_n, new_d = [], []
    used = [False] * len(nroots)
    for dloc, dmult in droots:
        best, best_dist = None, math.inf
        for i, (nloc, nmult) in enumerate(nroots):
            if used[i]:
                continue
            dist = abs(nloc - dloc)
            if dist < best_dist:
                best, best_dist = i, dist
        tol = max(TAU_GCD * max(1.0, abs(dloc)), 0.0)
        if best is not None and best_dist <= tol:
            nloc, nmult = nroots[best]
            k = min(nmult, dmult)
            cancelled = True
            used[best] = True
            if nmult - k > 0:
                new_n.append((nloc, nmult - k))
            if dmult - k > 0:
                new_d.append((dloc, dmult - k))
        else:
            new_d.append((dloc, dmult))
    for i, (nloc, nmult) in enumerate(nroots):
        if not used[i]:
            new_n.append((nloc, nmult))
    if not cancelled:
        return RationalFunction(num, den)
    lead_n = num.coeffs[-1]
    lead_d = den.coeffs[-1]
    pn = Polynomial.from_roots([loc for loc, m in new_n for _ in range(m)], lead_n)
    pd = Polynomial.from_roots([loc for loc, m in new_d for _ in range(m)], lead_d)
    # normalize so the denominator's leading coefficient is 1
    inv = 1.0 / pd.coeffs[-1]
    return RationalFunction(pn * inv, pd * inv)
