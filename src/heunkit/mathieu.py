"""Mathieu characteristic values and angular/modified Mathieu functions.

Conventions (fixed here, used everywhere else):

* The working equation is y'' + (a - 2 q cos 2t) y = 0. Orders n >= 0 with
  parity "even" (cosine series, value a_n) or "odd" (sine series, b_n).
* The cos^2 form H'' + (b - h^2 cos^2 t) H = 0 maps to the working form by
  b = a + h^2/2 and q = h^2/4 (see trig_form_b / q_from_h2).
* Angular functions are normalized so that the integral of S^2 over a full
  period [0, 2pi] equals pi (for complex q the square, not |S|^2, is used,
  which keeps the normalization an analytic identity).
* Modified (radial) functions are the angular series at imaginary argument,
  M(x) = S(ix), M' = i S'(ix), M'' = -S''(ix): sums of cosh for even series,
  i * sums of sinh for odd ones, solving y'' = (a - 2 q cosh 2x) y.

Characteristic values are eigenvalues of the tridiagonal Fourier-mode
matrices, truncated and doubled until the value is stable, from numpy's
eigvalsh (real q) or eigvals (complex q) on the dense matrix. The label
rule for complex q and the stop rule near a branch point are stated in
characteristic_value.

Fourier coefficients are that matrix's eigenvector at the characteristic
value, built outward from the order's own harmonic by two continued
fractions, each run in its stable direction: down from the top above it,
up from the first row below it (Gautschi, SIAM Rev. 9 (1967) 24; DLMF
28.34). They are componentwise accurate, which the modified functions need:
there noise in coefficient k is amplified by cosh(k x). One numpy pass sums
a series over a whole grid. No run-time path loads scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidParameter, NonConvergence, OverflowGuard

MAX_TRUNCATION = 2048
CONVERGENCE_TOL = 1e-13
STALL_TOL = 1e-10
LABEL_OFFSET = 1e-2
SEPARATION = 0.25
MAX_HYPERBOLIC_ARG = 690.0
CANCELLATION_LIMIT = 1e7


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call. Nothing in heunkit
    calls it: it is kept only because perfbench/tracer.py wraps it by name,
    until ROADMAP item 1 lets the tracer skip missing names."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def q_from_h2(h2):
    """Parameter q of the working form for the cos^2-form coupling h^2."""
    return h2 / 4.0


def trig_form_b(a, h2):
    """Separation constant b of H'' + (b - h^2 cos^2 t) H = 0 matching a."""
    return a + h2 / 2.0


@dataclass(frozen=True)
class MathieuParams:
    q: complex
    n: int
    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise InvalidParameter(f"parity must be 'even' or 'odd', "
                                   f"got {self.parity!r}")
        if self.n < 0 or self.n != int(self.n):
            raise InvalidParameter(f"order must be a non-negative integer, "
                                   f"got {self.n}")
        if self.parity == "odd" and self.n < 1:
            raise InvalidParameter("odd (sine) functions start at order 1")
        q = complex(self.q)
        if not cmath.isfinite(q):
            raise InvalidParameter(f"q must be finite, got {self.q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class CharacteristicValue:
    params: MathieuParams
    value: complex
    truncation: int


# lowest harmonic of each Fourier family; the family's harmonics step by 2
_START = {"even-pi": 0, "even-2pi": 1, "odd-2pi": 1, "odd-pi": 2}


def _family(n, parity):
    """Fourier family tag of the order-n function of the given parity."""
    if parity == "even":
        return ("even-pi" if n % 2 == 0 else "even-2pi")
    return ("odd-2pi" if n % 2 == 1 else "odd-pi")


def _harmonics(family, M):
    return [_START[family] + 2 * j for j in range(M)]


def _eig_index(n, parity):
    return (n - _START[_family(n, parity)]) // 2


def _family_matrix(family, q, M):
    """Symmetric tridiagonal truncation (diag, offdiag), as lists, of the
    Fourier-mode operator for y'' + (a - 2q cos 2t) y = 0 (DLMF 28.4.5 -
    28.4.8): row j reads e[j-1] x[j-1] + d[j] x[j] + e[j] x[j+1] = a x[j],
    x[j] the harmonic j coefficient, but x[0] = sqrt(2) A_0 if even-pi."""
    d = [complex(h * h) for h in _harmonics(family, M)]
    e = [complex(q)] * (M - 1)
    if family == "even-pi":
        e[0] = math.sqrt(2.0) * q
    elif family == "even-2pi":
        d[0] = 1.0 + q
    elif family == "odd-2pi":
        d[0] = 1.0 - q
    return d, e


@lru_cache(maxsize=1024)
def _eigenvalues(family, q, M):
    """Eigenvalues of the order-M truncation, ascending for real q, read-only.
    Label continuation meets the same spectra at every order of a family;
    the cache holds two families' 241 steps at q = 60i."""
    import numpy as np
    d, e = _family_matrix(family, q, M)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    vals = np.linalg.eigvalsh(T.real) if q.imag == 0 else np.linalg.eigvals(T)
    vals.flags.writeable = False
    return vals


def _nearest(vals, target):
    return complex(vals[abs(vals - target).argmin()])


def _continue_label(family, idx, q, M):
    """Label idx followed up to complex q (see characteristic_value)."""
    re = q.real if abs(q.real) >= LABEL_OFFSET else \
        (LABEL_OFFSET if q.real >= 0 else -LABEL_OFFSET)
    lam = complex(_eigenvalues(family, complex(re), M)[idx])
    # the path is split into N equal steps, k of them done; a halved step
    # doubles again after each accepted step
    k, N = 0, max(2, int(4 * abs(q.imag)) + 1)
    N0 = N
    while k < N:
        vals = _eigenvalues(family, complex(re, q.imag * (k + 1) / N), M)
        near, second = sorted(abs(vals - lam))[:2]
        if near > SEPARATION * second:
            k, N = 2 * k, 2 * N
            continue
        lam = _nearest(vals, lam)
        k += 1
        if k % 2 == 0 and N > N0:
            k, N = k // 2, N // 2
    return lam if re == q.real else _nearest(_eigenvalues(family, q, M), lam)


def _value_at(n, q, parity, M, prev=None):
    """(value, truncation used) at M, or at index + 8 if M <= index + 4; for
    complex q and a given prev, the eigenvalue nearest prev."""
    fam, idx = _family(n, parity), _eig_index(n, parity)
    if M <= idx + 4:
        M = idx + 8
        if M > MAX_TRUNCATION:  # dense matrices: memory grows as M^2
            raise InvalidParameter(f"order {n} needs a truncation above "
                                   f"{MAX_TRUNCATION}")
    if q.imag == 0:
        return complex(_eigenvalues(fam, q, M)[idx]), M
    if prev is None:
        return _continue_label(fam, idx, q, M), M
    return _nearest(_eigenvalues(fam, q, M), prev), M


def characteristic_value(n, q, parity):
    """Characteristic value of the order-n, given-parity Mathieu function.

    The truncation starts at 32 and doubles until two sizes agree to 1e-13
    relative to max(1, |value|); a size at or below index + 4 is raised to
    index + 8, and the next size doubles the one solved. Near a branch point, where rounding alone
    moves the value by about 3e-13 per doubling (q = 1.4688i, n = 0), it
    also stops once the difference stops shrinking and is within 1e-10;
    that difference then bounds the error. Beyond truncation 2048
    NonConvergence is raised.

    Labels. Real q: the eigenvalue with the order's index in its family,
    from the bottom. Complex q, at the first truncation: that eigenvalue at
    Re q, followed up the vertical segment to q, each step taking the
    eigenvalue nearest the last and halving while that distance exceeds
    SEPARATION times the second nearest; each doubled truncation takes the
    eigenvalue nearest the last. For |Re q| < LABEL_OFFSET the path runs at
    Re q = LABEL_OFFSET (-LABEL_OFFSET if Re q < 0, so Re q = 0 means the
    limit from Re q > 0) and the value is the eigenvalue at q nearest its
    end. Past the branch point 1.4688i of a_0, a_2 (DLMF 28.7) this gives
    a_0(2i) = 2.16256 - 1.86749i, and a_2(2i) is its conjugate.
    """
    params = MathieuParams(q, n, parity)
    q = params.q
    if q == 0:
        return CharacteristicValue(params, complex(n * n), 32)
    prev, prev_err, M = None, math.inf, 32
    while True:
        val, M = _value_at(params.n, q, parity, M, prev)
        if prev is not None:
            err, scale = abs(val - prev), max(1.0, abs(val))
            if err <= CONVERGENCE_TOL * scale or \
                    prev_err <= err <= STALL_TOL * scale:
                return CharacteristicValue(params, val, M)
            prev_err = err
        prev = val
        if M >= MAX_TRUNCATION:
            raise NonConvergence(
                f"characteristic value (n={n}, parity={parity}, q={q}) did "
                f"not converge by truncation {MAX_TRUNCATION}")
        # double the size just solved: below index + 4 it was raised
        M = min(2 * M, MAX_TRUNCATION)


def characteristic_value_at(n, q, parity, truncation):
    """Characteristic value at a fixed truncation (stability probes)."""
    return _value_at(int(n), complex(q), parity, int(truncation))[0]


@lru_cache(maxsize=256)
def _coefficients_cached(n, q, parity, truncation, value):
    """(harmonics, coefficients) from the family matrix's eigenvector x at
    a = value with x[idx] = 1. Each x[j] first holds its ratio to the next
    entry toward idx, a continued fraction run from x[M] = 0 above idx and
    from row 0 below it."""
    fam, idx = _family(n, parity), _eig_index(n, parity)
    M = max(truncation, idx + 10) + 8
    d, e = _family_matrix(fam, q, M)
    e = [0j, *e, 0j]  # e[j] now couples rows j - 1 and j
    a, x, r = complex(value), [0j] * M, 0j
    for j in range(M - 1, idx, -1):
        r = x[j] = -e[j] / (d[j] - a + e[j + 1] * r)
    r = 0j
    for j in range(idx):
        r = x[j] = -e[j + 1] / (d[j] - a + e[j] * r)
    x[idx] = 1.0 + 0j
    for j in range(idx + 1, M):
        x[j] *= x[j - 1]
    for j in range(idx - 1, -1, -1):
        x[j] *= x[j + 1]
    if fam == "even-pi":
        x[0] /= math.sqrt(2.0)
    return tuple(_harmonics(fam, M)), tuple(_normalize(fam, x, n))


def _parseval(fam, u, v):
    """1/pi times the integral over [0, 2pi] of two series of family fam:
    sum of u_k v_k over the shared prefix, the A_0 product counted twice in
    the even-pi family (DLMF 28.4.13 - 28.4.16)."""
    if fam == "even-pi":
        return 2.0 * u[0] * v[0] + sum(a * b for a, b in zip(u[1:], v[1:]))
    return sum(a * b for a, b in zip(u, v))


def _normalize(fam, coeffs, n):
    """Apply the period-pi normalization (integral of S^2 = pi) and fix the
    overall sign by the native harmonic."""
    scale = 1.0 / cmath.sqrt(_parseval(fam, coeffs, coeffs))
    coeffs = [c * scale for c in coeffs]
    anchor = coeffs[(n - _START[fam]) // 2]
    if anchor.real < 0 or (anchor.real == 0 and anchor.imag < 0):
        coeffs = [-c for c in coeffs]
    return coeffs


def fourier_coefficients(params, char):
    """(harmonics, coefficients) of the angular Fourier series."""
    if not isinstance(char, CharacteristicValue) or char.params != params:
        raise InvalidParameter("characteristic value does not match the "
                               "parameters")
    return _coefficients_cached(params.n, params.q, params.parity,
                                char.truncation, char.value)


def _series_at(params, char, x, modified):
    """(S, S', S'') of the angular series, term by term, at x or, when
    modified, (M, M', M'') = (S(ix), i S'(ix), -S''(ix)); a tuple at a
    number x, a list at a sequence. One numpy pass over all points with
    .sum(axis=1), no BLAS call; modified_mathieu's guards hold per point,
    in order, and an angular theta whose cosh overflows raises too."""
    import numpy as np
    one = np.ndim(x) == 0
    xs = np.array([x] if one else list(x), dtype=complex)
    nu, c = (np.array(v) for v in fourier_coefficients(params, char))
    reach = np.abs(xs.imag) + (np.abs(xs.real) if modified else 0.0)
    over = np.flatnonzero(nu[-1] * reach > MAX_HYPERBOLIC_ARG)
    th = (1j * xs if modified else xs)[:over[0] if over.size else None]
    arg = np.multiply.outer(th, nu)
    base, other = (np.cos(arg), -np.sin(arg)) if params.parity == "even" \
        else (np.sin(arg), np.cos(arg))
    terms = c * base
    sums = zip(terms.sum(axis=1).tolist(), (c * nu * other).sum(axis=1).tolist(),
               (-nu * nu * terms).sum(axis=1).tolist(),
               np.abs(terms).max(axis=1, initial=0.0).tolist(), th.tolist())
    rows = []
    for S, S1, S2, big, t in sums:
        if modified and big > CANCELLATION_LIMIT * max(1e-300, abs(S)):
            raise OverflowGuard(
                f"cancellation ratio {big / max(1e-300, abs(S)):.3e} exceeds "
                f"the series reliability bound {CANCELLATION_LIMIT:.0e}")
        rows.append((S, 1j * S1, -S2) if modified else
                    (S, S1, S2) if params.q.imag or t.imag else
                    (S.real, S1.real, S2.real))
    if over.size:
        raise OverflowGuard(f"harmonic {nu[-1]} at |x| ~ "
                            f"{abs(xs[over[0]]):.3g} overflows cosh")
    return rows[0] if one else rows


def angular_mathieu(params, char, theta):
    """Angular Mathieu function of the given order/parity at theta, or a
    list of values at a sequence of theta.

    2pi-periodic by construction; returns a real float for real q.
    """
    vals = _series_at(params, char, theta, False)
    return vals[0] if isinstance(vals, tuple) else [v[0] for v in vals]


def angular_mathieu_derivatives(params, char, theta):
    """(S, S', S'') with derivatives taken term by term (independent of the
    defining ODE, so residual checks are meaningful), or a list of them at
    a sequence of theta."""
    return _series_at(params, char, theta, False)


def modified_mathieu(params, char, x):
    """Angular series at imaginary argument: S(i x), or a list of values at
    a sequence of x.

    Even series give sums of cosh (real for real q); odd series give
    i * sums of sinh. Raises OverflowGuard when the hyperbolic terms
    overflow or the cancellation ratio makes the sum unreliable (documented
    bound: max |term| / |sum| must stay below 1e7, so the coefficient noise
    floor of ~1e-15 stays below 1e-8 of the value).
    """
    vals = _series_at(params, char, x, True)
    return vals[0] if isinstance(vals, tuple) else [v[0] for v in vals]


def modified_mathieu_derivatives(params, char, x):
    """(M, M', M'') of the modified function at x, or a list of them at a
    sequence of x; M(x) = S(i x) satisfies M'' = (a - 2 q cosh 2x) M."""
    return _series_at(params, char, x, True)


def basis_functions(q, n_max):
    """All (params, char) pairs with order <= n_max, both parities."""
    orders = [(n, "even") for n in range(n_max + 1)] + \
        [(n, "odd") for n in range(1, n_max + 1)]
    return [(MathieuParams(q, n, parity), characteristic_value(n, q, parity))
            for n, parity in orders]


def orthogonality_matrix(funcs):
    """Gram matrix, as a list of rows, of the (params, char) pairs funcs from
    basis_functions: the integrals of S_i S_j over [0, 2pi], pi times the
    Parseval sum within a family (DLMF 28.4.13 - 28.4.16; the square, not
    |S|^2, for complex q) and exactly 0 across families. Floats for real
    q, complex otherwise; the diagonal is pi by the normalization."""
    series = [(_family(p.n, p.parity), fourier_coefficients(p, c)[1])
              for p, c in funcs]
    rows = [[math.pi * _parseval(f, u, v) if f == g else 0j
             for g, v in series] for f, u in series]
    return rows if any(p.q.imag for p, _ in funcs) else \
        [[x.real for x in row] for row in rows]
