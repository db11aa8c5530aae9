"""Mathieu characteristic values and angular/modified Mathieu functions.

Conventions (fixed here, used everywhere else):

* The working equation is y'' + (a - 2 q cos 2t) y = 0. Orders n >= 0 with
  parity "even" (cosine series, value a_n) or "odd" (sine series, b_n).
* The cos^2 form H'' + (b - h^2 cos^2 t) H = 0 maps to the working form by
  b = a + h^2/2 and q = h^2/4 (see trig_form_b / q_from_h2).
* Angular functions are normalized so that the integral of S^2 over a full
  period [0, 2pi] equals pi (for complex q the square, not |S|^2, is used,
  which keeps the normalization an analytic identity).
* Modified (radial) functions are the angular series evaluated at imaginary
  argument: even series become sums of cosh, odd series i * sums of sinh,
  and both satisfy y'' = (a - 2 q cosh 2x) y.

Characteristic values come from the symmetric tridiagonal Fourier-mode
matrices, truncated and doubled until the value is stable; the eigenvalue
iteration is an implicit-shift QL implemented in-module. For complex q the
value is refined by Newton iteration on the determinant of the truncated
matrix, seeded by continuation from the real part of q.

Fourier coefficients are generated by backward recurrence from above the
last significant mode (the coefficient sequence is the minimal solution of
the three-term relation, so downward recursion is componentwise accurate;
this matters for the modified functions, where noise in coefficient k is
amplified by cosh(k x)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, NonConvergence, NonConverged, \
    OverflowGuard

_EPS = 2.220446049250313e-16
MAX_TRUNCATION = 2048
CONVERGENCE_TOL = 1e-13


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call. A module-level
    function, so that a tracer can wrap it by name (perfbench/tracer.py);
    engine has its own, so the two callers are told apart."""
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
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class CharacteristicValue:
    params: MathieuParams
    value: complex
    truncation: int
    converged: bool = True


def _family(n, parity):
    """Fourier family: harmonics nu_j and the matrix structure tag."""
    if parity == "even":
        return ("even-pi" if n % 2 == 0 else "even-2pi")
    return ("odd-2pi" if n % 2 == 1 else "odd-pi")


def _harmonics(family, M):
    start = {"even-pi": 0, "even-2pi": 1, "odd-2pi": 1, "odd-pi": 2}[family]
    return [start + 2 * j for j in range(M)]


def _eig_index(n, parity):
    fam = _family(n, parity)
    nus = {"even-pi": 0, "even-2pi": 1, "odd-2pi": 1, "odd-pi": 2}[fam]
    return (n - nus) // 2


def _family_matrix(family, q, M):
    """Symmetric tridiagonal truncation (diag, offdiag) of the Fourier-mode
    operator for y'' + (a - 2q cos 2t) y = 0."""
    nus = _harmonics(family, M)
    d = [complex(nu * nu) for nu in nus]
    e = [q] * (M - 1)
    if family == "even-pi":
        e[0] = math.sqrt(2.0) * q
    elif family == "even-2pi":
        d[0] = 1.0 + q
    elif family == "odd-2pi":
        d[0] = 1.0 - q
    return d, e


def tridiag_eigenvalues(diag, off):
    """All eigenvalues of a real symmetric tridiagonal matrix by implicit
    QL iteration with Wilkinson-style shifts (eigenvalues only)."""
    d = [float(x) for x in diag]
    n = len(d)
    if n == 1:
        return d
    e = [float(x) for x in off] + [0.0]
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd + 1e-300:
                    break
                m += 1
            if m == l:
                break
            iterations += 1
            if iterations > 100:
                raise NonConvergence("QL iteration stalled")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            denom = g + (r if g >= 0 else -r)
            g = d[m] - d[l] + e[l] / denom
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return sorted(d)


def _char_at_truncation(n, q, parity, M):
    fam = _family(n, parity)
    idx = _eig_index(n, parity)
    if M <= idx + 4:
        M = idx + 8
    d, e = _family_matrix(fam, q, M)
    if abs(complex(q).imag) == 0.0:
        vals = tridiag_eigenvalues([x.real for x in d], [complex(x).real for x in e])
        return complex(vals[idx]), M
    # complex q: continuation in the imaginary part + determinant Newton
    q0 = complex(q).real
    d0, e0 = _family_matrix(fam, q0, M)
    vals = tridiag_eigenvalues([x.real for x in d0], [complex(x).real for x in e0])
    lam = complex(vals[idx])
    steps = max(2, int(4 * abs(complex(q).imag)) + 1)
    for k in range(1, steps + 1):
        qk = complex(q0, complex(q).imag * k / steps)
        dk, ek = _family_matrix(fam, qk, M)
        lam = _det_newton(dk, ek, lam)
    return lam, M


def _det_newton(d, e, lam0):
    """Newton refinement of det(T - lam I) = 0 for a (complex) symmetric
    tridiagonal T, with joint rescaling of the determinant recurrences."""
    n = len(d)
    lam = complex(lam0)
    for _ in range(80):
        Dm2, Dm1 = 1.0 + 0j, d[0] - lam
        Pm2, Pm1 = 0j, -1.0 + 0j
        for k in range(1, n):
            ek2 = e[k - 1] * e[k - 1]
            Dk = (d[k] - lam) * Dm1 - ek2 * Dm2
            Pk = -Dm1 + (d[k] - lam) * Pm1 - ek2 * Pm2
            Dm2, Dm1, Pm2, Pm1 = Dm1, Dk, Pm1, Pk
            mag = max(abs(Dm1), abs(Dm2))
            if mag > 1e150:
                s = 1.0 / mag
                Dm2 *= s
                Dm1 *= s
                Pm2 *= s
                Pm1 *= s
        if Pm1 == 0:
            raise NonConvergence("determinant derivative vanished")
        step = Dm1 / Pm1
        lam -= step
        if abs(step) <= 1e-13 * max(1.0, abs(lam)):
            return lam
    raise NonConvergence("Newton refinement did not converge")


def characteristic_value(n, q, parity):
    """Characteristic value of the order-n, given-parity Mathieu function.

    The truncation is doubled until two consecutive sizes agree to 1e-13
    relative; NonConvergence is raised beyond truncation 2048.
    """
    params = MathieuParams(q, n, parity)
    q = params.q
    if q == 0:
        return CharacteristicValue(params, complex(n * n), 32)
    prev = None
    M = 32
    while M <= MAX_TRUNCATION:
        val, M_used = _char_at_truncation(params.n, q, parity, M)
        if prev is not None and abs(val - prev) <= CONVERGENCE_TOL * max(1.0, abs(val)):
            return CharacteristicValue(params, val, M_used)
        prev = val
        M *= 2
    raise NonConvergence(
        f"characteristic value (n={n}, parity={parity}, q={q}) did not "
        f"converge by truncation {MAX_TRUNCATION}")


def characteristic_value_at(n, q, parity, truncation):
    """Characteristic value at a fixed truncation (stability probes)."""
    val, _ = _char_at_truncation(int(n), complex(q), parity, int(truncation))
    return val


def _check_char(params, char):
    if not isinstance(char, CharacteristicValue) or char.params != params:
        raise NonConverged("characteristic value does not match the parameters")
    if not char.converged:
        raise NonConverged("characteristic value is not converged")


@lru_cache(maxsize=256)
def _coefficients_cached(n, q, parity, truncation, value):
    fam = _family(n, parity)
    M = max(truncation, _eig_index(n, parity) + 10) + 8
    nus = _harmonics(fam, M)
    a = complex(value)
    q = complex(q)
    if q == 0:
        coeffs = [0j] * M
        coeffs[_eig_index(n, parity)] = 1.0 + 0j
        return tuple(nus), tuple(_normalize(fam, coeffs, n))
    # backward recurrence: A_{j-1} = [(a - nu_j^2) A_j - q A_{j+1}] / (q w_j)
    coeffs = [0j] * M
    coeffs[M - 1] = 1e-280
    for j in range(M - 1, 0, -1):
        w = 2.0 if (fam == "even-pi" and j == 1) else 1.0
        upper = coeffs[j + 1] if j + 1 < M else 0j
        coeffs[j - 1] = ((a - nus[j] ** 2) * coeffs[j] - q * upper) / (q * w)
        mag = abs(coeffs[j - 1])
        if mag > 1e200:
            s = 1.0 / mag
            for i in range(j - 1, M):
                coeffs[i] *= s
    return tuple(nus), tuple(_normalize(fam, coeffs, n))


def _normalize(fam, coeffs, n):
    """Apply the period-pi normalization (integral of S^2 = pi) and fix the
    overall sign by the native harmonic."""
    if fam == "even-pi":
        norm2 = 2.0 * coeffs[0] * coeffs[0] + sum(c * c for c in coeffs[1:])
    else:
        norm2 = sum(c * c for c in coeffs)
    scale = 1.0 / cmath.sqrt(norm2)
    coeffs = [c * scale for c in coeffs]
    jstar = (n - {"even-pi": 0, "even-2pi": 1, "odd-2pi": 1, "odd-pi": 2}[fam]) // 2
    anchor = coeffs[jstar]
    if anchor.real < 0 or (anchor.real == 0 and anchor.imag < 0):
        coeffs = [-c for c in coeffs]
    return coeffs


def fourier_coefficients(params, char):
    """(harmonics, coefficients) of the angular Fourier series."""
    _check_char(params, char)
    return _coefficients_cached(params.n, params.q, params.parity,
                                char.truncation, char.value)


def angular_mathieu(params, char, theta):
    """Angular Mathieu function of the given order/parity at theta.

    2pi-periodic by construction; returns a real float for real q.
    """
    return angular_mathieu_derivatives(params, char, theta)[0]


def angular_mathieu_derivatives(params, char, theta):
    """(S, S', S'') with derivatives taken term by term (independent of the
    defining ODE, so residual checks are meaningful)."""
    nus, coeffs = fourier_coefficients(params, char)
    even = params.parity == "even"
    S = S1 = S2 = 0j
    for nu, c in zip(nus, coeffs):
        if even:
            cosv = cmath.cos(nu * theta)
            sinv = cmath.sin(nu * theta)
            S += c * cosv
            S1 += -c * nu * sinv
            S2 += -c * nu * nu * cosv
        else:
            cosv = cmath.cos(nu * theta)
            sinv = cmath.sin(nu * theta)
            S += c * sinv
            S1 += c * nu * cosv
            S2 += -c * nu * nu * sinv
    if params.q.imag == 0 and abs(complex(theta).imag) == 0:
        return S.real, S1.real, S2.real
    return S, S1, S2


MAX_HYPERBOLIC_ARG = 690.0
CANCELLATION_LIMIT = 1e7


def modified_mathieu(params, char, x):
    """Angular series at imaginary argument: S(i x).

    Even series give sums of cosh (real for real q); odd series give
    i * sums of sinh. Raises OverflowGuard when the hyperbolic terms
    overflow or the cancellation ratio makes the sum unreliable (documented
    bound: max |term| / |sum| must stay below 1e7, so the coefficient noise
    floor of ~1e-15 stays below 1e-8 of the value).
    """
    return modified_mathieu_derivatives(params, char, x)[0]


def modified_mathieu_derivatives(params, char, x):
    """(M, M', M'') of the modified function at x; M(x) = S(i x) satisfies
    M'' = (a - 2 q cosh 2x) M."""
    nus, coeffs = fourier_coefficients(params, char)
    even = params.parity == "even"
    xc = complex(x)
    biggest = nus[-1] * (abs(xc.real) + abs(xc.imag))
    if biggest > MAX_HYPERBOLIC_ARG:
        raise OverflowGuard(
            f"harmonic {nus[-1]} at |x| ~ {abs(xc):.3g} overflows cosh")
    M = M1 = M2 = 0j
    tmax = 0.0
    for nu, c in zip(nus, coeffs):
        ch = cmath.cosh(nu * xc)
        sh = cmath.sinh(nu * xc)
        if even:
            M += c * ch
            M1 += c * nu * sh
            M2 += c * nu * nu * ch
            tmax = max(tmax, abs(c * ch))
        else:
            M += 1j * c * sh
            M1 += 1j * c * nu * ch
            M2 += 1j * c * nu * nu * sh
            tmax = max(tmax, abs(c * sh))
    if tmax > CANCELLATION_LIMIT * max(1e-300, abs(M)):
        raise OverflowGuard(
            f"cancellation ratio {tmax / max(1e-300, abs(M)):.3e} exceeds the "
            f"series reliability bound {CANCELLATION_LIMIT:.0e}")
    return M, M1, M2


def basis_functions(q, n_max):
    """All (params, char) pairs with order <= n_max, both parities."""
    out = []
    for n in range(0, n_max + 1):
        out.append((MathieuParams(q, n, "even"),
                    characteristic_value(n, q, "even")))
    for n in range(1, n_max + 1):
        out.append((MathieuParams(q, n, "odd"),
                    characteristic_value(n, q, "odd")))
    return out


def orthogonality_matrix(q, n_max):
    """Gram matrix of all angular functions with orders <= n_max (both
    parities) under adaptive quadrature of S_i S_j over [0, 2pi].

    Under the period normalization the diagonal is pi and off-diagonal
    entries vanish.
    """
    funcs = basis_functions(q, n_max)
    size = len(funcs)
    G = np.zeros((size, size))
    for i in range(size):
        pi_, ci = funcs[i]
        for j in range(i, size):
            pj, cj = funcs[j]

            def integrand(t):
                return (angular_mathieu(pi_, ci, t) *
                        angular_mathieu(pj, cj, t))

            val = quad(integrand, 0.0, 2.0 * math.pi, limit=200,
                       epsabs=1e-12, epsrel=1e-12)[0]
            G[i, j] = G[j, i] = val
    return G
