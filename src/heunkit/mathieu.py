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
matrices, truncated and doubled until the value is stable, all in plain
Python from one determinant recurrence (_det_ratios). Real q: Sturm counts
bisect to the order's eigenvalue, named by its index from the bottom, and
Newton on p'/p refines it. Complex q: Ehrlich-Aberth sweeps (poly's) on
the same recurrence follow the spectrum from the real axis. The label
rule for complex q and the stop rule near a branch point are stated in
characteristic_value.

Fourier coefficients are that matrix's eigenvector at the characteristic
value, built outward from the order's own harmonic by two continued
fractions, each run in its stable direction: down from the top above it,
up from the first row below it (Gautschi, SIAM Rev. 9 (1967) 24; DLMF
28.34). They are componentwise accurate, which the modified functions need:
there noise in coefficient k is amplified by cosh(k x). Each point of a
grid sums the prefix of harmonics it needs, with math or cmath per
harmonic. No run-time path loads numpy or scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidParameter, NonConvergence, OverflowGuard
from .poly import _EPS, _aberth
from .series import ROUNDING

MAX_TRUNCATION = 2048
# the label path takes 4|Im q| + 1 steps: at 300i about 3 s a family
# (2 vCPUs, Python 3.11)
MAX_IMAG_Q = 300.0
CONVERGENCE_TOL = 1e-13
STALL_TOL = 1e-10
LABEL_OFFSET = 1e-2
SEPARATION = 0.25
GUESS_WIDTH = 1e-8
MAX_BISECTIONS = 200  # halvings of a double interval, with room
MAX_HYPERBOLIC_ARG = 690.0
CANCELLATION_LIMIT = 1e7
WINDOW = 2  # quiet terms that end a point's prefix (_prefix)


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
        if abs(q.imag) > MAX_IMAG_Q:
            raise InvalidParameter(f"|Im q| must be at most {MAX_IMAG_Q:g}, "
                                   f"got q = {q}")
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


def _det_ratios(d, e2, x):
    """(count, g, small) at x for p(x) = det(T - x), T the tridiagonal with
    diagonal d and squared couplings e2 (e2[0] = 0), from one pass over the
    pivots r_k = p_k / p_{k-1}, which cannot overflow (Bini, Gemignani &
    Tisseur, SIAM J. Matrix Anal. Appl. 27 (2005) 153). count is the number
    of negative pivots: for real symmetric T, the eigenvalues below x
    (Sturm). g = p'/p is the sum of r_k'/r_k. small = |p| / beta, beta the
    same recurrence in absolute values, which bounds p's rounding: p(x) is
    rounding alone once small <= eps. An exact zero pivot becomes eps times
    its row's scale."""
    count, g, small, r, dr, rho = 0, 0.0, 1.0, 1.0, 0.0, 1.0
    for dk, ek2 in zip(d, e2):
        u, dkx = ek2 / r, dk - x
        dr = u * dr / r - 1.0
        r = dkx - u
        rho = abs(dkx) + abs(ek2) / rho
        if not r:
            r = _EPS * (abs(dk) + abs(x) + 1.0)
            rho = max(rho, abs(r))
        count += r.real < 0
        g += dr / r
        small *= abs(r) / rho
    return count, g, small


def _matrix(family, q, M):
    """(d, e2) of _family_matrix with e2 = [0, e_0^2, ...], in real
    arithmetic for real q."""
    d, e = _family_matrix(family, q, M)
    if not q.imag:
        d, e = [x.real for x in d], [x.real for x in e]
    return d, [0.0, *(x * x for x in e)]


def _real_eigenvalue(d, e2, idx, guess=None):
    """Eigenvalue idx, from the bottom, of the real symmetric tridiagonal
    (d, e2): Sturm-count bisection until it is the only one in the bracket,
    then Newton on p'/p, bisecting whenever a step would leave the bracket.
    A guess within GUESS_WIDTH of the value skips the bisection."""
    w = 0.0 if guess is None else GUESS_WIDTH * max(1.0, abs(guess))
    if w and _det_ratios(d, e2, guess - w)[0] == idx and \
            _det_ratios(d, e2, guess + w)[0] == idx + 1:
        lo, hi, clo, chi, x = guess - w, guess + w, idx, idx + 1, guess
    else:
        e = [math.sqrt(v) for v in e2[1:]] + [0.0]
        radius = [a + b for a, b in zip([0.0, *e], e)]  # Gershgorin
        lo = min(dk - rk for dk, rk in zip(d, radius))
        hi = max(dk + rk for dk, rk in zip(d[:idx + 1], radius))
        clo, chi, x = 0, _det_ratios(d, e2, hi)[0], 0.5 * (lo + hi)
    last = math.inf
    for _ in range(MAX_BISECTIONS):
        if hi - lo <= _EPS * max(1.0, abs(lo), abs(hi)):
            break
        c, g, _ = _det_ratios(d, e2, x)
        if c <= idx:
            lo, clo = x, c
        else:
            hi, chi = x, c
        if clo == idx and chi == idx + 1 and g:
            step = -1.0 / g
            # converged, or no longer shrinking within STALL_TOL: the
            # rounding of p'/p
            if abs(step) <= 2.0 * _EPS * max(1.0, abs(x)) or \
                    abs(step) >= last and abs(step) <= STALL_TOL * max(1.0, abs(x)):
                return x + step if lo <= x + step <= hi else x
            last = abs(step)
            if lo < x + step < hi:
                x += step
                continue
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _real_spectrum(family, q, M):
    d, e2 = _matrix(family, q, M)
    return [_real_eigenvalue(d, e2, i) for i in range(M)]


def _aberth_on(family, q, M, start):
    """Eigenvalues of the order-M truncation at complex q by Ehrlich-Aberth
    sweeps from the approximations start (poly's sweep, with p'/p from the
    determinant's pivots); one start point gives Newton's method."""
    d, e2 = _matrix(family, q, M)

    def newton(x):
        _, g, small = _det_ratios(d, e2, x)
        return None if small <= _EPS else (1.0, g)
    return _aberth(list(start), newton)


def _path_steps(q):
    """(Re q of the path, number of steps N) for the label rule."""
    re = q.real if abs(q.real) >= LABEL_OFFSET else \
        (LABEL_OFFSET if q.real >= 0 else -LABEL_OFFSET)
    return re, max(2, int(4 * abs(q.imag)) + 1)


@lru_cache(maxsize=64)
def _path_spectra(family, q, M):
    """Spectra at the N + 1 points re + i Im q k/N of the label path, each
    by Aberth from the one before (from the Sturm spectrum at k = 0), then
    at q itself when re != Re q. Every order of a family walks this path,
    so each is solved once; the label walk reads them."""
    re, N = _path_steps(q)
    spectra = [_real_spectrum(family, complex(re), M)]
    for k in range(1, N + 1):
        spectra.append(_aberth_on(family, complex(re, q.imag * k / N), M,
                                  spectra[-1]))
    if re != q.real:
        spectra.append(_aberth_on(family, q, M, spectra[-1]))
    return tuple(tuple(v) for v in spectra)


def _nearest(vals, target):
    return min(vals, key=lambda v: abs(v - target))


def _continue_label(family, idx, q, M):
    """Label idx followed up to complex q (see characteristic_value)."""
    re, N0 = _path_steps(q)
    path = _path_spectra(family, q, M)
    vals = path[0]
    lam = vals[idx]
    # the path is split into N equal steps, k of them done; a halved step
    # doubles again after each accepted step. Points of the N0-step path
    # read its spectra, the others start Aberth from the last accepted one
    k, N = 0, N0
    while k < N:
        if (k + 1) * N0 % N == 0:
            new = path[(k + 1) * N0 // N]
        else:
            new = _aberth_on(family, complex(re, q.imag * (k + 1) / N), M, vals)
        near, second = sorted(abs(v - lam) for v in new)[:2]
        if near > SEPARATION * second:
            k, N = 2 * k, 2 * N
            continue
        vals, lam = new, _nearest(new, lam)
        k += 1
        if k % 2 == 0 and N > N0:
            k, N = k // 2, N // 2
    return lam if re == q.real else _nearest(path[-1], lam)


def _value_at(n, q, parity, M, prev=None):
    """(value, truncation used) at M, or at index + 8 if M <= index + 4; a
    given prev starts the solve: for complex q, Newton from prev."""
    fam, idx = _family(n, parity), _eig_index(n, parity)
    if M <= idx + 4:
        M = idx + 8
        if M > MAX_TRUNCATION:
            raise InvalidParameter(f"order {n} needs a truncation above "
                                   f"{MAX_TRUNCATION}")
    if q.imag == 0:
        guess = None if prev is None else prev.real
        return complex(_real_eigenvalue(*_matrix(fam, q, M), idx, guess)), M
    if prev is None:
        return _continue_label(fam, idx, q, M), M
    return _aberth_on(fam, q, M, [prev])[0], M


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
    a_0(2i) = 2.16256 - 1.86749i, and a_2(2i) is its conjugate. The path
    takes 4|Im q| + 1 steps, so |Im q| above MAX_IMAG_Q (300) raises
    InvalidParameter.
    """
    params = MathieuParams(q, n, parity)
    return CharacteristicValue(params, *_solve(params.n, params.q, parity))


@lru_cache(maxsize=1024)
def _solve(n, q, parity):
    """(value, truncation) of characteristic_value; cached, since scenarios
    ask for the same values again."""
    if q == 0:
        return complex(n * n), 32
    prev, prev_err, M = None, math.inf, 32
    while True:
        val, M = _value_at(n, q, parity, M, prev)
        if prev is not None:
            err, scale = abs(val - prev), max(1.0, abs(val))
            if err <= CONVERGENCE_TOL * scale or \
                    prev_err <= err <= STALL_TOL * scale:
                return val, M
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


def _prefix(nus, sizes, reach):
    """Number of leading harmonics a point of this reach sums, by
    series.eval_local's rule: it ends after WINDOW terms in a row, counted
    from the first non-zero coefficient, whose weight sizes[k] e^(nu reach)
    (sizes[k] = |c| max(1, nu^2)) is below ROUNDING times the largest so
    far."""
    grow, scale = math.exp(2.0 * reach), math.exp(nus[0] * reach)
    big = lim = 0.0
    quiet = 0
    for k, size in enumerate(sizes):
        w = size * scale
        if w > big:
            big, lim, quiet = w, ROUNDING * w, 0
        elif big and w <= lim:
            quiet += 1
            if quiet == WINDOW:
                return k + 1
        else:
            quiet = 0
        scale *= grow
    return len(sizes)


def _sum_real(nus, cs, t, even, modified):
    """(S, S', S'') at real theta = t, or (M, M', M'') at theta = i t
    divided by i for odd series (sums of cosh and sinh), in real
    arithmetic, and the largest |term|."""
    base, other = (math.cosh, math.sinh) if modified else (math.cos, math.sin)
    if not even:
        base, other = other, base
    S = S1 = S2 = big = 0.0
    for nu, c in zip(nus, cs):
        term = c * base(nu * t)
        S += term
        S1 += nu * c * other(nu * t)
        S2 += nu * nu * term
        if abs(term) > big:
            big = abs(term)
    if modified:
        return S, S1, S2, big
    return S, -S1 if even else S1, -S2, big


def _sum_complex(nus, cs, th, even):
    """(S, S', S'') at complex theta and the largest |term|."""
    S = S1 = S2 = 0j
    big = 0.0
    for nu, c in zip(nus, cs):
        cv, sv = cmath.cos(nu * th), cmath.sin(nu * th)
        term, other = (c * cv, -c * sv) if even else (c * sv, c * cv)
        S += term
        S1 += nu * other
        S2 -= nu * nu * term
        big = max(big, abs(term))
    return S, S1, S2, big


def _series_at(params, char, x, modified):
    """(S, S', S'') of the angular series, term by term, at x or, when
    modified, (M, M', M'') = (S(ix), i S'(ix), -S''(ix)); a tuple at a
    number x, a list at a sequence. Each point sums its own prefix of the
    harmonics (_prefix), with math's cos/sin or cosh/sinh when q and the
    point are real and cmath's otherwise; so a point's value does not
    depend on the grid around it. modified_mathieu's guards hold per point,
    in order, and an angular theta whose cosh overflows raises too."""
    try:
        points, one = list(x), False
    except TypeError:
        points, one = [x], True
    nus, cs = fourier_coefficients(params, char)
    sizes = [abs(c) * max(1, nu * nu) for nu, c in zip(nus, cs)]
    real_q, even = not params.q.imag, params.parity == "even"
    prefixes, rows = {}, []
    for point in points:
        t = complex(point)
        reach = abs(t.imag) + (abs(t.real) if modified else 0.0)
        if nus[-1] * reach > MAX_HYPERBOLIC_ARG:
            raise OverflowGuard(f"harmonic {nus[-1]} at |x| ~ {abs(t):.3g} "
                                f"overflows cosh")
        if reach not in prefixes:
            k = _prefix(nus, sizes, reach)
            prefixes[reach] = (nus[:k], cs[:k],
                               [c.real for c in cs[:k]] if real_q else None)
        head, coeffs, real_coeffs = prefixes[reach]
        if real_q and not t.imag:
            S, S1, S2, big = _sum_real(head, real_coeffs, t.real, even,
                                       modified)
            if modified:  # odd: i times sums of sinh and cosh
                S, S1, S2 = (complex(v) if even else complex(0.0, v)
                             for v in (S, S1, S2))
        else:
            S, S1, S2, big = _sum_complex(head, coeffs,
                                          1j * t if modified else t, even)
            if modified:
                S, S1, S2 = S, 1j * S1, -S2
        if modified and big > CANCELLATION_LIMIT * max(1e-300, abs(S)):
            raise OverflowGuard(
                f"cancellation ratio {big / max(1e-300, abs(S)):.3e} exceeds "
                f"the series reliability bound {CANCELLATION_LIMIT:.0e}")
        rows.append((S, S1, S2))
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
