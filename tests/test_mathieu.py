import cmath
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from heunkit.errors import InvalidParameter, OverflowGuard
from heunkit.mathieu import (angular_mathieu, angular_mathieu_derivatives,
                             basis_functions, characteristic_value,
                             modified_mathieu, modified_mathieu_derivatives,
                             fourier_coefficients, orthogonality_matrix,
                             q_from_h2, trig_form_b,
                             MAX_ORDER, MAX_TRUNCATION, _eig_index, _family,
                             _family_matrix, _harmonics, _value_at)


def dense_oracle(n, q, parity, size=200):
    """Independent dense-matrix eigenvalue solve at a fixed truncation."""
    fam = _family(n, parity)
    d, e = _family_matrix(fam, complex(q), size)
    T = np.diag([x.real for x in d]) + np.diag([complex(x).real for x in e], 1) \
        + np.diag([complex(x).real for x in e], -1)
    vals = np.sort(np.linalg.eigvalsh(T))
    start = {"even-pi": 0, "even-2pi": 1, "odd-2pi": 1, "odd-pi": 2}[fam]
    return vals[(n - start) // 2]


def test_q_zero_values_are_squares():
    for n in range(0, 9):
        assert characteristic_value(n, 0.0, "even").value == n * n
        if n >= 1:
            assert characteristic_value(n, 0.0, "odd").value == n * n


def test_values_match_dense_oracle():
    for q in (0.5, 1.0, 2.0, 5.0):
        for n in range(0, 9):
            ours = characteristic_value(n, q, "even").value
            assert abs(ours - dense_oracle(n, q, "even")) <= 1e-10
            if n >= 1:
                ours = characteristic_value(n, q, "odd").value
                assert abs(ours - dense_oracle(n, q, "odd")) <= 1e-10


def test_odd_order_zero_rejected():
    with pytest.raises(ValueError):
        characteristic_value(0, 1.0, "odd")


def test_truncation_stability():
    ch = characteristic_value(3, 2.5, "even")
    bumped, _ = _value_at(3, 2.5 + 0j, "even", ch.truncation + 2)
    assert abs(bumped - ch.value) <= 1e-12 * max(1.0, abs(ch.value))


def test_value_continuity_in_q():
    for n, parity in ((0, "even"), (2, "even"), (1, "odd"), (3, "odd")):
        v1 = characteristic_value(n, 1.7, parity).value
        v2 = characteristic_value(n, 1.7 + 1e-6, parity).value
        assert abs(v2 - v1) <= 1e-4


def test_angular_at_q_zero_is_trig():
    for n, parity, ref in ((2, "even", lambda t: math.cos(2 * t)),
                           (3, "odd", lambda t: math.sin(3 * t))):
        ch = characteristic_value(n, 0.0, parity)
        # proportional to cos/sin with the period normalization
        ratio = angular_mathieu(ch, 0.37) / ref(0.37)
        for t in (0.9, 2.2, 4.5):
            assert abs(angular_mathieu(ch, t) - ratio * ref(t)) <= 1e-12


def test_angular_residual_and_periodicity():
    q = 1.0
    for n, parity in ((0, "even"), (2, "even"), (1, "odd"), (5, "odd")):
        ch = characteristic_value(n, q, parity)
        worst = 0.0
        for t in np.linspace(0.0, 2 * math.pi, 50):
            S, S1, S2 = angular_mathieu_derivatives(ch, t)
            worst = max(worst, abs(S2 + (ch.value - 2 * q * math.cos(2 * t)) * S))
        assert worst <= 1e-8
        rng = np.random.default_rng(42)
        for t in rng.uniform(0, 2 * math.pi, 100):
            assert abs(angular_mathieu(ch, t + 2 * math.pi)
                       - angular_mathieu(ch, t)) <= 1e-12


def test_normalization_is_pi():
    for n, parity in ((0, "even"), (1, "even"), (2, "odd")):
        ch = characteristic_value(n, 1.3, parity)
        val = quad(lambda t: angular_mathieu(ch, t) ** 2, 0.0,
                   2 * math.pi, limit=200)[0]
        assert abs(val - math.pi) <= 1e-9


def test_angular_residual_via_integration_oracle():
    """Compare a Mathieu function against direct numerical integration of
    its defining equation from matched initial data."""
    from heunkit.engine import ComplexPath, SolutionState
    from scipy_reference import dop853

    q = 1.0
    n = 2
    ch = characteristic_value(n, q, "even")
    S0, S1, _ = angular_mathieu_derivatives(ch, 0.0)
    state = SolutionState(0.0, S0, S1)
    state = dop853(
        lambda t: 0.0,
        lambda t: ch.value.real - 2 * q * math.cos(2 * t.real if
                                                   isinstance(t, complex)
                                                   else 2 * t),
        state, ComplexPath((0.0, 0.7)), tol=1e-12)
    ref = angular_mathieu(ch, 0.7)
    assert abs(state.w - ref) <= 1e-8 * max(1.0, abs(ref))


def test_modified_joint_at_zero():
    ch = characteristic_value(2, 1.5, "even")
    assert abs(modified_mathieu(ch, 0.0)
               - angular_mathieu(ch, 0.0)) <= 1e-12


def test_modified_q_zero_hyperbolic():
    ch = characteristic_value(2, 0.0, "even")
    ratio = modified_mathieu(ch, 0.4) / math.cosh(2 * 0.4)
    for x in (0.1, 0.9, 1.5):
        assert abs(modified_mathieu(ch, x) - ratio * math.cosh(2 * x)) <= 1e-10
    cho = characteristic_value(1, 0.0, "odd")
    val = modified_mathieu(cho, 0.8)
    assert abs(val.real) <= 1e-14  # odd series at i x is purely imaginary
    ratio = val.imag / math.sinh(0.8)
    assert abs(modified_mathieu(cho, 1.4).imag
               - ratio * math.sinh(1.4)) <= 1e-10


def test_modified_residual_hyperbolic_equation():
    """M(x) = S(ix) must satisfy M'' = (a - 2q cosh 2x) M over [0, 2]
    (the radial counterpart of the angular equation)."""
    for q in (0.5, 1.0, 2.0):
        for n, parity in ((0, "even"), (2, "even"), (1, "odd")):
            ch = characteristic_value(n, q, parity)
            worst = 0.0
            for x in np.linspace(0.0, 2.0, 41):
                M, M1, M2 = modified_mathieu_derivatives(ch, x)
                res = abs(M2 - (ch.value - 2 * q * math.cosh(2 * x)) * M)
                worst = max(worst, res / max(1.0, abs(M2)))
            assert worst <= 1e-7, (q, n, parity, worst)


def test_cos_squared_form_conversion():
    # H'' + (b - h^2 cos^2) H = 0 maps to the working form with
    # b = a + h^2/2, q = h^2/4; verify by residual
    h2 = 2.0
    q = q_from_h2(h2)
    ch = characteristic_value(1, q, "even")
    b = trig_form_b(ch.value, h2)
    worst = 0.0
    for t in np.linspace(0, 2 * math.pi, 30):
        S, S1, S2 = angular_mathieu_derivatives(ch, t)
        worst = max(worst, abs(S2 + (b - h2 * math.cos(t) ** 2) * S))
    assert worst <= 1e-8


def test_overflow_guard():
    """At one point, at one point of a grid, at an angular theta whose cosh
    overflows, and in the two scenarios whose settings reach the guards."""
    from heunkit.cli import main

    ch = characteristic_value(2, 1.0, "even")
    with pytest.raises(OverflowGuard):
        modified_mathieu(ch, 40.0)
    with pytest.raises(OverflowGuard, match="overflows cosh"):
        modified_mathieu_derivatives(ch, [0.0, 1.0, 40.0])
    with pytest.raises(OverflowGuard, match="overflows cosh"):
        angular_mathieu(ch, [0.5, 0.5 + 40.0j])
    for argv in (["scenario", "--id", "nutku-radial", "--set",
                  "Lambda=1.9999999"],
                 ["scenario", "--id", "helmholtz-elliptic", "--set", "a=30"]):
        assert main(argv) == 1


def test_orthogonality_q_zero_exactly_diagonal():
    G = orthogonality_matrix(basis_functions(0.0, 4))
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    assert off <= 1e-12
    assert np.allclose(np.diag(G), math.pi, atol=1e-12)


def test_orthogonality_moderate_q():
    G = orthogonality_matrix(basis_functions(2.0, 6))
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    assert off <= 1e-9
    assert np.allclose(np.diag(G), math.pi, atol=1e-9)


def test_orthogonality_large_q():
    G = orthogonality_matrix(basis_functions(10.0, 10))
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    assert off <= 1e-9


def quad_gram(q, n_max):
    """Gram matrix by adaptive quadrature of S_i S_j over [0, 2pi], each
    value summed by angular_mathieu; values are memoized per (function, t),
    since quad samples the same nodes for every pair."""
    funcs = basis_functions(q, n_max)

    @lru_cache(maxsize=None)
    def S(i, t):
        return angular_mathieu(funcs[i], t)

    G = np.zeros((len(funcs), len(funcs)))
    for i in range(len(funcs)):
        for j in range(i, len(funcs)):
            G[i, j] = G[j, i] = quad(lambda t: S(i, t) * S(j, t), 0.0,
                                     2 * math.pi, limit=200, epsabs=1e-12,
                                     epsrel=1e-12)[0]
    return G


def doubled_trapezoid_gram(funcs):
    """Trapezoid rule for the Gram matrix on 2 (2 nu_max + 2) nodes, each
    value summed by angular_mathieu: S_i S_j has degree <= 2 nu_max, so
    the rule is exact up to rounding."""
    nu_max = max(fourier_coefficients(c)[0][-1] for c in funcs)
    N = 2 * (2 * nu_max + 2)
    V = np.array([angular_mathieu(c, [2 * math.pi * k / N for k in range(N)])
                  for c in funcs])
    return 2 * math.pi / N * V @ V.T


@pytest.mark.parametrize("q, n_max", [(0.0, 4), (1.0, 3), (2.0, 6),
                                      (10.0, 10)])
def test_orthogonality_matches_adaptive_quadrature(q, n_max):
    funcs = basis_functions(q, n_max)
    G = orthogonality_matrix(funcs)
    assert np.asarray(G).dtype == np.float64
    assert np.max(np.abs(G - quad_gram(q, n_max))) <= 1e-13
    # the doubled trapezoid sum is an independent check of the Parseval sum
    assert np.max(np.abs(doubled_trapezoid_gram(funcs) - G)) <= 1e-14


@pytest.mark.parametrize("q", [1.0 + 0.5j, 5.0 + 3.0j, 0.7 + 0.4j, 2.236j])
def test_orthogonality_complex_q_bilinear(q):
    """For complex q the Gram matrix is complex and uses the square, not
    |S|^2: the diagonal is pi, distinct orders are orthogonal, and the
    doubled trapezoid sum agrees."""
    funcs = basis_functions(q, 3)
    G = orthogonality_matrix(funcs)
    assert np.asarray(G).dtype == np.complex128
    assert np.max(np.abs(np.diag(G) - math.pi)) <= 1e-9
    assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-9
    assert np.max(np.abs(doubled_trapezoid_gram(funcs) - G)) <= 1e-14


@pytest.mark.parametrize("q", [0.1, 1.0, 5.0, 25.0, 50.0, 100.0, 400.0,
                               0.7 + 0.4j, 2.236j, 5 + 3j, 60j])
def test_coefficients_at_every_order(q):
    """Every order n <= 20 of both parities: finite coefficients, and the
    series solves the equation at 30 points, |S'' + (a - 2q cos 2t) S| /
    max(1, |a|) <= 1e-11, with S'' summed term by term."""
    thetas = [2 * math.pi * k / 30 for k in range(30)]
    for parity in ("even", "odd"):
        for n in range(0 if parity == "even" else 1, 21):
            ch = characteristic_value(n, q, parity)
            _, c = fourier_coefficients(ch)
            assert all(cmath.isfinite(x) for x in c), (n, parity)
            rows = angular_mathieu_derivatives(ch, thetas)
            worst = max(abs(S2 + (ch.value - 2 * q * cmath.cos(2 * t)) * S)
                        for t, (S, _, S2) in zip(thetas, rows))
            assert worst <= 1e-11 * max(1.0, abs(ch.value)), (n, parity)


def test_mixed_parity_blocks_vanish():
    q = 2.0
    funcs = basis_functions(q, 3)
    evens = [c for c in funcs if c.parity == "even"]
    odds = [c for c in funcs if c.parity == "odd"]
    for ce in evens[:2]:
        for co in odds[:2]:
            val = quad(lambda t: angular_mathieu(ce, t)
                       * angular_mathieu(co, t),
                       0.0, 2 * math.pi, limit=200)[0]
            assert abs(val) <= 1e-12


def test_complex_q_against_dense_eigensolve():
    q = 1.0 + 0.5j
    for n, parity in ((0, "even"), (2, "even"), (1, "odd")):
        ch = characteristic_value(n, q, parity)
        fam = _family(n, parity)
        d, e = _family_matrix(fam, q, max(ch.truncation, 60))
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        vals = np.linalg.eigvals(T)
        best = vals[np.argmin(np.abs(vals - ch.value))]
        assert abs(best - ch.value) <= 1e-10 * max(1.0, abs(ch.value))


def test_complex_q_residual():
    q = 0.8 - 0.6j
    n, parity = 1, "even"
    ch = characteristic_value(n, q, parity)
    worst = 0.0
    for t in np.linspace(0.0, 2 * math.pi, 25):
        S, S1, S2 = angular_mathieu_derivatives(ch, t)
        worst = max(worst, abs(S2 + (ch.value - 2 * q * cmath.cos(2 * t)) * S))
    assert worst <= 1e-8


def test_negative_q_supported():
    ch = characteristic_value(2, -1.5, "even")
    # even orders are insensitive to the sign of q
    ref = characteristic_value(2, 1.5, "even")
    assert abs(ch.value - ref.value) <= 1e-10


def test_real_q_matches_scipy_special():
    """scipy.special.mathieu_a/mathieu_b do not solve the truncated matrix
    by Sturm counts, so they check the eigen-solver from outside."""
    from scipy.special import mathieu_a, mathieu_b

    for q in (0.5, 1.0, 2.0, 5.0, 10.0, 19.7):
        for n in range(0, 9):
            for parity, ref in (("even", mathieu_a), ("odd", mathieu_b)):
                if parity == "odd" and n == 0:
                    continue
                want = ref(n, q)
                ours = characteristic_value(n, q, parity).value
                assert abs(ours - want) <= 1e-12 * max(1.0, abs(want)), \
                    (n, q, parity, ours, want)


def test_high_order_compares_two_truncations():
    """For n = 130 (index 65) the first size, 32, is raised to 73; the next
    one must double 73, not solve the 73 x 73 matrix again."""
    from scipy.special import mathieu_a

    ch = characteristic_value(130, 1.0, "even")
    assert ch.truncation > 73
    want = mathieu_a(130, 1.0)
    assert abs(ch.value - want) <= 1e-12 * abs(want)


@lru_cache(maxsize=None)
def mpmath_even_pi(q, size=30):
    """Eigenvalues (a_0, a_2, ...) of the size-30 even-pi family matrix from
    mpmath at 30 digits: an oracle that shares no arithmetic with heunkit's
    Ehrlich-Aberth sweeps. The matrix at conj(q) is the conjugate one."""
    import mpmath

    if q.imag < 0:
        return tuple(v.conjugate() for v in mpmath_even_pi(q.conjugate()))
    with mpmath.workdps(30):
        q = mpmath.mpc(q.real, q.imag)
        T = mpmath.matrix(size, size)
        for i, nu in enumerate(_harmonics("even-pi", size)):
            T[i, i] = nu * nu
            if i + 1 < size:
                T[i, i + 1] = T[i + 1, i] = q
        T[0, 1] = T[1, 0] = mpmath.sqrt(2) * q
        return tuple(complex(v) for v in
                     mpmath.eig(T, left=False, right=False))


def test_complex_q_against_mpmath_dense():
    """Complex q on and off the imaginary axis, including both sides of the
    a_0/a_2 branch point q = 1.4688i: each value is an eigenvalue of the
    30-digit matrix, and no two orders share one. The other families are
    checked at complex q by the residual of their equation."""
    for q in (1 + 1j, 0.3 + 2j, 5 + 3j, 1.5j, 2j, -2j, 1.4688j):
        oracle = np.array(mpmath_even_pi(q))
        values = []
        for n in (0, 2, 4, 6):
            ours = characteristic_value(n, q, "even").value
            err = np.min(np.abs(oracle - ours)) / max(1.0, abs(ours))
            assert err <= 1e-10, (q, n, ours, err)
            values.append(ours)
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                assert abs(a - b) > 1e-3, (q, values)


def test_complex_q_label_rule():
    """Past the branch point a_0 and a_2 are a complex pair; the label rule
    (the limit from Re q > 0) puts a_0(2i) below the real axis."""
    a0 = characteristic_value(0, 2j, "even").value
    a2 = characteristic_value(2, 2j, "even").value
    assert abs(a0 - (2.16256 - 1.86749j)) <= 1e-5
    assert abs(a2 - a0.conjugate()) <= 1e-12
    assert a0.imag < 0 < a2.imag
    assert characteristic_value(0, -2j, "even").value.imag > 0
    side = characteristic_value(0, 0.01 + 2j, "even").value
    assert abs(side - a0) <= 0.05
    # near the branch point the stop rule ends the doubling early (climbing
    # to truncation 2048 would take seconds per value)
    t0 = time.perf_counter()
    for q in (1.5j, 2j, 1.4688j):
        for n in (0, 2):
            assert characteristic_value(n, q, "even").truncation <= 256
    assert time.perf_counter() - t0 < 6.0


def test_exactly_imaginary_q():
    """At q = +-2.236i with Re q = 0.0 (nutku-radial's k=1, Lambda=3 up to
    rounding) the modified functions solve M'' = (a - 2 q cosh 2x) M, and
    the label rule reads Re q = 0 as the limit from Re q > 0: a_2 is the
    conjugate of a_0 there, while at Re q = -1.2e-15 the pair swaps."""
    for q in (complex(0.0, 2.236), complex(0.0, -2.236)):
        for n, parity in ((0, "even"), (2, "even"), (1, "odd")):
            ch = characteristic_value(n, q, parity)
            worst = 0.0
            for x in np.linspace(0.0, 2.0, 41):
                M, M1, M2 = modified_mathieu_derivatives(ch, x)
                res = abs(M2 - (ch.value - 2 * q * math.cosh(2 * x)) * M)
                worst = max(worst, res / max(1.0, abs(M2)))
            assert worst <= 1e-12, (q, n, parity, worst)
    a0 = characteristic_value(0, complex(0.0, 2.236), "even").value
    a2 = characteristic_value(2, complex(0.0, 2.236), "even").value
    assert abs(a2 - (2.2018833534693307 + 2.325204048383475j)) <= 1e-12
    assert abs(a2 - a0.conjugate()) <= 1e-12
    swapped = characteristic_value(2, complex(-1.2e-15, 2.236), "even").value
    assert abs(swapped - (2.2018833534693325 - 2.3252040483834757j)) <= 1e-12


def test_out_of_range_inputs_rejected():
    for q in (math.nan, math.inf, complex(1, math.nan), complex(-math.inf, 0)):
        with pytest.raises(InvalidParameter):
            characteristic_value(0, q, "even")
    # |Im q| above 300, refused before the label path's 4|Im q| + 1 steps
    for q in (300.5j, -1e10j, complex(2.0, -1e3)):
        with pytest.raises(InvalidParameter, match="at most 300"):
            characteristic_value(0, q, "even")
    # orders above MAX_ORDER: the even orders 4080 and 4081 (index 2040)
    # have first truncation 2048 and no larger one to compare with, while
    # every order up to MAX_ORDER keeps one; all are refused before a solve
    for parity in ("even", "odd"):
        assert _eig_index(MAX_ORDER, parity) + 8 < MAX_TRUNCATION
    assert _eig_index(MAX_ORDER + 1, "even") + 8 == MAX_TRUNCATION
    t0 = time.perf_counter()
    for n, parity in ((4080, "even"), (4081, "even"), (4080, "odd"),
                      (5000, "even")):
        with pytest.raises(InvalidParameter, match="at most 4079"):
            characteristic_value(n, 1.0, parity)
    assert time.perf_counter() - t0 < 0.1


def test_angular_matches_scipy_special():
    """scipy.special computes ce/se through an unrelated algorithm with the
    same period normalization; agreement pins both the characteristic
    values and the coefficient recurrence."""
    from scipy.special import mathieu_cem, mathieu_sem

    # no further in n or q: scipy's mathieu_b(40, 1000) is wrong
    for q in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        for parity, ref in (("even", mathieu_cem), ("odd", mathieu_sem)):
            for n in range(0 if parity == "even" else 1, 17):
                ch = characteristic_value(n, q, parity)
                for t in (0.3, 0.7, 2.4, 5.1):
                    want = ref(n, q, math.degrees(t))[0]
                    assert abs(angular_mathieu(ch, t) - want) <= 1e-12, \
                        (q, n, parity, t)


def _reference_angular(char, theta):
    """The per-point loop that summed the angular series before the grid
    evaluator: (S, S', S''), real for real q and real theta."""
    nus, coeffs = fourier_coefficients(char)
    even = char.parity == "even"
    S = S1 = S2 = 0j
    for nu, c in zip(nus, coeffs):
        cosv = cmath.cos(nu * theta)
        sinv = cmath.sin(nu * theta)
        if even:
            S += c * cosv
            S1 += -c * nu * sinv
            S2 += -c * nu * nu * cosv
        else:
            S += c * sinv
            S1 += c * nu * cosv
            S2 += -c * nu * nu * sinv
    if char.q.imag == 0 and abs(complex(theta).imag) == 0:
        return S.real, S1.real, S2.real
    return S, S1, S2


def _reference_modified(char, x):
    """The per-point loop that summed the modified series before the grid
    evaluator: (M, M', M'') as sums of cosh and i sinh (no guards)."""
    nus, coeffs = fourier_coefficients(char)
    even = char.parity == "even"
    xc = complex(x)
    M = M1 = M2 = 0j
    for nu, c in zip(nus, coeffs):
        ch = cmath.cosh(nu * xc)
        sh = cmath.sinh(nu * xc)
        if even:
            M += c * ch
            M1 += c * nu * sh
            M2 += c * nu * nu * ch
        else:
            M += 1j * c * sh
            M1 += 1j * c * nu * ch
            M2 += 1j * c * nu * nu * sh
    return M, M1, M2


EPS = 2.0 ** -52
GRID_CASES = [(1.0, 0, "even"), (1.0, 3, "odd"), (25.0, 2, "even"),
              (-4.0, 5, "odd"), (0.7 + 0.4j, 2, "even"),
              (0.7 + 0.4j, 1, "odd"), (2.236j, 0, "even"),
              (-2.236j, 2, "even"), (2.236j, 2, "odd")]


def _absolute_sums(char, theta):
    """Sums of |c| max(|cos|, |sin|)(nu theta) times 1, nu and nu^2: what
    the rounding of the S, S' and S'' sums scales with."""
    nus, coeffs = fourier_coefficients(char)
    sums = [0.0, 0.0, 0.0]
    for nu, c in zip(nus, coeffs):
        m = abs(c) * max(abs(cmath.cos(nu * theta)), abs(cmath.sin(nu * theta)))
        sums = [sums[0] + m, sums[1] + m * nu, sums[2] + m * nu * nu]
    return sums


@pytest.mark.parametrize("q, n, parity", GRID_CASES)
def test_grid_evaluator_matches_per_point_loops(q, n, parity):
    """The grid evaluator against the loops it replaced, over real and
    complex theta and x, at 1e-13 relative to max(1, |reference|) plus 4
    eps times the sum of the terms' magnitudes. That second part is the
    rounding of either sum where its terms cancel: measured up to 2.4 eps
    times it, which is 1.6e-9 of M at q = 25, x = 2 (the cancellation
    guard admits ratios up to 1e7). The types match too: real floats for
    real q at real theta, complex else."""
    ch = characteristic_value(n, q, parity)
    thetas = list(np.linspace(-1.0, 2 * math.pi + 1.0, 37)) + \
        [0.3 + 0.5j, 2.0 - 1.2j, -1.1 + 0.05j]
    xs = [x for x in list(np.linspace(-1.5, 2.0, 29)) + [0.4 + 0.3j,
                                                         1.2 - 2.0j]
          if not _cancels(ch, x)]
    assert len(xs) >= 20
    pairs = [*zip(angular_mathieu_derivatives(ch, thetas),
                  [_reference_angular(ch, t) for t in thetas],
                  [_absolute_sums(ch, t) for t in thetas]),
             *zip(modified_mathieu_derivatives(ch, xs),
                  [_reference_modified(ch, x) for x in xs],
                  [_absolute_sums(ch, 1j * x) for x in xs])]
    for got, want, sums in pairs:
        assert [type(v) for v in got] == [type(v) for v in want]
        for g, w, a in zip(got, want, sums):
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w)) + 4 * EPS * a, \
                (got, want)


def _cancels(char, x):
    """Whether the cancellation guard refuses the modified function at x."""
    try:
        modified_mathieu(char, x)
    except OverflowGuard:
        return True
    return False


@pytest.mark.parametrize("q, n, parity", GRID_CASES[::2])
def test_scalar_and_sequence_calls_agree_exactly(q, n, parity):
    ch = characteristic_value(n, q, parity)
    pts = [0.0, 0.37, 1.9, 0.2 + 0.1j, 2 * math.pi + 0.37]
    assert angular_mathieu_derivatives(ch, pts) == \
        [angular_mathieu_derivatives(ch, t) for t in pts]
    assert angular_mathieu(ch, pts) == [angular_mathieu(ch, t)
                                           for t in pts]
    xs = [0.0, 0.37, 1.2, 0.2 + 0.1j, -0.8]
    assert modified_mathieu_derivatives(ch, xs) == \
        [modified_mathieu_derivatives(ch, x) for x in xs]
    assert modified_mathieu(ch, xs) == [modified_mathieu(ch, x)
                                           for x in xs]
    assert angular_mathieu(ch, []) == modified_mathieu(ch, []) == []


def _mpmath_sums(char, theta):
    """(S, S', S'') of the same Fourier coefficients at theta, summed over
    every harmonic by mpmath at 30 digits, and the sums of |c| max(|cos|,
    |sin|)(nu theta) (1 + nu |theta|) times 1, nu and nu^2: the rounding of
    a double sum, the angle nu theta's own rounding included."""
    import mpmath

    nus, coeffs = fourier_coefficients(char)
    even = char.parity == "even"
    sizes = [0.0, 0.0, 0.0]
    with mpmath.workdps(30):
        th = mpmath.mpc(complex(theta))
        S = S1 = S2 = mpmath.mpc(0)
        for nu, c in zip(nus, coeffs):
            c, cv, sv = mpmath.mpc(c), mpmath.cos(nu * th), mpmath.sin(nu * th)
            term, other = (c * cv, -c * sv) if even else (c * sv, c * cv)
            S, S1, S2 = S + term, S1 + nu * other, S2 - nu * nu * term
            m = abs(c) * max(abs(cv), abs(sv)) * (1 + nu * abs(th))
            sizes = [sizes[0] + m, sizes[1] + m * nu, sizes[2] + m * nu * nu]
        return (complex(S), complex(S1), complex(S2)), [float(s) for s in sizes]


@pytest.mark.parametrize("q", [0.0, 1.3, 25.0, 0.7 + 0.4j])
def test_grid_sums_against_mpmath(q):
    """S, S', S'' at theta in [0, 2pi] and M, M', M'' at x in [0, 2] and at
    x + 0.39 + 0.785i (a complex shift like nutku-radial's at k=1,
    Lambda=3) against the mpmath sums of the same coefficients: within 4
    eps times the rounding sums of _mpmath_sums, plus 1e-15 max(1, |ref|).
    Worst seen 0.95 of the eps part, at q = 25, n = 8, x = 1.19+0.785i.
    Points the cancellation guard refuses are left out."""
    thetas = [2 * math.pi * k / 24 for k in range(25)]
    xs = [k / 10 for k in range(21)] + \
        [k / 10 + 0.39 + 0.785j for k in range(0, 21, 4)]
    for n, parity in ((0, "even"), (3, "even"), (8, "even"), (1, "odd"),
                      (4, "odd")):
        ch = characteristic_value(n, q, parity)
        cases = [(got, *_mpmath_sums(ch, t)) for t, got in
                 zip(thetas, angular_mathieu_derivatives(ch, thetas))]
        for x in (x for x in xs if not _cancels(ch, x)):
            (S, S1, S2), sizes = _mpmath_sums(ch, 1j * x)
            cases.append((modified_mathieu_derivatives(ch, x),
                          (S, 1j * S1, -S2), sizes))
        assert len(cases) >= 40
        for got, want, sizes in cases:
            for g, w, size in zip(got, want, sizes):
                assert abs(g - w) <= 1e-15 * max(1.0, abs(w)) + 4 * EPS * size, \
                    (q, n, parity, got, want)
