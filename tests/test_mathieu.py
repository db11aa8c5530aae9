import cmath
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from heunkit.errors import InvalidParameter, NonConverged, OverflowGuard
from heunkit.mathieu import (MathieuParams,
                             angular_mathieu, angular_mathieu_derivatives,
                             basis_functions, characteristic_value,
                             characteristic_value_at,
                             modified_mathieu, modified_mathieu_derivatives,
                             orthogonality_matrix, q_from_h2, trig_form_b,
                             _family, _family_matrix, _harmonics)


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
    bumped = characteristic_value_at(3, 2.5, "even", ch.truncation + 2)
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
        p = MathieuParams(0.0, n, parity)
        # proportional to cos/sin with the period normalization
        ratio = angular_mathieu(p, ch, 0.37) / ref(0.37)
        for t in (0.9, 2.2, 4.5):
            assert abs(angular_mathieu(p, ch, t) - ratio * ref(t)) <= 1e-12


def test_angular_residual_and_periodicity():
    q = 1.0
    for n, parity in ((0, "even"), (2, "even"), (1, "odd"), (5, "odd")):
        ch = characteristic_value(n, q, parity)
        p = MathieuParams(q, n, parity)
        worst = 0.0
        for t in np.linspace(0.0, 2 * math.pi, 50):
            S, S1, S2 = angular_mathieu_derivatives(p, ch, t)
            worst = max(worst, abs(S2 + (ch.value - 2 * q * math.cos(2 * t)) * S))
        assert worst <= 1e-8
        rng = np.random.default_rng(42)
        for t in rng.uniform(0, 2 * math.pi, 100):
            assert abs(angular_mathieu(p, ch, t + 2 * math.pi)
                       - angular_mathieu(p, ch, t)) <= 1e-12


def test_normalization_is_pi():
    for n, parity in ((0, "even"), (1, "even"), (2, "odd")):
        ch = characteristic_value(n, 1.3, parity)
        p = MathieuParams(1.3, n, parity)
        val = quad(lambda t: angular_mathieu(p, ch, t) ** 2, 0.0,
                   2 * math.pi, limit=200)[0]
        assert abs(val - math.pi) <= 1e-9


def test_angular_residual_via_integration_oracle():
    """Compare a Mathieu function against direct numerical integration of
    its defining equation from matched initial data."""
    from heunkit.engine import ComplexPath, SolutionState, integrate_callable

    q = 1.0
    n = 2
    ch = characteristic_value(n, q, "even")
    p = MathieuParams(q, n, "even")
    S0, S1, _ = angular_mathieu_derivatives(p, ch, 0.0)
    state = SolutionState(0.0, S0, S1)
    state = integrate_callable(
        lambda t: 0.0,
        lambda t: ch.value.real - 2 * q * math.cos(2 * t.real if
                                                   isinstance(t, complex)
                                                   else 2 * t),
        state, ComplexPath((0.0, 0.7)), tol=1e-12)
    ref = angular_mathieu(p, ch, 0.7)
    assert abs(state.w - ref) <= 1e-8 * max(1.0, abs(ref))


def test_modified_joint_at_zero():
    ch = characteristic_value(2, 1.5, "even")
    p = MathieuParams(1.5, 2, "even")
    assert abs(modified_mathieu(p, ch, 0.0)
               - angular_mathieu(p, ch, 0.0)) <= 1e-12


def test_modified_q_zero_hyperbolic():
    ch = characteristic_value(2, 0.0, "even")
    p = MathieuParams(0.0, 2, "even")
    ratio = modified_mathieu(p, ch, 0.4) / math.cosh(2 * 0.4)
    for x in (0.1, 0.9, 1.5):
        assert abs(modified_mathieu(p, ch, x) - ratio * math.cosh(2 * x)) <= 1e-10
    cho = characteristic_value(1, 0.0, "odd")
    po = MathieuParams(0.0, 1, "odd")
    val = modified_mathieu(po, cho, 0.8)
    assert abs(val.real) <= 1e-14  # odd series at i x is purely imaginary
    ratio = val.imag / math.sinh(0.8)
    assert abs(modified_mathieu(po, cho, 1.4).imag
               - ratio * math.sinh(1.4)) <= 1e-10


def test_modified_residual_hyperbolic_equation():
    """M(x) = S(ix) must satisfy M'' = (a - 2q cosh 2x) M over [0, 2]
    (the radial counterpart of the angular equation)."""
    for q in (0.5, 1.0, 2.0):
        for n, parity in ((0, "even"), (2, "even"), (1, "odd")):
            ch = characteristic_value(n, q, parity)
            p = MathieuParams(q, n, parity)
            worst = 0.0
            for x in np.linspace(0.0, 2.0, 41):
                M, M1, M2 = modified_mathieu_derivatives(p, ch, x)
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
    p = MathieuParams(q, 1, "even")
    worst = 0.0
    for t in np.linspace(0, 2 * math.pi, 30):
        S, S1, S2 = angular_mathieu_derivatives(p, ch, t)
        worst = max(worst, abs(S2 + (b - h2 * math.cos(t) ** 2) * S))
    assert worst <= 1e-8


def test_overflow_guard():
    ch = characteristic_value(2, 1.0, "even")
    p = MathieuParams(1.0, 2, "even")
    with pytest.raises(OverflowGuard):
        modified_mathieu(p, ch, 40.0)


def test_orthogonality_q_zero_exactly_diagonal():
    G = orthogonality_matrix(0.0, 4)
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    assert off <= 1e-12
    assert np.allclose(np.diag(G), math.pi, atol=1e-12)


def test_orthogonality_moderate_q():
    G = orthogonality_matrix(2.0, 6)
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    assert off <= 1e-9
    assert np.allclose(np.diag(G), math.pi, atol=1e-9)


def test_orthogonality_large_q():
    G = orthogonality_matrix(10.0, 10)
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    assert off <= 1e-9


def test_mixed_parity_blocks_vanish():
    q = 2.0
    funcs = basis_functions(q, 3)
    evens = [(p, c) for p, c in funcs if p.parity == "even"]
    odds = [(p, c) for p, c in funcs if p.parity == "odd"]
    for pe, ce in evens[:2]:
        for po, co in odds[:2]:
            val = quad(lambda t: angular_mathieu(pe, ce, t)
                       * angular_mathieu(po, co, t),
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
    p = MathieuParams(q, n, parity)
    worst = 0.0
    for t in np.linspace(0.0, 2 * math.pi, 25):
        S, S1, S2 = angular_mathieu_derivatives(p, ch, t)
        worst = max(worst, abs(S2 + (ch.value - 2 * q * cmath.cos(2 * t)) * S))
    assert worst <= 1e-8


def test_negative_q_supported():
    ch = characteristic_value(2, -1.5, "even")
    # even orders are insensitive to the sign of q
    ref = characteristic_value(2, 1.5, "even")
    assert abs(ch.value - ref.value) <= 1e-10


def test_real_q_matches_scipy_special():
    """scipy.special.mathieu_a/mathieu_b do not solve the truncated matrix
    with LAPACK, so they check the eigen-solver from outside."""
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
    mpmath at 30 digits: an oracle that shares no arithmetic with numpy's
    LAPACK. The matrix at conj(q) is the conjugate one."""
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


def test_out_of_range_inputs_rejected():
    for q in (math.nan, math.inf, complex(1, math.nan), complex(-math.inf, 0)):
        with pytest.raises(InvalidParameter):
            characteristic_value(0, q, "even")
    # an order whose first truncation would exceed the largest one
    with pytest.raises(InvalidParameter):
        characteristic_value(5000, 1.0, "even")


def test_stale_characteristic_value_rejected():
    ch = characteristic_value(2, 1.0, "even")
    other = MathieuParams(2.0, 2, "even")
    with pytest.raises(NonConverged):
        angular_mathieu(other, ch, 0.3)


def test_angular_matches_scipy_special():
    """scipy.special computes ce/se through an unrelated algorithm with the
    same period normalization; agreement pins both the characteristic
    values and the coefficient recurrence."""
    from scipy.special import mathieu_cem, mathieu_sem

    q = 1.5
    for n, parity in ((0, "even"), (2, "even"), (3, "even"),
                      (1, "odd"), (2, "odd")):
        ch = characteristic_value(n, q, parity)
        p = MathieuParams(q, n, parity)
        for t in (0.3, 0.7, 2.4, 5.1):
            ours = angular_mathieu(p, ch, t)
            if parity == "even":
                ref = mathieu_cem(n, q, math.degrees(t))[0]
            else:
                ref = mathieu_sem(n, q, math.degrees(t))[0]
            assert abs(ours - ref) <= 1e-10
