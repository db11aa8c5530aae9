import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from heunkit.errors import NonFiniteInput, ZeroDenominator
from heunkit.poly import Polynomial, make_rational


def test_make_rational_identity():
    r = make_rational([1], [1])
    assert r(0.7 + 0.2j) == 1.0
    assert r.num.degree == 0 and r.den.degree == 0


def test_make_rational_cancels_common_root():
    # z / z^2 -> 1/z
    r = make_rational([0, 1], [0, 0, 1])
    assert r.num.degree == 0
    assert r.den.degree == 1
    z = 0.3 + 0.4j
    assert abs(r(z) - 1.0 / z) < 1e-12


def test_make_rational_long_division_case():
    # (1 - z^2)/(1 - z) -> 1 + z
    r = make_rational([1, 0, -1], [1, -1])
    assert r.den.degree == 0
    for z in (0.2, -1.7, 0.3 + 2.2j):
        assert abs(r(z) - (1.0 + z)) < 1e-9


def test_make_rational_zero_denominator():
    with pytest.raises(ZeroDenominator):
        make_rational([1, 2], [0, 0])


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"),
                                 complex(1, float("inf"))])
def test_polynomial_refuses_non_finite_coefficients(bad):
    with pytest.raises(NonFiniteInput):
        Polynomial([1.0, bad, 2.0])


def test_polynomial_arithmetic_and_eval():
    p = Polynomial((1, 2, 3))
    q = Polynomial((0, 1))
    assert (p * q).coeffs == (0j, 1 + 0j, 2 + 0j, 3 + 0j)
    assert (p + q).coeffs == (1 + 0j, 3 + 0j, 3 + 0j)
    assert p(2.0) == 1 + 4 + 12
    assert p.derivative().coeffs == (2 + 0j, 6 + 0j)


def test_taylor_shift():
    p = Polynomial((1, 2, 3))
    ps = p.shifted(2.0)
    for z in (0.0, 1.3, -0.7 + 0.1j):
        assert abs(ps(z) - p(z + 2.0)) < 1e-12


def test_deflate_removes_root():
    p = Polynomial.from_roots([1.0, 2.0, 3.0], lead=2.0)
    q = p.deflate(2.0)
    expected = Polynomial.from_roots([1.0, 3.0], lead=2.0)
    assert np.allclose(q.coeffs, expected.coeffs)


def test_cluster_points_multiple_roots():
    # double root at 1 computed numerically scatters; clustering recovers it
    p = Polynomial.from_roots([1.0, 1.0, -0.5])
    clusters = p.clustered_roots()
    clusters.sort(key=lambda c: c[0].real)
    assert clusters[0][1] == 1 and abs(clusters[0][0] + 0.5) < 1e-9
    assert clusters[1][1] == 2 and abs(clusters[1][0] - 1.0) < 1e-9


def test_cluster_mean_is_accurate_for_double_roots():
    p = Polynomial.from_roots([0.0, 0.0, 1.0, 1.0])
    for center, mult in p.clustered_roots():
        assert mult == 2
        assert min(abs(center), abs(center - 1.0)) < 1e-12


def test_pole_orders():
    r = make_rational([1.0], [0.0, 0.0, 1.0, -2.0, 1.0])  # 1/(z^2 (z-1)^2)
    poles = sorted(r.poles(), key=lambda p: p[0].real)
    assert [m for _, m in poles] == [2, 2]
    order, loc = r.pole_order_at(0j)
    assert order == 2 and abs(loc) < 1e-9


def _match(found, exact):
    """Largest |found - exact| / max(1, |exact|) over a greedy pairing."""
    left, worst = list(found), 0.0
    for r in exact:
        j = min(range(len(left)), key=lambda j: abs(left[j] - r))
        worst = max(worst, abs(left.pop(j) - r) / max(1.0, abs(r)))
    return worst


def test_roots_against_mpmath_polyroots():
    """Seeded complex polynomials of degree 1 to 8: every root within 1e-12
    (relative) of mpmath's at 40 digits."""
    import mpmath

    rng = np.random.default_rng(19)
    for degree in range(1, 9):
        for _ in range(10):
            c = [complex(x, y) for x, y in rng.normal(0, 1, (degree + 1, 2))]
            with mpmath.workdps(40):
                exact = [complex(r) for r in mpmath.polyroots(
                    [mpmath.mpc(a.real, a.imag) for a in reversed(c)],
                    maxsteps=200, extraprec=200)]
            found = Polynomial(c).roots()
            assert len(found) == degree
            assert _match(found, exact) <= 1e-12, (c, found, exact)


@pytest.mark.parametrize("coeffs, want", [
    ([1, 0, -2, 0, 1], [(-1, 2), (1, 2)]),                         # (1 - x^2)^2
    ([0, 0, 0, 1], [(0, 3)]),                                       # z^3
    (Polynomial.from_roots([1, 1, 2.5 + 0.5j]).coeffs,
     [(1, 2), (2.5 + 0.5j, 1)]),                                    # (z-1)^2 (z-f)
    (Polynomial.from_roots([1, 1, 1, -2]).coeffs, [(-2, 1), (1, 3)]),
])
def test_multiple_roots_exact_multiplicity(coeffs, want):
    """Centres within 1e-12 and exact multiplicities: the cluster mean is
    off by about eps**(1/m), and the Newton polish on P^(m-1) removes that."""
    got = Polynomial(coeffs).clustered_roots()
    assert [m for _, m in got] == [m for _, m in want]
    for (center, _), (loc, _) in zip(got, want):
        assert abs(center - loc) <= 1e-12


def test_zero_coefficients_give_exact_zero_roots():
    p = Polynomial([0, 0, 0, 4.0])
    assert p.roots() == [0j, 0j, 0j]
    assert p.clustered_roots() == [(0j, 3)]


_centers = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_centers, st.lists(st.integers(1, 3), min_size=4, max_size=4))
def test_from_roots_round_trip(centers, mults):
    """from_roots(r).clustered_roots() gives back r: the distinct centres
    (at least 0.5 apart) to 1e-9 and their multiplicities exactly."""
    assume(all(abs(a - b) >= 0.5 for i, a in enumerate(centers)
               for b in centers[:i]))
    want = list(zip(centers, mults))
    p = Polynomial.from_roots([r for r, m in want for _ in range(m)])
    got = p.clustered_roots()
    assert len(got) == len(want)
    for r, k in want:
        center, m = min(got, key=lambda c: abs(c[0] - r))
        assert m == k and abs(center - r) <= 1e-9 * max(1.0, abs(r)), (want, got)
