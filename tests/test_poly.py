import numpy as np
import pytest

from heunkit.errors import ZeroDenominator
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


def test_limit_coefficient():
    # residue of (2z + 3)/(z(z-1)) at 0 is -3
    r = make_rational([3.0, 2.0], [0.0, -1.0, 1.0])
    assert abs(r.limit_coefficient(0j, 1) - (-3.0)) < 1e-12
    # and the double-pole coefficient there is 0 by convention order-2 limit
    r2 = make_rational([1.0], [0.0, 1.0])
    assert abs(r2.limit_coefficient(0j, 2)) < 1e-12
