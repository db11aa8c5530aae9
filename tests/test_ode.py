import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from heunkit.corpus import canonical_corpus
from heunkit.errors import NotRegular, PoleAtSample
from heunkit.ode import (LinearODE, PointKind, _classify_at,
                         classify_singularities, fuchs_exponent_sum,
                         indicial_exponents, ode_residual,
                         singularity_signature)
from heunkit.heun import GeneralHeunParams, general_heun
from mpmath_reference import gauss_sample


def signature_of(ode):
    return singularity_signature(classify_singularities(ode))


def hypergeometric_ode(a, b, c):
    return LinearODE.from_polynomials([0, 1, -1], [c, -(1 + a + b)], [-a * b])


def test_constant_solution_equation_residual():
    ode = LinearODE.from_polynomials([1], [0], [0])
    samples = [(z, 1.0, 0.0, 0.0) for z in (0.0, 1.5, -2.0 + 1.0j)]
    assert ode_residual(ode, samples) == 0.0


def test_harmonic_residual():
    ode = LinearODE.from_polynomials([1], [0], [1])
    samples = [(z, cmath.sin(z), cmath.cos(z), -cmath.sin(z))
               for z in (0.3, 1.1, 2.0 - 0.5j)]
    assert ode_residual(ode, samples) <= 1e-12


def test_hypergeometric_series_residual():
    a, b, c = 0.31, 0.77, 1.23
    samples = [gauss_sample(a, b, c, z) for z in (0.1, 0.25 + 0.1j, -0.3)]
    assert ode_residual(hypergeometric_ode(a, b, c), samples) <= 1e-10


def test_residual_rejects_sample_on_pole():
    ode = hypergeometric_ode(0.3, 0.7, 1.1)
    with pytest.raises(PoleAtSample):
        ode_residual(ode, [(0.0, 1.0, 0.0, 0.0)])


def test_classify_euler_type():
    # z w'' + (1+a) w' = 0: regular at 0 and infinity
    ode = LinearODE.from_polynomials([0, 1], [1.7], [0])
    assert signature_of(ode) == {0j: "regular", "inf": "regular"}


def test_classify_hypergeometric():
    sig = signature_of(hypergeometric_ode(0.31, 0.77, 1.23))
    assert sig == {0j: "regular", (1 + 0j): "regular", "inf": "regular"}


def test_classify_confluent_hypergeometric():
    ode = LinearODE.from_polynomials([0, 1], [1.23, -1], [-0.31])
    assert signature_of(ode) == {0j: "regular", "inf": "irregular"}


def test_one_regular_point_at_infinity():
    ode = LinearODE.from_polynomials([1], [0], [0])
    pts = classify_singularities(ode)
    assert len(pts) == 1
    pt = pts[0]
    assert pt.at_infinity and pt.kind is PointKind.REGULAR
    assert sorted(e.real for e in pt.exponents) == [-1.0, 0.0]


def test_infinity_reported_even_when_ordinary():
    # w'' + (2/z) w' = 0 has an ordinary point at infinity
    ode = LinearODE.from_polynomials([0, 1], [2.0], [0])
    pts = classify_singularities(ode)
    inf = [p for p in pts if p.at_infinity]
    assert len(inf) == 1 and inf[0].kind is PointKind.ORDINARY


@pytest.mark.parametrize("A, B, C, kind, rank, exponents", [
    # p = (2 + 1e-6)/z: the residue of P at t = 0 is -1e-6, above TAU_GCD
    ([0, 1], [2.0 + 1e-6], [0], PointKind.REGULAR, 0, (1.0 + 1e-6, 0.0)),
    # p == 0: w'' - 2 w / z**2 = 0 has the solutions z**2 and 1/z
    ([0, 0, 1], [0], [-2.0], PointKind.REGULAR, 0, (1.0, -2.0)),
    ([0, 0, 0, 0, 1], [0], [1.0], PointKind.REGULAR, 0, (0.0, -1.0)),
    # q == 0: z w'' + 1.7 w' = 0 has the solutions 1 and z**-0.7
    ([0, 1], [1.7], [0], PointKind.REGULAR, 0, (0.7, 0.0)),
    # q == 0 and p with a polynomial part of degree k_p: rank k_p + 1
    ([1], [0, 0, 1], [0], PointKind.IRREGULAR, 3, None),
    ([0, 1], [1, 0, 0, 1], [0], PointKind.IRREGULAR, 3, None),
    ([0, 1], [1, 1], [0], PointKind.IRREGULAR, 1, None),
    ([1], [0, 0, 0, 0, 1], [0], PointKind.IRREGULAR, 5, None),
])
def test_infinity_known_answers(A, B, C, kind, rank, exponents):
    pt = classify_singularities(LinearODE.from_polynomials(A, B, C))[-1]
    assert pt.at_infinity and pt.kind is kind and pt.rank == rank
    if exponents is None:
        assert pt.exponents is None
    else:
        assert max(abs(x - y) for x, y in zip(pt.exponents, exponents)) < 1e-12


def test_heun_exponents_at_infinity_are_a_and_b():
    """DLMF 31.1: the exponents at infinity are {a, b}; draws as in the
    accepted half of acceptance criterion 2."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.5, (4, 2)))
        e = a + b + 1.0 - c - d
        params = GeneralHeunParams(a, b, c, d, e, rng.uniform(1.5, 10.0),
                                   complex(*rng.normal(0, 0.3, 2)))
        got = indicial_exponents(general_heun(params), None)
        scale = max(1.0, abs(a), abs(b))
        assert min(abs(got[0] - a) + abs(got[1] - b),
                   abs(got[0] - b) + abs(got[1] - a)) <= 1e-12 * scale


def test_corpus_general_heun_double_exponent_is_exact():
    (ode,) = [ode for name, ode, _ in canonical_corpus()
              if name == "general-heun"]
    assert indicial_exponents(ode, None) == (1, 1)


def test_corpus_exponents_have_no_negative_zero():
    for name, ode, _ in canonical_corpus():
        for pt in classify_singularities(ode):
            for x in pt.exponents or ():
                for part in (x.real, x.imag):
                    assert part != 0 or math.copysign(1.0, part) > 0, (name, pt)


def _at_reciprocal(A, B, C):
    """The equation for v(t) = w(1/t), given A w'' + B w' + C w = 0:
    t**4 A(1/t) v'' + (2 t**3 A(1/t) - t**2 B(1/t)) v' + C(1/t) v = 0,
    times t**n for polynomial coefficients, with the common power of t
    cancelled."""
    n = max(len(A), len(B), len(C)) - 1

    def rev(P, shift):  # t**(n + shift) * P(1/t), ascending
        out = [0j] * (n + 5)
        for i, c in enumerate(P):
            out[n + shift - i] += c
        return out

    At = rev(A, 4)
    Bt = [2 * x - y for x, y in zip(rev(A, 3), rev(B, 2))]
    Ct = rev(C, 0)
    low = min(next((k for k, c in enumerate(P) if c), len(P))
              for P in (At, Bt, Ct))
    return At[low:], Bt[low:], Ct[low:]


_COEFFS = st.lists(st.builds(complex, st.integers(-4, 4), st.integers(-1, 1)),
                   min_size=1, max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_COEFFS, _COEFFS, _COEFFS)
def test_infinity_matches_substituted_equation(A, B, C):
    """Infinity read off degrees and leading coefficients agrees with the
    finite-point classifier at t = 0 of the equation substituted directly
    into A, B and C."""
    assume(any(A))
    ode = LinearODE.from_polynomials(A, B, C)
    if not ode.p.is_zero and ode.p.num.degree - ode.p.den.degree == -1:
        residue = 2.0 - ode.p.num.coeffs[-1] / ode.p.den.coeffs[-1]
        assume(residue == 0 or abs(residue) > 1e-6)
    got = classify_singularities(ode)[-1]
    want = _classify_at(LinearODE.from_polynomials(*_at_reciprocal(A, B, C)),
                        0j)
    assert (got.kind, got.rank) == (want.kind, want.rank)
    if want.exponents is not None:
        assert max(abs(x - y)
                   for x, y in zip(got.exponents, want.exponents)) <= 1e-8


def test_harmonic_rank_at_infinity():
    ode = LinearODE.from_polynomials([1], [0], [1])
    (pt,) = classify_singularities(ode)
    assert pt.at_infinity and pt.kind is PointKind.IRREGULAR
    assert pt.rank == Fraction(1)


def test_half_integer_rank_uniform_field():
    # V'' + (E/2 + beta/x + (F/4) x + (1-m^2)/(4x^2)) V = 0 has rank 3/2
    # at infinity when the linear field term is on
    ode = LinearODE.from_polynomials([0, 0, 1.0], [0],
                                     [0.25, 0.5, -0.25, 0.0025])
    pts = {("inf" if p.at_infinity else p.location): p
           for p in classify_singularities(ode)}
    assert pts["inf"].rank == Fraction(3, 2)


def test_indicial_exponents_heun_centers():
    params = GeneralHeunParams(0.31 + 0.2j, 0.77, 1.23, 0.62,
                               0.31 + 0.2j + 0.77 + 1 - 1.23 - 0.62, 2.5, 0.4)
    ode = general_heun(params)
    r0 = indicial_exponents(ode, 0j)
    assert min(abs(x) for x in r0) < 1e-10
    assert min(abs(x - (1 - params.c)) for x in r0) < 1e-10
    r1 = indicial_exponents(ode, 1.0 + 0j)
    assert min(abs(x - (1 - params.d)) for x in r1) < 1e-10


def test_indicial_requires_regular_point():
    ode = LinearODE.from_polynomials([1], [0], [1])  # infinity irregular
    with pytest.raises(NotRegular):
        indicial_exponents(ode, None)
    with pytest.raises(NotRegular):
        indicial_exponents(ode, 0.3)  # ordinary point


def test_imaginary_exponent_pair():
    # w'' + (1/(u-1) + 1/u) w' + [m^2/(4u^2(1-u)^2) + ...] w = 0 at u = 0
    m, ka2 = 0.8, 1.0
    ode = LinearODE.from_coefficients(
        [-1.0, 2.0], [0.0, -1.0, 1.0],
        [m * m, ka2, -3.0 * ka2, 2.0 * ka2], [0.0, 0.0, 4.0, -8.0, 4.0])
    r = indicial_exponents(ode, 0j)
    assert abs(r[0] - complex(0, m / 2)) < 1e-9
    assert abs(r[1] - complex(0, -m / 2)) < 1e-9


def test_fuchs_sum_for_heun_is_two():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.5, (4, 2)))
        e = a + b + 1 - c - d
        f = 2.0 + rng.uniform(0, 3)
        params = GeneralHeunParams(a, b, c, d, e, f, complex(*rng.normal(0, 0.3, 2)))
        total, count = fuchs_exponent_sum(general_heun(params))
        assert count == 4
        assert abs(total - 2.0) < 1e-8


def test_regularity_criterion_matches_independent_pole_orders():
    """Classifier kind must agree with pole orders estimated independently
    by the growth rate of |p|, |q| on shrinking circles."""
    rng = np.random.default_rng(11)

    def estimated_order(fun, z0):
        eps1, eps2 = 1e-3, 5e-4
        vals = []
        for eps in (eps1, eps2):
            acc = 0.0
            for ang in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                acc += abs(fun(z0 + eps * cmath.exp(1j * ang)))
            vals.append(acc / 8)
        order = math.log(vals[1] / vals[0]) / math.log(eps1 / eps2)
        return max(0, round(order))

    for _ in range(100):
        # random rational ODE with poles from a small set
        locs = [0.0, 1.0, -1.0, 2.0]
        pden = [1.0]
        qden = [1.0]
        import heunkit.poly as hp
        pden_poly = hp.Polynomial.from_roots(
            rng.choice(locs, size=rng.integers(0, 3), replace=True))
        qden_poly = hp.Polynomial.from_roots(
            rng.choice(locs, size=rng.integers(0, 4), replace=True))
        pnum = list(rng.normal(0, 1, 2))
        qnum = list(rng.normal(0, 1, 2))
        ode = LinearODE.from_coefficients(pnum, pden_poly.coeffs,
                                          qnum, qden_poly.coeffs)
        for pt in classify_singularities(ode):
            if pt.at_infinity:
                continue
            op = estimated_order(ode.p, pt.location)
            oq = estimated_order(ode.q, pt.location)
            expect_regular = op <= 1 and oq <= 2
            assert (pt.kind is PointKind.REGULAR) == expect_regular, \
                (pt, op, oq)


def test_classification_invariant_under_translation():
    params = GeneralHeunParams(0.31, 0.77, 1.23, 0.62,
                               0.31 + 0.77 + 1 - 1.23 - 0.62, 2.5, 0.4)
    ode = general_heun(params)
    shift = 2.5  # relabel z -> z - f
    shifted = ode.shifted(shift)
    orig = classify_singularities(ode)
    moved = classify_singularities(shifted)
    orig_kinds = {}
    for p in orig:
        key = "inf" if p.at_infinity else complex(round(p.location.real, 6),
                                                  round(p.location.imag, 6))
        orig_kinds[key] = p.kind
    for p in moved:
        if p.at_infinity:
            assert orig_kinds["inf"] == p.kind
        else:
            back = p.location + shift
            key = complex(round(back.real, 6), round(back.imag, 6))
            assert orig_kinds[key] == p.kind
