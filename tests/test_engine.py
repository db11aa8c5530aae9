import cmath
import math

import numpy as np
import pytest

from heunkit.engine import (ComplexPath, SolutionState, connection_matrix,
                            integrate_callable, integrate_p_along,
                            integrate_path, loop_transfer_matrix,
                            wronskian_abel_check)
from heunkit.errors import (DegenerateSystem, IllConditioned, InvalidTolerance,
                            NonFiniteInput, SingularityTooClose,
                            StepUnderflow, UnknownCenter)
from heunkit.heun import GeneralHeunParams, general_heun, heun_value
from heunkit.ode import LinearODE
from heunkit.poly import Polynomial
from scipy_reference import dop853, quad_p_along


def harmonic():
    return LinearODE.from_polynomials([1], [0], [1])


def heun_test_params(seed=0, f_range=(1.8, 5.0)):
    rng = np.random.default_rng(seed)
    while True:
        a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.35, (4, 2)))
        e = a + b + 1 - c - d
        f = rng.uniform(*f_range)
        q = complex(*rng.normal(0, 0.25, 2))
        ok = True
        for gap in (1 - c, 1 - d, 1 - e):
            if abs(gap.imag) < 0.05 and abs(gap.real - round(gap.real)) < 0.05:
                ok = False
        if ok:
            return GeneralHeunParams(a, b, c, d, e, f, q)


def test_sine_integration():
    st = integrate_path(harmonic(), SolutionState(0.0, 0.0, 1.0),
                        ComplexPath((0.0, math.pi / 2)), tol=1e-12)
    assert abs(st.w - 1.0) <= 1e-10
    assert abs(st.dw) <= 1e-10


def test_constant_solution_any_path():
    ode = LinearODE.from_polynomials([1], [0], [0])
    st = integrate_path(ode, SolutionState(0.0, 1.0, 0.0),
                        ComplexPath((0.0, 1.0 + 1.0j, -2.0 + 0.5j)), tol=1e-12)
    assert abs(st.w - 1.0) <= 1e-12
    assert abs(st.dw) <= 1e-12


def test_series_continuation_agreement():
    params = heun_test_params(1)
    ode = general_heun(params)
    direction = cmath.exp(2.4j)
    z0 = 0.04 * direction
    z1 = 0.5 * direction
    val0, _ = heun_value(params, 0, "first", z0)
    st = integrate_path(ode, SolutionState(z0, val0.w, val0.dw),
                        ComplexPath((z0, z1)), tol=1e-11)
    val1, _ = heun_value(params, 0, "first", z1)
    assert abs(st.w - val1.w) <= 1e-8 * max(1.0, abs(val1.w))
    assert abs(st.dw - val1.dw) <= 1e-8 * max(1.0, abs(val1.dw))


def test_clearance_guard():
    params = heun_test_params(2)
    ode = general_heun(params)
    with pytest.raises(SingularityTooClose):
        integrate_path(ode, SolutionState(0.5, 1.0, 0.0),
                       ComplexPath((0.5, 1.5)), tol=1e-10)  # passes through 1


def test_abel_p_zero():
    ode = harmonic()
    path = ComplexPath((0.0, 1.2))
    s1a = SolutionState(0.0, 0.0, 1.0)
    s2a = SolutionState(0.0, 1.0, 0.0)
    s1b = integrate_path(ode, s1a, path, 1e-12)
    s2b = integrate_path(ode, s2a, path, 1e-12)
    dev = wronskian_abel_check(ode, (s1a, s2a), (s1b, s2b), path)
    assert dev <= 1e-10


def test_abel_heun_pair():
    params = heun_test_params(3)
    ode = general_heun(params)
    direction = cmath.exp(2.0j)
    z0 = 0.05 * direction
    z1 = 0.45 * direction
    path = ComplexPath((z0, z1))
    pairs = []
    for branch in ("first", "second"):
        v, _ = heun_value(params, 0, branch, z0)
        start = SolutionState(z0, v.w, v.dw)
        pairs.append((start, integrate_path(ode, start, path, 1e-11)))
    dev = wronskian_abel_check(ode, (pairs[0][0], pairs[1][0]),
                               (pairs[0][1], pairs[1][1]), path)
    assert dev <= 1e-8


def test_abel_degenerate_pair():
    ode = harmonic()
    s1 = SolutionState(0.0, 1.0, 0.5)
    s2 = SolutionState(0.0, 2.0, 1.0)  # proportional
    with pytest.raises(DegenerateSystem):
        wronskian_abel_check(ode, (s1, s2), (s1, s2), ComplexPath((0.0, 1.0)))


def _p_only(num, den):
    """w'' + p w' = 0 with p = num / den, Polynomials or coefficient lists."""
    num, den = (x.coeffs if isinstance(x, Polynomial) else x for x in (num, den))
    return LinearODE.from_coefficients(num, den, [0], [1])


_S = 1.0 + 1.0j  # p's pole in the branch-cut case
_ABEL_CASES = {
    "heun-24-gon": (general_heun(heun_test_params(3)),
                    ComplexPath.circle(0j, 0.5, n=24)),
    # p = 1/z^2 + 1/(z - 1)
    "double-pole": (_p_only([-1, 1, 1], [0, 0, -1, 1]),
                    ComplexPath((0.5 + 0.5j, -0.4 + 0.6j, -0.5 - 0.5j,
                                 0.3 - 0.6j))),
    # p = z + 1/(z - 2)
    "polynomial-part": (_p_only([1, -2, 1], [-2, 1]),
                        ComplexPath((0.0, 1.0 + 1.0j, 3.0 + 1.0j, 3.0 - 1.0j))),
    # p = (0.3 - 0.2i)/(z - s) + 2/(z + 1) on a path that crosses the ray
    # left of s, where Log(z - s) jumps, five times
    "branch-cut": (_p_only(Polynomial((1, 1)) * (0.3 - 0.2j)
                           + Polynomial((-_S, 1)) * 2.0,
                           Polynomial((-_S, 1)) * Polynomial((1, 1))),
                   ComplexPath(tuple(_S + 0.8 * cmath.exp(1j * math.pi * t)
                                     for t in (0.5, 1.2, 0.9, 1.3, 0.8,
                                               1.6, 2.4)))),
}


@pytest.mark.parametrize("case", sorted(_ABEL_CASES))
def test_abel_closed_form_matches_quadrature(case):
    ode, path = _ABEL_CASES[case]
    got = integrate_p_along(ode, path)
    want = quad_p_along(ode, path)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def test_abel_rejects_segment_through_pole():
    ode = general_heun(heun_test_params(2))
    pair = (SolutionState(0.5, 1.0, 0.0), SolutionState(0.5, 0.0, 1.0))
    with pytest.raises(SingularityTooClose):  # passes through z = 1
        wronskian_abel_check(ode, pair, pair, ComplexPath((0.5, 1.5)))


def test_callable_matches_dop853_on_boundary_equation():
    """The T-equation of boundary-dirac, f'' + tan T f' + q(T) f = 0, on
    the straight run from 0.15 to 1.25, against scipy's DOP853: as one
    segment (the scenario's path) and as 40 pieces, where every vertex
    ends a Taylor step."""
    from heunkit.scenarios import _boundary_trig_ode

    trig = _boundary_trig_ode(1.0, 0.3)
    for path in (ComplexPath((0.15, 1.25)),
                 ComplexPath(tuple(np.linspace(0.15, 1.25, 41)))):
        for w0, dw0 in ((1.0, 0.0), (0.0, 1.0)):
            start = SolutionState(0.15, w0, dw0)
            got = integrate_callable(trig.p, trig.q, start, path, tol=1e-11,
                                     singular_points=trig.poles)
            want = dop853(trig.p, trig.q, start, path, tol=1e-13)
            scale = max(1.0, abs(want.w), abs(want.dw))
            assert (max(abs(got.w - want.w), abs(got.dw - want.dw))
                    <= 1e-10 * scale)


def test_callable_unlisted_pole():
    """f = sin T solves f'' + tan T f' = 0. With the poles of tan not
    listed, a path ending near pi/2 is within 1e-10 or raises
    StepUnderflow; one ending on the pole or crossing it raises."""
    def solve(end):
        return integrate_callable(lambda t: cmath.tan(t), lambda t: 0.0,
                                  SolutionState(0.0, 0.0, 1.0),
                                  ComplexPath((0.0, end)), tol=1e-11)

    for end in (math.pi / 2 - 1e-3, math.pi / 2 - 1e-6):
        try:
            st = solve(end)
        except StepUnderflow:
            continue
        assert abs(st.w - math.sin(end)) <= 1e-10
        assert abs(st.dw - math.cos(end)) <= 1e-10
    for end in (math.pi / 2, 2.0):
        with pytest.raises(StepUnderflow):
            solve(end)


def test_callable_radius_halvings_count_as_steps(monkeypatch):
    """w'' + w'/(t - s) = 0 with s = 0.05i not listed: the one step from 0
    to 0.01 needs the sample radius halved from 1 to 1/32, six tries."""
    import heunkit.engine as engine

    s = 0.05j

    def solve():
        return integrate_callable(lambda t: 1.0 / (t - s), lambda t: 0.0,
                                  SolutionState(0.0, 0.0, 1.0),
                                  ComplexPath((0.0, 0.01)), tol=1e-11)

    monkeypatch.setattr(engine, "MAX_STEPS", 6)
    st = solve()
    assert abs(st.w + s * cmath.log((0.01 - s) / -s)) <= 1e-12
    assert abs(st.dw + s / (0.01 - s)) <= 1e-12
    monkeypatch.setattr(engine, "MAX_STEPS", 5)
    with pytest.raises(StepUnderflow):
        solve()


def test_connection_identity():
    params = heun_test_params(4)
    C = connection_matrix(params, 0, 0, tol=1e-11)
    assert np.max(np.abs(C.as_array() - np.eye(2))) <= 1e-10


def test_connection_classical_hypergeometric_values():
    a, b, c = 0.3, 0.7, 1.25
    f = 3.0
    params = GeneralHeunParams(a, b, c, a + b + 1 - c, 0.0, f, a * b * f)
    C = connection_matrix(params, 0, 1, tol=1e-11)
    rho = c - a - b
    g1 = math.gamma(c) * math.gamma(c - a - b) / (
        math.gamma(c - a) * math.gamma(c - b))
    g2 = math.gamma(c) * math.gamma(a + b - c) / (math.gamma(a) * math.gamma(b))
    expected = (g1, g2 * cmath.exp(-1j * math.pi * rho))
    assert abs(C.entries[0][0] - expected[0]) <= 1e-6
    assert abs(C.entries[0][1] - expected[1]) <= 1e-6


def test_connection_ill_conditioned_target_basis():
    # d = 1 - 3e-9: exponents 0 and 3e-9 at 1, so the two target branches
    # are nearly the same function at the matching point
    a, b, c, d = 0.3, 0.4, 1.2, 1 - 3e-9
    params = GeneralHeunParams(a, b, c, d, a + b + 1 - c - d, 2.5, 0.3)
    with pytest.raises(IllConditioned, match=r"condition number 1\.6\d*e\+08"):
        connection_matrix(params, 0, 1)


def test_connection_rejects_path_through_singularity():
    params = heun_test_params(5)
    bad = ComplexPath((0.3, params.f / 2 + 0.0j, params.f - 0.3))
    # the straight real-axis path passes through z = 1
    with pytest.raises(SingularityTooClose):
        connection_matrix(params, 0, "f", path=bad, tol=1e-10)


def test_connection_composition():
    params = heun_test_params(6)
    C01 = connection_matrix(params, 0, 1, tol=1e-11)
    C1f = connection_matrix(params, 1, "f", tol=1e-11)
    C0f = connection_matrix(params, 0, "f", tol=1e-11)
    prod = (C01 @ C1f).as_array()
    scale = np.max(np.abs(C0f.as_array()))
    assert np.max(np.abs(prod - C0f.as_array())) <= 100 * 1e-11 * max(1, scale)


def test_path_independence_same_homotopy_class():
    params = heun_test_params(7)
    ode = general_heun(params)
    z0 = 0.3 + 0.4j
    z1 = -0.5 + 0.2j
    v, _ = heun_value(params, 0, "first", z0)
    init = SolutionState(z0, v.w, v.dw)
    direct = integrate_path(ode, init, ComplexPath((z0, z1)), 1e-11)
    detour = integrate_path(ode, init,
                            ComplexPath((z0, 0.1 + 0.7j, -0.4 + 0.6j, z1)),
                            1e-11)
    assert abs(direct.w - detour.w) <= 10 * 1e-11 * max(1, abs(direct.w))
    assert abs(direct.dw - detour.dw) <= 10 * 1e-11 * max(1, abs(direct.dw))


def test_trivial_monodromy():
    params = heun_test_params(8)
    ode = general_heun(params)
    loop = ComplexPath.circle(0.5 + 0.5j, 0.12, n=16)
    M = loop_transfer_matrix(ode, loop, tol=1e-11)
    assert np.max(np.abs(M.as_array() - np.eye(2))) <= 10 * 1e-11


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0, 1.0,
                                 "tight"])
def test_tolerance_validation(bad):
    from heunkit.engine import check_tolerance

    with pytest.raises(InvalidTolerance):
        check_tolerance(bad)
    ode = harmonic()
    with pytest.raises(InvalidTolerance):
        integrate_path(ode, SolutionState(0.0, 0.0, 1.0),
                       ComplexPath((0.0, 1.0)), tol=bad)
    with pytest.raises(InvalidTolerance):
        loop_transfer_matrix(ode, ComplexPath.circle(0j, 1.0, n=8), tol=bad)
    with pytest.raises(InvalidTolerance):
        connection_matrix(heun_test_params(4), 0, 1, tol=bad)


def test_tolerance_below_floor_is_raised_to_it():
    from heunkit.engine import MIN_TOL, check_tolerance

    assert check_tolerance(1e-30) == MIN_TOL
    assert check_tolerance(1e-9) == 1e-9
    st = integrate_path(harmonic(), SolutionState(0.0, 0.0, 1.0),
                        ComplexPath((0.0, 1.0)), tol=1e-30)
    assert abs(st.w - math.sin(1.0)) <= 1e-13


@pytest.mark.parametrize("vertex", [float("inf"), complex(0.0, float("nan")),
                                    complex(float("-inf"), 1.0)])
def test_path_rejects_non_finite_vertices(vertex):
    with pytest.raises(NonFiniteInput):
        ComplexPath((0.0, vertex))


def test_taylor_caps_raise_step_underflow(monkeypatch):
    import heunkit.engine as engine

    ode = harmonic()
    with pytest.raises(StepUnderflow):  # no series reaches tol on nan data
        integrate_path(ode, SolutionState(0.0, float("nan"), 1.0),
                       ComplexPath((0.0, 1.0)))
    monkeypatch.setattr(engine, "MAX_STEPS", 3)
    with pytest.raises(StepUnderflow):  # steps are at most 2 long here
        integrate_path(ode, SolutionState(0.0, 0.0, 1.0),
                       ComplexPath((0.0, 10.0)))


def test_one_pass_matches_single_solutions():
    params = heun_test_params(9)
    ode = general_heun(params)
    loop = ComplexPath.circle(0j, 0.5, n=24)
    M = loop_transfer_matrix(ode, loop, tol=1e-11).as_array()
    z0 = loop.vertices[0]
    for col, (w0, dw0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        st = integrate_path(ode, SolutionState(z0, w0, dw0), loop, tol=1e-11)
        assert abs(st.w - M[0, col]) <= 1e-10 * max(1.0, abs(st.w))
        assert abs(st.dw - M[1, col]) <= 1e-10 * max(1.0, abs(st.dw))


def test_center_labels_and_unknown_center():
    params = heun_test_params(10)
    by_label = connection_matrix(params, "zero", "f", tol=1e-11).as_array()
    by_value = connection_matrix(params, 0, params.f, tol=1e-11).as_array()
    assert np.array_equal(by_label, by_value)
    for bad in ("x", 0.5):
        with pytest.raises(UnknownCenter):
            connection_matrix(params, bad, 1)
    assert issubclass(UnknownCenter, ValueError)
