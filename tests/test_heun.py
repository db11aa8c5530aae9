import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heunkit.errors import (CollidingSingularities, DegenerateReduction,
                            FuchsViolation, LogarithmicCase, NotReducible,
                            OutsideRadius, UnknownKind)
from heunkit.heun import (COLLISION_TOL, ConfluentFormParams,
                          GeneralHeunParams, SIGNATURES,
                          anharmonic_to_biconfluent, build_confluent_form,
                          double_confluent_to_mathieu, general_heun,
                          heun_recurrence_residual, heun_series, heun_value)
from heunkit.ode import PointKind, classify_singularities, ode_residual, \
    singularity_signature
from heunkit.series import eval_local
from heunkit.hypergeometric import gauss_2f1


def random_params(rng, f_range=(1.5, 6.0), tame=True):
    while True:
        a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.4, (4, 2)))
        e = a + b + 1 - c - d
        f = rng.uniform(*f_range)
        q = complex(*rng.normal(0, 0.3, 2))
        try:
            params = GeneralHeunParams(a, b, c, d, e, f, q)
        except (FuchsViolation, CollidingSingularities):
            continue
        if tame:
            # keep both branches available at 0
            gap = 1.0 - c
            if abs(gap.imag) < 0.05 and abs(gap.real - round(gap.real)) < 0.05:
                continue
        return params


def test_general_heun_classifies_four_regular_points():
    params = GeneralHeunParams(1, 1, 1, 1, 1, 2, 0)
    sig = singularity_signature(classify_singularities(general_heun(params)))
    assert sig == {0j: "regular", 1 + 0j: "regular", 2 + 0j: "regular",
                   "inf": "regular"}


def test_fuchs_violation_rejected():
    with pytest.raises(FuchsViolation):
        GeneralHeunParams(1, 1, 1, 1, 1.5, 2, 0)


def test_colliding_singularities_rejected():
    with pytest.raises(CollidingSingularities):
        GeneralHeunParams(1, 1, 1, 1, 1, 1, 0)
    with pytest.raises(CollidingSingularities):
        GeneralHeunParams(1, 1, 1, 1, 1, 1e-13, 0)


_PARAM = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-0.5, 0.5))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=_PARAM, b=_PARAM, c=_PARAM, d=_PARAM, q=_PARAM,
       base=st.sampled_from([0.0, 1.0]), log_offset=st.floats(-5.0, -3.0),
       turn=st.floats(0.0, 2.0 * math.pi))
@example(a=0.31, b=0.77, c=1.23, d=0.65, q=0.4, base=1.0,
         log_offset=math.log10(5e-5), turn=0.0)
@example(a=0.31, b=0.77, c=1.23, d=0.65, q=0.4, base=0.0,
         log_offset=math.log10(5e-5), turn=0.0)
@example(a=0.31, b=0.77, c=1.23, d=0.65, q=0.4, base=1.0,
         log_offset=math.log10(2e-4), turn=0.0)
def test_fuchs_gate_near_colliding_points(a, b, c, d, q, base, log_offset,
                                          turn):
    """An f within 1e-3 of 0 or 1 is refused as colliding, or it gives
    exactly four regular points, 0, 1, f and infinity, with the exponents
    {0, 1-c}, {0, 1-d}, {0, 1-e} and {a, b} (DLMF 31.2). c, d and e stay
    off 0, so each finite point is singular, and a, b apart, so the pair at
    infinity is a well-conditioned root pair."""
    e = a + b + 1.0 - c - d
    assume(min(abs(c), abs(d), abs(e), abs(a - b)) >= 0.1)
    f = base + 10.0 ** log_offset * cmath.exp(1j * turn)
    try:
        params = GeneralHeunParams(a, b, c, d, e, f, q)
    except CollidingSingularities:
        assert min(abs(f), abs(f - 1.0)) <= COLLISION_TOL * max(1.0, abs(f))
        return
    points = classify_singularities(general_heun(params))
    want = {0j: (0, 1 - c), 1 + 0j: (0, 1 - d), params.f: (0, 1 - e),
            None: (a, b)}
    assert len(points) == 4 and {p.location for p in points} == set(want)
    for p in points:
        assert p.kind is PointKind.REGULAR, p
        (x1, x2), (y1, y2) = p.exponents, want[p.location]
        assert min(max(abs(x1 - y1), abs(x2 - y2)),
                   max(abs(x1 - y2), abs(x2 - y1))) <= 1e-9, p


def test_constant_series_when_forcing_vanishes():
    # a = 0, q = 0 makes w = 1 a solution
    params = GeneralHeunParams(0.0, 0.7, 0.9, 0.4, 0.4, 2.0, 0.0)
    ser = heun_series(params, 0, "first", 30)
    assert ser.coeffs[0] == 1.0
    assert max(abs(h) for h in ser.coeffs[1:]) < 1e-14
    val = eval_local(ser, 0.3)
    assert abs(val.w - 1.0) < 1e-14 and abs(val.dw) < 1e-14


def test_hypergeometric_degeneration_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = (complex(x, y) for x, y in rng.normal(0, 0.6, (2, 2)))
        c = complex(*rng.normal(0, 0.6, 2)) + 1.2  # keep away from poles
        if abs(c.imag) < 0.05 and abs(c.real - round(c.real)) < 0.05:
            continue
        f = rng.uniform(1.5, 8.0)
        d = a + b + 1 - c
        params = GeneralHeunParams(a, b, c, d, 0.0, f, a * b * f)
        ser = heun_series(params, 0, "first", 60)
        # reference: Gauss series coefficients by their two-term recurrence
        g = 1.0 + 0j
        for k in range(61):
            assert abs(ser.coeffs[k] - g) <= 1e-13 * max(1.0, abs(g)), k
            g *= (a + k) * (b + k) / ((c + k) * (k + 1.0))


def test_series_exponents_by_branch():
    params = random_params(np.random.default_rng(5))
    for center, second in ((0, 1 - params.c), (1, 1 - params.d),
                           (params.f, 1 - params.e)):
        first = heun_series(params, center, "first", 8)
        assert first.exponent == 0
        sec = heun_series(params, center, "second", 8)
        assert abs(sec.exponent - second) < 1e-12


def test_series_radius_is_distance_to_nearest_singularity():
    params = GeneralHeunParams(0.3, 0.4, 0.8, 0.5, 0.3 + 0.4 + 1 - 0.8 - 0.5,
                               3.0, 0.1)
    assert heun_series(params, 0, "first", 4).radius == 1.0
    assert heun_series(params, 1, "first", 4).radius == 1.0
    assert heun_series(params, 3.0, "first", 4).radius == 2.0


def test_logarithmic_case_detected():
    params = GeneralHeunParams(0.3, 0.4, 1.0, 0.5, 0.3 + 0.4 + 1 - 1.0 - 0.5,
                               2.0, 0.1)  # c = 1: equal exponents at 0
    with pytest.raises(LogarithmicCase):
        heun_series(params, 0, "second", 10)


def test_recurrence_resubstitution_residual():
    rng = np.random.default_rng(9)
    for _ in range(10):
        params = random_params(rng)
        for branch in ("first", "second"):
            ser = heun_series(params, 0, branch, 60)
            assert heun_recurrence_residual(params, ser) <= 1e-13


def test_eval_local_against_hypergeometric_oracle():
    a, b, c = 0.31, 0.77, 1.23
    f = 2.5
    params = GeneralHeunParams(a, b, c, a + b + 1 - c, 0.0, f, a * b * f)
    ser = heun_series(params, 0, "first", 80)
    z = 0.25
    val = eval_local(ser, z)
    ref = gauss_2f1(a, b, c, z)
    assert abs(val.w - ref) <= 1e-10 * abs(ref)


def test_eval_local_outside_radius():
    params = GeneralHeunParams(1, 1, 1, 1, 1, 2, 0)
    ser = heun_series(params, 0, "first", 10)
    with pytest.raises(OutsideRadius):
        eval_local(ser, 1.0)  # exactly on the radius
    with pytest.raises(OutsideRadius):
        eval_local(ser, 1.7)


def _mp_heun_coeffs(params, z0, rho, n_terms):
    """The module-docstring recurrence A_k h_{k+1} + B_k h_k + C_k h_{k-1}
    = 0 at 50 digits, with T, S, L expanded about z0 by hand."""
    import mpmath

    with mpmath.workdps(50):
        a, b, c, d, e, f, q, z0, rho = (mpmath.mpc(v) for v in (
            params.a, params.b, params.c, params.d, params.e, params.f,
            params.q, z0, rho))
        t = (3 * z0 ** 2 - 2 * (1 + f) * z0 + f, 3 * z0 - (1 + f), 1)
        s = (c * (z0 - 1) * (z0 - f) + d * z0 * (z0 - f) + e * z0 * (z0 - 1),
             2 * (c + d + e) * z0 - c * (1 + f) - d * f - e, c + d + e)
        l = (a * b * z0 - q, a * b)
        h = [mpmath.mpc(1)]
        for k in range(n_terms):
            x = k + rho
            A = t[0] * (x + 1) * x + s[0] * (x + 1)
            B = t[1] * x * (x - 1) + s[1] * x + l[0]
            C = t[2] * (x - 1) * (x - 2) + s[2] * (x - 1) + l[1]
            h.append(-(B * h[k] + (C * h[k - 1] if k else 0)) / A)
        return [complex(v) for v in h]


def test_series_against_fifty_digit_recurrence():
    """At 0, 1 and f, both branches, the series has the accuracy of the
    recurrence itself. With f in (1.5, 2) the radius at 1 and f is below 1
    and the coefficients grow like (f - 1)**-k, so a centre a few ulps off
    1 or f (T's root-found points) shows as an error near 4e-13."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(30):
        while True:
            a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.35, (4, 2)))
            e = a + b + 1 - c - d
            if all(abs(g.imag) >= 0.05 or abs(g.real - round(g.real)) >= 0.05
                   for g in (1 - c, 1 - d, 1 - e)):
                break
        params = GeneralHeunParams(a, b, c, d, e, rng.uniform(1.5, 2.0),
                                   complex(*rng.normal(0, 0.25, 2)))
        for center, z0, gap in ((0, 0, 1 - c), (1, 1, 1 - d),
                                ("f", params.f, 1 - e)):
            for branch, rho in (("first", 0), ("second", gap)):
                ser = heun_series(params, center, branch, 60)
                ref = _mp_heun_coeffs(params, z0, rho, 60)
                err = max(abs(x - y) for x, y in zip(ser.coeffs, ref))
                worst = max(worst, err / max(map(abs, ref)))
    assert worst <= 2e-13, worst


def test_heun_value_refines_truncation():
    """The series is as long as z needs: the term count grows as |z| nears
    the radius, and the tail estimate stays below the tolerance."""
    params = random_params(np.random.default_rng(13))
    counts = []
    for frac in (0.1, 0.45, 0.8, 0.95):
        z = frac * cmath.exp(2.0j)
        val, ser = heun_value(params, 0, "first", z, tail_tol=1e-13)
        assert val.tail <= 1e-13 * max(1.0, abs(val.w))
        counts.append(len(ser.coeffs))
    assert counts == sorted(set(counts)), counts


def test_heun_value_against_fifty_digit_recurrence():
    """w and w' at 0.7 of the radius, both branches at 0, 1 and f, against
    the 50-digit recurrence summed far past the tail: the tail rule weighs
    the derivative's terms by n/r, so w' meets the tolerance as w does."""
    rng = np.random.default_rng(7)
    worst_w = worst_dw = 0.0
    for _ in range(30):
        while True:
            a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.35, (4, 2)))
            e = a + b + 1 - c - d
            if all(abs(g.imag) >= 0.05 or abs(g.real - round(g.real)) >= 0.05
                   for g in (1 - c, 1 - d, 1 - e)):
                break
        params = GeneralHeunParams(a, b, c, d, e, rng.uniform(1.5, 4.0),
                                   complex(*rng.normal(0, 0.25, 2)))
        direction = cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        for center, z0, gap in ((0, 0, 1 - c), (1, 1, 1 - d),
                                ("f", params.f, 1 - e)):
            for branch, rho in (("first", 0), ("second", gap)):
                radius = heun_series(params, center, branch, 1).radius
                s = 0.7 * radius * direction
                val, _ = heun_value(params, center, branch, z0 + s)
                h = _mp_heun_coeffs(params, z0, rho, 160)
                w = s ** rho * sum(hk * s ** k for k, hk in enumerate(h))
                dw = s ** rho * sum((k + rho) * hk * s ** (k - 1)
                                    for k, hk in enumerate(h))
                worst_w = max(worst_w, abs(val.w - w) / max(1.0, abs(w)))
                worst_dw = max(worst_dw, abs(val.dw - dw) / max(1.0, abs(dw)))
    assert worst_w <= 1e-12, worst_w
    assert worst_dw <= 1e-11, worst_dw


def test_heun_value_at_gauss_degeneration():
    """e = 0, q = a*b*f: the Heun solution is 2F1(a, b; c; z), and its
    derivative a*b/c 2F1(a+1, b+1; c+1; z)."""
    import mpmath

    a, b, c, f = 0.31, 0.77, 1.23, 2.5
    params = GeneralHeunParams(a, b, c, a + b + 1 - c, 0.0, f, a * b * f)
    z = 0.6 + 0.3j
    val, _ = heun_value(params, 0, "first", z)
    with mpmath.workdps(30):
        w = complex(mpmath.hyp2f1(a, b, c, z))
        dw = complex(a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z))
    assert abs(val.w - w) <= 1e-12 * max(1.0, abs(w))
    assert abs(val.dw - dw) <= 1e-12 * max(1.0, abs(dw))


def test_heun_value_at_the_center():
    """At z = center the exponent-0 branch is (h_0, h_1); any other
    exponent has no value there and raises OutsideRadius."""
    params = random_params(np.random.default_rng(13))
    for center, z0 in ((0, 0.0), (1, 1.0), ("f", params.f)):
        val, _ = heun_value(params, center, "first", z0)
        h = heun_series(params, center, "first", 1).coeffs
        assert (val.w, val.dw, val.tail) == (h[0], h[1], 0.0)
        with pytest.raises(OutsideRadius):
            heun_value(params, center, "second", z0)


def test_heun_value_with_underflowing_leading_term():
    """|z**(1-c)| below the smallest float: the value is 0, not an error."""
    c = -399.5
    params = GeneralHeunParams(0.31, 0.77, c, 0.62, 0.31 + 0.77 + 1 - c - 0.62,
                               2.5, 0.4)
    val, _ = heun_value(params, 0, "second", 0.001)
    assert (val.w, val.dw) == (0, 0)


# --- confluent family ------------------------------------------------------


def test_confluent_signatures_match_table():
    generic = {
        "symmetric-confluent": {"p": 0.8, "beta": 0.37, "lam": 0.52,
                                "m": 0.29, "s": 0.41},
        "two-center-coulomb": {"p": 0.8, "beta": 0.37, "lam": 0.52, "m": 0.29},
        "spheroidal": {"p": 0.8, "lam": 0.52, "m": 0.29},
        "algebraic-mathieu": {"p": 0.8, "lam": 0.52},
        "double-confluent": {"alpha1": 0.55, "alpham1": 0.35, "B1": 0.2,
                             "B0": 0.3, "Bm1": 0.4},
        "biconfluent": {"A0": 0.3, "A1": 0.5, "A2": 0.7, "A3": 0.9},
        "anharmonic": {"E": 1.1, "nu": 0.3, "mu": 0.7, "lam": 0.4, "eta": 0.9},
        "triconfluent": {"A0": 0.2, "A1": 0.4, "A2": 0.6},
    }
    for kind, params in generic.items():
        ode = build_confluent_form(ConfluentFormParams(kind, params))
        sig = singularity_signature(classify_singularities(ode))
        expected = SIGNATURES[kind]
        assert len(sig) == len(expected), kind
        for loc, k in expected.items():
            if loc == "inf":
                assert sig["inf"] == k, kind
            else:
                hit = [ok for ol, ok in sig.items()
                       if ol != "inf" and abs(ol - loc) < 1e-6]
                assert hit == [k], (kind, loc)


def test_spheroidal_signature():
    ode = build_confluent_form(ConfluentFormParams(
        "spheroidal", {"p": 1.1, "lam": 0.9, "m": 0.4}))
    sig = singularity_signature(classify_singularities(ode))
    assert sig[-1 + 0j] == "regular" and sig[1 + 0j] == "regular"
    assert sig["inf"] == "irregular"


def test_algebraic_mathieu_is_spheroidal_with_quarter():
    p, lam = 0.8, 0.52
    am = build_confluent_form(ConfluentFormParams("algebraic-mathieu",
                                                  {"p": p, "lam": lam}))
    sp = build_confluent_form(ConfluentFormParams(
        "spheroidal", {"p": p, "lam": lam, "m": 0.5}))  # m^2 = 1/4
    for z in (0.3 + 0.1j, 2.0 - 0.4j, -0.7 + 0.2j):
        assert abs(am.p(z) - sp.p(z)) < 1e-12
        assert abs(am.q(z) - sp.q(z)) < 1e-12


def test_unknown_kind_rejected():
    with pytest.raises(UnknownKind):
        ConfluentFormParams("lame", {"p": 1.0})
    with pytest.raises(UnknownKind):
        ConfluentFormParams("spheroidal", {"p": 1.0})  # missing params


# --- double-confluent -> Mathieu reduction ---------------------------------


def test_double_confluent_harmonic_limit():
    cf = ConfluentFormParams("double-confluent",
                             {"alpha1": 0.0, "alpham1": 0.0, "B1": 0.0,
                              "B0": 0.7, "Bm1": 0.0})
    form = double_confluent_to_mathieu(cf)
    assert form.h2 == 0
    assert abs(form.b + 0.7) < 1e-14  # b determined by B0


def test_double_confluent_not_reducible():
    cf = ConfluentFormParams("double-confluent",
                             {"alpha1": 0.3, "alpham1": 0.3, "B1": 1.0,
                              "B0": 0.7, "Bm1": 0.0})
    with pytest.raises(NotReducible):
        double_confluent_to_mathieu(cf)
    cf2 = ConfluentFormParams("double-confluent",
                              {"alpha1": 0.3, "alpham1": 0.4, "B1": 0.0,
                               "B0": 0.7, "Bm1": 0.0})
    with pytest.raises(NotReducible):
        double_confluent_to_mathieu(cf2)


def test_double_confluent_reduction_residual():
    """Integrate the reduced trigonometric equation with scipy's DOP853,
    undo the gauge, and check the resulting function against the original
    operator on the unit circle."""
    from heunkit.engine import ComplexPath, SolutionState
    from scipy_reference import dop853

    alpha, B0 = 0.4, 0.7
    cf = ConfluentFormParams("double-confluent",
                             {"alpha1": alpha, "alpham1": alpha, "B1": 0.0,
                              "B0": B0, "Bm1": 0.0})
    ode = build_confluent_form(cf)
    form = double_confluent_to_mathieu(cf)

    def trig_q(t):
        return form.b - form.h2 * cmath.cos(t) ** 2

    # v'' + (b - h2 cos^2 t) v = 0 integrated over t, two solutions
    samples = []
    t0 = 0.0
    thetas = [0.0, 0.35, 0.8, 1.1, 1.7, 2.3]
    for v0, dv0 in ((1.0, 0.0), (0.0, 1.0)):
        state = SolutionState(t0, v0, dv0)
        for t1 in thetas[1:]:
            state = dop853(lambda t: 0.0, trig_q, state,
                           ComplexPath((state.z, t1)), tol=1e-12)
            t, v, dv = state.z.real, state.w, state.dw
            ddv = -trig_q(t) * v
            # undo the gauge w = v exp(-i alpha sin t) and map to z = e^{it}
            g = cmath.exp(-1j * alpha * cmath.sin(t))
            w = v * g
            wt = (dv - 1j * alpha * cmath.cos(t) * v) * g
            wtt = (ddv - 2j * alpha * cmath.cos(t) * dv
                   + (1j * alpha * cmath.sin(t)
                      - alpha ** 2 * cmath.cos(t) ** 2) * v) * g
            z = cmath.exp(1j * t)
            wz = wt * (-1j / z)
            wzz = (-wtt + 1j * wt) / (z * z)
            samples.append((z, w, wz, wzz))
    assert ode_residual(ode, samples) <= 1e-8


# --- anharmonic -> biconfluent reduction ------------------------------------


def test_anharmonic_reduction_rejects_eta_zero():
    with pytest.raises(DegenerateReduction):
        anharmonic_to_biconfluent(1.0, 0.0, 0.0, 0.0, 0.0)


def test_anharmonic_reduction_classifies_biconfluent():
    cf, _ = anharmonic_to_biconfluent(1.1, 0.3, 0.7, 0.4, 0.9)
    sig = singularity_signature(classify_singularities(build_confluent_form(cf)))
    assert sig[0j] == "regular" and sig["inf"] == "irregular"


def test_anharmonic_roundtrip_residual():
    from heunkit.engine import ComplexPath, SolutionState, integrate_path

    E, nu, mu, lam, eta = 1.1, 0.3, 0.7, 0.4, 0.9
    cf, red = anharmonic_to_biconfluent(E, nu, mu, lam, eta)
    source = build_confluent_form(ConfluentFormParams(
        "anharmonic", {"E": E, "nu": nu, "mu": mu, "lam": lam, "eta": eta}))
    target = build_confluent_form(cf)

    # integrate the radial equation and push samples through the map
    r0 = 0.6
    state = SolutionState(r0, 1.0, 0.2)
    forward = []
    backward = []
    for r1 in np.linspace(0.7, 1.8, 20):
        state = integrate_path(source, state, ComplexPath((state.z, r1)),
                               tol=1e-12)
        r, w, dw = state.z, state.w, state.dw
        ddw = -(source.p(r) * dw + source.q(r) * w)
        t, v, vt, vtt = red.map_solution(r, w, dw, ddw)
        forward.append((t, v, vt, vtt))
        rb, wb, dwb, ddwb = red.map_solution_back(t, v, vt, vtt)
        assert abs(rb - r) < 1e-12
        backward.append((rb, wb, dwb, ddwb))
    assert ode_residual(target, forward) <= 1e-8
    assert ode_residual(source, backward) <= 1e-8


def test_truncation_failure_near_radius():
    from heunkit.errors import TruncationFailure

    params = GeneralHeunParams(0.31, 0.77, 1.23, 0.62,
                               0.31 + 0.77 + 1 - 1.23 - 0.62, 2.5, 0.4)
    with pytest.raises(TruncationFailure):
        heun_value(params, 0, "first", 0.999, tail_tol=1e-12)
