import math

import numpy as np
import pytest

from heunkit.errors import DegenerateShift, HeunkitError, InvalidParameter, \
    ParameterPole
from heunkit.mathieu import (angular_mathieu, characteristic_value,
                             fourier_coefficients)
from heunkit.ode import LinearODE, ode_residual
from heunkit.serialize import ScenarioReport, TrigODE
from heunkit.series import eval_local
from heunkit.scenarios import (SCENARIOS, boundary_dirac_equation,
                               eguchi_hanson_angular, eguchi_hanson_radial,
                               h2plus_separation, helmholtz_elliptic,
                               nutku_angular, nutku_radial, run_scenario,
                               stark_separation)


def failing(report):
    return [c for c in report.claims if not c.passed]


def test_helmholtz_generic_mode():
    rep = helmholtz_elliptic(2.0, 1.0, n=2, parity="even")
    assert rep.all_passed(), failing(rep)
    assert rep.residuals["product_2d"] <= 1e-6
    assert "grid" in rep.data and len(rep.data["grid"]["rows"]) == 400


def test_helmholtz_zero_wavenumber():
    rep = helmholtz_elliptic(2.0, 0.0, n=3, parity="odd")
    assert rep.all_passed(), failing(rep)
    assert rep.residuals["angular"] <= 1e-10
    assert rep.residuals["radial"] <= 1e-10


def test_helmholtz_odd_grid_is_the_real_product():
    """For odd parity M(mu) = S(i mu) = i sum B_k sinh(nu_k mu), so the
    grid's psi is S(theta) times the real factor sum B_k sinh(nu_k mu)."""
    rep = helmholtz_elliptic(2.0, 1.0, n=1, parity="odd")
    q = rep.data["mathieu_q"]
    char = characteristic_value(1, q, "odd")
    nus, coeffs = fourier_coefficients(char)
    rows = rep.data["grid"]["rows"]
    want = [angular_mathieu(char, t)
            * sum(c.real * math.sinh(nu * mu) for nu, c in zip(nus, coeffs))
            for mu, t, _, _ in rows]
    scale = max(abs(w) for w in want)
    assert scale > 1.0
    assert max(abs(row[2] - w) for row, w in zip(rows, want)) <= 1e-12 * scale


def test_helmholtz_explicit_b_matching():
    rep0 = helmholtz_elliptic(2.0, 1.0, n=2, parity="even")
    b = rep0.data["b"]
    rep = helmholtz_elliptic(2.0, 1.0, n=2, parity="even", b=b)
    assert rep.all_passed(), failing(rep)


def test_helmholtz_nonquantized_b_recorded():
    rep = helmholtz_elliptic(2.0, 1.0, n=2, parity="even", b=123.456)
    assert not rep.all_passed()
    assert any("separation constant" in c.description for c in failing(rep))


def test_stark_generic():
    rep = stark_separation(-0.5, 0.01, 0.0, 0.5)
    assert rep.all_passed(), failing(rep)
    assert rep.data["xi_rank_infinity"] == "3/2"
    assert rep.data["post_substitution_rank_infinity"] == "3"
    assert rep.data["biconfluent_rank_match"] is False


def test_stark_zero_field_is_coulomb():
    rep = stark_separation(-0.5, 0.0, 0.0, 0.5)
    assert rep.all_passed(), failing(rep)
    assert rep.data["xi_rank_infinity"] == "1"


def test_stark_m_one_exponents():
    rep = stark_separation(-0.5, 0.01, 1.0, 0.5)
    assert rep.all_passed(), failing(rep)
    exps = sorted(x.real for x in rep.data["xi_exponents_at_0"])
    assert abs(exps[0] - 0.0) < 1e-9 and abs(exps[1] - 1.0) < 1e-9


def test_h2plus_generic():
    rep = h2plus_separation(0.8, 0.6, 1.1, 1.0)
    assert rep.all_passed(), failing(rep)


def test_h2plus_kappa_zero_equations_coincide():
    rep = h2plus_separation(0.8, 0.0, 1.1, 1.0)
    assert rep.all_passed(), failing(rep)
    assert any("coincide" in c.description for c in rep.claims)


def test_h2plus_legendre_degeneration():
    rep = h2plus_separation(0.0, 0.0, 1.1, 0.0)
    assert rep.all_passed(), failing(rep)
    assert any("Legendre" in c.description for c in rep.claims)


def test_nutku_angular_generic():
    rep = nutku_angular(1.0, 2.0, n=0, parity="even")
    assert rep.all_passed(), failing(rep)
    # a^2 k^2 = 4 -> q = 1
    assert abs(rep.data["mathieu_q"] - 1.0) < 1e-12
    assert rep.residuals["angular"] <= 1e-8
    assert rep.residuals["orthogonality_offdiagonal"] <= 1e-9


def test_nutku_angular_zero_coupling():
    rep = nutku_angular(1.0, 0.0, n=2, parity="even")
    assert rep.all_passed(), failing(rep)
    assert abs(rep.data["separation_constant"] - 4.0) < 1e-12


def test_nutku_radial_zero_lambda():
    rep = nutku_radial(1.0, 2.0, 0.0, n=2, parity="even")
    assert rep.all_passed(), failing(rep)
    assert rep.residuals["radial"] <= 1e-8
    assert abs(rep.data["shift_b"]) < 1e-14


def test_nutku_radial_generic():
    rep = nutku_radial(1.0, 2.0, 0.5, n=2, parity="even")
    assert rep.all_passed(), failing(rep)
    assert rep.residuals["radial"] <= 1e-6
    assert rep.data["algebraic_ranks"] == {"0": "1/2", "inf": "1/2"}


def test_nutku_radial_literal_grouping():
    rep = nutku_radial(1.0, 2.0, 0.5, n=2, parity="even", grouping="literal")
    assert rep.all_passed(), failing(rep)
    assert rep.inputs["grouping"] == "literal"
    assert abs(rep.data["B"] - 0.25) < 1e-12


def test_nutku_radial_degenerate_shift():
    with pytest.raises(DegenerateShift):
        nutku_radial(1.0, 1.0, 1.0, n=2, parity="even")


def test_nutku_product_consistency_at_zero_lambda():
    """At Lambda = 0 (even order) the angular and radial constants cancel
    and the product S(T) R(x) solves the separated 2-D operator; verify the
    2-D residual is bounded by the 1-D residuals."""
    from heunkit.mathieu import (angular_mathieu_derivatives,
                                 characteristic_value,
                                 modified_mathieu_derivatives)

    a, k, nmode = 1.0, 2.0, 2
    ang_rep = nutku_angular(a, k, n=nmode)
    rad_rep = nutku_radial(a, k, 0.0, n=nmode)
    kappa2 = a * a * k * k / 2.0
    q_ang = kappa2 / 2.0
    nang = ang_rep.data["separation_constant"]
    nrad = rad_rep.data["separation_constant_radial"]
    assert abs(nang + nrad) <= 1e-10  # opposite signs at Lambda = 0

    ca = characteristic_value(nmode, q_ang, "even")
    A6 = rad_rep.data["A6"]
    cr = characteristic_value(nmode, A6, "even")
    worst = 0.0
    worst_1d = max(ang_rep.residuals["angular"], rad_rep.residuals["radial"])
    for x in np.linspace(0.0, 1.5, 8):
        R, R1, R2 = modified_mathieu_derivatives(cr, x)
        for t in np.linspace(0.0, 2 * math.pi, 9):
            S, S1, S2 = angular_mathieu_derivatives(ca, t)
            lap = R2 * S + R * S2
            coup = kappa2 * (math.cos(2 * t) + math.cosh(2 * x)) * R * S
            res = abs(lap - coup) / max(1.0, abs(R2 * S), abs(R * S2),
                                        abs(coup))
            worst = max(worst, res)
    assert worst <= 10.0 * worst_1d + 1e-9


def test_eguchi_hanson_radial_generic():
    rep = eguchi_hanson_radial(1.0, 1.0, 1.0, 2.0)
    assert rep.all_passed(), failing(rep)
    exps = rep.data["exponents_at_0"]
    assert any(abs(x - 0.5j) < 1e-9 for x in exps)
    assert any(abs(x + 0.5j) < 1e-9 for x in exps)


def test_eguchi_hanson_radial_m_zero_logcase():
    rep = eguchi_hanson_radial(1.0, 1.0, 0.0, 2.0)
    assert rep.all_passed(), failing(rep)
    assert any("logarithmic" in c.description for c in rep.claims)


def test_eguchi_hanson_angular_legendre():
    rep = eguchi_hanson_angular(2.0, 0.0, 0.0)
    assert rep.all_passed(), failing(rep)
    assert rep.residuals["branch1"] <= 1e-8


def test_eguchi_hanson_angular_generic_fractional():
    rep = eguchi_hanson_angular(1.3, 0.25, 0.55)
    assert rep.all_passed(), failing(rep)
    assert abs(rep.data["midpoint_wronskian"]) > 1e-10


def test_eguchi_hanson_angular_parameter_pole():
    with pytest.raises(ParameterPole):
        eguchi_hanson_angular(2.0, 0.0, -2.0)  # 1 + n + m = -1
    with pytest.raises(ParameterPole):
        eguchi_hanson_angular(2.0, 1.0, 1.0)   # 1 - n - m = -1


@pytest.mark.parametrize("lam, m, n", [(2.0, 0.0, 0.0), (2.0, 0.3, 0.2),
                                       (5.0, 0.7, -0.2)])
def test_eguchi_hanson_angular_gauss_series_match_oracle(monkeypatch, lam,
                                                          m, n):
    """Each distinct branch sums one Gauss series per run (m + n = 0 prints
    one candidate twice), and at the 31 samples its F and F' match
    30-digit mpmath: F = 2F1(a, b; c; s) and F' = (ab/c) 2F1(a+1, b+1;
    c+1; s). Errors are relative to max(1, |reference|)."""
    import mpmath

    import heunkit.scenarios as scenarios

    build = scenarios._gauss_series
    built = []

    def spy(a, b, c, s_max):
        built.append(((a, b, c), build(a, b, c, s_max)))
        return built[-1][1]

    monkeypatch.setattr(scenarios, "_gauss_series", spy)
    assert not failing(eguchi_hanson_angular(lam, m, n))
    assert len(built) == (1 if m + n == 0 else 2)
    for (a, b, c), series in built:
        for t in scenarios._linspace(0.45, math.pi - 0.45, 31):
            s = (1.0 + math.cos(t)) / 2.0
            F, dF, _ = eval_local(series, s)
            with mpmath.workdps(30):
                want = complex(mpmath.hyp2f1(a, b, c, s))
                dwant = complex(a * b / c
                                * mpmath.hyp2f1(a + 1, b + 1, c + 1, s))
            assert abs(F - want) <= 1e-14 * max(1.0, abs(want))
            assert abs(dF - dwant) <= 1e-13 * max(1.0, abs(dwant))


def _work_counts(monkeypatch, scenario_id, overrides=None):
    """Taylor steps, sum_until calls and recurrence terms of one run,
    counted by wrapping series._taylor_step and series.sum_until."""
    import heunkit.series as series

    counts = {"steps": 0, "sums": 0, "terms": 0}
    step, sum_until = series._taylor_step, series.sum_until

    def counted_step(*args):
        counts["steps"] += 1
        return step(*args)

    def counted_sum(weights, lead, rho, cols, *args):
        before = len(cols[0])
        try:
            return sum_until(weights, lead, rho, cols, *args)
        finally:
            counts["sums"] += 1
            counts["terms"] += len(cols[0]) - before

    monkeypatch.setattr(series, "_taylor_step", counted_step)
    monkeypatch.setattr(series, "sum_until", counted_sum)
    assert run_scenario(scenario_id, overrides).all_passed()
    return counts


def test_boundary_dirac_walks_each_path_once(monkeypatch):
    """The pair of initial data shares one Taylor pass per path: 51 steps
    and 1,251 terms at the defaults (71 and 1,830 one datum at a time)."""
    assert _work_counts(monkeypatch, "boundary-dirac") == {
        "steps": 51, "sums": 51, "terms": 1251}


@pytest.mark.parametrize("m, n, built", [(0.0, 0.0, 1), (0.5, -0.5, 1),
                                         (0.3, 0.2, 2), (0.7, -0.2, 2)])
def test_eguchi_hanson_angular_sums_each_distinct_candidate_once(
        monkeypatch, m, n, built):
    """One Gauss series per distinct printed candidate: one at m + n = 0,
    where the two coincide, two otherwise; 623 terms at the defaults."""
    counts = _work_counts(monkeypatch, "eguchi-hanson-angular",
                          {"m": m, "n": n})
    assert counts["steps"] == 0
    assert counts["sums"] == built
    if m == n == 0.0:
        assert counts["terms"] == 623


def test_boundary_dirac_generic():
    rep = boundary_dirac_equation(1.0, 1.0, 0.3, 0.0)
    assert rep.all_passed(), failing(rep)
    assert rep.residuals["transport"] <= 1e-6
    assert rep.residuals["transport"] <= 1e-12  # integration tol is 1e-11
    assert rep.residuals["transport_roundtrip"] <= 1e-8
    assert len(rep.data["monodromy_eigenvalues"]) == 2
    assert rep.data["printed_vs_derived_distance"] > 1e-3  # genuine mismatch


def test_boundary_dirac_small_coupling():
    rep = boundary_dirac_equation(1.0, 1e-3, 0.1, 0.4)
    assert rep.all_passed(), failing(rep)


def test_registry_runs_all_defaults():
    for sid in SCENARIOS:
        rep = run_scenario(sid)
        assert rep.scenario == sid
        assert rep.all_passed(), (sid, failing(rep))


def test_registry_rejects_unknowns():
    with pytest.raises(InvalidParameter, match="unknown scenario 'black-hole'"):
        run_scenario("black-hole")
    with pytest.raises(InvalidParameter, match="has no parameter 'bogus'"):
        run_scenario("stark", {"bogus": 1.0})


_B_TYPE = "'b' expects None or a finite complex number"


@pytest.mark.parametrize("sid, overrides, expects", [
    ("stark", {"E": "abc"}, "'E' expects a finite number"),
    ("stark", {"E": math.nan}, "'E' expects a finite number"),
    ("helmholtz-elliptic", {"n": 2.5}, "'n' expects an integer"),
    ("helmholtz-elliptic", {"parity": 1}, "'parity' expects a string"),
    ("helmholtz-elliptic", {"b": "x"}, _B_TYPE),
    ("helmholtz-elliptic", {"b": "1x"}, _B_TYPE),
    ("helmholtz-elliptic", {"b": "1+2j"}, _B_TYPE),
    ("helmholtz-elliptic", {"b": "1e400"}, _B_TYPE),
    ("helmholtz-elliptic", {"b": "none"}, None),
    ("helmholtz-elliptic", {"b": "None"}, None),
    ("helmholtz-elliptic", {"b": ""}, None),
    ("helmholtz-elliptic", {"b": "1+2i"}, None),
    ("stark", {"E": "nan"}, "'E' expects a finite number"),
    ("stark", {"E": "1e400"}, "'E' expects a finite number"),
    ("nutku-angular", {"n": "2.5"}, "'n' expects an integer"),
    ("helmholtz-elliptic", {"n": "1e-3"}, "'n' expects an integer"),
    ("nutku-radial", {"n": "inf"}, "'n' expects an integer"),
    ("nutku-radial", {"n": "2.0"}, None),
])
def test_registry_rejects_values_of_the_wrong_type(sid, overrides, expects,
                                                   capsys):
    """run_scenario owns the defaults, so it alone reads a value: it refuses
    one that cannot take its default's type, with the message expects, and
    runs one that can (expects None). A row of strings also goes through
    `scenario --set`, which must refuse it with the same message (exit 2)
    or print the same report."""
    from heunkit.cli import main
    from heunkit.serialize import emit_json, to_jsonable

    argv = ["scenario", "--id", sid]
    for key, val in overrides.items():
        argv += ["--set", f"{key}={val}"]
    cli_route = all(isinstance(v, str) for v in overrides.values())
    if expects is not None:
        with pytest.raises(InvalidParameter, match=expects) as exc:
            run_scenario(sid, overrides)
        if cli_route:
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"usage error: {exc.value}\n")
        return
    report = run_scenario(sid, overrides)
    if cli_route:
        assert main(argv) == (0 if report.all_passed() else 1)
        assert capsys.readouterr().out == \
            emit_json(to_jsonable(report)) + "\n"


def test_registry_types_values_like_their_defaults():
    rep = run_scenario("helmholtz-elliptic", {"n": 2.0, "k": 1, "b": None})
    assert rep.all_passed(), failing(rep)
    assert run_scenario("stark", {"E": "0.01"}).all_passed()


def test_extreme_float_values_give_a_report_or_a_typed_error():
    """Every float default of every scenario, set to 1e200, -1e200 or
    1e-300, gives a report or a HeunkitError: derived quantities that
    overflow or vanish are refused, not left to raise ZeroDivisionError or
    OverflowError."""
    for sid, (_, defaults) in SCENARIOS.items():
        for key, ref in defaults.items():
            if not isinstance(ref, float):
                continue
            for value in (1e200, -1e200, 1e-300):
                try:
                    run_scenario(sid, {key: value})
                except HeunkitError:
                    pass


def test_claim_at_most_prints_the_bound_it_checks():
    rep = ScenarioReport("unit", {})
    rep.claim_at_most("under", 3e-9, "1e-8", "residual")
    rep.claim_at_most("at the bound", 1e-8, "1e-8")
    rep.claim_at_most("over", 2e-8, "1e-8")
    rep.claim_at_most("not a number", float("nan"), "1e-8")
    assert [(c.expected, c.observed, c.passed) for c in rep.claims] == [
        ("residual <= 1e-8", "3.000e-09", True),
        ("<= 1e-8", "1.000e-08", True),
        ("<= 1e-8", "2.000e-08", False),
        ("<= 1e-8", "nan", False),
    ]


def test_trig_and_rational_residuals_agree():
    """One normalized residual serves both equation types: z w'' + w' = 0,
    given once as a LinearODE and once with callable coefficients."""
    rational = LinearODE.from_polynomials([0.0, 1.0], [1.0], [0.0])
    trig = TrigODE(lambda z: 1.0 / z, lambda z: 0j)
    # w = log z + 1e-3 z (off-solution, so the residual is not zero)
    samples = [(z, np.log(z) + 1e-3 * z, 1.0 / z + 1e-3, -1.0 / z ** 2)
               for z in (0.5 + 0.2j, 1.3 - 0.4j, 2.0 + 1.0j)]
    res = ode_residual(rational, samples)
    assert 1e-4 < res < 1e-2
    assert trig.residual(iter(samples)) == res


def test_report_point_matches_locations_as_signatures_do():
    """A point root-found at 1e-17 is the point at 0, for ScenarioReport.point
    as for claim_signature; a location with no point gives None."""
    rep = ScenarioReport("t", {})
    rep.add_ode("e", LinearODE.from_coefficients([1], [-1e-17, 1], [1], [1]))
    assert rep.claim_signature("regular at 1e-17", "e",
                               {0j: "regular", "inf": "irregular"})
    assert rep.point("e", 0j).location == 1e-17
    assert rep.point("e", "inf").at_infinity
    assert rep.point("e", 0.5) is None
