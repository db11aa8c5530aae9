"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines. Tolerances and runtime budgets are fixed here, not tuned.
"""

import cmath
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from heunkit.corpus import canonical_corpus
from heunkit.engine import (ComplexPath, SolutionState, connection_matrix,
                            integrate_path, loop_transfer_matrix,
                            wronskian_abel_check)
from heunkit.errors import FuchsViolation
from heunkit.heun import GeneralHeunParams, general_heun, heun_series, \
    heun_value
from heunkit.mathieu import (angular_mathieu_derivatives,
                             basis_functions, characteristic_value,
                             modified_mathieu_derivatives,
                             orthogonality_matrix, trig_form_b,
                             _family, _family_matrix)
from heunkit.ode import classify_singularities, singularity_signature
from heunkit.scenarios import run_scenario
from scipy_reference import dop853


def _report(num, text):
    print(f"\n[acceptance {num}] PASS - {text}")


def _signature_matches(expected, observed):
    if len(expected) != len(observed):
        return False
    for loc, kind in expected.items():
        if loc == "inf":
            if observed.get("inf") != kind:
                return False
            continue
        hits = [ok for ol, ok in observed.items()
                if ol != "inf" and abs(ol - loc) <= 1e-6 * max(1.0, abs(loc))]
        if hits != [kind]:
            return False
    return True


def test_criterion_1_classification_corpus():
    t0 = time.perf_counter()
    for name, ode, expected in canonical_corpus():
        observed = singularity_signature(classify_singularities(ode))
        assert _signature_matches(expected, observed), (name, observed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"
    _report(1, f"canonical corpus classified exactly ({elapsed:.2f}s)")


def test_criterion_2_fuchs_gate():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    rejected = 0
    for _ in range(1000):
        a, b, c, d, e = (complex(x, y) for x, y in rng.normal(0, 0.5, (5, 2)))
        gap = a + b + 1.0 - (c + d + e)
        if abs(gap) <= 1e-9:
            e += 0.5  # force a violation
        with pytest.raises(FuchsViolation):
            GeneralHeunParams(a, b, c, d, e, 2.0 + rng.uniform(0, 3), 0.1)
        rejected += 1
    accepted = 0
    for _ in range(1000):
        a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.5, (4, 2)))
        e = a + b + 1.0 - c - d
        params = GeneralHeunParams(a, b, c, d, e, rng.uniform(1.5, 10.0),
                                   complex(*rng.normal(0, 0.3, 2)))
        pts = classify_singularities(general_heun(params))
        assert len(pts) == 4
        assert all(p.kind.value == "regular" for p in pts)
        accepted += 1
    elapsed = time.perf_counter() - t0
    assert rejected == 1000 and accepted == 1000
    assert elapsed < 5.0, f"Fuchs gate took {elapsed:.2f}s"
    _report(2, f"1000 violations rejected, 1000 valid sets classified to "
               f"four regular points ({elapsed:.2f}s)")


def test_criterion_3_hypergeometric_degeneration():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    draws = 0
    while draws < 100:
        a, b = (complex(x, y) for x, y in rng.normal(0, 0.6, (2, 2)))
        c = complex(*rng.normal(0, 0.6, 2)) + 1.2
        if abs(c.imag) < 0.05 and abs(c.real - round(c.real)) < 0.05:
            continue
        f = rng.uniform(1.5, 8.0)
        params = GeneralHeunParams(a, b, c, a + b + 1 - c, 0.0, f, a * b * f)
        ser = heun_series(params, 0, "first", 60)
        gauss = 1.0 + 0j
        for k in range(61):
            assert abs(ser.coeffs[k] - gauss) <= 1e-13 * max(1.0, abs(gauss))
            gauss *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
        draws += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"degeneration sweep took {elapsed:.2f}s"
    _report(3, f"series coefficients match the Gauss series to 1e-13 over "
               f"100 draws, k <= 60 ({elapsed:.2f}s)")


def _admissible_params(rng, f_range=(1.5, 10.0)):
    while True:
        a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.35, (4, 2)))
        e = a + b + 1 - c - d
        ok = True
        for gap in (1 - c, 1 - d, 1 - e):
            if abs(gap.imag) < 0.08 and abs(gap.real - round(gap.real)) < 0.08:
                ok = False
        if not ok:
            continue
        return GeneralHeunParams(a, b, c, d, e, rng.uniform(*f_range),
                                 complex(*rng.normal(0, 0.25, 2)))


def test_criterion_4_series_vs_integration():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    for _ in range(50):
        params = _admissible_params(rng, f_range=(1.6, 8.0))
        radius = 1.0  # distance from 0 to the nearest singular point (z = 1)
        ang = rng.uniform(0.55 * math.pi, 1.45 * math.pi)
        direction = cmath.exp(1j * ang)
        z0 = 0.05 * radius * direction
        z1 = 0.5 * radius * direction
        ode = general_heun(params)
        path = ComplexPath((z0, z1))
        ends = []
        starts = []
        for branch in ("first", "second"):
            v0, _ = heun_value(params, 0, branch, z0, tail_tol=1e-13)
            start = SolutionState(z0, v0.w, v0.dw)
            end = integrate_path(ode, start, path, tol=1e-11)
            v1, _ = heun_value(params, 0, branch, z1, tail_tol=1e-13)
            assert abs(end.w - v1.w) <= 1e-8 * max(1.0, abs(v1.w))
            assert abs(end.dw - v1.dw) <= 1e-8 * max(1.0, abs(v1.dw))
            starts.append(start)
            ends.append(end)
        dev = wronskian_abel_check(ode, tuple(starts), tuple(ends), path)
        assert dev <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"cross-validation took {elapsed:.2f}s"
    _report(4, f"series and path integration agree to 1e-8 at radius/2 with "
               f"Abel deviation <= 1e-8 on 50 random sets ({elapsed:.2f}s)")


def test_criterion_5_mathieu_suite():
    t0 = time.perf_counter()
    # (a) q = 0 exactness
    for n in range(0, 9):
        assert abs(characteristic_value(n, 0.0, "even").value - n * n) <= 1e-12
        if n >= 1:
            assert abs(characteristic_value(n, 0.0, "odd").value - n * n) <= 1e-12
    # (b) the doubling loop versus one dense solve at truncation 200:
    # LAPACK's eigvalsh, an oracle independent of heunkit's Sturm counts and
    # Newton steps (tests/test_mathieu.py also holds scipy.special and mpmath)
    for q in (0.5, 1.0, 2.0, 5.0):
        for n in range(0, 9):
            for parity in ("even", "odd"):
                if parity == "odd" and n == 0:
                    continue
                fam = _family(n, parity)
                d, e = _family_matrix(fam, q, 200)
                T = np.diag([x.real for x in d]) \
                    + np.diag([complex(x).real for x in e], 1) \
                    + np.diag([complex(x).real for x in e], -1)
                dense = np.sort(np.linalg.eigvalsh(T))
                start = {"even-pi": 0, "even-2pi": 1, "odd-2pi": 1,
                         "odd-pi": 2}[fam]
                oracle = dense[(n - start) // 2]
                ours = characteristic_value(n, q, parity).value
                assert abs(ours - oracle) <= 1e-10, (n, q, parity)
    # (c) Gram off-diagonals
    G = orthogonality_matrix(basis_functions(2.0, 6))
    assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-9
    # (d) residuals of the angular equation, its cos^2 form, and the
    # hyperbolic (radial) form
    q = 1.0
    h2 = 4.0 * q
    for n, parity in ((0, "even"), (2, "even"), (1, "odd")):
        ch = characteristic_value(n, q, parity)
        b = trig_form_b(ch.value, h2)
        worst_a = worst_b = worst_m = 0.0
        for t in np.linspace(0.0, 2 * math.pi, 40):
            S, S1, S2 = angular_mathieu_derivatives(ch, t)
            worst_a = max(worst_a, abs(S2 + (ch.value - 2 * q * math.cos(2 * t)) * S))
            worst_b = max(worst_b, abs(S2 + (b - h2 * math.cos(t) ** 2) * S))
        for x in np.linspace(0.0, 2.0, 40):
            M, M1, M2 = modified_mathieu_derivatives(ch, x)
            res = abs(-M2 + (b - h2 * math.cosh(x) ** 2) * M)
            worst_m = max(worst_m, res / max(1.0, abs(M2)))
        assert worst_a <= 1e-7 and worst_b <= 1e-7 and worst_m <= 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"Mathieu suite took {elapsed:.2f}s"
    _report(5, f"characteristic values, oracle agreement, orthogonality and "
               f"all three residual forms within bounds ({elapsed:.2f}s)")


def test_criterion_6_scenario_claims():
    t0 = time.perf_counter()
    cases = [
        ("helmholtz-elliptic", {"a": 2.0, "k": 1.0, "n": 2, "parity": "even"}),
        ("helmholtz-elliptic", {"a": 2.0, "k": 0.0}),
        ("stark", {"E": -0.5, "F": 0.01, "m": 0.0, "beta1": 0.5}),
        ("stark", {"E": -0.5, "F": 0.0, "m": 0.0, "beta1": 0.5}),
        ("stark", {"E": -0.5, "F": 0.01, "m": 1.0, "beta1": 0.5}),
        ("h2plus", {"lam": 0.8, "kappa": 0.6, "mu": 1.1, "m": 1.0}),
        ("h2plus", {"kappa": 0.0}),
        ("h2plus", {"lam": 0.0, "kappa": 0.0, "m": 0.0}),
        ("nutku-angular", {"a": 1.0, "k": 2.0, "n": 0}),
        ("nutku-angular", {"a": 1.0, "k": 0.0}),
        ("nutku-radial", {"a": 1.0, "k": 2.0, "Lambda": 0.0}),
        ("nutku-radial", {"a": 1.0, "k": 2.0, "Lambda": 0.5}),
        ("eguchi-hanson-radial", {"k": 1.0, "a": 1.0, "m": 1.0, "lam": 2.0}),
        ("eguchi-hanson-radial", {"m": 0.0}),
        ("eguchi-hanson-angular", {"lam": 2.0, "m": 0.0, "n": 0.0}),
        ("boundary-dirac", {"a": 1.0, "k": 1.0, "x0": 0.3, "phi": 0.0}),
    ]
    for sid, overrides in cases:
        rep = run_scenario(sid, overrides)
        bad = [c for c in rep.claims if not c.passed]
        assert not bad, (sid, overrides, bad)
        if sid == "nutku-radial":
            assert rep.residuals["radial"] <= 1e-6
        if sid == "boundary-dirac":
            assert rep.residuals["transport"] <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"scenario sweep took {elapsed:.2f}s"
    _report(6, f"all structural claims pass at the example parameter points "
               f"({elapsed:.2f}s)")


def test_criterion_7_connection_and_monodromy():
    rng = np.random.default_rng(7)
    tol = 1e-10
    t0 = time.perf_counter()
    for _ in range(20):
        params = _admissible_params(rng, f_range=(1.5, 10.0))
        C01 = connection_matrix(params, 0, 1, tol=tol)
        C1f = connection_matrix(params, 1, "f", tol=tol)
        C0f = connection_matrix(params, 0, "f", tol=tol)
        prod = (C01 @ C1f).as_array()
        scale = max(1.0, float(np.max(np.abs(C0f.as_array()))))
        assert np.max(np.abs(prod - C0f.as_array())) <= 100 * tol * scale
        # small loop around nothing
        ode = general_heun(params)
        loop = ComplexPath.circle(0.5 + 0.45j, 0.1, n=12)
        M = loop_transfer_matrix(ode, loop, tol=tol)
        assert np.max(np.abs(M.as_array() - np.eye(2))) <= 10 * tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"connection sweep took {elapsed:.2f}s"
    _report(7, f"connection matrices compose and trivial monodromy holds on "
               f"20 random sets ({elapsed:.2f}s)")


def test_criterion_8_cli_determinism(tmp_path):
    def run_suite(tag):
        outputs = []
        for sid, extra in (
            ("stark", []),
            ("h2plus", []),
            ("nutku-angular", []),
            ("nutku-radial", []),
            ("eguchi-hanson-radial", []),
            ("eguchi-hanson-angular", []),
            ("helmholtz-elliptic", []),
            ("boundary-dirac", []),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "heunkit", "scenario", "--id", sid,
                 *extra],
                capture_output=True, text=True)
            assert proc.returncode == 0, (sid, proc.stderr)
            outputs.append(proc.stdout)
        return "\n".join(outputs)

    first = run_suite("a")
    second = run_suite("b")
    assert first == second
    golden = tmp_path / "suite.json"
    golden.write_text(first)
    assert golden.read_text() == second
    _report(8, "full scenario suite is byte-identical across repeated runs")


def _pair_error(got, want):
    """Relative distance between two unordered pairs of complex numbers."""
    scale = max(1.0, *(abs(w) for w in want))
    straight = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
    crossed = max(abs(got[0] - want[1]), abs(got[1] - want[0]))
    return min(straight, crossed) / scale


def test_criterion_9_known_answers():
    from scipy.special import gamma

    t0 = time.perf_counter()
    # (a) hypergeometric degeneration: first row of C(0 -> 1) is the Gauss
    # connection row (DLMF 15.10(ii)); the second entry's phase comes from
    # the (z-1)^(1-d) branch
    a, b, c, f = 0.31 + 0.1j, 0.77, 1.23 - 0.05j, 2.5
    params = GeneralHeunParams(a, b, c, a + b + 1 - c, 0.0, f, a * b * f)
    C = connection_matrix(params, 0, 1, tol=1e-10)
    want = (gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b)),
            gamma(c) * gamma(a + b - c) / (gamma(a) * gamma(b))
            * cmath.exp(-1j * math.pi * (c - a - b)))
    gauss_err = max(abs(g - w) for g, w in zip(C.entries[0], want)) \
        / max(1.0, *(abs(w) for w in want))
    assert gauss_err <= 1e-10, gauss_err
    # (b) local monodromy: a loop around 0 (around 1) has the eigenvalues
    # {1, exp(2 pi i (1 - c))} ({1, exp(2 pi i (1 - d))})
    rng = np.random.default_rng(9)
    worst_eig = 0.0
    for _ in range(50):
        params = _admissible_params(rng, f_range=(1.5, 10.0))
        ode = general_heun(params)
        for center, radius, gap in ((0j, 0.5, 1 - params.c),
                                    (1.0 + 0j, 0.4, 1 - params.d)):
            for n in (12, 24, 48):
                loop = ComplexPath.circle(center, radius, n=n)
                M = loop_transfer_matrix(ode, loop, tol=1e-10)
                eig = np.linalg.eigvals(M.as_array())
                err = _pair_error(eig, (1.0, cmath.exp(2j * math.pi * gap)))
                worst_eig = max(worst_eig, err)
    assert worst_eig <= 1e-6, worst_eig
    # (c) Taylor continuation agrees with DOP853 on the same paths
    rng = np.random.default_rng(10)
    worst_dop = 0.0
    for _ in range(10):
        params = _admissible_params(rng, f_range=(1.5, 10.0))
        ode = general_heun(params)
        for path in (ComplexPath.circle(0j, 0.5, n=24),
                     ComplexPath((0.3 + 0.1j, 0.5 + 0.5j, 1.25 + 0.4j,
                                  1.2 - 0.3j))):
            z0 = path.vertices[0]
            for w0, dw0 in ((1.0, 0.0), (0.0, 1.0)):
                start = SolutionState(z0, w0, dw0)
                taylor = integrate_path(ode, start, path, tol=1e-11)
                dop = dop853(ode.p, ode.q, start, path, tol=1e-11)
                scale = max(1.0, abs(dop.w), abs(dop.dw))
                err = max(abs(taylor.w - dop.w), abs(taylor.dw - dop.dw)) / scale
                worst_dop = max(worst_dop, err)
    assert worst_dop <= 1e-8, worst_dop
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"known-answer checks took {elapsed:.2f}s"
    _report(9, f"Gauss row to {gauss_err:.1e}, loop eigenvalues to "
               f"{worst_eig:.1e} on 300 loops, Taylor versus DOP853 to "
               f"{worst_dop:.1e} ({elapsed:.2f}s)")
