"""Physics scenario drivers.

Each driver rebuilds the separated ODEs of a classic reduction from its
physical parameters, classifies them, attaches candidate solutions, and
verifies the expected structural facts (singularity signatures, residuals,
operator identities) numerically. Results are collected in a ScenarioReport
whose claims are machine-checked statements; nothing is assumed.

Equations with trigonometric or hyperbolic coefficients are carried as
TrigODE (callable coefficients, used for residuals only) and classified
and transported only after an explicit algebraization substitution
(u = exp(2 i t), v = tan t, t = cos theta, u = exp(2x)), which is recorded
in the report. A Mathieu function is evaluated through its one handle, the
CharacteristicValue of mathieu.characteristic_value.
"""

from __future__ import annotations

import cmath
import math

from .corpus import CORPUS, _boundary_u_ode_printed, _eguchi_hanson_ode
from .engine import ComplexPath, SolutionState, integrate_path, \
    loop_transfer_matrix
from .errors import DegenerateShift, InvalidParameter, LogarithmicCase, \
    MalformedComplex, ParameterPole
from .grammar import parse_complex
from .heun import FORMS, ConfluentFormParams, build_confluent_form
from .mathieu import (
    angular_mathieu,
    angular_mathieu_derivatives,
    basis_functions,
    characteristic_value,
    modified_mathieu_derivatives,
    orthogonality_matrix,
    q_from_h2,
    trig_form_b,
)
from .ode import LinearODE, indicial_exponents, ode_residual
from .serialize import ScenarioReport, TrigODE
from .series import eval_local, frobenius_series, frobenius_value, \
    is_integer, transport

# a cold run takes about 2 s at n = 300 and 4 s at n = 400 (2 vCPUs,
# Python 3.11); the cost grows like n^3
NUTKU_ANGULAR_MAX_ORDER = 300


def _linspace(a, b, n):
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _on_grid(derivatives, char, xs):
    """(x, y, y', y'') at every x of a grid, from one Mathieu call."""
    return [(x, *d) for x, d in zip(xs, derivatives(char, xs))]


# ---------------------------------------------------------------------------
# Helmholtz equation in elliptic coordinates
# ---------------------------------------------------------------------------


def helmholtz_elliptic(a, k, n=2, parity="even", b=None):
    """Membrane/Helmholtz problem in elliptic coordinates.

    The 2-D equation  psi_mumu + psi_tt + h^2 (cosh^2 mu - cos^2 t) psi = 0
    with h^2 = a^2 k^2 / 4 separates into

        H'' + (b - h^2 cos^2 t) H = 0      (angular)
        -M'' + (b - h^2 cosh^2 mu) M = 0   (radial)

    with shared separation constant b. Periodicity in t quantizes b to
    b = a_n(q) + h^2/2 (q = h^2/4); the angular solution is the order-n
    Mathieu function and the radial one the matching modified function.
    The product solution is checked against the 2-D operator on a grid,
    with all second derivatives taken from the series (not from the ODEs).
    """
    a, k = float(a), float(k)
    if a <= 0 or k < 0:
        raise InvalidParameter("focal parameter a must be positive and k >= 0")
    report = ScenarioReport("helmholtz-elliptic",
                            {"a": a, "k": k, "n": int(n), "parity": parity,
                             "b": b})
    try:
        h2 = (a * k) ** 2 / 4.0
    except OverflowError:
        raise InvalidParameter(f"a = {a:g}, k = {k:g}: h^2 = (a k)^2 / 4 "
                               "overflows") from None
    q = q_from_h2(h2)
    char = characteristic_value(int(n), q, parity)
    b_char = trig_form_b(char.value, h2)
    if b is None:
        b_used = b_char
        matched = True
    else:
        b_used = complex(b)
        matched = abs(b_used - b_char) <= 1e-6 * max(1.0, abs(b_char))
        report.claim("input separation constant is the order-n periodic value",
                     f"{b_char:.12g}", f"{b_used:.12g}", matched)
    report.data["h2"] = h2
    report.data["mathieu_q"] = q
    report.data["characteristic_value"] = char.value
    report.data["b"] = b_used

    ang = TrigODE(lambda t: 0j, lambda t, b0=b_used, h=h2:
                  (b0 - h * math.cos(t) ** 2),
                  poles=(), period=2.0 * math.pi,
                  notes="H'' + (b - h^2 cos^2 t) H = 0")
    rad = TrigODE(lambda t: 0j, lambda t, b0=b_used, h=h2:
                  -(b0 - h * math.cosh(t) ** 2),
                  poles=(), period=None,
                  notes="M'' - (b - h^2 cosh^2 mu) M = 0")
    report.add_ode("angular", ang)
    report.add_ode("radial", rad)

    # separation identity: q_ang(t) + q_rad(mu) == h^2 (cosh^2 mu - cos^2 t),
    # which makes the product solve the 2-D equation
    worst_id = 0.0
    for t in _linspace(0.0, 2.0 * math.pi, 7):
        for mu in _linspace(0.0, 2.0, 5):
            lhs = ang.q(t) + rad.q(mu)
            rhs = h2 * (math.cosh(mu) ** 2 - math.cos(t) ** 2)
            worst_id = max(worst_id, abs(lhs - rhs))
    report.claim("separated equations recombine to the 2-D operator",
                 "identity to 1e-10", f"max deviation {worst_id:.3e}",
                 worst_id <= 1e-10)

    if not matched:
        report.notes.append("separation constant is not a periodic "
                            "characteristic value; solution checks skipped")
        return report

    res_ang = ang.residual(_on_grid(angular_mathieu_derivatives, char,
                                    _linspace(0.0, 2.0 * math.pi, 50)))
    report.residuals["angular"] = res_ang
    res_rad = rad.residual(_on_grid(modified_mathieu_derivatives, char,
                                    _linspace(0.0, 2.0, 41)))
    report.residuals["radial"] = res_rad

    report.claim("angular and radial factors are Mathieu and modified "
                 "Mathieu functions (residual check)",
                 "residuals <= 1e-7",
                 f"angular {res_ang:.3e}, radial {res_rad:.3e}",
                 res_ang <= 1e-7 and res_rad <= 1e-7)

    # 2-D product residual on a 20 x 20 grid, series-side derivatives only;
    # lap + coup = M (S'' + q_ang S) + S (M'' + q_rad M) is scaled by the
    # 1-D residuals' terms times |M| and |S|
    # odd M = S(i mu) = i sum B_k sinh(nu_k mu): psi takes the real -i M
    worst2d, rows, unit = 0.0, [], -1j if parity == "odd" else 1.0
    angular = [(t, S, S2, max(1.0, abs(S2), abs(ang.q(t) * S))) for t, S, _, S2
               in _on_grid(angular_mathieu_derivatives, char,
                           _linspace(0.0, 2.0 * math.pi, 20))]
    for mu, M, _, M2 in _on_grid(modified_mathieu_derivatives, char,
                                 _linspace(0.0, 2.0, 20)):
        rad_scale = max(1.0, abs(M2), abs(rad.q(mu) * M))
        for t, S, S2, ang_scale in angular:
            lap = M2 * S + M * S2
            coup = h2 * (math.cosh(mu) ** 2 - math.cos(t) ** 2) * M * S
            res = abs(lap + coup) / max(1.0, abs(M) * ang_scale + abs(S) * rad_scale)
            worst2d = max(worst2d, res)
            rows.append([mu, t, (unit * M * S).real, res])
    report.residuals["product_2d"] = worst2d
    report.data["grid"] = {"columns": ["mu", "theta", "psi", "residual"],
                           "rows": rows}
    report.claim_at_most("product solution satisfies the 2-D equation on "
                         "the grid", worst2d, "1e-6", "residual")

    sum1d = res_ang + res_rad
    report.claim("2-D residual bounded by the separated residuals",
                 "<= 10 * (sum of 1-D residuals) + 1e-9",
                 f"{worst2d:.3e} vs {sum1d:.3e}",
                 worst2d <= 10.0 * sum1d + 1e-9)

    if k == 0.0:
        report.claim("zero wavenumber: separation constant reduces to n^2 and "
                     "factors to trig/hyperbolic functions",
                     "b = n^2, residuals <= 1e-10",
                     f"b = {b_used.real:.12g}, residuals "
                     f"{res_ang:.3e}/{res_rad:.3e}",
                     abs(b_used - n * n) <= 1e-12 and res_ang <= 1e-10
                     and res_rad <= 1e-10)
    return report


# ---------------------------------------------------------------------------
# Hydrogen atom in a uniform electric field (parabolic coordinates)
# ---------------------------------------------------------------------------


def _stark_ode(E, F, beta, m):
    # V'' + (E/2 + beta/x + (F/4) x + (1 - m^2)/(4 x^2)) V = 0, times x^2
    return LinearODE.from_polynomials(
        [0, 0, 1.0],
        [0j],
        [(1.0 - m * m) / 4.0, beta, E / 2.0, F / 4.0])


def _stark_squared_ode(E, F, beta, m):
    # after x = s^2, V = s^(1/2) w:
    # w'' + (F s^4 + 2 E s^2 + 4 beta + (1/4 - m^2)/s^2) w = 0, times s^2
    return LinearODE.from_polynomials(
        [0, 0, 1.0],
        [0j],
        [0.25 - m * m, 0, 4.0 * beta, 0, 2.0 * E, 0, F])


def stark_separation(E, F, m, beta1):
    """Hydrogen atom in a uniform field, separated in parabolic coordinates.

    Both longitudinal equations are built exactly in the form

        V'' + (E/2 + beta/x + (F/4) x + (1-m^2)/(4x^2)) V = 0,

    with separation constants beta1 + beta2 = 1. The classifier reports the
    one-regular-point-plus-irregular-infinity signature; the substitution
    x = s^2 with gauge V = s^(1/2) w (the w' terms cancel) gives

        w'' + (F s^4 + 2E s^2 + 4 beta + (1/4 - m^2)/s^2) w = 0

    and the post-substitution rank at infinity is recorded against the
    quartic-oscillator normal form (rank 2).
    """
    E, F, m, beta1 = float(E), float(F), float(m), float(beta1)
    beta2 = 1.0 - beta1
    report = ScenarioReport("stark",
                            {"E": E, "F": F, "m": m, "beta1": beta1,
                             "beta2": beta2})
    report.notes.append("separation constants satisfy beta1 + beta2 = 1")
    odes = {label: _stark_ode(E, F, beta, m)
            for label, beta in (("xi", beta1), ("eta", beta2))}
    for label, ode in odes.items():
        report.add_ode(label, ode)
        report.claim_signature(
            f"{label} equation has a regular point at 0 and an irregular "
            "point at infinity", label, {0j: "regular", "inf": "irregular"})
        report.data[f"{label}_rank_infinity"] = str(
            report.point(label, "inf").rank)
        exps = indicial_exponents(ode, 0j)
        report.data[f"{label}_exponents_at_0"] = list(exps)

    exp0 = report.data["xi_exponents_at_0"]
    expected0 = sorted(((1 + m) / 2.0, (1 - m) / 2.0), key=lambda v: -v)
    report.claim("indicial exponents at 0 are (1 +- m)/2",
                 f"{expected0[0]:.12g}, {expected0[1]:.12g}",
                 f"{exp0[0].real:.12g}, {exp0[1].real:.12g}",
                 abs(exp0[0] - expected0[0]) <= 1e-9
                 and abs(exp0[1] - expected0[1]) <= 1e-9)

    sq = _stark_squared_ode(E, F, beta1, m)
    report.add_ode("xi_squared_variable", sq)
    post_rank = report.point("xi_squared_variable", "inf").rank
    report.data["post_substitution_rank_infinity"] = str(post_rank)
    report.claim_signature(
        "squared-variable equation keeps the regular-0 / irregular-infinity "
        "signature of the quartic-oscillator (biconfluent) class",
        "xi_squared_variable", FORMS["biconfluent"].signature)
    report.data["biconfluent_rank_match"] = (post_rank == 2)
    report.notes.append(
        f"post-substitution rank at infinity is {post_rank} versus 2 for the "
        "quartic-oscillator normal form; the printed field term is linear, "
        "which lowers the pre-substitution rank to 3/2")

    if F != 0.0:
        # numerical check of the substitution: map an integrated solution
        ode_xi = odes["xi"]
        x0, x1 = 0.7, 1.9
        st = integrate_path(ode_xi, SolutionState(x0, 1.0, 0.0),
                            ComplexPath((x0, x1)), tol=1e-12)
        samples = []
        for x, w, dw in ((x0, 1.0 + 0j, 0j), (x1, st.w, st.dw)):
            ddw = -(ode_xi.p(x) * dw + ode_xi.q(x) * w)
            s = math.sqrt(x)
            ws = w / math.sqrt(s)
            dws = -0.5 * s ** -1.5 * w + 2.0 * math.sqrt(s) * dw
            ddws = 0.75 * s ** -2.5 * w + 4.0 * s ** 1.5 * ddw
            samples.append((s, ws, dws, ddws))
        res = ode_residual(sq, samples)
        report.residuals["substitution_roundtrip"] = res
        report.claim_at_most("quadratic substitution maps solutions onto "
                             "solutions", res, "1e-8", "residual")
    else:
        rank = report.data["xi_rank_infinity"]
        report.claim("zero field: infinity rank drops to the Coulomb value",
                     "1", rank, rank == "1")
    return report


# ---------------------------------------------------------------------------
# Hydrogen molecular ion (prolate spheroidal coordinates)
# ---------------------------------------------------------------------------


def _h2plus_ode(lam, kappa, mu, m):
    # d/dx((1-x^2) V') + (lam^2 x^2 - kappa x + mu - m^2/(1-x^2)) V = 0
    # times (1-x^2):  A = (1-x^2)^2, B = -2x(1-x^2),
    # C = (lam^2 x^2 - kappa x + mu)(1-x^2) - m^2
    one_minus = [1.0, 0.0, -1.0]
    A = [1.0, 0.0, -2.0, 0.0, 1.0]
    B = [0.0, -2.0, 0.0, 2.0]
    inner = [mu, -kappa, lam * lam]
    C = [0.0] * 5
    for i, ci in enumerate(inner):
        for j, oj in enumerate(one_minus):
            C[i + j] += ci * oj
    C[0] -= m * m
    return LinearODE.from_polynomials(A, B, C)


def h2plus_separation(lam, kappa, mu, m):
    """Two-center Coulomb problem in prolate spheroidal coordinates.

    Both separated equations are built in the self-adjoint form

        d/dx((1-x^2) V') + (lam^2 x^2 - kappa x + mu - m^2/(1-x^2)) V = 0

    (the angular equation has kappa = 0). Each is identified, coefficient
    by coefficient, with the matching member of the confluent family
    (two-center-Coulomb form, resp. spheroidal form), and classified:
    regular points at -1 and +1, irregular infinity.
    """
    lam, kappa, mu, m = float(lam), float(kappa), float(mu), float(m)
    report = ScenarioReport("h2plus",
                            {"lam": lam, "kappa": kappa, "mu": mu, "m": m})
    xi = _h2plus_ode(lam, kappa, mu, m)
    eta = _h2plus_ode(lam, 0.0, mu, m)
    report.add_ode("xi", xi)
    report.add_ode("eta", eta)

    generic = abs(lam) > 1e-12
    for label, kind in (("xi", "two-center-coulomb"), ("eta", "spheroidal")):
        if generic:
            report.claim_signature(
                f"{label} equation has the confluent-family signature",
                label, FORMS[kind].signature)

    if generic:
        mapped_xi = build_confluent_form(ConfluentFormParams(
            "two-center-coulomb",
            {"p": lam, "beta": kappa / (2.0 * lam), "lam": lam * lam + mu,
             "m": m}))
        mapped_eta = build_confluent_form(ConfluentFormParams(
            "spheroidal", {"p": lam, "lam": lam * lam + mu, "m": m}))
        report.claim_at_most("xi equation coincides with the "
                             "two-center-Coulomb confluent form "
                             "(p, beta, lam, m) = "
                             "(lam, kappa/(2 lam), lam^2 + mu, m)",
                             _operator_distance(xi, mapped_xi), "1e-10",
                             "pointwise operator identity")
        report.claim_at_most("eta equation coincides with the spheroidal "
                             "form", _operator_distance(eta, mapped_eta),
                             "1e-10", "pointwise operator identity")
    else:
        report.notes.append("lam = 0: confluent-family identification "
                            "degenerates (p = 0); skipped")

    if abs(kappa) <= 1e-14:
        report.claim_at_most("kappa = 0: the two separated equations "
                             "coincide", _operator_distance(xi, eta),
                             "1e-12", "operator identity")

    if abs(lam) <= 1e-14 and abs(m) <= 1e-14:
        report.claim_signature(
            "lam = m = 0: angular equation degenerates to the Legendre "
            "pattern (infinity becomes regular)", "eta",
            {-1.0 + 0j: "regular", 1.0 + 0j: "regular", "inf": "regular"})
    return report


def _operator_distance(ode1, ode2):
    pts = [0.3 + 0.1j, -0.4 + 0.2j, 1.7 - 0.3j, 2.2 + 0.5j, -1.6 - 0.2j,
           0.05 + 0.7j]
    worst = 0.0
    for z in pts:
        for f1, f2 in ((ode1.p, ode2.p), (ode1.q, ode2.q)):
            v1, v2 = f1(z), f2(z)
            worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1), abs(v2)))
    return worst


# ---------------------------------------------------------------------------
# Helicoid background: angular equation
# ---------------------------------------------------------------------------


def nutku_angular(a, k, n=2, parity="even"):
    """Angular factor of the helicoid-background wave problem.

    The separated angular equation is S'' - ((a^2 k^2 / 2) cos 2T - nsep) S = 0:
    the standard Mathieu operator with q = a^2 k^2 / 4. Periodicity in T
    forces the separation constant onto the discrete characteristic values;
    the order-n solution is verified by residual, periodicity and
    orthogonality against the other orders. Orders above
    NUTKU_ANGULAR_MAX_ORDER (300, about 2 s) raise InvalidParameter.
    """
    a, k = float(a), float(k)
    if a <= 0 or k < 0:
        raise InvalidParameter("a must be positive and k >= 0")
    if int(n) > NUTKU_ANGULAR_MAX_ORDER:
        raise InvalidParameter(f"nutku-angular supports orders n <= "
                               f"{NUTKU_ANGULAR_MAX_ORDER}, got {n}")
    report = ScenarioReport("nutku-angular",
                            {"a": a, "k": k, "n": int(n), "parity": parity})
    kappa2 = a * a * k * k / 2.0
    q = kappa2 / 2.0
    char = characteristic_value(int(n), q, parity)
    funcs = basis_functions(q, max(int(n), 3))
    nsep = char.value
    report.data["mathieu_q"] = q
    report.data["separation_constant"] = nsep

    ang = TrigODE(lambda t: 0j,
                  lambda t, ns=nsep, k2=kappa2: ns - k2 * math.cos(2.0 * t),
                  period=2.0 * math.pi,
                  notes="S'' - (kappa2 cos 2T - nsep) S = 0")
    report.add_ode("angular", ang)

    res = ang.residual(_on_grid(angular_mathieu_derivatives, char,
                                _linspace(0.0, 2.0 * math.pi, 50)))
    report.residuals["angular"] = res
    report.claim_at_most("order-n Mathieu function solves the angular "
                         "equation", res, "1e-8", "residual")

    ts = _linspace(0.0, 2.0 * math.pi, 17)
    vals = angular_mathieu(char, ts + [t + 2.0 * math.pi for t in ts])
    worst_per = max(abs(v - w) for v, w in zip(vals[:17], vals[17:]))
    report.residuals["periodicity"] = worst_per
    report.claim_at_most("angular solutions are 2pi-periodic (separation "
                         "constant quantized)", worst_per, "1e-12")

    G = orthogonality_matrix(funcs)
    off = max(abs(G[i][j]) for i in range(len(G)) for j in range(i))
    report.residuals["orthogonality_offdiagonal"] = off
    report.claim_at_most("distinct orders are orthogonal over a full "
                         "period", off, "1e-9")
    report.data["gram_diagonal"] = [row[i] for i, row in enumerate(G)]

    if k == 0.0:
        report.claim("zero coupling: separation constants reduce to n^2",
                     f"{n * n}", f"{nsep.real:.12g}",
                     abs(nsep - n * n) <= 1e-12)
    return report


# ---------------------------------------------------------------------------
# Helicoid background: radial equation
# ---------------------------------------------------------------------------


def nutku_radial(a, k, Lambda, n=2, parity="even", grouping="consistent"):
    """Radial factor of the helicoid-background problem.

    The radial equation R'' - [A cosh 2x + B sinh 2x - nrad] R = 0 with
    A = a^2 k^2 / 2 carries the eigenvalue coupling through B: with the
    default grouping B = a^2 Lambda^2 / 2 (the 2-D operator applies the
    a^2/2 prefactor to both terms); grouping="literal" instead uses
    B = Lambda^2. The hyperbolic shift

        A cosh 2x + B sinh 2x = C cosh 2(x + b),
        tanh 2b = B/A,  C = A / cosh 2b = +- sqrt(A^2 - B^2)

    (real b for |A| > |B|, complex otherwise; C is taken as A / cosh 2b
    rather than a principal square root so the sign stays consistent on
    the complex branch) turns it into the modified
    Mathieu equation with parameter A6 = -C/2: the candidate

        R(x) = Se_or_So(n, A6, i(x + b))

    satisfies R'' = (char_n(A6) + C cosh 2(x+b)) R exactly, so the radial
    separation constant consistent with an order-n solution is
    nrad = -char_n(A6). Both nrad and the angular constant are recorded;
    they coincide up to sign at Lambda = 0. An A or B that overflows
    raises InvalidParameter.
    """
    a, k, Lambda = float(a), float(k), float(Lambda)
    if a <= 0 or k <= 0:
        raise InvalidParameter("a, k must be positive")
    if grouping not in ("consistent", "literal"):
        raise InvalidParameter("grouping must be 'consistent' or 'literal'")
    report = ScenarioReport("nutku-radial",
                            {"a": a, "k": k, "Lambda": Lambda, "n": int(n),
                             "parity": parity, "grouping": grouping})
    A = a * a * k * k / 2.0
    B = (a * a / 2.0 if grouping == "consistent" else 1.0) * Lambda * Lambda
    if not (math.isfinite(A) and math.isfinite(B)):
        raise InvalidParameter(f"a = {a:g}, k = {k:g}, Lambda = {Lambda:g}: "
                               "A = a^2 k^2 / 2 or B overflows")
    report.data["A"] = A
    report.data["B"] = B
    if A == 0.0:
        raise InvalidParameter(f"a = {a:g}, k = {k:g}: A = a^2 k^2 / 2 "
                               "underflows to 0")
    if abs(abs(A) - abs(B)) <= 1e-12 * max(abs(A), abs(B), 1.0):
        raise DegenerateShift(
            f"|A| = |B| = {abs(A):.6g}: no cosh normal form exists")
    bshift = 0.5 * cmath.atanh(complex(B) / complex(A))
    C = complex(A) / cmath.cosh(2.0 * bshift)
    A6 = -C / 2.0
    report.data["C"] = C
    report.data["shift_b"] = bshift
    report.data["A6"] = A6

    worst_id = 0.0
    for x in _linspace(0.0, 2.0, 21):
        lhs = A * math.cosh(2 * x) + B * math.sinh(2 * x)
        rhs = C * cmath.cosh(2.0 * (x + bshift))
        worst_id = max(worst_id, abs(lhs - rhs) / max(1.0, abs(lhs)))
    report.claim_at_most("hyperbolic shift identity A cosh + B sinh = "
                         "C cosh(2(x+b))", worst_id, "1e-12")

    char = characteristic_value(int(n), A6, parity)
    nrad = -char.value
    q_ang = a * a * k * k / 4.0
    nang = characteristic_value(int(n), q_ang, parity).value
    report.data["separation_constant_radial"] = nrad
    report.data["separation_constant_angular"] = nang

    rad = TrigODE(lambda t: 0j, lambda x, A=A, B=B, ns=nrad:
                  -(A * math.cosh(2 * x) + B * math.sinh(2 * x)) + ns,
                  notes="R'' - [A cosh 2x + B sinh 2x - nrad] R = 0")
    report.add_ode("radial", rad)

    xs = _linspace(0.0, 2.0, 41)
    res = rad.residual((x, *d) for x, d in zip(
        xs, modified_mathieu_derivatives(char, [x + bshift for x in xs])))
    report.residuals["radial"] = res
    report.claim_at_most("shifted modified Mathieu candidate solves the "
                         "radial equation with the derived (A6, b)", res,
                         "1e-6", "residual")

    if Lambda == 0.0:
        ok = abs(bshift) <= 1e-14 and abs(A6 + q_ang) <= 1e-12 * max(1.0, q_ang)
        report.claim("Lambda = 0: no shift needed, the equation is already "
                     "of modified Mathieu form",
                     "b = 0, A6 = -q_angular, residual <= 1e-8",
                     f"b = {abs(bshift):.3e}, A6 = {A6.real:.12g}, "
                     f"residual {res:.3e}",
                     ok and res <= 1e-8)

    # algebraization u = exp(2x): kind-level double-confluent signature
    half_sum = (A + B) / 2.0
    half_diff = (A - B) / 2.0
    alg = LinearODE.from_polynomials(
        [0, 0, 0, 4.0],
        [0, 0, 4.0],
        [-half_diff, nrad, -half_sum])
    report.add_ode("radial_algebraic", alg)
    report.claim_signature(
        "algebraized radial equation has the double-confluent pattern "
        "(irregular at 0 and infinity)", "radial_algebraic",
        FORMS["double-confluent"].signature)
    report.data["algebraic_ranks"] = {
        key: str(report.point("radial_algebraic", loc).rank)
        for key, loc in (("0", 0j), ("inf", "inf"))}
    report.notes.append("the n-coupling enters the printed angular and "
                        "radial equations with the same sign; a joint "
                        "product solution requires opposite signs, so the "
                        "radial constant is taken self-consistently as "
                        "-char_n(A6) and both values are recorded")
    return report


# ---------------------------------------------------------------------------
# Five-dimensional gravitational-instanton scalar field: radial equation
# ---------------------------------------------------------------------------


def eguchi_hanson_radial(k, a, m, lam):
    """Radial operator of the scalar wave equation on the extended
    gravitational-instanton background, in the shifted squared-radius
    variable u = (a^2 + r^2)/(2 a^2).

    The monic operator is

        w'' + (1/(u-1) + 1/u) w' + [ (k^2 a^2 / 4)(1/(u-1) + 1/u)
                                      + m^2/(4 u^2 (1-u)^2) ] w = 0.

    Expected structure: regular points at 0 and 1 (exponents +- i m / 2)
    and an irregular point at infinity; contrast with the Gauss
    hypergeometric pattern (all three points regular) is recorded.
    Frobenius solutions at u = 0 are built with the generic rational-ODE
    series machinery and verified by residual.
    """
    k, a, m, lam = float(k), float(a), float(m), float(lam)
    if a <= 0:
        raise InvalidParameter("scale parameter a must be positive")
    report = ScenarioReport("eguchi-hanson-radial",
                            {"k": k, "a": a, "m": m, "lam": lam})
    report.notes.append("the eigenvalue lam does not enter the printed "
                        "u-variable operator; it is recorded as an input "
                        "only")
    ode = _eguchi_hanson_ode(k, a, m)
    report.add_ode("radial", ode)
    report.claim_signature(
        "radial operator: regular at 0 and 1, irregular at infinity",
        "radial", CORPUS["instanton-radial-operator"][1])

    hyp = LinearODE.from_polynomials([0, 1.0, -1.0], [1.1, -2.0], [-0.3])
    report.add_ode("gauss-hypergeometric-contrast", hyp)
    report.claim_signature(
        "contrast: the Gauss hypergeometric pattern has all three points "
        "regular", "gauss-hypergeometric-contrast",
        CORPUS["gauss-hypergeometric"][1])

    for z0, label in ((0j, "0"), (1.0 + 0j, "1")):
        exps = indicial_exponents(ode, z0)
        report.data[f"exponents_at_{label}"] = list(exps)
    if abs(m) > 1e-12:
        e0 = report.data["exponents_at_0"]
        expected = {complex(0, m / 2.0), complex(0, -m / 2.0)}
        ok = all(min(abs(x - y) for y in expected) <= 1e-9 for x in e0)
        report.claim("indicial exponents at u = 0 are +- i m / 2",
                     f"+-{m / 2.0:.12g}i",
                     ", ".join(f"{x.imag:+.12g}i" for x in e0), ok)
        for branch in ("first", "second"):
            ser = frobenius_series(ode, 0j, branch, 80)
            zs = [r * ser.radius * cmath.exp(0.7j) for r in (0.15, 0.3, 0.45)]
            # independent second derivative from the series itself
            res = ode_residual(ode, ((z, *eval_local(ser, z)[:2],
                                      _series_second_derivative(ser, z))
                                     for z in zs))
            report.residuals[f"series_{branch}"] = res
            report.claim_at_most(f"Frobenius solution ({branch} branch) at "
                                 "u = 0 satisfies the equation", res,
                                 "1e-8", "residual")
    else:
        e0 = report.data["exponents_at_0"]
        ok = max(abs(x) for x in e0) <= 1e-9
        logcase = False
        try:
            frobenius_series(ode, 0j, "second", 10)
        except LogarithmicCase:
            logcase = True
        report.claim("m = 0: exponents at 0 collapse to (0, 0) and the "
                     "second branch is flagged logarithmic",
                     "exponents (0, 0), LogarithmicCase",
                     f"exponents ({e0[0]:.3g}, {e0[1]:.3g}), "
                     f"flagged={logcase}", ok and logcase)
    return report


def _series_second_derivative(series, z):
    """Term-wise second derivative of a LocalSeries (independent of the ODE)."""
    s = complex(z) - series.center
    rho = series.exponent
    total = 0j
    for j, h in enumerate(series.coeffs):
        e = rho + j
        total += h * e * (e - 1.0) * s ** (e - 2.0)
    return total


# ---------------------------------------------------------------------------
# Five-dimensional gravitational-instanton scalar field: angular equation
# ---------------------------------------------------------------------------


def _gauss_series(a, b, c, s_max):
    """2F1(a, b; c; s) as the exponent-0 Frobenius series at s = 0 of the
    Gauss equation s(1-s) F'' + (c - (a+b+1)s) F' - ab F = 0, summed so
    that it holds for every 0 <= s <= s_max."""
    gauss = LinearODE.from_polynomials([0.0, 1.0, -1.0],
                                       [c, -(a + b + 1.0)], [-a * b])
    return frobenius_value(gauss, 0, "first", s_max, 1e-14,
                           exponents=(0, 1 - c))[1]


def _power_product_term(theta, m, n, beta, Fargs, series):
    """Value and two derivatives of
    exp(phi(theta)) * 2F1(a, b; c; s(theta)), where

        phi = -log sin t + (1/2) log(2 - 2 cos t)
              + ((m-n)/2) log((cos t - 1)/2) + beta log(2 cos t + 2)

    and s = (1 + cos t)/2 (principal logarithms throughout). F and F' come
    from the Gauss series ``series``, F'' from the Gauss equation."""
    a, b, c = Fargs
    t = float(theta)
    st, ct = math.sin(t), math.cos(t)
    s = (1.0 + ct) / 2.0
    F0, F1, _ = eval_local(series, s)
    F2 = (a * b * F0 - (c - (a + b + 1.0) * s) * F1) / (s * (1.0 - s))
    phi = (-cmath.log(st) + 0.5 * cmath.log(2.0 - 2.0 * ct)
           + ((m - n) / 2.0) * cmath.log(complex((ct - 1.0) / 2.0))
           + beta * cmath.log(2.0 * ct + 2.0))
    cot = ct / st
    phi1 = (-cot + (0.5 + (m - n) / 2.0) * st / (1.0 - ct)
            - beta * st / (1.0 + ct))
    phi2 = (1.0 / (st * st) - (0.5 + (m - n) / 2.0) / (1.0 - ct)
            - beta / (1.0 + ct))
    s1 = -st / 2.0
    s2 = -ct / 2.0
    head = cmath.exp(phi)
    T0 = head * F0
    T1 = head * (phi1 * F0 + F1 * s1)
    T2 = head * ((phi2 + phi1 * phi1) * F0 + (2.0 * phi1 * s1 + s2) * F1
                 + s1 * s1 * F2)
    return T0, T1, T2


def eguchi_hanson_angular(lam, m, n):
    """Angular factor of the instanton-background scalar problem.

    The separated angular equation (coefficients divided by 4) is

        g'' + cot(t) g' + [ (2 m n cos t - (m^2 + n^2))/sin^2 t + lam/4 ] g = 0.

    The printed closed-form candidates are evaluated exactly as printed
    (including the twice-printed (cos t/2 - 1/2) factor, combined into the
    exponent (m-n)/2), each from one Gauss series (``_gauss_series``), and
    their residual is recorded as a pass/fail claim rather than assumed; at
    m + n = 0 the two coincide and are evaluated once. Raises
    ParameterPole when either candidate's series parameter 1 -+ (n+m) is a
    non-positive integer.
    """
    lam, m, n = float(lam), float(m), float(n)
    report = ScenarioReport("eguchi-hanson-angular",
                            {"lam": lam, "m": m, "n": n})
    root = cmath.sqrt(complex(lam + 1.0))
    report.data["sqrt_lam_plus_1"] = root

    def qfun(t, m=m, n=n, lam=lam):
        st = math.sin(t)
        return (2.0 * m * n * math.cos(t) - (m * m + n * n)) / (st * st) \
            + lam / 4.0

    ang = TrigODE(lambda t: math.cos(t) / math.sin(t), qfun,
                  poles=(0.0, math.pi), period=2.0 * math.pi,
                  notes="g'' + cot t g' + [(2mn cos t - m^2 - n^2)/sin^2 t "
                        "+ lam/4] g = 0")
    report.add_ode("angular", ang)

    c1 = 1.0 - n - m
    c2 = 1.0 + n + m
    for c in (c1, c2):
        if is_integer(c) and c < 0.5:
            raise ParameterPole(
                f"series parameter {c:g} is a non-positive integer")

    ts = _linspace(0.45, math.pi - 0.45, 31)
    t0 = math.pi / 2.0

    def branch(beta, *Fargs):
        """Residual over ts and (g, g', g'') at t0 of one candidate."""
        series = _gauss_series(*Fargs, (1.0 + math.cos(ts[0])) / 2.0)
        res = ang.residual(
            (t, *_power_product_term(t, m, n, beta, Fargs, series))
            for t in ts)
        return res, _power_product_term(t0, m, n, beta, Fargs, series)

    cand1 = (c1 / 2.0, 0.5 - n + root / 2.0, 0.5 - n - root / 2.0, c1)
    cand2 = (c2 / 2.0, 0.5 + m + root / 2.0, 0.5 + m - root / 2.0, c2)
    res1, v1 = branch(*cand1)
    # at m + n = 0 the second printed candidate is the first one again
    res2, v2 = (res1, v1) if cand2 == cand1 else branch(*cand2)
    report.residuals["branch1"] = res1
    report.residuals["branch2"] = res2
    for name, res in (("first", res1), ("second", res2)):
        report.claim_at_most(f"printed hypergeometric candidate ({name} "
                             "branch) solves the angular equation", res,
                             "1e-8", "residual")

    W = v1[0] * v2[1] - v2[0] * v1[1]
    report.data["midpoint_wronskian"] = W
    distinct = abs(m + n) > 1e-9
    if distinct:
        report.claim("the two branches are independent at the midpoint",
                     "|W| > 1e-10", f"|W| = {abs(W):.3e}", abs(W) > 1e-10)
    else:
        report.notes.append("m + n = 0 makes the two printed branches "
                            "coincide; Wronskian check skipped")
    if abs(m) <= 1e-12 and abs(n) <= 1e-12:
        report.claim_at_most("m = n = 0 reduces to the Legendre problem in "
                             "cos t with eigenvalue lam/4", max(res1, res2),
                             "1e-8", "candidate residual")
    return report


# ---------------------------------------------------------------------------
# Boundary-restricted Dirac operator on the helicoid
# ---------------------------------------------------------------------------


def _boundary_trig_ode(ak, x0):
    c2 = math.cosh(2.0 * x0)
    s2 = math.sinh(2.0 * x0)

    def qfun(t, ak=ak, c2=c2, s2=s2):
        return -(ak * ak / 2.0) * (cmath.cos(2.0 * t) * c2
                                   - 1j * cmath.sin(2.0 * t) * s2 + c2)

    return TrigODE(lambda t: cmath.tan(t), qfun,
                   poles=(math.pi / 2.0, 3.0 * math.pi / 2.0),
                   period=2.0 * math.pi,
                   notes="f'' + tan T f' - (ak)^2/2 [cos 2T cosh 2x0 "
                         "- i sin 2T sinh 2x0 + cosh 2x0] f = 0")


def _boundary_v_ode(ak, x0):
    """Image of the boundary equation under v = tan T (derived form):
    (1+v^2)^3 f_vv + 3v(1+v^2)^2 f_v - (ak)^2 (cosh 2x0 - i v sinh 2x0) f = 0,
    from d/dT = (1+v^2) d/dv, cos 2T = (1-v^2)/(1+v^2) and
    sin 2T = 2v/(1+v^2). Its finite singular points are v = +-i."""
    g = ak * ak
    A = [1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0]
    B = [0.0, 3.0, 0.0, 6.0, 0.0, 3.0]
    C = [-g * math.cosh(2.0 * x0), 1j * g * math.sinh(2.0 * x0)]
    return LinearODE.from_polynomials(A, B, C)


def _boundary_u_ode_derived(ak, x0):
    """Image of the boundary equation under u = exp(2iT) (derived form):
    4u^3(u+1) F'' + 2u^2(u+3) F' + (ak)^2/4 e^{-2x0} (u+1)^2 (u+e^{4x0}) F = 0.
    """
    g = ak * ak / 4.0 * math.exp(-2.0 * x0)
    e4 = math.exp(4.0 * x0)
    # (u+1)^2 (u + e^{4x0}) = u^3 + (2 + e4) u^2 + (1 + 2 e4) u + e4
    C = [g * e4, g * (1.0 + 2.0 * e4), g * (2.0 + e4), g]
    A = [0.0, 0.0, 0.0, 4.0, 4.0]
    B = [0.0, 0.0, 6.0, 2.0]
    return LinearODE.from_polynomials(A, B, C)


def boundary_dirac_equation(a, k, x0, phi):
    """Dirac operator restricted to a fixed-radius helicoid boundary.

    In the shifted angle T = theta - phi - i x0 the second-order reduction
    reads f'' + tan T f' - (ak)^2/2 [cos 2T cosh 2x0 - i sin 2T sinh 2x0
    + cosh 2x0] f = 0. The substitution u = exp(2iT) algebraizes it; the
    derived image (used for the solution-transport check) is

        4u^3(u+1) F'' + 2u^2(u+3) F'
          + (ak)^2/4 e^{-2x0} (u+1)^2 (u + e^{4x0}) F = 0,

    while the literal printed transcription differs in the first-derivative
    term and the exponential weights; both are classified (same signature:
    irregular at 0 and infinity, regular at -1) and the mismatch is
    recorded. Transport: the pair of T-data (f, f') = (1, 0), (0, 1) is
    carried in v = tan T, where the equation is rational
    (``_boundary_v_ode``; its states mapped back by f' = (1+v^2) f_v are
    checked against the T-equation), mapped by F' = f'/(2iu) and compared
    against integration of the derived u-equation along the image path,
    then carried back to T; the pair walks each of the three paths once.
    Raises InvalidParameter unless a > 0, x0 >= 0 and k > 0: at ak = 0 the
    u-equations lose their C term, so 0 and infinity are regular; also when
    e^(4 x0) overflows.
    """
    a, k, x0, phi = float(a), float(k), float(x0), float(phi)
    if a <= 0 or k <= 0 or x0 < 0:
        raise InvalidParameter("need a > 0, k > 0, x0 >= 0")
    try:
        math.exp(4.0 * x0)
    except OverflowError:
        raise InvalidParameter(f"x0 = {x0:g}: e^(4 x0) overflows") from None
    ak = a * k
    report = ScenarioReport("boundary-dirac",
                            {"a": a, "k": k, "x0": x0, "phi": phi})
    report.notes.append("working angle is T = theta - phi - i x0; the "
                        "T-equation itself is phi-free")
    trig = _boundary_trig_ode(ak, x0)
    report.add_ode("boundary-angular", trig)

    derived = _boundary_u_ode_derived(ak, x0)
    printed = _boundary_u_ode_printed(ak, x0)
    report.add_ode("algebraic-derived", derived)
    report.add_ode("algebraic-printed", printed)
    _, expected = CORPUS["helicoid-boundary-algebraic"]
    report.claim_signature(
        "algebraized equation: irregular at 0 and infinity, regular at -1",
        "algebraic-printed", expected)
    report.claim_signature(
        "derived transform shares the signature",
        "algebraic-derived", expected)
    mismatch = _operator_distance(derived, printed)
    report.data["printed_vs_derived_distance"] = mismatch
    report.notes.append(
        "literal transcription and derived transform differ (distance "
        f"{mismatch:.3g}): the printed first-derivative term carries a "
        "spurious i and the exponential weights are unhalved; transport "
        "checks use the derived form")

    # zero-coupling limit: f = sin T solves f'' + tan T f' = 0
    trig0 = _boundary_trig_ode(0.0, x0)
    res0 = trig0.residual((t, cmath.sin(t), cmath.cos(t), -cmath.sin(t))
                          for t in _linspace(0.2, 1.2, 9))
    report.residuals["zero_coupling_elementary"] = res0
    report.claim_at_most("zero-coupling limit has the elementary solution "
                         "f = sin T", res0, "1e-10", "residual")

    vode = _boundary_v_ode(ak, x0)
    report.add_ode("tangent-derived", vode)

    # transport T -> u and back, the pair (f, f_T) = (1, 0), (0, 1) carried
    # together, so each path is walked once. A Taylor step ends at every
    # vertex, so the straight v run is one segment. Every vertex of the u
    # polyline lies on |u| = 1 at arg u = 2T in [0.3, 2.5], 0.275 apart, so
    # each chord stays at |u| >= cos(0.1375); the lunes between the chords
    # and the arc hold neither 0 nor -1, so the polyline continues solutions
    # as the arc does
    t0, t1 = 0.15, 1.25
    v0, v1 = math.tan(t0), math.tan(t1)
    uverts = tuple(cmath.exp(2j * t) for t in _linspace(t0, t1, 9))
    u0, u1 = uverts[0], uverts[-1]
    data = ((1.0, 0.0), (0.0, 1.0))

    def t_sample(t, v, w, dw):
        """(T, f, f_T, f_TT) of a state (w, dw) at v = tan T, f_vv from
        vode."""
        s = 1.0 + v * v
        ddw = -(vode.p(v) * dw + vode.q(v) * w)
        return (t, w, s * dw, s * s * ddw + 2.0 * v * s * dw)

    starts = [(w0, dw0 / (1.0 + v0 * v0)) for w0, dw0 in data]
    ends_v = transport(vode.cleared(), (v0, v1), starts, 1e-11)
    ends_u = transport(derived.cleared(), uverts,
                       [(w0, dw0 / (2j * u0)) for w0, dw0 in data], 1e-11)
    # round trip: both u end states back along the reversed path
    backs = transport(derived.cleared(), uverts[::-1], ends_u, 1e-11)
    worst_fwd = 0.0
    worst_rt = 0.0
    samples = []
    for (w0, dw0), start, (vw, vdw), (uw, udw), (bw, bdw) in zip(
            data, starts, ends_v, ends_u, backs):
        samples += [t_sample(t0, v0, *start), t_sample(t1, v1, vw, vdw)]
        expect_du = vdw * (1.0 + v1 * v1) / (2j * u1)
        scale = max(1.0, abs(vw), abs(expect_du))
        err = max(abs(uw - vw), abs(udw - expect_du)) / scale
        worst_fwd = max(worst_fwd, err)
        rt_err = max(abs(bw - w0), abs(bdw * (2j * u0) - dw0))
        worst_rt = max(worst_rt, rt_err)
    res_v = trig.residual(samples)
    report.residuals["tangent_image"] = res_v
    report.claim_at_most("v = tan T maps solutions of the algebraic tangent "
                         "form onto solutions of the angular form", res_v,
                         "1e-10", "residual")
    report.residuals["transport"] = worst_fwd
    report.residuals["transport_roundtrip"] = worst_rt
    report.claim_at_most("u = exp(2iT) maps solutions of the angular form "
                         "onto solutions of the algebraic form", worst_fwd,
                         "1e-6")
    report.claim_at_most("transport round trip restores the initial data",
                         worst_rt, "1e-8")

    # monodromy of the algebraic equation around u = 0
    loop = ComplexPath.circle(0j, 0.82, n=28, start_angle=2.0 * t0)
    M = loop_transfer_matrix(derived, loop, tol=1e-11)
    report.data["monodromy_eigenvalues"] = list(M.eigenvalues)
    report.claim("loop transfer matrix around u = 0 is non-degenerate",
                 "|det| > 1e-8", f"|det| = {abs(M.determinant):.6g}",
                 abs(M.determinant) > 1e-8)
    return report


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIOS = {
    "helmholtz-elliptic": (helmholtz_elliptic,
                           {"a": 2.0, "k": 1.0, "n": 2, "parity": "even",
                            "b": None}),
    "stark": (stark_separation, {"E": -0.5, "F": 0.01, "m": 0.0,
                                 "beta1": 0.5}),
    "h2plus": (h2plus_separation, {"lam": 0.8, "kappa": 0.6, "mu": 1.1,
                                   "m": 1.0}),
    "nutku-angular": (nutku_angular, {"a": 1.0, "k": 2.0, "n": 2,
                                      "parity": "even"}),
    "nutku-radial": (nutku_radial, {"a": 1.0, "k": 2.0, "Lambda": 0.5,
                                    "n": 2, "parity": "even",
                                    "grouping": "consistent"}),
    "eguchi-hanson-radial": (eguchi_hanson_radial,
                             {"k": 1.0, "a": 1.0, "m": 1.0, "lam": 2.0}),
    "eguchi-hanson-angular": (eguchi_hanson_angular,
                              {"lam": 2.0, "m": 0.0, "n": 0.0}),
    "boundary-dirac": (boundary_dirac_equation,
                       {"a": 1.0, "k": 1.0, "x0": 0.3, "phi": 0.0}),
}


def run_scenario(scenario_id, overrides=None):
    """Run a registered scenario with its defaults plus overrides. Raises
    InvalidParameter for an unknown scenario or parameter name, or for a
    value that cannot take its default's type (_typed_like)."""
    if scenario_id not in SCENARIOS:
        raise InvalidParameter(f"unknown scenario {scenario_id!r}; known: "
                               + ", ".join(sorted(SCENARIOS)))
    fn, defaults = SCENARIOS[scenario_id]
    args = dict(defaults)
    for key, val in (overrides or {}).items():
        if key not in args:
            raise InvalidParameter(f"scenario {scenario_id!r} has no parameter "
                                   f"{key!r}; expects {sorted(args)}")
        args[key] = _typed_like(scenario_id, key, val, args[key])
    return fn(**args)


def _typed_like(scenario_id, key, val, ref):
    """val with the type of its default ref: an int, a finite float, a str,
    or (ref None) None or a finite complex, a string giving None for none
    or empty (any case) and otherwise read by grammar.parse_complex;
    InvalidParameter when it cannot take that type."""
    try:
        if isinstance(ref, str):
            typed, ok = val, isinstance(val, str)
        elif isinstance(ref, int):
            typed = val if isinstance(val, int) else int(float(val))
            ok = typed == float(val)
        elif isinstance(ref, float):
            typed = float(val)
            ok = math.isfinite(typed)
        elif isinstance(val, str):
            typed = None if val.strip().lower() in ("none", "") \
                else parse_complex(val)
            ok = True
        else:
            typed = None if val is None else complex(val)
            ok = typed is None or cmath.isfinite(typed)
    except (TypeError, ValueError, OverflowError, MalformedComplex):
        ok = False
    if not ok:
        kind = {str: "a string", int: "an integer", float: "a finite number"}
        raise InvalidParameter(
            f"scenario {scenario_id!r}: parameter {key!r} expects "
            f"{kind.get(type(ref), 'None or a finite complex number')}, "
            f"got {val!r}")
    return typed
