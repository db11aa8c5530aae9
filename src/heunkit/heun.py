"""Constructors and Frobenius solutions for the Heun family.

The general four-regular-point equation is built in the normal form

    w'' + [c/z + d/(z-1) + e/(z-f)] w' + (a*b*z - q) / (z(z-1)(z-f)) w = 0

with the exponent-sum constraint a + b + 1 = c + d + e, under which the
singular points 0, 1, f, infinity are all regular with local exponents
{0, 1-c}, {0, 1-d}, {0, 1-e} and {a, b}.

Series solutions: multiplying through by z(z-1)(z-f) gives

    T(z) w'' + S(z) w' + (a*b*z - q) w = 0,
    T = z(z-1)(z-f),  S = c(z-1)(z-f) + d z(z-f) + e z(z-1).

In the local variable s = z - z0 (z0 one of 0, 1, f) write
T = t1 s + t2 s^2 + t3 s^3, S = s0 + s1 s + s2 s^2, L = l0 + l1 s.
Substituting w = s^rho * sum h_k s^k and collecting s^(k+rho) yields the
three-term recurrence A_k h_{k+1} + B_k h_k + C_k h_{k-1} = 0 with

    A_k = t1 (k+1+rho)(k+rho)   + s0 (k+1+rho)
    B_k = t2 (k+rho)(k+rho-1)   + s1 (k+rho)    + l0
    C_k = t3 (k-1+rho)(k-2+rho) + s2 (k-1+rho)  + l1.

No two-term relation exists for generic parameters; the degeneration
e = 0, q = a*b*f collapses the third singular point and the recurrence
then reproduces the Gauss hypergeometric coefficients term by term
(regression-tested, and the basis for the classifier cross-checks).

general_heun caches T, S, L with the exact points 0, 1, f as the
equation's cleared form (divided by z - f where the degeneration leaves f
ordinary), so the classifier reports exactly 0, 1 and f, and heun_series
is series.frobenius_series with Heun's labels (center 0/1/f, exponent 0
or 1-c/1-d/1-e): the generic recurrence at a simple root of T is this
one. heun_value is series.frobenius_value with the same labels: the
series is summed at z until the tail rule of series.sum_until holds.
heun_recurrence_residual re-substitutes a series into the recurrence as
written here, apart from that code.

Confluent family members are transcribed literally from their usual
printed shapes, one FORMS row per kind; reductions between members
(double-confluent -> trigonometric Mathieu operator, anharmonic oscillator
-> biconfluent) derive their variable/gauge changes here and are verified
numerically by residuals, not assumed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    CollidingSingularities,
    DegenerateReduction,
    FuchsViolation,
    GrammarError,
    MalformedComplex,
    NonFiniteInput,
    NotReducible,
    UnknownCenter,
    UnknownKind,
)
from .grammar import parse_complex, parse_params_line
from .ode import LinearODE
from .poly import MULT_BASE, TRIM_REL, Polynomial, make_rational, near
from .series import frobenius_series, frobenius_value

FUCHS_TOL = 1e-12
# poly accepts roots closer than about MULT_BASE as one multiple root, so
# the classifier merges f into 0 for |f| up to about 2 MULT_BASE and into 1
# for |f - 1| up to about 2.8 MULT_BASE (8.45e-5 measured); refuse those f.
COLLISION_TOL = 4.0 * MULT_BASE
MAX_F = 0.01 / TRIM_REL  # 1% of the |f| where poly drops the 1 of z(z-1)(z-f)


@dataclass(frozen=True)
class GeneralHeunParams:
    """Exponent parameters a..e, singular location f, accessory parameter q;
    NonFiniteInput naming the first inf or nan parameter, then
    CollidingSingularities when f is within COLLISION_TOL (relative) of 0
    or 1 or when |f| > MAX_F = 0.01/TRIM_REL = 1e12 (f merges into inf)."""

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    q: complex

    def __post_init__(self):
        for name in "abcdefq":
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise NonFiniteInput(f"Heun parameter {name} = {value} is "
                                     "not finite")
            object.__setattr__(self, name, value)
        gap = self.a + self.b + 1.0 - (self.c + self.d + self.e)
        scale = max(1.0, *(abs(getattr(self, n)) for n in "abcde"))
        if abs(gap) > FUCHS_TOL * scale:
            raise FuchsViolation(
                f"a+b+1 - (c+d+e) = {gap:.3e} violates the exponent-sum relation")
        for bad in (0.0, 1.0):
            if abs(self.f - bad) <= COLLISION_TOL * max(1.0, abs(self.f)):
                raise CollidingSingularities(
                    f"f = {self.f} collides with the singular point at {bad} "
                    f"(closer than {COLLISION_TOL:.2g} relative)")
        if abs(self.f) > MAX_F:
            raise CollidingSingularities(
                f"f = {self.f} merges into the point at infinity "
                f"(|f| above {MAX_F:.0e})")


def _heun_T(params):
    f = params.f
    # z(z-1)(z-f) = f z - (1+f) z^2 + z^3
    return Polynomial((0j, f, -(1.0 + f), 1.0))


def _heun_S(params):
    a, b, c, d, e, f = (params.a, params.b, params.c, params.d, params.e, params.f)
    # c(z-1)(z-f) + d z(z-f) + e z(z-1)
    return (Polynomial((f, -(1.0 + f), 1.0)) * c
            + Polynomial((0j, -f, 1.0)) * d
            + Polynomial((0j, -1.0, 1.0)) * e)


def _heun_L(params):
    return Polynomial((-params.q, params.a * params.b))


def general_heun(params):
    """The LinearODE for the general Heun equation with these parameters,
    built once and cached on them, like LinearODE.cleared.

    The cached cleared form is the T, S, L the equation was built from,
    with the exact points: root-finding T would centre series and shifts a
    few ulps off 1 and f. A point where p and q have no pole (f at the
    degeneration e = 0, q = a*b*f) is divided out of T, S and L; the
    remainders are what make_rational cancelled. COLLISION_TOL keeps the
    poles apart, so they are the exact points.
    """
    cached = params.__dict__.get("_ode")
    if cached is None:
        T, S, L = _heun_T(params), _heun_S(params), _heun_L(params)
        cached = LinearODE(make_rational(S, T), make_rational(L, T))
        kept = []
        for z0 in (0j, 1.0 + 0j, params.f):
            if cached.p.pole_order_at(z0)[0] or cached.q.pole_order_at(z0)[0]:
                kept.append(z0)
            else:
                T, S, L = T.deflate(z0), S.deflate(z0), L.deflate(z0)
        kept.sort(key=lambda z: (z.real, z.imag))
        cached.__dict__["_cleared"] = (T, S, L, tuple(kept))
        params.__dict__["_ode"] = cached
    return cached


def heun_center(params, center):
    """(index, location) of one of the finite singular points 0, 1, f.

    ``center`` is "f", a number, or a complex literal such as "1" or
    "2.5"; a number names the point it is ``poly.near``. Raises
    UnknownCenter, with the literal's message for a malformed string.
    """
    if isinstance(center, str):
        if center.strip() == "f":
            return 2, params.f
        try:
            center = parse_complex(center)
        except MalformedComplex as exc:
            raise UnknownCenter(f"center: {exc}") from None
    for idx, loc in enumerate((0j, 1.0 + 0j, params.f)):
        if near(complex(center), loc):
            return idx, loc
    raise UnknownCenter(f"center {center} is not one of 0, 1, f={params.f}")


def _heun_branches(params, center):
    """(equation, center, exact exponents) at one of the points 0, 1, f."""
    idx, z0 = heun_center(params, center)
    second = 1.0 - (params.c, params.d, params.e)[idx]
    return general_heun(params), z0, (0j, second)


def heun_series(params, center, branch="first", n_terms=60):
    """Frobenius series at one of the finite singular points 0, 1, f.

    The generic series of ``series.frobenius_series`` with Heun's labels:
    branch="first" is the exponent-0 solution; "second" uses the exponent
    1-c / 1-d / 1-e at centers 0 / 1 / f. LogarithmicCase is raised when
    the two exponents differ by an integer and the requested branch would
    need a logarithm; NotRegular when the center is ordinary (f at the
    degeneration e = 0, q = a*b*f).
    """
    ode, z0, exponents = _heun_branches(params, center)
    return frobenius_series(ode, z0, branch, n_terms, exponents=exponents)


def heun_value(params, center, branch, z, tail_tol=1e-12):
    """(SeriesValue, LocalSeries) of heun_series's solution at z: that is
    ``series.frobenius_value`` with Heun's labels, a series as long as the
    tail rule of ``series.sum_until`` needs for tail_tol at z."""
    ode, z0, exponents = _heun_branches(params, center)
    return frobenius_value(ode, z0, branch, z, tail_tol, exponents=exponents)


def heun_recurrence_residual(params, series):
    """Max residual of re-substituting a series into its recurrence,
    normalized per order by the largest of the three terms."""
    idx, z0 = heun_center(params, series.center)
    T = _heun_T(params).shifted(z0)
    S = _heun_S(params).shifted(z0)
    L = _heun_L(params).shifted(z0)
    t = list(T.coeffs) + [0j] * (4 - len(T.coeffs))
    s = list(S.coeffs) + [0j] * (3 - len(S.coeffs))
    l = list(L.coeffs) + [0j] * (2 - len(L.coeffs))
    rho = series.exponent
    h = series.coeffs
    worst = 0.0
    for k in range(0, len(h) - 1):
        kr = k + rho
        A = t[1] * (kr + 1.0) * kr + s[0] * (kr + 1.0)
        B = t[2] * kr * (kr - 1.0) + s[1] * kr + l[0]
        C = t[3] * (kr - 1.0) * (kr - 2.0) + s[2] * (kr - 1.0) + l[1]
        prev = h[k - 1] if k >= 1 else 0j
        terms = (A * h[k + 1], B * h[k], C * prev)
        res = abs(sum(terms))
        norm = max(1e-300, max(abs(v) for v in terms))
        worst = max(worst, res / norm)
    return worst


# ---------------------------------------------------------------------------
# Confluent family
# ---------------------------------------------------------------------------

def _self_adjoint_pair(p, beta, lam, m2_term):
    """(z^2-1) w'' + 2z w' + [-p^2(z^2-1) + 2 p beta z - lam - m2/(z^2-1)] w = 0
    multiplied by (z^2-1); returns (A, B, C) coefficient polynomials."""
    zsq = Polynomial((-1.0, 0j, 1.0))  # z^2 - 1
    A = zsq * zsq
    B = Polynomial((0j, 2.0)) * zsq
    inner = -p * p * zsq + Polynomial((0j, 2.0 * p * beta)) - Polynomial((lam,))
    C = inner * zsq - m2_term
    return A, B, C


def _double_confluent(P):
    a1, am1 = P["alpha1"], P["alpham1"]
    return (Polynomial((0j, 0j, 0j, 1.0)),        # z^3
            Polynomial((0j, am1, 1.0, a1)),       # alpha1 z^3 + z^2 + alpham1 z
            Polynomial((P["Bm1"] - am1 / 2.0, P["B0"] + a1 * am1 / 2.0,
                        P["B1"] + a1 / 2.0)))


class Form(NamedTuple):
    """A confluent-family member: its parameter names, its singularity
    signature for generic parameters, and build(params), its (A, B, C)
    coefficient polynomials of A w'' + B w' + C w = 0."""

    params: tuple
    signature: dict
    build: Callable


_PAIR = {-1.0 + 0j: "regular", 1.0 + 0j: "regular", "inf": "irregular"}
_ORIGIN = {0j: "regular", "inf": "irregular"}

FORMS = {
    "symmetric-confluent": Form(
        ("p", "beta", "lam", "m", "s"), _PAIR,
        lambda P: _self_adjoint_pair(P["p"], P["beta"], P["lam"], Polynomial(
            (P["m"] * P["m"] + P["s"] * P["s"], 2.0 * P["m"] * P["s"])))),
    "two-center-coulomb": Form(
        ("p", "beta", "lam", "m"), _PAIR,
        lambda P: _self_adjoint_pair(P["p"], P["beta"], P["lam"],
                                     Polynomial((P["m"] * P["m"],)))),
    "spheroidal": Form(
        ("p", "lam", "m"), _PAIR,
        lambda P: _self_adjoint_pair(P["p"], 0j, P["lam"],
                                     Polynomial((P["m"] * P["m"],)))),
    "algebraic-mathieu": Form(
        ("p", "lam"), _PAIR,
        lambda P: _self_adjoint_pair(P["p"], 0j, P["lam"],
                                     Polynomial((0.25,)))),
    "double-confluent": Form(
        ("alpha1", "alpham1", "B1", "B0", "Bm1"),
        {0j: "irregular", "inf": "irregular"}, _double_confluent),
    "biconfluent": Form(
        ("A0", "A1", "A2", "A3"), _ORIGIN,
        lambda P: (Polynomial((0j, 0j, 1.0)), Polynomial((0j, 1.0)),  # z^2, z
                   Polynomial((P["A0"], P["A1"], P["A2"], P["A3"], -1.0)))),
    "anharmonic": Form(
        ("E", "nu", "mu", "lam", "eta"), _ORIGIN,
        lambda P: (Polynomial((0j, 0j, 1.0)), Polynomial((0j,)),       # r^2, 0
                   Polynomial((-P["nu"], 0j, P["E"], 0j, -P["mu"], 0j,
                               -P["lam"], 0j, -P["eta"])))),
    "triconfluent": Form(
        ("A0", "A1", "A2"), {"inf": "irregular"},
        lambda P: (Polynomial((1.0,)), Polynomial((0j,)),
                   Polynomial((P["A0"], P["A1"], P["A2"], 0j, -2.25)))),
}


@dataclass(frozen=True)
class ConfluentFormParams:
    """A FORMS kind and its parameters; UnknownKind for a kind or parameter
    names not in FORMS, NonFiniteInput naming an inf or nan parameter."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in FORMS:
            raise UnknownKind(f"unknown confluent form {self.kind!r}")
        expected = set(FORMS[self.kind].params)
        got = set(self.params)
        if got != expected:
            raise UnknownKind(
                f"{self.kind} expects parameters {sorted(expected)}, got {sorted(got)}")
        clean = {k: complex(v) for k, v in self.params.items()}
        for k, v in clean.items():
            if not cmath.isfinite(v):
                raise NonFiniteInput(f"{self.kind} parameter {k} = {v} is "
                                     "not finite")
        object.__setattr__(self, "params", clean)

    def __getitem__(self, key):
        return self.params[key]


def build_confluent_form(cf):
    """Transcribe a confluent-family member into a LinearODE: the
    coefficients of its FORMS row, each kind multiplied through by its
    leading polynomial so they are rational. The classifier is expected to
    reproduce the row's signature for generic parameters."""
    if not isinstance(cf, ConfluentFormParams):
        raise UnknownKind("build_confluent_form expects ConfluentFormParams")
    return LinearODE.from_polynomials(*FORMS[cf.kind].build(cf.params))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigMathieuForm:
    """Target of the double-confluent reduction: v'' + (b - h2 cos^2 t) v = 0
    on the unit circle z = exp(i t), with gauge v = w * exp(i alpha sin t)."""

    b: complex
    h2: complex
    alpha: complex

    @property
    def mathieu_q(self):
        """Parameter of the equivalent v'' + (a - 2q cos 2t) v = 0 form."""
        return self.h2 / 4.0

    @property
    def mathieu_a(self):
        return self.b - self.h2 / 2.0


def double_confluent_to_mathieu(cf):
    """Reduce the double-confluent form to the trigonometric Mathieu operator.

    Requires alpha1 = alpham1 =: alpha and B1 = Bm1 = 0. On z = exp(i t) the
    operator D = z d/dz becomes -i d/dt, giving

        -v_tt - 2 i alpha cos(t) v_t + [i alpha sin t + B0 + alpha^2/2] v = 0,

    and removing the first-derivative term with v = w exp(i alpha sin t)
    leaves v'' + (b - h2 cos^2 t) v = 0 with b = -B0 - alpha^2/2, h2 = -alpha^2.
    The mapping is verified numerically by residuals (see tests), not assumed.
    """
    if cf.kind != "double-confluent":
        raise NotReducible("reduction starts from the double-confluent form")
    a1, am1 = cf["alpha1"], cf["alpham1"]
    scale = max(1.0, abs(a1), abs(am1), abs(cf["B0"]), abs(cf["B1"]), abs(cf["Bm1"]))
    if abs(a1 - am1) > 1e-12 * scale:
        raise NotReducible(f"alpha1 = {a1} and alpham1 = {am1} must match")
    if abs(cf["B1"]) > 1e-12 * scale or abs(cf["Bm1"]) > 1e-12 * scale:
        raise NotReducible("B1 and Bm1 must vanish for the Mathieu reduction")
    alpha = a1
    return TrigMathieuForm(b=-cf["B0"] - alpha * alpha / 2.0,
                           h2=-alpha * alpha,
                           alpha=alpha)


@dataclass(frozen=True)
class AnharmonicReduction:
    """t = sigma r^2 with w(r) = t**(1/4) v(t); v satisfies the biconfluent
    form. sigma = (eta/4)**(1/4) scales the quartic coefficient to -1."""

    sigma: complex

    def to_r(self, t):
        return (t / self.sigma) ** 0.5

    def map_solution(self, r, w, dw, ddw):
        """(w, w', w'') at r -> (v, v', v'') at t = sigma r^2."""
        sigma = self.sigma
        t = sigma * r * r
        rt = 1.0 / (2.0 * (sigma * t) ** 0.5)          # dr/dt
        rtt = -sigma / (4.0 * (sigma * t) ** 1.5)      # d2r/dt2
        wt = dw * rt
        wtt = ddw * rt * rt + dw * rtt
        g = t ** -0.25
        v = g * w
        vt = -0.25 * t ** -1.25 * w + g * wt
        vtt = (5.0 / 16.0) * t ** -2.25 * w - 0.5 * t ** -1.25 * wt + g * wtt
        return t, v, vt, vtt

    def map_solution_back(self, t, v, vt, vtt):
        """(v, v', v'') at t -> (w, w', w'') at r = sqrt(t/sigma)."""
        sigma = self.sigma
        r = self.to_r(t)
        tr = 2.0 * sigma * r                           # dt/dr
        trr = 2.0 * sigma
        g = t ** 0.25
        w = g * v
        wt = 0.25 * t ** -0.75 * v + g * vt
        wtt = -(3.0 / 16.0) * t ** -1.75 * v + 0.5 * t ** -0.75 * vt + g * vtt
        dw = wt * tr
        ddw = wtt * tr * tr + wt * trr
        return r, w, dw, ddw


# ---------------------------------------------------------------------------
# Flat key-value text form (CLI and golden files)
# ---------------------------------------------------------------------------


def heun_params_from_text(text):
    """Parse 'heun a=.. b=.. c=.. d=.. e=.. f=.. q=..'."""
    _, params = parse_params_line(text, expected_head="heun")
    expected = set("abcdefq")
    if set(params) != expected:
        raise GrammarError(
            f"heun line expects exactly {sorted(expected)}, got {sorted(params)}")
    return GeneralHeunParams(**params)


def confluent_params_from_text(text):
    """Parse 'cform kind=<kind> <name>=<value> ...'."""
    _, params = parse_params_line(text, expected_head="cform")
    kind = params.pop("kind", None)
    if kind is None:
        raise GrammarError("cform line needs kind=<form name>")
    return ConfluentFormParams(kind, params)


def anharmonic_to_biconfluent(E, nu, mu, lam, eta):
    """Reduce w'' + (E - nu/r^2 - mu r^2 - lam r^4 - eta r^6) w = 0 to the
    biconfluent form by t = sigma r^2 (sigma = (eta/4)**(1/4)) and the gauge
    w = t**(1/4) v, which yields

        t^2 v'' + t v' + (A0 + A1 t + A2 t^2 + A3 t^3 - t^4) v = 0,
        A0 = -1/16 - nu/4, A1 = E/(4 sigma), A2 = -mu/(4 sigma^2),
        A3 = -lam/(4 sigma^3).

    Raises DegenerateReduction when eta = 0 (the quartic target needs the
    r^6 anchor; the eta = 0 equation reduces elsewhere).
    """
    E, nu, mu, lam, eta = (complex(v) for v in (E, nu, mu, lam, eta))
    scale = max(1.0, abs(E), abs(nu), abs(mu), abs(lam))
    if abs(eta) <= 1e-14 * scale:
        raise DegenerateReduction("eta = 0: no quartic anchor for this reduction")
    sigma = (eta / 4.0) ** 0.25
    cf = ConfluentFormParams("biconfluent", {
        "A0": -1.0 / 16.0 - nu / 4.0,
        "A1": E / (4.0 * sigma),
        "A2": -mu / (4.0 * sigma ** 2),
        "A3": -lam / (4.0 * sigma ** 3),
    })
    return cf, AnharmonicReduction(sigma)
