"""Canonical classification corpus.

A fixed set of named second-order equations with known singularity
signatures, used by the acceptance suite and the CLI: the textbook ladder
(constant-solution equation up to the confluent hypergeometric), the
general four-regular-point equation, every confluent family member at
generic parameters, and the two scenario operators with quoted structures.
"""

from __future__ import annotations

import math

from .heun import SIGNATURES, ConfluentFormParams, GeneralHeunParams, \
    build_confluent_form, general_heun
from .ode import LinearODE


def _eguchi_hanson_ode(k, a, m):
    """The monic radial operator of scenarios.eguchi_hanson_radial in u."""
    ka2 = k * k * a * a
    # p = (2u - 1)/(u(u-1)); q = [k^2 a^2 (2u-1) u (u-1) + m^2] / (4 u^2 (u-1)^2)
    # with (2u-1) u (u-1) = 2u^3 - 3u^2 + u
    q_num = [m * m, ka2, -3.0 * ka2, 2.0 * ka2]
    q_den = [0.0, 0.0, 4.0, -8.0, 4.0]  # 4u^2(u-1)^2
    return LinearODE.from_coefficients([-1.0, 2.0], [0.0, -1.0, 1.0],
                                       q_num, q_den)


def _boundary_u_ode_printed(ak, x0):
    """Literal transcription of the printed algebraic form:
    4u^3(u+1) F'' + [4u^2(u+1) - 2i u^2(u-1)] F'
      + (ak)^2/2 (u+1) (u^2 e^{-2x0} + u cosh 2x0 + e^{2x0}) F = 0."""
    g = ak * ak / 2.0
    em, ep, ch = math.exp(-2.0 * x0), math.exp(2.0 * x0), math.cosh(2.0 * x0)
    # (u+1)(em u^2 + ch u + ep)
    C = [g * ep, g * (ch + ep), g * (em + ch), g * em]
    A = [0.0, 0.0, 0.0, 4.0, 4.0]
    # 4u^2(u+1) - 2i u^2(u-1) = (4 - 2i) u^3 + (4 + 2i) u^2
    B = [0.0, 0.0, 4.0 + 2.0j, 4.0 - 2.0j]
    return LinearODE.from_polynomials(A, B, C)


def canonical_corpus():
    """List of (name, LinearODE, expected signature) triples.

    Signatures map finite location (complex) or "inf" to "regular" /
    "irregular"; points absent from the map must not be singular.
    """
    entries = []

    entries.append((
        "second-derivative-only",
        LinearODE.from_polynomials([1.0], [0.0], [0.0]),
        {"inf": "regular"}))

    entries.append((
        "harmonic-oscillator",
        LinearODE.from_polynomials([1.0], [0.0], [1.0]),
        {"inf": "irregular"}))

    entries.append((
        "euler-type",  # z w'' + (1 + a) w' = 0
        LinearODE.from_polynomials([0.0, 1.0], [1.7], [0.0]),
        {0j: "regular", "inf": "regular"}))

    a, b, c = 0.31, 0.77, 1.23
    entries.append((
        "gauss-hypergeometric",
        LinearODE.from_polynomials([0.0, 1.0, -1.0], [c, -(1.0 + a + b)],
                                   [-a * b]),
        {0j: "regular", 1.0 + 0j: "regular", "inf": "regular"}))

    entries.append((
        "confluent-hypergeometric",
        LinearODE.from_polynomials([0.0, 1.0], [c, -1.0], [-a]),
        {0j: "regular", "inf": "irregular"}))

    entries.append((
        "general-heun",
        general_heun(GeneralHeunParams(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0)),
        {0j: "regular", 1.0 + 0j: "regular", 2.0 + 0j: "regular",
         "inf": "regular"}))

    generic = {
        "symmetric-confluent": {"p": 0.8, "beta": 0.37, "lam": 0.52,
                                "m": 0.29, "s": 0.41},
        "two-center-coulomb": {"p": 0.8, "beta": 0.37, "lam": 0.52,
                               "m": 0.29},
        "spheroidal": {"p": 0.8, "lam": 0.52, "m": 0.29},
        "algebraic-mathieu": {"p": 0.8, "lam": 0.52},
        "double-confluent": {"alpha1": 0.55, "alpham1": 0.35, "B1": 0.2,
                             "B0": 0.3, "Bm1": 0.4},
        "biconfluent": {"A0": 0.3, "A1": 0.5, "A2": 0.7, "A3": 0.9},
        "anharmonic": {"E": 1.1, "nu": 0.3, "mu": 0.7, "lam": 0.4,
                       "eta": 0.9},
        "triconfluent": {"A0": 0.2, "A1": 0.4, "A2": 0.6},
    }
    for kind in generic:
        entries.append((kind,
                        build_confluent_form(ConfluentFormParams(kind,
                                                                 generic[kind])),
                        SIGNATURES[kind]))

    entries.append((
        "instanton-radial-operator",
        _eguchi_hanson_ode(1.0, 1.0, 1.0),
        {0j: "regular", 1.0 + 0j: "regular", "inf": "irregular"}))

    entries.append((
        "helicoid-boundary-algebraic",
        _boundary_u_ode_printed(1.0, 0.3),
        {0j: "irregular", -1.0 + 0j: "regular", "inf": "irregular"}))

    return entries
