"""Canonical classification corpus.

A fixed set of named second-order equations with known singularity
signatures, used by the acceptance suite and the CLI: the textbook ladder
(constant-solution equation up to the confluent hypergeometric), the
general four-regular-point equation, every confluent family member at
generic parameters, and the two scenario operators with quoted structures.
"""

from __future__ import annotations

from .heun import SIGNATURES, ConfluentFormParams, GeneralHeunParams, \
    build_confluent_form, general_heun
from .ode import LinearODE
from .scenarios import _boundary_u_ode_printed, _eguchi_hanson_ode


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
