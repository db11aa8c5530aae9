"""Scenario report types, and deterministic JSON and text emission.

The report types are ScenarioReport (a scenario's equations,
classifications, residuals and claims), its Claim entries and TrigODE (an
equation with callable coefficients, used for residuals only); the
scenario drivers build them, and this module renders them.

Golden-file stability requires byte-identical output for identical inputs,
so floats are always printed with %.17g, keys keep insertion order, and no
library-version-dependent formatting is involved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .grammar import format_ode
from .ode import LinearODE, SingularPoint, classify_singularities, \
    normalized_residual, singularity_signature
from .poly import near


@dataclass(frozen=True)
class Claim:
    description: str
    expected: str
    observed: str
    passed: bool


@dataclass(frozen=True)
class TrigODE:
    """w'' + p(t) w' + q(t) w = 0 with callable coefficients.

    ``poles`` lists the coefficient singularities on the working domain,
    ``period`` the coefficient period (None when aperiodic), ``notes`` a
    human-readable description of the equation.
    """

    label: str
    p: object
    q: object
    poles: tuple = ()
    period: object = None
    notes: str = ""

    def residual(self, samples):
        return normalized_residual(self, samples)


@dataclass
class ScenarioReport:
    """A scenario's equations, classifications, residuals and claims. A
    gate on a measured value is stated once, through ``claim_at_most``: the
    literal it prints is the one it compares with."""

    scenario: str
    inputs: dict
    odes: list = field(default_factory=list)            # (label, LinearODE | TrigODE)
    classifications: dict = field(default_factory=dict)  # label -> [SingularPoint]
    residuals: dict = field(default_factory=dict)        # name -> float
    claims: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add_ode(self, label, ode):
        self.odes.append((label, ode))
        if isinstance(ode, LinearODE):
            self.classifications[label] = classify_singularities(ode)

    def claim(self, description, expected, observed, passed):
        self.claims.append(Claim(description, str(expected), str(observed), bool(passed)))

    def claim_at_most(self, description, value, bound, what=""):
        """Claim value <= float(bound); ``bound`` is the literal printed in
        the expected text "[what] <= bound"."""
        self.claim(description, f"{what} <= {bound}".lstrip(),
                   f"{value:.3e}", value <= float(bound))

    def point(self, label, loc):
        """The classified point of ``label`` at loc, matched as
        claim_signature matches it; None when there is none."""
        return _lookup({("inf" if p.at_infinity else p.location): p
                        for p in self.classifications[label]}, loc)

    def claim_signature(self, description, label, expected_sig):
        observed = singularity_signature(self.classifications[label])
        ok = _signatures_match(expected_sig, observed)
        self.claim(description, _format_signature(expected_sig),
                   _format_signature(observed), ok)
        return ok

    def all_passed(self):
        return all(c.passed for c in self.claims)


def _format_signature(sig):
    def key(item):
        loc = item[0]
        if loc == "inf":
            return (math.inf, 0.0)
        return (loc.real, loc.imag)

    parts = []
    for loc, kind in sorted(sig.items(), key=key):
        label = "inf" if loc == "inf" else f"{loc.real:g}" + (
            f"{loc.imag:+g}i" if abs(loc.imag) > 1e-9 else "")
        parts.append(f"{label}: {kind}")
    return "; ".join(parts)


def _lookup(table, loc):
    """table's value at loc: the key "inf" for "inf", else the first finite
    key ``near`` loc; None when there is none."""
    if loc == "inf":
        return table.get("inf")
    return next((v for k, v in table.items() if k != "inf" and near(k, loc)), None)


def _signatures_match(expected, observed):
    return len(expected) == len(observed) and all(
        _lookup(observed, loc) == kind for loc, kind in expected.items())


def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        return json.dumps(("inf" if x > 0 else "-inf") if math.isinf(x) else "nan")
    if x == int(x) and abs(x) < 1e16:
        # stable integral rendering (avoids 1 vs 1.0 drift between sources)
        return f"{x:.1f}"
    return f"{x:.17g}"


def emit_json(obj, indent=0):
    """Serialize nested dict/list/str/float/int/bool/None deterministically."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return repr(int(obj))
    if isinstance(obj, float):
        return _fmt_float(float(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {emit_json(v, indent + 2)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {emit_json(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_jsonable(obj):
    """Convert toolkit objects to plain JSON-ready structures."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, SingularPoint):
        out = {
            "location": "inf" if obj.at_infinity else to_jsonable(obj.location),
            "kind": obj.kind.value,
            "rank": str(obj.rank),
        }
        if obj.exponents is not None:
            out["exponents"] = [to_jsonable(e) for e in obj.exponents]
        return out
    if isinstance(obj, LinearODE):
        return {"kind": "rational", "text": format_ode(obj)}
    if isinstance(obj, TrigODE):
        return {"kind": "trig", "label": obj.label, "notes": obj.notes,
                "period": to_jsonable(obj.period),
                "poles": [to_jsonable(p) for p in obj.poles]}
    if isinstance(obj, Claim):
        return {"description": obj.description, "expected": obj.expected,
                "observed": obj.observed, "passed": obj.passed}
    if isinstance(obj, ScenarioReport):
        return {
            "schema": 1,
            "scenario": obj.scenario,
            "inputs": {k: to_jsonable(v) for k, v in obj.inputs.items()},
            "odes": [{"label": label, **to_jsonable(ode)}
                     for label, ode in obj.odes],
            "classifications": {label: [to_jsonable(p) for p in pts]
                                for label, pts in obj.classifications.items()},
            "residuals": {k: to_jsonable(v) for k, v in obj.residuals.items()},
            "claims": [to_jsonable(c) for c in obj.claims],
            "notes": list(obj.notes),
            "data": {k: to_jsonable(v) for k, v in obj.data.items()},
            "all_claims_passed": obj.all_passed(),
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot convert {type(obj).__name__}")


def point_line(p):
    """One SingularPoint as text: location, kind, rank and any exponents."""
    loc = "inf" if p.at_infinity else f"{p.location:.6g}"
    exp = "" if p.exponents is None else \
        "  exponents " + ", ".join(f"{e:.6g}" for e in p.exponents)
    return f"{loc}: {p.kind.value} (rank {p.rank}){exp}"


def render_report_text(report):
    """Human-readable rendering of a ScenarioReport."""
    lines = [f"scenario: {report.scenario}"]
    for k, v in report.inputs.items():
        lines.append(f"  input {k} = {v}")
    for label, pts in report.classifications.items():
        lines.append(f"  classification[{label}]:")
        lines.extend(f"    {point_line(p)}" for p in pts)
    for k, v in report.residuals.items():
        lines.append(f"  residual {k} = {v:.6e}")
    for c in report.claims:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.description}")
        lines.append(f"         expected {c.expected}; observed {c.observed}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    lines.append(f"  all claims passed: {report.all_passed()}")
    return "\n".join(lines) + "\n"
