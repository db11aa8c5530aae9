"""Deterministic JSON emission and report conversion.

Golden-file stability requires byte-identical output for identical inputs,
so floats are always printed with %.17g, keys keep insertion order, and no
library-version-dependent formatting is involved.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .grammar import format_ode
from .ode import LinearODE, SingularPoint
from .scenarios import Claim, ScenarioReport, TrigODE


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
