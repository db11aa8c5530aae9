"""Command-line front end.

Verbs:
  classify      classify an ODE given in the textual grammar (file, inline
                text, or a named corpus entry)
  heun-eval     evaluate a Frobenius solution of the general Heun equation
  mathieu-table characteristic values over a q grid (CSV by default)
  scenario      run a physics scenario and emit its report
  connect       numerical connection matrix between two Frobenius bases

Global options: --format (the formats a verb renders, default first, are
in its VERBS entry), --output PATH. connect's --tol sets the integration
tolerance (default 1e-10); engine.check_tolerance reads it: a finite
number in (0, 1), and one below 100 machine epsilons is raised to that
floor. mathieu-table's --q-values is a comma list of a+bi literals and
--parity is both, even or odd. A scenario value, from --set or a config
file, is read by run_scenario like its default, as from Python: an
integer, a finite number, an a+bi literal or none, or a string.
Exit status: 0 success, 1 domain error, 2 usage error (unknown verb or
option, a --format or --parity the verb does not take, a heun-eval
--branch other than first or second, malformed equation, parameter-line
(cform kind and parameter names included) or config text, a malformed or
non-finite number, an invalid tolerance, a center that is neither f nor a
number near 0, 1 or f, an unknown scenario, scenario parameter or corpus
entry, --id together with a config's scenario key, a --set without
key=value, a scenario value of the wrong type or outside its domain, an
--n-max below 0 or above 4079 (mathieu.MAX_ORDER), or a Mathieu q with
|Im q| above 300). A reading error names its option. Output is
deterministic: fixed key order, 17 significant digits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .errors import GrammarError, HeunkitError, InvalidParameter, \
    InvalidTolerance, MalformedComplex, MissingOption, UnknownCenter, \
    UnknownKind, UnknownVerb
from .grammar import format_complex, parse_complex, parse_complex_list, \
    parse_ode
from .serialize import emit_json, point_line, render_report_text, \
    to_jsonable


@dataclass
class Command:
    verb: str
    options: dict = field(default_factory=dict)
    output: str = None


# verb -> option name -> (kind, required, default); kind is a key of
# _READERS, "str" (the runner's callee reads the string), "flag-many" or
# the tuple of accepted values that _choices builds, the default first
_HEUN_FLAGS = {name: ("complex", True, None) for name in
               ("a", "b", "c", "d", "e", "f", "q")}


def _choices(*names):
    return (names, False, names[0])


def _int(raw):
    try:
        return int(raw)
    except ValueError:
        raise MalformedComplex(f"expects an integer, got {raw!r}") from None


_READERS = {"complex": parse_complex, "complex-list": parse_complex_list,
            "int": _int}


VERBS = {
    "classify": {
        "ode": ("str", False, None),
        "text": ("str", False, None),
        "corpus": ("str", False, None),
        "format": _choices("json", "csv", "text"),
        "output": ("str", False, None),
    },
    "heun-eval": {
        **_HEUN_FLAGS,
        "z": ("complex", True, None),
        "center": ("str", False, "0"),
        "branch": ("str", False, "first"),
        "format": _choices("json", "csv", "text"),
        "output": ("str", False, None),
    },
    "mathieu-table": {
        "q-values": ("complex-list", True, None),
        "n-max": ("int", False, 5),
        "parity": _choices("both", "even", "odd"),
        "format": _choices("csv", "json"),
        "output": ("str", False, None),
    },
    "scenario": {
        "id": ("str", False, None),
        "config": ("str", False, None),
        "set": ("flag-many", False, None),
        "grid-out": ("str", False, None),
        "format": _choices("json", "text"),
        "output": ("str", False, None),
    },
    "connect": {
        **_HEUN_FLAGS,
        "from": ("str", True, None),
        "to": ("str", True, None),
        "tol": ("str", False, None),
        "format": _choices("json", "text"),
        "output": ("str", False, None),
    },
}


def parse_args(argv):
    """Validate argv into a Command; raises UnknownVerb / MissingOption, or
    MalformedComplex / InvalidParameter whose message starts --name:."""
    if not argv:
        raise UnknownVerb("no verb given; expected one of: "
                          + ", ".join(sorted(VERBS)))
    verb = argv[0]
    if verb not in VERBS:
        raise UnknownVerb(f"unknown verb {verb!r}; expected one of: "
                          + ", ".join(sorted(VERBS)))
    optspec = VERBS[verb]
    options = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise MissingOption(f"unexpected argument {tok!r}")
        name = tok[2:]
        if name not in optspec:
            raise MissingOption(f"unknown option --{name} for verb {verb}")
        kind = optspec[name][0]
        i += 1
        if i >= len(argv):
            raise MissingOption(f"option --{name} needs a value")
        raw = argv[i]
        i += 1
        if kind == "flag-many":
            options.setdefault(name, []).append(raw)
        elif isinstance(kind, tuple) and raw not in kind:
            raise InvalidParameter(f"--{name}: verb {verb} accepts "
                                   f"{', '.join(kind)}; got {raw!r}")
        elif kind in _READERS:
            try:
                options[name] = _READERS[kind](raw)
            except MalformedComplex as exc:
                raise MalformedComplex(f"--{name}: {exc}") from None
        else:
            options[name] = raw
    for name, (kind, required, default) in optspec.items():
        if name not in options:
            if required:
                raise MissingOption(f"verb {verb} requires --{name}")
            if default is not None:
                options[name] = default
    return Command(verb=verb, options=options, output=options.get("output"))


def _write(cmd, text):
    if cmd.output:
        with open(cmd.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _points_csv(points):
    lines = ["location,kind,rank,exponent1,exponent2"]
    for p in points:
        loc = "inf" if p.at_infinity else format_complex(p.location)
        if p.exponents is None:
            e1 = e2 = ""
        else:
            e1, e2 = (format_complex(e) for e in p.exponents)
        lines.append(f"{loc},{p.kind.value},{p.rank},{e1},{e2}")
    return "\n".join(lines) + "\n"


def _parse_equation_text(text):
    """Accept any of the three textual forms: 'ode ...', 'heun ...',
    'cform ...'."""
    head = text.strip().split(None, 1)[0] if text.strip() else ""
    if head == "heun":
        from .heun import general_heun, heun_params_from_text
        return general_heun(heun_params_from_text(text))
    if head == "cform":
        from .heun import build_confluent_form, confluent_params_from_text
        return build_confluent_form(confluent_params_from_text(text))
    return parse_ode(text)


def _run_classify(cmd):
    from .ode import classify_singularities
    opts = cmd.options
    sources = [name for name in ("ode", "text", "corpus") if opts.get(name)]
    if len(sources) != 1:
        raise MissingOption("classify needs exactly one of --ode, --text, "
                            "--corpus")
    if opts.get("ode"):
        with open(opts["ode"]) as fh:
            ode = _parse_equation_text(fh.read().strip())
        label = opts["ode"]
    elif opts.get("text"):
        ode = _parse_equation_text(opts["text"])
        label = "inline"
    else:
        from .corpus import canonical_corpus
        matches = {name: o for name, o, _ in canonical_corpus()}
        if opts["corpus"] not in matches:
            raise InvalidParameter(f"unknown corpus entry {opts['corpus']!r}; "
                                   "known: " + ", ".join(sorted(matches)))
        ode = matches[opts["corpus"]]
        label = opts["corpus"]
    points = classify_singularities(ode)
    fmt = opts["format"]
    if fmt == "csv":
        _write(cmd, _points_csv(points))
    elif fmt == "text":
        lines = [f"classification of {label}:"]
        lines.extend(f"  {point_line(p)}" for p in points)
        _write(cmd, "\n".join(lines) + "\n")
    else:
        # every row has "exponents", null where the point has none
        rows = [{**to_jsonable(p), "exponents": to_jsonable(p.exponents)}
                for p in points]
        _write(cmd, emit_json({"schema": 1, "source": label,
                               "points": rows}) + "\n")
    return 0


def _run_heun_eval(cmd):
    from .heun import GeneralHeunParams, heun_value
    o = cmd.options
    params = GeneralHeunParams(o["a"], o["b"], o["c"], o["d"], o["e"],
                               o["f"], o["q"])
    val, series = heun_value(params, o["center"], o["branch"], o["z"])
    payload = {
        "schema": 1,
        "center": to_jsonable(series.center),
        "branch": o["branch"],
        "exponent": to_jsonable(series.exponent),
        "radius": float(series.radius),
        "z": to_jsonable(o["z"]),
        "w": to_jsonable(val.w),
        "dw": to_jsonable(val.dw),
        "tail": float(val.tail),
        "terms": len(series.coeffs),
    }
    fmt = o["format"]
    if fmt == "text":
        _write(cmd, (f"w  = {format_complex(val.w)}\n"
                     f"w' = {format_complex(val.dw)}\n"
                     f"tail estimate = {val.tail:.3e}\n"))
    elif fmt == "csv":
        _write(cmd, "quantity,value\n"
                    f"w,{format_complex(val.w)}\n"
                    f"dw,{format_complex(val.dw)}\n"
                    f"tail,{val.tail:.17g}\n")
    else:
        _write(cmd, emit_json(payload) + "\n")
    return 0


def _run_mathieu_table(cmd):
    from .mathieu import MAX_ORDER, characteristic_value
    o = cmd.options
    if o["n-max"] < 0:
        raise InvalidParameter(f"--n-max must be at least 0, got {o['n-max']}")
    if o["n-max"] > MAX_ORDER:
        raise InvalidParameter(f"--n-max must be at most {MAX_ORDER}, "
                               f"got {o['n-max']}")
    parities = ("even", "odd") if o["parity"] == "both" else (o["parity"],)
    rows = []
    for q in o["q-values"]:
        for parity in parities:
            start = 0 if parity == "even" else 1
            for n in range(start, o["n-max"] + 1):
                ch = characteristic_value(n, q, parity)
                rows.append((n, parity, q, ch.value, ch.truncation))
    fmt = o["format"]
    if fmt == "json":
        payload = {"schema": 1, "rows": [
            {"n": n, "parity": parity, "q": to_jsonable(q),
             "value": to_jsonable(value), "truncation": truncation}
            for n, parity, q, value, truncation in rows]}
        _write(cmd, emit_json(payload) + "\n")
    else:
        lines = ["n,parity,q,value,truncation"]
        for n, parity, q, value, truncation in rows:
            lines.append(f"{n},{parity},{format_complex(q)},"
                         f"{format_complex(value)},{truncation}")
        _write(cmd, "\n".join(lines) + "\n")
    return 0


def _load_config(path):
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise GrammarError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def _run_scenario(cmd):
    """Config and --set values go to run_scenario as strings; it reads
    each like its default."""
    from .scenarios import run_scenario
    o = cmd.options
    raw = _load_config(o["config"]) if o.get("config") else {}
    if "scenario" in raw and o.get("id"):
        raise MissingOption("scenario takes --id or a config's 'scenario' "
                            "key, not both")
    scenario_id = raw.pop("scenario", o.get("id"))
    for item in o.get("set") or []:
        if "=" not in item:
            raise MissingOption(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        raw[key.strip()] = val.strip()
    if not scenario_id:
        raise MissingOption("scenario needs --id or a config with a "
                            "'scenario' key")
    report = run_scenario(scenario_id, raw)
    if o.get("grid-out"):
        grid = report.data.get("grid")
        if grid:
            lines = [",".join(grid["columns"])]
            for row in grid["rows"]:
                lines.append(",".join(f"{v:.17g}" if isinstance(v, float)
                                      else str(v) for v in row))
            with open(o["grid-out"], "w") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            sys.stderr.write(f"note: scenario {scenario_id} emits no grid\n")
    fmt = o["format"]
    if fmt == "text":
        _write(cmd, render_report_text(report))
    else:
        _write(cmd, emit_json(to_jsonable(report)) + "\n")
    if not report.all_passed():
        for c in report.claims:
            if not c.passed:
                sys.stderr.write(f"claim failed: {c.description} "
                                 f"(expected {c.expected}; observed "
                                 f"{c.observed})\n")
        return 1
    return 0


def _run_connect(cmd):
    from .engine import DEFAULT_TOL, check_tolerance, connection_matrix
    from .heun import GeneralHeunParams
    o = cmd.options
    params = GeneralHeunParams(o["a"], o["b"], o["c"], o["d"], o["e"],
                               o["f"], o["q"])
    tol = check_tolerance(o.get("tol", DEFAULT_TOL), "--tol")
    C = connection_matrix(params, o["from"], o["to"], tol=tol)
    payload = {
        "schema": 1,
        "from": o["from"],
        "to": o["to"],
        "tol": float(tol),
        "entries": [[to_jsonable(v) for v in row] for row in C.entries],
        "determinant": to_jsonable(C.determinant),
        "condition_number": float(C.condition_number),
    }
    fmt = o["format"]
    if fmt == "text":
        (r1, r2) = C.entries
        _write(cmd, (f"C11 = {format_complex(r1[0])}\nC12 = {format_complex(r1[1])}\n"
                     f"C21 = {format_complex(r2[0])}\nC22 = {format_complex(r2[1])}\n"))
    else:
        _write(cmd, emit_json(payload) + "\n")
    return 0


_RUNNERS = {
    "classify": _run_classify,
    "heun-eval": _run_heun_eval,
    "mathieu-table": _run_mathieu_table,
    "scenario": _run_scenario,
    "connect": _run_connect,
}


def run(cmd):
    """Execute a parsed Command; returns the exit status."""
    return _RUNNERS[cmd.verb](cmd)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(parse_args(argv))
    except (UnknownVerb, MissingOption, GrammarError, InvalidParameter,
            InvalidTolerance, UnknownCenter, UnknownKind) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except HeunkitError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
