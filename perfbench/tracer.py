"""Span and count recorder for the traced benchmark runs.

The recorder wraps heunkit's public functions from outside: every module
namespace under ``heunkit`` that holds a wrapped function gets the wrapper,
so calls between heunkit modules are recorded too. The scipy calls heunkit
makes are wrapped in the namespaces that imported them
(``heunkit.engine.solve_ivp``, ``heunkit.engine.quad``,
``heunkit.mathieu.quad``). Spans and counts stay in memory until the run
ends; ``uninstall`` puts the original functions back.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span in the same op's list, or -1. A span name is
``<layer>.<what>``; ``take`` hands over one op's spans and counts.
"""

import sys
import time
from collections import defaultdict

# (module, attribute, span name). An attribute "Class.method" wraps a method.
TARGETS = [
    ("heunkit.poly", "make_rational", "poly.make_rational"),
    ("heunkit.poly", "Polynomial.roots", "poly.roots"),
    ("heunkit.poly", "Polynomial.clustered_roots", "poly.clustered_roots"),
    ("heunkit.ode", "classify_singularities", "ode.classify"),
    ("heunkit.series", "frobenius_series", "series.frobenius"),
    ("heunkit.series", "eval_local", "series.frobenius"),
    ("heunkit.heun", "general_heun", "heun.general_heun"),
    ("heunkit.heun", "heun_value", "heun.heun_value"),
    ("heunkit.engine", "connection_matrix", "engine.connection_matrix"),
    ("heunkit.engine", "loop_transfer_matrix", "engine.loop_transfer"),
    ("heunkit.engine", "integrate_path", "engine.integrate_path"),
    ("heunkit.engine", "integrate_callable", "engine.integrate_path"),
    ("heunkit.engine", "solve_ivp", "engine.solve_ivp"),
    ("heunkit.engine", "quad", "engine.abel_quad"),
    ("heunkit.mathieu", "characteristic_value", "mathieu.char_value"),
    ("heunkit.mathieu", "orthogonality_matrix", "mathieu.gram"),
    ("heunkit.mathieu", "quad", "mathieu.quad"),
    ("heunkit.scenarios", "run_scenario", "scenarios"),
    ("heunkit.grammar", "parse_complex", "grammar.parse"),
    ("heunkit.grammar", "parse_ode", "grammar.parse"),
    ("heunkit.grammar", "parse_params_line", "grammar.parse"),
    ("heunkit.serialize", "emit_json", "serialize.emit"),
    ("heunkit.serialize", "to_jsonable", "serialize.emit"),
    ("heunkit.serialize", "render_report_text", "serialize.emit"),
    ("heunkit.cli", "main", "cli.main"),
]


def _count_heun_value(rec, result):
    rec.count("heun.series_terms", len(result[1].coeffs))


def _count_solve_ivp(rec, result):
    rec.count("engine.segments", 1)
    rec.count("engine.rhs_evals", int(result.nfev))


def _count_char_value(rec, result):
    rec.count("mathieu.truncation_sum", result.truncation)


# span name -> function(recorder, return value) adding counts
_COUNTERS = {
    "heun.heun_value": _count_heun_value,
    "engine.solve_ivp": _count_solve_ivp,
    "mathieu.char_value": _count_char_value,
}


class Recorder:
    """Holds spans and counts; installs and removes the wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)  # name -> count
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def count(self, name, n):
        self.counts[name] += n

    def _wrap(self, fn, name):
        rec = self
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "scenarios":
                span_name = f"scenarios.{args[0] if args else kwargs['scenario_id']}"
            elif name == "mathieu.quad":
                args, evals = _counting_integrand(args)
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[idx] = (span_name, start, end, parent)
            rec.count(f"{name}.calls", 1)
            if counter is not None:
                counter(rec, result)
            if name == "mathieu.quad":
                rec.count("mathieu.quad_integrand_evals", evals[0])
            return result

        return wrapper

    def install(self):
        """Replace every target in every heunkit namespace that holds it.
        Targets in modules that are not loaded are never called; skip them."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "heunkit" or n.startswith("heunkit."))]
        for modname, attr, name in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name)
            # a scipy function is wrapped only where the target names it
            owners = namespaces if orig.__module__.startswith("heunkit") else [module]
            for ns in owners:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patched.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def take(self):
        """(spans, counts) recorded since the last call; starts a new op."""
        out = (self.spans, dict(self.counts))
        self.spans = []
        self.counts = defaultdict(int)
        return out


def _counting_integrand(args):
    evals = [0]
    func = args[0]

    def counted(*a):
        evals[0] += 1
        return func(*a)

    return (counted,) + tuple(args[1:]), evals


def op_profile(spans):
    """Per-op timing summary from one op's spans.

    Returns (self_ms, outer_ms): self time per span name (a span minus its
    children) and inclusive time per span name counting only spans with no
    ancestor of the same name, so recursion is not counted twice.
    """
    self_ms = defaultdict(float)
    outer_ms = defaultdict(float)
    for name, start, end, parent in spans:
        dur = (end - start) * 1e3
        self_ms[name] += dur
        if parent >= 0:
            self_ms[spans[parent][0]] -= dur
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            outer_ms[name] += dur
    return self_ms, outer_ms
