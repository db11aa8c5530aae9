"""The benchmark's workloads: input generators, ops and oracles.

Every workload draws its inputs from a seeded numpy generator, so the same
seed gives the same inputs. Every op is checked by an oracle that does not
use heunkit: closed forms (Gauss connection coefficients, local monodromy
eigenvalues), mpmath's hypergeometric function, dense numpy eigenvalues of
Mathieu matrices built here, and signatures stated here. A check raises
OracleFailure; the caller runs it outside the timed span.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

TOL = 1e-10  # integration tolerance of the transport ops (criterion 7's)
CHEAP_SCENARIOS = ("stark", "h2plus", "nutku-radial", "eguchi-hanson-radial")
CLI_VERBS = ("classify", "heun-eval", "mathieu-table", "scenario", "connect")


class OracleFailure(Exception):
    """An op's output disagrees with its oracle."""


def require(ok, message):
    if not ok:
        raise OracleFailure(message)


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def _near_integer(x, gap=0.08):
    return abs(x.imag) < gap and abs(x.real - round(x.real)) < gap


def admissible_params(rng, f_range=(1.5, 10.0)):
    """Exponent parameters (a, b, c, d, e, f, q) of a general Heun equation
    whose local exponent differences stay away from integers: the generator
    of acceptance criterion 7."""
    while True:
        a, b, c, d = (complex(x, y) for x, y in rng.normal(0, 0.35, (4, 2)))
        e = a + b + 1 - c - d
        if any(_near_integer(g) for g in (1 - c, 1 - d, 1 - e)):
            continue
        return (a, b, c, d, e, float(rng.uniform(*f_range)),
                complex(*rng.normal(0, 0.25, 2)))


def gauss_params(rng):
    """Parameters at the hypergeometric degeneration e = 0, q = abf, where
    the first branch at 0 is 2F1(a, b; c; z)."""
    while True:
        a, b = (complex(x, y) for x, y in rng.normal(0, 0.35, (2, 2)))
        c = complex(*rng.normal(0, 0.35, 2)) + 1.2
        if any(_near_integer(g) for g in (1 - c, c - a - b, a, b, c - a, c - b)):
            continue
        f = float(rng.uniform(1.5, 10.0))
        return (a, b, c, a + b + 1 - c, 0j, f, a * b * f)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def gauss_connection_row(a, b, c):
    """First row of C(0 -> 1) at the degeneration (DLMF 15.10(ii)); the
    phase of the second entry comes from the (z-1)^(1-d) branch."""
    import mpmath
    g = mpmath.gamma
    first = g(c) * g(c - a - b) / (g(c - a) * g(c - b))
    second = g(c) * g(a + b - c) / (g(a) * g(b)) * mpmath.exp(-1j * mpmath.pi * (c - a - b))
    return complex(first), complex(second)


def check_gauss_row(params, row, rel=1e-8):
    a, b, c = params[:3]
    want = gauss_connection_row(a, b, c)
    scale = max(1.0, *(abs(w) for w in want))
    err = max(abs(g - w) for g, w in zip(row, want)) / scale
    require(err <= rel, f"C(0->1) row differs from the Gauss closed form by {err:.3e}")


def check_hyp2f1(params, z, w, dw, rel=1e-11):
    import mpmath
    a, b, c = params[:3]
    want_w = complex(mpmath.hyp2f1(a, b, c, z))
    want_dw = complex(a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z))
    scale = max(1.0, abs(want_w), abs(want_dw))
    err = max(abs(w - want_w), abs(dw - want_dw)) / scale
    require(err <= rel, f"heun-eval differs from mpmath.hyp2f1 by {err:.3e}")


def mathieu_dense(q, n_max, size=60):
    """{(n, parity): value} from dense eigenvalues of the four truncated
    Fourier matrices of y'' + (a - 2q cos 2x) y = 0 (DLMF 28.4)."""
    out = {}
    m = np.arange(size)
    for parity, shift, first, sym in (("even", 0, 0.0, math.sqrt(2.0)),
                                      ("even", 1, q, 1.0),
                                      ("odd", 1, -q, 1.0),
                                      ("odd", 2, 0.0, 1.0)):
        order = 2 * m + shift
        T = np.diag(order.astype(float) ** 2)
        T[0, 0] += first
        off = np.full(size - 1, float(q))
        off[0] *= sym
        T += np.diag(off, 1) + np.diag(off, -1)
        for n, val in zip(order, np.linalg.eigvalsh(T)):
            if n <= n_max:
                out[(int(n), parity)] = float(val)
    return out


def check_mathieu_rows(q_values, n_max, rows, rel=1e-9):
    """rows: (n, parity, q, value) read from the table."""
    want_rows = len(q_values) * (2 * n_max + 1)
    require(len(rows) == want_rows, f"mathieu-table has {len(rows)} rows, want {want_rows}")
    tables = {q: mathieu_dense(q, n_max) for q in q_values}
    for n, parity, q, value in rows:
        want = tables[q][(n, parity)]
        err = abs(value - want) / max(1.0, abs(want))
        require(err <= rel, f"mathieu n={n} {parity} q={q}: {value!r} vs dense {want!r}")


def _matches(got, want, rel=1e-8):
    return abs(got - want) <= rel * max(1.0, abs(want))


def _same_pair(got, want, rel=1e-8):
    g1, g2 = got
    w1, w2 = want
    return ((_matches(g1, w1, rel) and _matches(g2, w2, rel))
            or (_matches(g1, w2, rel) and _matches(g2, w1, rel)))


def check_heun_points(params, points):
    """Four regular points 0, 1, f, inf with exponents {0, 1-c}, {0, 1-d},
    {0, 1-e} and {a, b}. points: (location or 'inf', kind, rank, exponents)."""
    a, b, c, d, e, f, _ = params
    want = [(0j, (0j, 1 - c)), (1 + 0j, (0j, 1 - d)), (complex(f), (0j, 1 - e)),
            ("inf", (a, b))]
    require(len(points) == 4, f"classify found {len(points)} points, want 4")
    for loc, exps in want:
        hits = [p for p in points
                if (p[0] == "inf") == (loc == "inf")
                and (loc == "inf" or _matches(p[0], loc))]
        require(len(hits) == 1, f"classify: no unique point at {loc}")
        _, kind, rank, got = hits[0]
        require(kind == "regular" and rank == "0", f"classify: {loc} is {kind} rank {rank}")
        require(got is not None and _same_pair(got, exps),
                f"classify: exponents at {loc} are {got}, want {exps}")


# kind -> {location: (kind, Poincare rank)} (DLMF 31.12)
CFORM_SIGNATURES = {
    "symmetric-confluent": {-1: ("regular", "0"), 1: ("regular", "0"), "inf": ("irregular", "1")},
    "spheroidal": {-1: ("regular", "0"), 1: ("regular", "0"), "inf": ("irregular", "1")},
    "double-confluent": {0: ("irregular", "1"), "inf": ("irregular", "1")},
    "biconfluent": {0: ("regular", "0"), "inf": ("irregular", "2")},
    "triconfluent": {"inf": ("irregular", "3")},
}
CFORM_PARAMS = {
    "symmetric-confluent": ("p", "beta", "lam", "m", "s"),
    "spheroidal": ("p", "lam", "m"),
    "double-confluent": ("alpha1", "alpham1", "B1", "B0", "Bm1"),
    "biconfluent": ("A0", "A1", "A2", "A3"),
    "triconfluent": ("A0", "A1", "A2"),
}


def check_cform_points(kind, points):
    want = CFORM_SIGNATURES[kind]
    require(len(points) == len(want), f"classify {kind}: {len(points)} points, want {len(want)}")
    for loc, (wkind, wrank) in want.items():
        hits = [p for p in points
                if (p[0] == "inf") == (loc == "inf")
                and (loc == "inf" or _matches(p[0], complex(loc)))]
        require(len(hits) == 1, f"classify {kind}: no unique point at {loc}")
        require(hits[0][1:3] == (wkind, wrank),
                f"classify {kind}: {loc} is {hits[0][1:3]}, want {(wkind, wrank)}")


def check_transport(params, C01, C1f, C0f, loop_matrix, abel_dev):
    """C01 C1f = C0f within criterion 7's bound; the loop around 0 has the
    local monodromy eigenvalues {1, exp(2 pi i (1 - c))}."""
    c = params[2]
    scale = max(1.0, float(np.max(np.abs(C0f))))
    err = float(np.max(np.abs(C01 @ C1f - C0f)))
    require(err <= 100 * TOL * scale, f"C01 C1f - C0f = {err:.3e} (scale {scale:.3g})")
    got = np.linalg.eigvals(loop_matrix)
    want = (1.0, cmath.exp(2j * math.pi * (1 - c)))
    require(_same_pair(got, want, rel=1e-6), f"loop eigenvalues {got} differ from {want}")
    require(abel_dev <= 1e-6, f"Wronskian deviates from Abel's identity by {abel_dev:.3e}")


def check_scenario(sid, passed_flags, residuals):
    require(passed_flags and all(passed_flags), f"scenario {sid}: a claim failed")
    gate = {"nutku-radial": "radial", "boundary-dirac": "transport"}.get(sid)
    if gate is not None:
        require(residuals[gate] <= 1e-6, f"scenario {sid}: {gate} residual {residuals[gate]:.3e}")


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

class Transport:
    """Connection matrices C(0->1), C(1->f), C(0->f) and the monodromy of a
    24-gon around z = 0 with its Abel check, for one fresh parameter draw."""

    name = "transport"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def draw(self):
        return admissible_params(self.rng)

    def run(self, params):
        import heunkit.engine as engine
        import heunkit.heun as heun
        p = heun.GeneralHeunParams(*params)
        C01 = engine.connection_matrix(p, 0, 1, tol=TOL)
        C1f = engine.connection_matrix(p, 1, "f", tol=TOL)
        C0f = engine.connection_matrix(p, 0, "f", tol=TOL)
        ode = heun.general_heun(p)
        loop = engine.ComplexPath.circle(0j, 0.5, n=24)
        M = engine.loop_transfer_matrix(ode, loop, tol=TOL)
        z0 = loop.vertices[0]
        (m11, m12), (m21, m22) = M.entries
        start = (engine.SolutionState(z0, 1, 0), engine.SolutionState(z0, 0, 1))
        end = (engine.SolutionState(z0, m11, m21), engine.SolutionState(z0, m12, m22))
        abel = engine.wronskian_abel_check(ode, start, end, loop)
        return C01.as_array(), C1f.as_array(), C0f.as_array(), M.as_array(), abel

    def check(self, params, out):
        check_transport(params, *out)


class ScenarioSuite:
    """One pass over every registered scenario at its registry defaults, in
    an order shuffled by the seed."""

    name = "scenario-suite"

    def __init__(self, seed):
        import heunkit.scenarios as scenarios
        self.rng = np.random.default_rng(seed)
        self.ids = sorted(scenarios.SCENARIOS)

    def draw(self):
        return [self.ids[i] for i in self.rng.permutation(len(self.ids))]

    def run(self, order):
        import heunkit.scenarios as scenarios
        return [scenarios.run_scenario(sid) for sid in order]

    def check(self, order, reports):
        require([r.scenario for r in reports] == order, "scenario order changed")
        for sid, rep in zip(order, reports):
            check_scenario(sid, [c.passed for c in rep.claims], rep.residuals)


# ---------------------------------------------------------------------------
# cli-cold: each op is a fresh `python -m heunkit` process
# ---------------------------------------------------------------------------

def fmt_complex(z):
    """A complex literal in heunkit's grammar (a+bi), all digits kept."""
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _heun_flags(params):
    return [arg for name, value in zip("abcdefq", params)
            for arg in (f"--{name}", fmt_complex(value))]


def _jc(obj):
    return complex(obj["re"], obj["im"])


def _json_points(payload):
    return [("inf" if p["location"] == "inf" else _jc(p["location"]), p["kind"], p["rank"],
             None if p.get("exponents") is None else tuple(_jc(e) for e in p["exponents"]))
            for p in payload["points"]]


class CliCold:
    """Rotates over the five verbs; arguments drawn from the seed."""

    name = "cli-cold"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.i = 0

    def draw(self):
        """(verb, argv, expectation) for the next op."""
        verb = CLI_VERBS[self.i % len(CLI_VERBS)]
        self.i += 1
        rng = self.rng
        if verb == "classify":
            if rng.random() < 0.5:
                params = admissible_params(rng)
                text = "heun " + " ".join(f"{n}={fmt_complex(v)}"
                                          for n, v in zip("abcdefq", params))
                return verb, ["classify", "--text", text], ("heun", params)
            kind = sorted(CFORM_SIGNATURES)[int(rng.integers(len(CFORM_SIGNATURES)))]
            body = " ".join(f"{n}={fmt_complex(complex(rng.uniform(0.3, 1.5), rng.uniform(-0.3, 0.3)))}"
                            for n in CFORM_PARAMS[kind])
            return verb, ["classify", "--text", f"cform kind={kind} {body}"], ("cform", kind)
        if verb == "heun-eval":
            params = gauss_params(rng)
            z = complex(*rng.uniform(-0.42, 0.42, 2))
            return verb, ["heun-eval", *_heun_flags(params), "--z", fmt_complex(z)], (params, z)
        if verb == "mathieu-table":
            q_values = sorted(float(v) for v in rng.uniform(0.0, 20.0, 3))
            n_max = int(rng.integers(2, 5))
            return verb, ["mathieu-table", "--q-values", ",".join(f"{q:.17g}" for q in q_values),
                          "--n-max", str(n_max)], (q_values, n_max)
        if verb == "scenario":
            sid = CHEAP_SCENARIOS[int(rng.integers(len(CHEAP_SCENARIOS)))]
            return verb, ["scenario", "--id", sid], sid
        params = gauss_params(rng)
        return verb, ["connect", *_heun_flags(params), "--from", "0", "--to", "1"], params

    @staticmethod
    def command(argv, traced):
        if traced:
            return [sys.executable, "-X", "importtime", str(HERE / "child.py"), "cli", *argv]
        return [sys.executable, "-m", "heunkit", *argv]

    @staticmethod
    def env():
        env = {k: v for k, v in os.environ.items() if k != "HEUNKIT_TOL"}
        env["PYTHONPATH"] = str(SRC)
        return env

    def run(self, argv, traced=False):
        """Run one op; returns (returncode, stdout, stderr)."""
        proc = subprocess.run(self.command(argv, traced), cwd=ROOT, env=self.env(),
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, out):
        verb, argv, expect = op
        returncode, stdout = out[:2]
        require(returncode == 0, f"{verb} exited with {returncode}")
        if verb == "mathieu-table":
            lines = stdout.strip().splitlines()
            require(lines[0] == "n,parity,q,value,truncation", "mathieu-table header changed")
            rows = []
            for line in lines[1:]:
                n, parity, q, value, _ = line.split(",")
                rows.append((int(n), parity, float(q), complex(value.replace("i", "j")).real))
            check_mathieu_rows(*expect, rows)
            return
        try:
            payload = json.loads(stdout)
        except ValueError:
            raise OracleFailure(f"{verb} printed no JSON")
        if verb == "classify":
            form, detail = expect
            points = _json_points(payload)
            if form == "heun":
                check_heun_points(detail, points)
            else:
                check_cform_points(detail, points)
        elif verb == "heun-eval":
            params, z = expect
            check_hyp2f1(params, z, _jc(payload["w"]), _jc(payload["dw"]))
        elif verb == "scenario":
            require(payload["scenario"] == expect, "scenario id changed")
            check_scenario(expect, [c["passed"] for c in payload["claims"]],
                           payload["residuals"])
        else:
            check_gauss_row(expect, [_jc(v) for v in payload["entries"][0]])


WORKLOADS = {w.name: w for w in (CliCold, Transport, ScenarioSuite)}
