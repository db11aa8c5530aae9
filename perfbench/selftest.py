"""Self-tests of the benchmark. Run from the repository root:

  python3 perfbench/selftest.py

1. Every oracle accepts a real output and rejects a deliberately corrupted
   copy of it. The CLI verbs are checked on real `python -m heunkit` output.
2. Two traced runs with the same seed report identical counts, on every
   workload.

Exits 1 if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (ROOT, SRC, CliCold, OracleFailure, ScenarioSuite,  # noqa: E402
                       Transport, check_scenario)

sys.path.insert(0, str(SRC))

COUNT_UNITS = ("count", "count/op")
failures = []


def expect(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)
    if not ok:
        failures.append(name)


def rejects(check, *args):
    try:
        check(*args)
    except OracleFailure:
        return True
    return False


def accepts(check, *args):
    return not rejects(check, *args)


def bump(z, rel=1e-5):
    """A complex JSON value {"re", "im"} moved by a relative amount."""
    return {"re": z["re"] * (1 + rel) + rel, "im": z["im"]}


def corrupt_json(stdout, edit):
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload)


def _corrupt_exponent(p):
    point = p["points"][0]
    point["exponents"][1] = bump(point["exponents"][1])


def _corrupt_rank(p):
    point = p["points"][-1]
    point["rank"] = str(int(point["rank"]) + 1)


def _corrupt_mathieu(stdout):
    lines = stdout.splitlines()
    n, parity, q, value, trunc = lines[-1].split(",")
    lines[-1] = ",".join((n, parity, q, repr(float(value) * (1 + 1e-7)), trunc))
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    ("classify", "heun"): lambda out: corrupt_json(out, _corrupt_exponent),
    ("classify", "cform"): lambda out: corrupt_json(out, _corrupt_rank),
    "heun-eval": lambda out: corrupt_json(out, lambda p: p.update(w=bump(p["w"], 1e-9))),
    "mathieu-table": _corrupt_mathieu,
    "scenario": lambda out: corrupt_json(out, lambda p: p["claims"][-1].update(passed=False)),
    "connect": lambda out: corrupt_json(
        out, lambda p: p["entries"][0].__setitem__(1, bump(p["entries"][0][1], 1e-6))),
}


def oracle_tests():
    cli = CliCold(seed=3)
    seen = set()
    while len(seen) < len(CORRUPTIONS):  # every verb, and both classify forms
        op = cli.draw()
        verb, argv, expect_ = op
        key = (verb, expect_[0]) if verb == "classify" else verb
        if key in seen:
            continue
        seen.add(key)
        code, out, err = cli.run(argv)
        expect(f"cli {key}: real output accepted", accepts(cli.check, op, (code, out, err)))
        expect(f"cli {key}: corrupted output rejected",
               rejects(cli.check, op, (code, CORRUPTIONS[key](out), err)))
        expect(f"cli {key}: non-zero exit rejected", rejects(cli.check, op, (1, out, err)))

    transport = Transport(seed=3)
    params = transport.draw()
    C01, C1f, C0f, M, abel = transport.run(params)
    expect("transport: real output accepted", accepts(transport.check, params, (C01, C1f, C0f, M, abel)))
    bad = C0f.copy()
    bad[0, 1] *= 1 + 1e-6
    expect("transport: corrupted C0f rejected", rejects(transport.check, params, (C01, C1f, bad, M, abel)))
    expect("transport: corrupted monodromy rejected",
           rejects(transport.check, params, (C01, C1f, C0f, M * (1 + 1e-5), abel)))
    expect("transport: Abel deviation rejected",
           rejects(transport.check, params, (C01, C1f, C0f, M, 1e-3)))

    suite = ScenarioSuite(seed=3)
    order = suite.draw()
    reports = suite.run(order)
    expect("scenario-suite: real output accepted", accepts(suite.check, order, reports))
    expect("scenario-suite: reordered output rejected",
           rejects(suite.check, order[::-1], reports))
    expect("scenario-suite: failed claim rejected",
           rejects(check_scenario, "stark", [True, False], {}))
    expect("scenario-suite: residual over the gate rejected",
           rejects(check_scenario, "boundary-dirac", [True], {"transport": 1e-3}))


def traced_counts(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}


def count_tests():
    for workload in ("transport", "scenario-suite", "cli-cold"):
        first = traced_counts(workload, 5)
        second = traced_counts(workload, 5)
        expect(f"{workload}: traced counts repeat exactly for a seed",
               first is not None and first == second)
        if first is not None:
            shown = ", ".join(f"{k}={first[k]:g}" for k in ("engine.segments", "engine.rhs_evals"))
            print(f"     {workload}: {shown} per op")


if __name__ == "__main__":
    oracle_tests()
    count_tests()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    sys.exit(1 if failures else 0)
