"""heunkit benchmark: one workload per invocation.

  python3 perfbench/run.py --workload {cli-cold,transport,scenario-suite}
                           --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload is a closed loop with one
client and one op at a time; every op is checked by an oracle outside its
timed span (workloads.py). The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines above it repeat
the metrics for people, with the tail percentile and its sample count.

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 is a
separate run that alternates traced and untraced ops and reports the
per-layer metrics from tracer.py.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, SRC, WORKLOADS, CliCold  # noqa: E402
from child import TRACE_PREFIX  # noqa: E402
from tracer import Recorder, op_profile  # noqa: E402

SETUP_STARTS = 5  # fresh interpreter starts per run; setup_s is their median
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
REF_EVERY_S = 1.0  # machine reference loop cadence
# traced ops whose counts are reported; counts repeat exactly for a seed
COUNT_WINDOW = {"cli-cold": 10, "transport": 20, "scenario-suite": 4}
SCENARIO_IDS = ("boundary-dirac", "eguchi-hanson-angular", "eguchi-hanson-radial",
                "h2plus", "helmholtz-elliptic", "nutku-angular", "nutku-radial", "stark")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def machine_ref_ms():
    """A fixed pure-Python loop that does not touch heunkit."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def fresh_start(workload, seed, traced):
    """One fresh interpreter: import heunkit, draw the first input.

    Returns (seconds to ready, child report, importtime stderr or None).
    """
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "child.py"), "ready", workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CliCold.env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if traced:
        out, err = proc.communicate(timeout=120)
        ready = time.perf_counter() - t0
        line = out.splitlines()[-1] if out.strip() else ""
    else:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {err.strip()[-2000:]}")
    return ready, json.loads(line), err if traced else None


def scipy_import_ms(importtime_text):
    """Cumulative import time of the outermost scipy modules, from the
    `-X importtime` lines (children are printed before their parents)."""
    rows = []
    for line in importtime_text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((level, int(cumulative), name.strip()))
    total = 0
    stack = []  # (level, is_scipy) of the enclosing modules, outermost first
    for level, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total += cumulative
        stack.append((level, is_scipy))
    return total / 1e3


def split_child_stderr(stderr):
    """(trace dict, importtime text) from a traced CLI child's stderr."""
    head, _, tail = stderr.rpartition(TRACE_PREFIX)
    return json.loads(tail), head


class Run:
    """Samples collected by one invocation."""

    def __init__(self):
        self.latency = []  # seconds, every attempted op
        self.traced_latency = []
        self.failed = 0
        self.verified = 0
        self.ref_ms = []
        self.errors = []
        # traced fresh processes: (wall_ms, import_ms, work_ms, scipy_ms)
        self.setup_processes = []
        self.op_processes = []
        self.op_spans = []  # per traced op: list of spans
        self.op_counts = []  # per traced op: {name: count}

    def record(self, error):
        if error is None:
            self.verified += 1
        else:
            self.failed += 1
            self.errors.append(f"{type(error).__name__}: {error}")


def attempt(wl, op, traced):
    """Run one op and check it outside the timed span.

    Returns (seconds, output, error); error is None for a verified op.
    """
    start = time.perf_counter()
    try:
        out = wl.run(op[1], traced) if isinstance(wl, CliCold) else wl.run(op)
    except Exception as exc:  # an op that raises counts as failed
        return time.perf_counter() - start, None, exc
    elapsed = time.perf_counter() - start
    try:
        wl.check(op, out)
    except Exception as exc:  # a wrong or malformed output fails the op
        return elapsed, out, exc
    return elapsed, out, None


def run_ops(wl, args, run, recorder):
    """The closed loop: one op at a time until --seconds have passed (and,
    when tracing, until the count window is full)."""
    window = COUNT_WINDOW[wl.name]
    is_cli = isinstance(wl, CliCold)
    if not is_cli:  # warm-up op, untimed but checked
        run.record(attempt(wl, wl.draw(), False)[2])
    deadline = time.perf_counter() + args.seconds
    next_ref = 0.0
    i = 0
    while (time.perf_counter() < deadline
           or (recorder and len(run.op_counts) < window and not run.failed)):
        traced = recorder is not None and i % 2 == 0
        i += 1
        op = wl.draw()
        if traced and not is_cli:
            recorder.install()
        elapsed, out, error = attempt(wl, op, traced)
        if traced and not is_cli:
            recorder.uninstall()
            spans, counts = recorder.take()
            run.op_spans.append(spans)
            run.op_counts.append(counts)
        elif traced and error is None:
            collect_child_trace(run, out[2], elapsed)
        (run.traced_latency if traced else run.latency).append(elapsed)
        run.record(error)
        if time.perf_counter() >= next_ref:
            run.ref_ms.append(machine_ref_ms())
            next_ref = time.perf_counter() + REF_EVERY_S


def collect_child_trace(run, stderr, elapsed):
    """Keep the spans and counts a traced CLI child sent on stderr."""
    trace, importtime = split_child_stderr(stderr)
    run.op_processes.append((elapsed * 1e3, trace["import_ms"], trace["work_ms"],
                             scipy_import_ms(importtime)))
    run.op_spans.append([tuple(s) for s in trace["spans"]])
    run.op_counts.append(trace["counts"])


def percentile_tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def end_to_end(run, setup, is_cli):
    lat = run.latency
    tail, pct, beyond = percentile_tail(lat)
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": run.verified / sum(lat),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {"op_tail_ms": f"p{pct:.1f}, {beyond} of {len(lat)} samples beyond",
             "setup_s": f"median of {len(setup)} fresh starts"}
    return metrics, notes


def per_layer(run, window_size):
    """Per-layer metrics from the traced ops. Times are per traced op;
    counts are per op over the first COUNT_WINDOW traced ops, so they repeat
    exactly for a seed."""
    n_traced = len(run.op_spans)
    outer = defaultdict(float)
    self_ms = defaultdict(float)
    for spans in run.op_spans:
        s, o = op_profile(spans)
        for k, v in s.items():
            self_ms[k] += v
        for k, v in o.items():
            outer[k] += v
    window = run.op_counts[:window_size]
    counts = defaultdict(int)
    for c in window:
        for k, v in c.items():
            counts[k] += v
    all_counts = defaultdict(int)
    for c in run.op_counts:
        for k, v in c.items():
            all_counts[k] += v

    def ms(name):
        return outer[name] / max(1, n_traced)

    def per_op(name):
        return counts[name] / max(1, len(window))

    def ratio(a, b):
        return a / b if b else 0.0

    procs = run.setup_processes + run.op_processes
    untraced_p50 = statistics.median(run.latency) * 1e3
    traced_p50 = statistics.median(run.traced_latency) * 1e3
    metrics = {
        "cli.import_ms": statistics.median(p[1] for p in procs),
        "cli.import_scipy_ms": statistics.median(p[3] for p in procs),
        "cli.main_ms": ms("cli.main"),
        "cli.interp_ms": statistics.median(p[0] - p[1] - p[2] for p in procs),
        "grammar.parse_ms": ms("grammar.parse"),
        "serialize.emit_ms": ms("serialize.emit"),
        "poly.make_rational_calls": per_op("poly.make_rational.calls"),
        "poly.make_rational_ms": ms("poly.make_rational"),
        "poly.roots_calls": per_op("poly.roots.calls"),
        "poly.roots_ms": ms("poly.roots"),
        "ode.classify_calls": per_op("ode.classify.calls"),
        "ode.classify_ms": ms("ode.classify"),
        "heun.heun_value_calls": per_op("heun.heun_value.calls"),
        "heun.heun_value_ms": ms("heun.heun_value"),
        "heun.series_terms": per_op("heun.series_terms"),
        "series.frobenius_ms": ms("series.frobenius"),
        "engine.connection_matrix_ms": ms("engine.connection_matrix"),
        "engine.loop_transfer_ms": ms("engine.loop_transfer"),
        "engine.integrate_path_calls": per_op("engine.integrate_path.calls"),
        "engine.integrate_path_ms": ms("engine.integrate_path"),
        "engine.segments": per_op("engine.segments"),
        "engine.rhs_evals": per_op("engine.rhs_evals"),
        "engine.rhs_per_segment": ratio(counts["engine.rhs_evals"], counts["engine.segments"]),
        "engine.us_per_rhs": ratio(outer["engine.solve_ivp"] * 1e3, all_counts["engine.rhs_evals"]),
        "engine.abel_quad_ms": ms("engine.abel_quad"),
        "mathieu.char_value_calls": per_op("mathieu.char_value.calls"),
        "mathieu.char_value_ms": ms("mathieu.char_value"),
        "mathieu.truncation_mean": ratio(counts["mathieu.truncation_sum"],
                                         counts["mathieu.char_value.calls"]),
        "mathieu.gram_ms": ms("mathieu.gram"),
        "mathieu.quad_calls": per_op("mathieu.quad.calls"),
        "mathieu.quad_integrand_evals": per_op("mathieu.quad_integrand_evals"),
        **{f"scenarios.{sid}_ms": ms(f"scenarios.{sid}") for sid in SCENARIO_IDS},
        "machine.ref_ms": statistics.median(run.ref_ms),
        "trace.op_p50_ms": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }
    layer_self = defaultdict(float)
    for name, v in self_ms.items():
        layer_self[name.split(".")[0]] += v
    for wall, imp, work, _ in run.op_processes:
        layer_self["import"] += imp
        layer_self["interp"] += wall - imp - work
    total = sum(run.traced_latency) * 1e3
    shares = {k: v / total for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])}
    shares["(outside spans)"] = 1.0 - sum(shares.values())
    return metrics, shares


PER_LAYER_UNITS = {
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms", "cli.main_ms": "ms/op",
    "cli.interp_ms": "ms", "grammar.parse_ms": "ms/op", "serialize.emit_ms": "ms/op",
    "poly.make_rational_calls": "count/op", "poly.make_rational_ms": "ms/op",
    "poly.roots_calls": "count/op", "poly.roots_ms": "ms/op",
    "ode.classify_calls": "count/op", "ode.classify_ms": "ms/op",
    "heun.heun_value_calls": "count/op", "heun.heun_value_ms": "ms/op",
    "heun.series_terms": "count/op", "series.frobenius_ms": "ms/op",
    "engine.connection_matrix_ms": "ms/op", "engine.loop_transfer_ms": "ms/op",
    "engine.integrate_path_calls": "count/op", "engine.integrate_path_ms": "ms/op",
    "engine.segments": "count/op", "engine.rhs_evals": "count/op",
    "engine.rhs_per_segment": "count", "engine.us_per_rhs": "us",
    "engine.abel_quad_ms": "ms/op",
    "mathieu.char_value_calls": "count/op", "mathieu.char_value_ms": "ms/op",
    "mathieu.truncation_mean": "count", "mathieu.gram_ms": "ms/op",
    "mathieu.quad_calls": "count/op", "mathieu.quad_integrand_evals": "count/op",
    **{f"scenarios.{sid}_ms": "ms/op" for sid in SCENARIO_IDS},
    "machine.ref_ms": "ms", "trace.op_p50_ms": "ms", "trace.overhead_ms": "ms",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heunkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no heunkit sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)
    run = Run()
    setup = []
    for _ in range(SETUP_STARTS):
        ready, report, importtime = fresh_start(args.workload, args.seed, traced)
        setup.append(ready)
        if traced:
            run.setup_processes.append((ready * 1e3, report["import_ms"], report["work_ms"],
                                        scipy_import_ms(importtime)))
    wl = WORKLOADS[args.workload](args.seed)
    run_ops(wl, args, run, Recorder() if traced else None)

    attempted = run.failed + run.verified
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops, "
          f"{run.failed} failed, timed {sum(run.latency) + sum(run.traced_latency):.3f} s")
    for err in run.errors[:5]:
        print(f"  failure: {err}")
    print(f"fail_share {run.failed / attempted:.6g} ratio ({run.failed} of {attempted})")
    if traced:
        metrics, shares = per_layer(run, COUNT_WINDOW[args.workload])
        units = PER_LAYER_UNITS
        print("layer self-time shares of traced op time: "
              + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    else:
        metrics, notes = end_to_end(run, setup, isinstance(wl, CliCold))
        units = END_TO_END_UNITS
        print(f"machine.ref_ms {statistics.median(run.ref_ms):.4f} ms "
              f"(median of {len(run.ref_ms)})")
    for name, value in metrics.items():
        note = "" if traced else f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    result = {"correct": run.failed == 0, "attempted": attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
