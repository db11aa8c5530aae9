"""Fresh-interpreter entry points of the benchmark.

  child.py ready <workload> <seed>
      Import heunkit and draw the workload's first input, then print one
      JSON line {"import_ms", "work_ms"}. The parent times set-up from
      process start to that line.
  child.py cli <argv...>
      Import heunkit, wrap its public functions (tracer.Recorder), call
      heunkit.cli.main(argv) and exit with its status. The trace goes to
      stderr as the last line, after the prefix TRACE_PREFIX.
"""

import json
import sys
import time

TRACE_PREFIX = "PERFBENCH-TRACE "


def main(argv):
    t0 = time.perf_counter()
    import heunkit
    if argv[0] == "cli":
        import heunkit.cli
    import_ms = (time.perf_counter() - t0) * 1e3
    if argv[0] == "ready":
        from workloads import WORKLOADS
        t1 = time.perf_counter()
        WORKLOADS[argv[1]](int(argv[2])).draw()
        work_ms = (time.perf_counter() - t1) * 1e3
        print(json.dumps({"import_ms": import_ms, "work_ms": work_ms}), flush=True)
        return 0
    from tracer import Recorder
    rec = Recorder()
    rec.install()
    t1 = time.perf_counter()
    try:
        status = heunkit.cli.main(argv[1:])
    finally:
        main_ms = (time.perf_counter() - t1) * 1e3
        rec.uninstall()
        sys.stdout.flush()
        spans, counts = rec.take()
        trace = {"spans": spans, "counts": counts, "import_ms": import_ms, "work_ms": main_ms}
        sys.stderr.write("\n" + TRACE_PREFIX + json.dumps(trace) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
