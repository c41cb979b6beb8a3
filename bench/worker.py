"""One round of a workload in a fresh process.

Usage: ``python3 bench/worker.py RESULT [PLAN [SPANS]]``, with reglab's
``src`` on ``PYTHONPATH``.  PLAN is a JSON list of argument vectors for
``reglab.cli.main``.  The worker imports reglab, runs every call in order,
and writes timings, exit codes and resource use to RESULT.  Without PLAN it
only imports reglab, which measures set-up on its own.  When SPANS is given
the public functions of each module are traced (see ``tracing.py``) and the
spans are written there after the last call.
"""

import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` is not used: Linux folds the spawning parent's peak into
    it at exec, so it would report the benchmark's memory, not reglab's.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    result_path, plan_path, spans_path = (sys.argv[1:] + [None, None])[:3]
    import_start = time.perf_counter()
    import reglab.cli

    import_s = time.perf_counter() - import_start
    ready = time.monotonic()

    import json
    import resource

    if plan_path is None:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({"ready": ready, "import_s": import_s}, handle)
        return
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    calls = []
    usage_start = resource.getrusage(resource.RUSAGE_SELF)
    first = time.perf_counter()
    for argv in plan:
        start = time.perf_counter()
        try:
            code = reglab.cli.main(argv)
        except Exception as exc:  # a traceback is a failed call, not a failed round
            print(f"call {argv[6:8]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        calls.append({"code": code, "seconds": time.perf_counter() - start})
    last = time.perf_counter()
    usage_end = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.write(spans_path)
    result = {
        "ready": ready,
        "import_s": import_s,
        "wall_s": last - first,
        "cpu_s": (usage_end.ru_utime + usage_end.ru_stime) - (usage_start.ru_utime + usage_start.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
        "calls": calls,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
