"""reglab benchmark: run one workload through the CLI, time it, check every output.

Usage (from the repository root)::

    python3 bench/run.py --workload exact_pairs --seed 1 --seconds 30 --trace 0

The workload's inputs are drawn from ``--seed`` before any timing starts.
The run then repeats whole rounds until ``--seconds`` have passed; each
round is one fresh, single-threaded Python process that imports reglab and
calls ``reglab.cli.main`` once per operation.  End-to-end metrics are the
medians over rounds.  With ``--trace 1`` untraced and traced rounds
alternate, and the per-layer metrics come from the traced ones.  Every
output is checked (see ``checks.py``); the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(SINGLE_THREAD)  # before numpy loads, for input generation and checks

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Generated inputs and run outputs, relative to the repository root (ignored by git).
WORK = Path(".bench_work")
#: A run must end within 180 s, so a worker that hangs is killed after this long.
WORKER_TIMEOUT_S = 120.0
#: Extra processes per round that only import reglab: set-up is short and
#: noisy, so setup_s is the median over many of them.
SETUP_PROBES = 4


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("REGLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(work: Path, *args: str) -> dict:
    """Run ``worker.py`` in a fresh process and return its result with its set-up time."""
    result_path = work / "round.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(result_path), *args]
    spawned = time.monotonic()
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    log_text = (work / "worker.log").read_text(encoding="utf-8", errors="replace")
    if log_text:
        sys.stderr.write(log_text[-4000:])
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - spawned
    return result


def run_round(work: Path, traced: bool) -> dict:
    """Run every planned call once in a fresh worker, then time SETUP_PROBES bare set-ups."""
    spans_path = work / "spans.jsonl"
    args = [str(work / "plan.json")] + ([str(spans_path)] if traced else [])
    result = run_worker(work, *args)
    result["traced"] = traced
    if traced:
        result["layers"], result["missing"] = tracing.summarize(str(spans_path))
    result["setups"] = [result["setup_s"]] + [run_worker(work)["setup_s"] for _ in range(SETUP_PROBES)]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_worker so that the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "reglab" / "cli.py").is_file():
        print(f"error: no reglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # a private directory per run, so concurrent runs cannot overwrite each
    # other's inputs; the latest run's files stay under .bench_work/<workload>
    work = WORK / f"{args.workload}.{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code = run(args, work)
    finally:
        kept = WORK / args.workload
        shutil.rmtree(kept, ignore_errors=True)
        work.rename(kept)
    return code


def check_outputs(ops: list, calls: list[dict], verdicts: dict) -> list[str | None]:
    """The problem with each call's output, or None; a verdict is cached by output digest."""
    problems = []
    for index, (op, call) in enumerate(zip(ops, calls)):
        if not op.out.exists():
            problems.append("exit 0 without an output file" if call["code"] == 0 else None)
            continue
        data = op.out.read_bytes()
        key = (index, hashlib.sha256(data).hexdigest())
        if key not in verdicts:
            try:
                op.check(data.decode("utf-8"), call["code"])
                verdicts[key] = None
            except Exception as exc:  # any malformed output is a failed check, not a crash
                verdicts[key] = f"{type(exc).__name__}: {exc}"
                print(f"check failed: {op.name}: {verdicts[key]}", file=sys.stderr)
        problems.append(verdicts[key])
    return problems


def run(args, work: Path) -> int:
    ops = workloads.WORKLOADS[args.workload](args.seed % 2**63, work)
    (work / "plan.json").write_text(json.dumps([op.argv for op in ops]), encoding="utf-8")

    started = time.monotonic()
    rounds: list[dict] = []
    verdicts: dict[tuple[int, str], str | None] = {}
    attempted = failed = 0
    correct = True
    last_round_s = 0.0
    # whole rounds only, so the share of failed calls is the same in every run
    while not rounds or (args.trace and len(rounds) < 2) or time.monotonic() - started + last_round_s <= args.seconds:
        round_started = time.monotonic()
        for op in ops:
            op.out.unlink(missing_ok=True)
        result = run_round(work, traced=bool(args.trace) and len(rounds) % 2 == 1)
        rounds.append(result)
        print(
            f"round {len(rounds)}{' traced' if result['traced'] else ''}: wall_s {result['wall_s']:.4f}"
            f" setup_s {result['setup_s']:.4f} peak_rss_mb {result['peak_rss_mb']:.1f} cpu_s {result['cpu_s']:.4f}"
        )
        for call, problem in zip(result["calls"], check_outputs(ops, result["calls"], verdicts)):
            attempted += 1
            failed += call["code"] != 0 or problem is not None
            correct = correct and problem is None
        last_round_s = time.monotonic() - round_started

    plain = [r for r in rounds if not r["traced"]]
    for index, op in enumerate(ops):
        digests = sorted(digest for (i, digest) in verdicts if i == index)
        seconds = statistics.median(r["calls"][index]["seconds"] for r in plain)
        print(
            f"output {op.name}: exit {rounds[-1]['calls'][index]['code']}, median {seconds:.4f} s,"
            f" sha256 {' '.join(digests) or '-'}"
        )
    summary = {
        "wall_s": ("s", statistics.median(r["wall_s"] for r in plain)),
        "peak_rss_mb": ("MB", statistics.median(r["peak_rss_mb"] for r in plain)),
        "setup_s": ("s", statistics.median(s for r in rounds for s in r["setups"])),
    }
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced rounds, "
        + ", ".join(f"{name} {value:.4f} {unit}" for name, (unit, value) in summary.items())
        + f", cpu_s {statistics.median(r['cpu_s'] for r in plain):.4f} s (for reference),"
        + f" attempted {attempted}, failed {failed}"
    )
    metrics = layer_metrics(rounds, summary["wall_s"][1]) if args.trace else summary
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


def layer_metrics(rounds: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer medians over the traced rounds, printed one per line."""
    traced = [r for r in rounds if r["traced"]]
    if traced[-1]["missing"]:
        print(f"trace: names not found: {', '.join(traced[-1]['missing'])}")
    metrics = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(r["wall_s"] for r in traced) - untraced_wall_s
        elif name == "cli.import_s":
            value = statistics.median(r["import_s"] for r in traced)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (unit, value)
        print(f"layer {name} {value:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
