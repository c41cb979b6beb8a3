"""Command-line front end.

Subcommands: ``gen gnp``, ``gen class``, ``partition``, ``clean``,
``count``, ``m2``, ``schedule``, and ``experiment <name>``.  Identical
argument vectors and seeds produce byte-identical outputs.  Exit codes:
0 success; 2 parse or precondition error, including an out-of-range
value, an unreadable input path and malformed input JSON; 3 budget error;
4 theorem-check failure in an experiment report; 5 soundness error, an
internal cross-check that failed (a bug, never a property of the input).

Checked ranges: every ``--eps``, the experiment ``--eta`` and the
``gen class`` ``--p`` lie in (0, 1]; ``--trials``, ``--refuter-trials``,
the experiment ``--N``, ``--k``, ``--n`` and ``--m`` and the ``gen class``
``--n`` are >= 1; the ``gen class`` ``--m``, the experiment ``--delta``,
``--d`` and ``--gamma`` and the ``clean`` ``--d`` and ``--uniformity`` are
>= 0; the ``partition`` and ``clean`` ``--max-t`` is at least ``--t0``;
the experiment ``--rho`` is an exact decimal or fraction with a nonzero
denominator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .counting import canonical_count
from .patterns import two_density
from .errors import BudgetError, PreconditionError, SoundnessError
from .graphs import MultipartiteGraph, PatternGraph, SimpleGraph
from .partition import clean_partition, sparse_regular_partition
from .randgraph import RngStream, exposure_schedule, gnp, sample_class
from . import experiments

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CHECK_FAILED = 4
EXIT_SOUNDNESS = 5


def parse_fraction(text: str) -> Fraction:
    """An exact rational from a decimal or a fraction like ``3/40``, such as the relative density rho."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc


def parse_probability(text: str) -> float:
    """Accept decimals or exact fractions like ``3/40``."""
    return float(parse_fraction(text)) if "/" in text else float(text)


def parse_unit_interval(text: str) -> float:
    """A number in (0, 1], such as the regularity parameter eps or the class fraction eta."""
    value = parse_probability(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


def parse_nonnegative(text: str) -> float:
    """A number >= 0 (NaN rejected), such as a tolerance or a density floor."""
    value = parse_probability(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def parse_positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def parse_nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("REGLAB_SEED")
    if env is not None:
        return int(env)
    raise PreconditionError("no seed: pass --seed or set REGLAB_SEED")


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_pattern(path: str) -> PatternGraph:
    with open(path, encoding="utf-8") as handle:
        return PatternGraph.from_json(handle.read())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reglab")
    parser.add_argument("--seed", type=int, default=None, help="master seed (fallback: REGLAB_SEED)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate random graphs")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    gnp_cmd = gen_sub.add_parser("gnp")
    gnp_cmd.add_argument("--n", type=int, required=True)
    gnp_cmd.add_argument("--p", type=parse_probability, required=True)
    class_cmd = gen_sub.add_parser("class")
    class_cmd.add_argument("--pattern", required=True, help="pattern JSON path")
    class_cmd.add_argument("--n", type=parse_positive_int, required=True, help="part size")
    class_cmd.add_argument("--m", type=parse_nonnegative_int, required=True, help="edges per pair")
    class_cmd.add_argument("--p", type=parse_unit_interval, required=True)
    class_cmd.add_argument("--eps", type=parse_unit_interval, required=True)
    class_cmd.add_argument("--mode", choices=("raw", "rejection"), default="raw")

    part_cmd = sub.add_parser("partition", help="sparse regular partition of an edge-list graph")
    part_cmd.add_argument("--graph", required=True, help="edge-list path")
    part_cmd.add_argument("--eps", type=parse_unit_interval, required=True)
    part_cmd.add_argument("--p", type=parse_probability, required=True)
    part_cmd.add_argument("--t0", type=int, default=4)
    part_cmd.add_argument("--max-t", type=int, default=64)
    part_cmd.add_argument("--refuter-trials", type=parse_positive_int, default=32)

    clean_cmd = sub.add_parser("clean", help="partition then clean; prints cleaned stats and cluster")
    clean_cmd.add_argument("--graph", required=True)
    clean_cmd.add_argument("--eps", type=parse_unit_interval, required=True)
    clean_cmd.add_argument("--p", type=parse_probability, required=True)
    clean_cmd.add_argument("--d", type=parse_nonnegative, required=True)
    clean_cmd.add_argument("--uniformity", type=parse_nonnegative, default=2.0)
    clean_cmd.add_argument("--t0", type=int, default=4)
    clean_cmd.add_argument("--max-t", type=int, default=64)

    count_cmd = sub.add_parser("count", help="canonical copies in a multipartite JSON graph")
    count_cmd.add_argument("--graph", required=True, help="multipartite JSON path")

    m2_cmd = sub.add_parser("m2", help="2-density of a pattern")
    m2_cmd.add_argument("--pattern", required=True)
    m2_cmd.add_argument("--report", action="store_true", help="full JSON report instead of the bare value")

    sched_cmd = sub.add_parser("schedule", help="multi-round exposure schedule")
    sched_cmd.add_argument("--p", type=parse_probability, required=True)
    sched_cmd.add_argument("--rounds", type=int, required=True)
    sched_cmd.add_argument("--ratio", type=parse_probability, required=True)

    exp_cmd = sub.add_parser("experiment", help="run a named experiment")
    exp_cmd.add_argument("name", choices=(
        "counting", "removal", "cliquedensity", "packing", "aes", "turan", "classprobe",
    ))
    exp_cmd.add_argument("--pattern", default=None, help="pattern JSON path (defaults to a triangle)")
    exp_cmd.add_argument("--N", type=parse_positive_int, default=800)
    exp_cmd.add_argument("--n", type=parse_positive_int, default=6, help="part size (classprobe)")
    exp_cmd.add_argument("--m", type=parse_positive_int, default=12, help="edges per pair (classprobe)")
    exp_cmd.add_argument("--p", type=parse_probability, default=0.1)
    exp_cmd.add_argument("--eps", type=parse_unit_interval, default=0.25)
    exp_cmd.add_argument("--delta", type=parse_nonnegative, default=0.15)
    exp_cmd.add_argument("--d", type=parse_nonnegative, default=0.25)
    exp_cmd.add_argument("--eta", type=parse_unit_interval, default=0.3)
    exp_cmd.add_argument("--gamma", type=parse_nonnegative, default=0.25)
    exp_cmd.add_argument("--rho", type=parse_fraction, default="0.9")
    exp_cmd.add_argument("--k", type=parse_positive_int, default=3)
    exp_cmd.add_argument("--trials", type=parse_positive_int, default=10)

    return parser


def _run_experiment(args, rng: RngStream):
    pattern = _load_pattern(args.pattern) if args.pattern else PatternGraph.complete(3)
    name = args.name
    if name == "counting":
        return experiments.run_counting(
            pattern, args.N, args.p, args.eta, args.d, args.delta, args.trials, rng, epsilon=args.eps
        )
    if name == "removal":
        return experiments.run_removal(
            pattern, args.N, args.p, args.delta, args.eps, rng, trials=args.trials
        )
    if name == "cliquedensity":
        return experiments.run_clique_density(
            args.k, args.N, args.p, args.rho, args.eps, rng, trials=args.trials
        )
    if name == "packing":
        return experiments.run_packing(args.k, args.N, args.p, args.gamma, rng, trials=args.trials)
    if name == "aes":
        return experiments.run_partite_stability(
            pattern, args.N, args.p, args.gamma, rng, trials=args.trials
        )
    if name == "turan":
        return experiments.run_turan(pattern, args.N, args.p, args.eps, rng, trials=args.trials)
    if name == "classprobe":
        return experiments.probe_copy_free_class(
            pattern, args.n, args.m, args.eps, args.trials, rng
        )
    raise PreconditionError(f"unknown experiment {name!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen":
            seed = _seed_from(args)
            rng = RngStream(seed)
            if args.generator == "gnp":
                graph = gnp(args.n, args.p, rng)
                _write_out(args, graph.to_edge_list())
            else:
                pattern = _load_pattern(args.pattern)
                sample = sample_class(pattern, args.n, args.m, args.p, args.eps, rng, mode=args.mode)
                _write_out(args, sample.to_json() + "\n")
        elif args.command == "partition":
            seed = _seed_from(args)
            with open(args.graph, encoding="utf-8") as handle:
                graph = SimpleGraph.from_edge_list(handle.read())
            part = sparse_regular_partition(
                graph, args.eps, args.p, args.t0, args.max_t, RngStream(seed),
                refuter_trials=args.refuter_trials,
            )
            _write_out(args, part.to_json() + "\n")
        elif args.command == "clean":
            seed = _seed_from(args)
            with open(args.graph, encoding="utf-8") as handle:
                graph = SimpleGraph.from_edge_list(handle.read())
            part = sparse_regular_partition(graph, args.eps, args.p, args.t0, args.max_t, RngStream(seed))
            result = clean_partition(graph, part, args.d, args.uniformity)
            payload = {
                "deleted_within": result.deleted_within,
                "deleted_refuted": result.deleted_refuted,
                "deleted_sparse": result.deleted_sparse,
                "deleted_total": result.deleted_total,
                "deletion_bound": str(result.deletion_bound),
                "bound_inputs_hold": result.bound_inputs_hold,
                "failed_inequalities": result.failed_inequalities,
                "cluster": json.loads(result.cluster.to_json()),
            }
            _write_out(args, json.dumps(payload, sort_keys=True) + "\n")
        elif args.command == "count":
            with open(args.graph, encoding="utf-8") as handle:
                graph = MultipartiteGraph.from_json(handle.read())
            _write_out(args, canonical_count(graph).to_json() + "\n")
        elif args.command == "m2":
            pattern = _load_pattern(args.pattern)
            report = two_density(pattern)
            _write_out(args, (report.to_json() if args.report else str(report.m2)) + "\n")
        elif args.command == "schedule":
            schedule = exposure_schedule(args.p, args.rounds, args.ratio)
            payload = {
                "p": format(schedule.p, ".17g"),
                "rounds": schedule.rounds,
                "ratio": format(schedule.ratio, ".17g"),
                "probabilities": [format(q, ".17g") for q in schedule.probabilities],
                "reconstruction_error": format(schedule.reconstruction_error(), ".17g"),
            }
            _write_out(args, json.dumps(payload) + "\n")
        elif args.command == "experiment":
            seed = _seed_from(args)
            report = _run_experiment(args, RngStream(seed))
            text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
            _write_out(args, text)
            if not report.aggregate.get("passed", True):
                return EXIT_CHECK_FAILED
    except (PreconditionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SoundnessError as exc:
        print(f"soundness error: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    return EXIT_OK


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
