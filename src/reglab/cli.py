"""Command-line front end.

Subcommands: ``gen gnp``, ``gen class``, ``partition``, ``clean``,
``count``, ``m2``, ``schedule``, and ``experiment <name>``.  Identical
argument vectors and seeds produce byte-identical outputs.  Exit codes:
0 success; 2 parse or precondition error, including an out-of-range
value, an unreadable input path and malformed input JSON; 3 budget error,
including an input whose size could not be allocated; 4 theorem-check
failure in an experiment report; 5 soundness error, an internal
cross-check that failed (a bug, never a property of the input).

Checked ranges (``ranged``, with the ``Range`` values of ``experiments``):
the ``gen class``, ``partition`` and ``clean`` ``--eps`` and the ``gen
class`` ``--p`` lie in (0, 1]; ``--refuter-trials`` and the ``gen class``
``--n`` are >= 1; the ``gen class`` ``--m`` is >= 0; the ``clean`` ``--d``
and ``--uniformity`` are finite and >= 0; the ``partition`` and ``clean``
``--max-t`` is at least ``--t0``.  ``experiment <name>`` declares nothing
here: its options, meanings, ranges and defaults are the parameter rows of
``reglab.experiments.EXPERIMENTS`` (see ``reglab experiment <name>
--help``).  An option's text is parsed by its declared type; the record
checks itself when built, so an out-of-range value exits 2 before any draw.
"""

from __future__ import annotations

import argparse
import functools
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
from .experiments import AT_LEAST_0, AT_LEAST_1, NONNEGATIVE, UNIT, Range

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


def ranged(parse, allowed: Range):
    """An argparse type: the value that ``parse`` reads from the text, required to lie in ``allowed``."""

    def parse_in_range(text: str):
        value = parse(text)
        if not allowed.holds(value):
            raise argparse.ArgumentTypeError(f"must be {allowed.text}, got {text}")
        return value

    return parse_in_range


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


def parse_template(path: str) -> PatternGraph:
    """The template in the JSON file at ``path``; an unreadable or malformed file is a usage error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return PatternGraph.from_json(handle.read())
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


#: declared parameter type -> how an ``experiment`` option parses its text
EXPERIMENT_PARSE = {int: int, float: parse_probability, Fraction: parse_fraction, PatternGraph: parse_template}


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
    class_cmd.add_argument("--pattern", type=parse_template, required=True, help="pattern JSON path")
    class_cmd.add_argument("--n", type=ranged(int, AT_LEAST_1), required=True, help="part size")
    class_cmd.add_argument("--m", type=ranged(int, AT_LEAST_0), required=True, help="edges per pair")
    class_cmd.add_argument("--p", type=ranged(parse_probability, UNIT), required=True)
    class_cmd.add_argument("--eps", type=ranged(parse_probability, UNIT), required=True)
    class_cmd.add_argument("--mode", choices=("raw", "rejection"), default="raw")

    part_cmd = sub.add_parser("partition", help="sparse regular partition of an edge-list graph")
    part_cmd.add_argument("--graph", required=True, help="edge-list path")
    part_cmd.add_argument("--eps", type=ranged(parse_probability, UNIT), required=True)
    part_cmd.add_argument("--p", type=parse_probability, required=True)
    part_cmd.add_argument("--t0", type=int, default=4)
    part_cmd.add_argument("--max-t", type=int, default=64)
    part_cmd.add_argument("--refuter-trials", type=ranged(int, AT_LEAST_1), default=32)

    clean_cmd = sub.add_parser("clean", help="partition then clean; prints cleaned stats and cluster")
    clean_cmd.add_argument("--graph", required=True)
    clean_cmd.add_argument("--eps", type=ranged(parse_probability, UNIT), required=True)
    clean_cmd.add_argument("--p", type=parse_probability, required=True)
    clean_cmd.add_argument("--d", type=ranged(parse_probability, NONNEGATIVE), required=True)
    clean_cmd.add_argument("--uniformity", type=ranged(parse_probability, NONNEGATIVE), default=2.0)
    clean_cmd.add_argument("--t0", type=int, default=4)
    clean_cmd.add_argument("--max-t", type=int, default=64)

    count_cmd = sub.add_parser("count", help="canonical copies in a multipartite JSON graph")
    count_cmd.add_argument("--graph", required=True, help="multipartite JSON path")

    m2_cmd = sub.add_parser("m2", help="2-density of a pattern")
    m2_cmd.add_argument("--pattern", type=parse_template, required=True)
    m2_cmd.add_argument("--report", action="store_true", help="full JSON report instead of the bare value")

    sched_cmd = sub.add_parser("schedule", help="multi-round exposure schedule")
    sched_cmd.add_argument("--p", type=parse_probability, required=True)
    sched_cmd.add_argument("--rounds", type=int, required=True)
    sched_cmd.add_argument("--ratio", type=parse_probability, required=True)

    exp_cmd = sub.add_parser("experiment", help="run a named experiment")
    exp_sub = exp_cmd.add_subparsers(dest="name", required=True)
    for name, record in experiments.EXPERIMENTS.items():
        # no abbreviations: removal would otherwise read --d as its --delta
        name_cmd = exp_sub.add_parser(name, allow_abbrev=False)
        for row in record.declared():
            if row.option:
                # suppressed: an option left out keeps the record's declared default
                name_cmd.add_argument(
                    row.option, dest=row.name, type=EXPERIMENT_PARSE[row.kind], default=argparse.SUPPRESS, help=row.help
                )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``: built on its first call, not at import, and reused by every later call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
                sample = sample_class(args.pattern, args.n, args.m, args.p, args.eps, rng, mode=args.mode)
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
            report = two_density(args.pattern)
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
            record = experiments.EXPERIMENTS[args.name]
            given = {row.name: getattr(args, row.name) for row in record.declared() if hasattr(args, row.name)}
            report = getattr(experiments, record.runner)(record(**given), RngStream(_seed_from(args)))
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
    except MemoryError:
        print("budget error: the input's size could not be allocated", file=sys.stderr)
        return EXIT_BUDGET
    except SoundnessError as exc:
        print(f"soundness error: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    return EXIT_OK


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
