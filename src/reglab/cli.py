"""Command-line front end.

Subcommands: ``gen gnp``, ``gen class``, ``partition``, ``clean``,
``count``, ``m2``, ``schedule``, and ``experiment <name>``.  Identical
argument vectors and seeds produce byte-identical outputs.  Exit codes:
0 success; 2 parse or precondition error, including an out-of-range
value, an unreadable input path and malformed input JSON; 3 budget error;
4 theorem-check failure in an experiment report; 5 soundness error, an
internal cross-check that failed (a bug, never a property of the input).

Checked ranges: every ``--eps`` and the ``gen class`` ``--p`` lie in (0, 1];
``--refuter-trials`` and the ``gen class`` ``--n`` are >= 1; the ``gen class``
``--m`` is >= 0; the ``clean`` ``--d`` and ``--uniformity`` are finite and
>= 0; the ``partition`` and ``clean`` ``--max-t`` is at least ``--t0``.  Each
``experiment <name>`` flag states its meaning and range in ``EXPERIMENTS``
and in ``reglab experiment <name> --help``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    """A finite number >= 0 (NaN and infinity rejected), such as a tolerance or a density floor."""
    value = parse_probability(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def parse_closed_unit_interval(text: str) -> float:
    """A number in [0, 1], such as a slack gamma that is vacuous above 1."""
    value = parse_probability(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
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


#: Experiment flags, each as (option, runner keyword, parse type with its range, default, help).
PATTERN = ("--pattern", "pattern", str, None, "template JSON path (default: a triangle)")
HOST_N = ("--N", "host_n", parse_positive_int, 800, "vertices of the host G(N, p), >= 1")
HOST_P = ("--p", "p", parse_unit_interval, 0.1, "edge probability of the host G(N, p), in (0, 1]")
TRIALS = ("--trials", "trials", parse_positive_int, 10, "independent trials, >= 1")
CLIQUE_K = ("--k", "k", parse_positive_int, 3, "clique size k, >= 1")
GAMMA = ("--gamma", "gamma", parse_closed_unit_interval, 0.25, "slack gamma of the min-degree premise, in [0, 1]")
ETA = ("--eta", "eta", parse_unit_interval, 0.3, "class size ceil(eta N) as a fraction of N, in (0, 1]")
FLOOR_D = ("--d", "d", parse_nonnegative, 0.25, "skip trials with a pair below d p n^2 edges, >= 0")
RATIO_DELTA = ("--delta", "delta", parse_nonnegative, 0.15, "allowed deviation of the count ratio from 1, >= 0")
EPSILON = ("--eps", "epsilon", parse_unit_interval, 0.25, "regularity parameter eps, in (0, 1]")
BUDGET_DELTA = ("--delta", "delta", parse_nonnegative, 0.15, "deletion budget delta p N^2, >= 0")
COPY_EPS = ("--eps", "eps_copies", parse_unit_interval, 0.25,
            "copy fraction: the subgraph has at most eps p^e(H) N^v(H) copies, in (0, 1]")
RHO = ("--rho", "rho", parse_fraction, "0.9", "relative density rho, an exact decimal or fraction in [0, 1]")
CLIQUE_EPS = ("--eps", "eps", parse_unit_interval, 0.25, "slack below g_hat(rho) in the clique bound, in (0, 1]")
TURAN_EPS = ("--eps", "eps", parse_unit_interval, 0.25, "edge fraction slack above the Turan fraction, in (0, 1]")
PART_N = ("--n", "n", parse_positive_int, 6, "part size n, >= 1")
PAIR_M = ("--m", "m", parse_positive_int, 12, "edges per template pair m, >= 1")
CLASS_EPS = ("--eps", "eps", parse_unit_interval, 0.25, "regularity parameter eps, in (0, 1]")

#: experiment -> (name of its runner in ``reglab.experiments``, the flags it reads).  The
#: runner is looked up by name when it is called, so a wrapper patched onto the module runs.
EXPERIMENTS = {
    "counting": ("run_counting", (PATTERN, HOST_N, HOST_P, ETA, FLOOR_D, RATIO_DELTA, EPSILON, TRIALS)),
    "removal": ("run_removal", (PATTERN, HOST_N, HOST_P, BUDGET_DELTA, COPY_EPS, TRIALS)),
    "cliquedensity": ("run_clique_density", (CLIQUE_K, HOST_N, HOST_P, RHO, CLIQUE_EPS, TRIALS)),
    "packing": ("run_packing", (CLIQUE_K, HOST_N, HOST_P, GAMMA, TRIALS)),
    "aes": ("run_partite_stability", (PATTERN, HOST_N, HOST_P, GAMMA, TRIALS)),
    "turan": ("run_turan", (PATTERN, HOST_N, HOST_P, TURAN_EPS, TRIALS)),
    "classprobe": ("probe_copy_free_class", (PATTERN, PART_N, PAIR_M, CLASS_EPS, TRIALS)),
}


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
    exp_sub = exp_cmd.add_subparsers(dest="name", required=True)
    for name, (_, flags) in EXPERIMENTS.items():
        # no abbreviations: removal would otherwise read --d as its --delta
        name_cmd = exp_sub.add_parser(name, allow_abbrev=False)
        for option, keyword, parse, default, text in flags:
            name_cmd.add_argument(option, dest=keyword, type=parse, default=default, help=text)

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
            rng = RngStream(_seed_from(args))
            runner, flags = EXPERIMENTS[args.name]
            kwargs = {keyword: getattr(args, keyword) for _, keyword, *_ in flags}
            if "pattern" in kwargs:
                path = kwargs["pattern"]
                kwargs["pattern"] = _load_pattern(path) if path else PatternGraph.complete(3)
            report = getattr(experiments, runner)(**kwargs, rng=rng)
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
