"""End-to-end statistical verification pipelines.

Each experiment samples seeded random hosts, runs the partition/clean/
cluster machinery, and checks the relevant counting, removal, packing, or
stability inequality with exact integer accounting.  Reports are plain
data: every per-trial record is reproducible from the master seed and
trial index, deletion budgets are compared in rational arithmetic, and
"regular" always means "not refuted by the configured sampled checker",
which the caveats repeat explicitly.

Each experiment declares its parameters once, as ``Param`` rows from
which ``_record`` builds its record, a named tuple (``EXPERIMENTS``).  A row
gives a parameter's runner keyword, type, default, meaning, ``Range``,
report key and, for the 40 values that the CLI sets, its option; the CLI
builds ``reglab experiment <name>`` from the rows.  Shared rows are written
once (``HOST_N``, ``_regularization``'s six values of ``_regularize``, ...).
A record checks every declared range and every cross-field condition when
it is built (``_replace`` included), so an out-of-range value fails before
any draw, from the CLI and from a library caller alike.

Every runner takes its record and a stream and reports through one
skeleton, ``_run_trials``: trial i draws from ``rng.child(i)``, and the
report's params are the record (``Params.report``: each value under its
report key, a template as its JSON, a ``Fraction`` as its string), so a
report can be rerun from its own params and seed.  A runner may add
derived entries, as ``cliquedensity`` adds ``g_hat``.

removal, packing, cliquedensity and aes start from one stage,
``_regularize``: ``sparse_regular_partition`` then ``clean_partition`` on
the trial's subgraph, from one stream.  Its flat record joins the trial
record.  From the partition: ``partition_t`` (classes),
``partition_converged`` and ``inconclusive`` (its negation; a packing trial
that stops at a stage sets it true), and ``pairs_certified``, ``pairs_refuted``
and ``pairs_undecided``, the verdicts of ``Partition.pair_info`` counted in
class pairs, so they sum to C(t, 2).  From the cleaning, in edges:
``deleted_clean``, the sum of ``deleted_clean_within``,
``deleted_clean_refuted`` and ``deleted_clean_sparse`` (``CleanResult``'s
deletions by cause); and ``clean_bound_inputs_hold``, whether the
inequalities behind ``CleanResult.deletion_bound`` held.

The runners share their graph work.  ``_side_labels`` labels a random
permutation of the vertices (removal's bipartition, the (chi-1)-partitions
of aes and turan); ``_partite_cut`` keeps the host edges across such a
labelling and lists the interior ones in random order; ``_disjoint_copies``
finds vertex-disjoint template copies until none is left (packing's factor
cliques and its mop-up).  ``clique_factor`` takes its cliques from the
search kernel of :mod:`reglab.embedding`; the aes lift's minimum-deletion
partition is ``graphs.min_monochromatic_partition``, which also gives chi.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, namedtuple
from collections.abc import Callable
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, NamedTuple

import numpy as np

from .counting import GK_BUDGET, canonical_count, gk_bruteforce
from .embedding import (
    automorphism_count,
    count_embeddings,
    count_embeddings_through_edge,
    count_kcliques,
    find_embedding,
    iter_copies,
    iter_embeddings,
)
from .errors import BudgetError, PreconditionError, RejectionBudgetError, SoundnessError
from .graphs import (
    PatternGraph,
    SimpleGraph,
    VertexSetPair,
    _peel_low_degree,
    bitmask_of,
    induced_multipartite,
    iter_bits,
    matrix_to_rows,
    min_degree,
    min_monochromatic_partition,
    rows_to_matrix,
    symmetric_rows,
)
from .partition import (
    CleanResult,
    ClusterGraph,
    Partition,
    clean_partition,
    sparse_regular_partition,
    trim_min_degree,
)
from .patterns import chromatic_number, two_density
from .randgraph import RngStream, gnp, sample_class
from .regularity import CERTIFIED, EXHAUSTIVE_PAIR_BUDGET, REFUTED, UNDECIDED, pair_verdict, pair_verdicts

REGULARITY_CAVEAT = (
    "regular means: not refuted by the sampled checker at the configured trial budget"
)

CLIQUE_FACTOR_BUDGET = 30


@dataclass
class ExperimentReport:
    """Parameter block, per-trial records, and the aggregate verdict."""

    name: str
    params: dict
    seed: int
    trials: list[dict]
    aggregate: dict
    caveats: list[str]
    schema: int = 1

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_csv(self) -> str:
        keys: list[str] = []
        for trial in self.trials:
            for key in trial:
                if key not in keys:
                    keys.append(key)
        keys.sort()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trial"] + keys)
        for index, trial in enumerate(self.trials):
            writer.writerow([index] + [trial.get(k, "") for k in keys])
        return buf.getvalue()


class Range(NamedTuple):
    """The values a parameter may take: ``text`` names them, ``holds`` decides one."""

    text: str
    holds: Callable[[Any], bool]


AT_LEAST_0 = Range(">= 0", lambda v: v >= 0)
AT_LEAST_1 = Range(">= 1", lambda v: v >= 1)
AT_LEAST_2 = Range(">= 2", lambda v: v >= 2)
NONNEGATIVE = Range("finite and >= 0", lambda v: 0 <= v < math.inf)
UNIT = Range("in (0, 1]", lambda v: 0 < v <= 1)
CLOSED_UNIT = Range("in [0, 1]", lambda v: 0 <= v <= 1)
WITH_EDGES = Range("a template with edges", lambda h: h.edge_count > 0)


class Param(NamedTuple):
    """A declared parameter: runner keyword, type, default, meaning, range, CLI option (None: hidden), report key."""

    name: str
    kind: type
    default: Any
    meaning: str
    range: Range | None = None
    option: str | None = None
    key: str | None = None

    @property
    def help(self) -> str:
        return f"{self.meaning}, {self.range.text}" if self.range else self.meaning


class Params:
    """Base of the immutable parameter records that ``_record`` builds; each record is checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return cls._make(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        """The named tuple's ``_make`` (which ``_replace`` calls too), then ``check``."""
        record = super()._make(iterable)
        record.check()
        return record

    @classmethod
    def declared(cls) -> tuple[Param, ...]:
        """The record's parameters, in field order."""
        return cls.rows

    def check(self) -> None:
        """Raise ``PreconditionError`` unless every declared range and every ``requires`` condition holds."""
        for row in self.declared():
            value = getattr(self, row.name)
            if row.range and not row.range.holds(value):
                label = f"{row.name} ({row.option})" if row.option else row.name
                shown = value.to_json() if isinstance(value, PatternGraph) else value
                raise PreconditionError(f"{label} must be {row.range.text}, got {shown}")
        for statement, holds in self.requires().items():
            if not holds:
                raise PreconditionError(f"need {statement}")

    def report(self) -> dict:
        """The report's params: each value under its report key, a template as its JSON, a Fraction as its string."""
        out = {}
        for row in self.declared():
            value = getattr(self, row.name)
            if isinstance(value, PatternGraph):
                value = json.loads(value.to_json())
            elif isinstance(value, Fraction):
                value = str(value)
            out[row.key or row.name] = value
        return out


def _record(name: str, experiment: str, runner: str, rows: tuple[Param, ...], requires=lambda params: {}) -> type:
    """The record class of ``experiment``: a named tuple with a field per row, in row order.

    ``requires`` maps a record to its cross-field conditions, each statement with whether it holds.
    ``runner`` names the runner in this module: looked up when called, a wrapper patched onto it runs.
    """
    values = namedtuple(name, [row.name for row in rows], defaults=[row.default for row in rows])
    namespace = {"__slots__": (), "rows": rows, "experiment": experiment, "runner": runner, "requires": requires}
    return type(name, (Params, values), namespace)


TEMPLATE = Param(
    "pattern", PatternGraph, PatternGraph.complete(3), "template JSON path (default: a triangle)", WITH_EDGES,
    "--pattern",
)
HOST_N = Param("host_n", int, 800, "vertices of the host G(N, p)", AT_LEAST_1, "--N", "N")
HOST_P = Param("p", float, 0.1, "edge probability of the host G(N, p)", UNIT, "--p")
GAMMA = Param("gamma", float, 0.25, "slack gamma of the min-degree premise", CLOSED_UNIT, "--gamma")
TRIALS = Param("trials", int, 10, "independent trials", AT_LEAST_1, "--trials")
PASS_FRACTION = Param("pass_fraction", float, 0.9, "least fraction of successful trials that passes", CLOSED_UNIT)


def _regularization(t0: int, max_t: int, d: float) -> tuple[Param, ...]:
    """The six values that ``_regularize`` reads, with an experiment's own t0, max_t and d."""
    return (
        Param("t0", int, t0, "classes of the initial equipartition", AT_LEAST_1),
        Param("max_t", int, max_t, "class budget of the refinement", AT_LEAST_1),
        Param("epsilon", float, 0.3, "regularity parameter eps of the partition", UNIT),
        Param("d", float, d, "cleaning drops pairs below d p |Vi||Vj| edges", NONNEGATIVE),
        Param("uniformity", float, 2.0, "upper-uniformity constant D of the cleaning bound", NONNEGATIVE),
        Param("refuter_trials", int, 24, "sampled refuter trials per class pair", AT_LEAST_1),
    )


def _t0_fits(params, vertices: str, n: int) -> dict[str, bool]:
    """The regularization's conditions: max_t >= t0, and ``n`` vertices, named ``vertices``, fill t0 classes."""
    return {
        f"max_t = {params.max_t} >= t0 = {params.t0}": params.max_t >= params.t0,
        f"{vertices} = {n} >= t0 = {params.t0}": n >= params.t0,
    }


def _classes_fit(params) -> dict[str, bool]:
    used = params.pattern.k * math.ceil(params.eta * params.host_n)
    return {f"k * ceil(eta N) = {used} <= N = {params.host_n}": used <= params.host_n}


def _peel_limit(params) -> int:
    """Most host vertices that packing's min-degree peel removes."""
    return int(params.gamma * params.host_n / 4)


CountingParams = _record("CountingParams", "counting", "run_counting", (
    TEMPLATE, HOST_N, HOST_P,
    Param("eta", float, 0.3, "class size ceil(eta N) as a fraction of N", UNIT, "--eta"),
    Param("d", float, 0.25, "skip trials with a pair below d p n^2 edges", NONNEGATIVE, "--d"),
    Param("delta", float, 0.15, "allowed deviation of the count ratio from 1", NONNEGATIVE, "--delta"),
    Param("epsilon", float, 0.25, "regularity parameter eps", UNIT, "--eps"),
    TRIALS,
    Param("refuter_trials", int, 32, "sampled refuter trials per pair", AT_LEAST_1),
    Param("pass_fraction", float, 0.9, "least in-band fraction of the effective trials that passes", CLOSED_UNIT),
), _classes_fit)
RemovalParams = _record("RemovalParams", "removal", "run_removal", (
    TEMPLATE, HOST_N, HOST_P,
    Param("delta", float, 0.15, "deletion budget delta p N^2", NONNEGATIVE, "--delta"),
    Param("eps_copies", float, 0.25, "copy fraction: the subgraph has at most eps p^e(H) N^v(H) copies", UNIT, "--eps"),
    TRIALS, *_regularization(t0=8, max_t=32, d=0.25), PASS_FRACTION,
), lambda params: _t0_fits(params, "N", params.host_n))
CliqueDensityParams = _record("CliqueDensityParams", "cliquedensity", "run_clique_density", (
    Param("k", int, 3, "clique size k", Range("in {3, 4}", lambda v: v in (3, 4)), "--k"),
    HOST_N._replace(range=AT_LEAST_2), HOST_P,
    Param("rho", Fraction, Fraction(9, 10), "relative density rho, an exact decimal or fraction", CLOSED_UNIT, "--rho"),
    Param("eps", float, 0.25, "slack below g_hat(rho) in the clique bound", UNIT, "--eps"),
    TRIALS,
    Param("oracle_n", int, 6, "vertices of the exact search for g_hat",
          Range(f"in [2, {GK_BUDGET}]", lambda v: 2 <= v <= GK_BUDGET)),
    *_regularization(t0=6, max_t=24, d=0.05),
), lambda params: {
    **_t0_fits(params, "N", params.host_n),
    f"k = {params.k} <= oracle_n = {params.oracle_n}": params.k <= params.oracle_n,
})
PackingParams = _record("PackingParams", "packing", "run_packing", (
    Param("k", int, 3, "clique size k", AT_LEAST_2, "--k"),
    HOST_N, HOST_P, GAMMA, TRIALS, *_regularization(t0=12, max_t=32, d=0.15), PASS_FRACTION._replace(default=0.8),
), lambda params: _t0_fits(params, "N - floor(gamma N / 4)", params.host_n - _peel_limit(params)))
AesParams = _record("AesParams", "aes", "run_partite_stability", (
    TEMPLATE._replace(range=Range("a template of chromatic number >= 3", lambda h: chromatic_number(h) >= 3)),
    HOST_N, HOST_P, GAMMA, TRIALS,
    Param("perturb_fraction", float, 0.0, "fraction of the interior edges re-added while template-free", CLOSED_UNIT),
    *_regularization(t0=6, max_t=20, d=0.15), PASS_FRACTION._replace(default=0.8),
), lambda params: _t0_fits(params, "N", params.host_n))
TuranParams = _record("TuranParams", "turan", "run_turan", (
    TEMPLATE, HOST_N, HOST_P,
    Param("eps", float, 0.25, "edge fraction slack above the Turan fraction", UNIT, "--eps"),
    TRIALS,
))
ClassProbeParams = _record("ClassProbeParams", "classprobe", "probe_copy_free_class", (
    TEMPLATE._replace(range=None),
    Param("n", int, 6, "part size n",
          Range(f"in [1, {EXHAUSTIVE_PAIR_BUDGET}]", lambda v: 1 <= v <= EXHAUSTIVE_PAIR_BUDGET), "--n"),
    Param("m", int, 12, "edges per template pair m", AT_LEAST_1, "--m"),
    Param("eps", float, 0.25, "regularity parameter eps", UNIT, "--eps"),
    TRIALS,
), lambda params: {f"m = {params.m} <= n^2 = {params.n ** 2}": params.m <= params.n ** 2})

#: experiment -> its parameter record
EXPERIMENTS = {record.experiment: record for record in (
    CountingParams, RemovalParams, CliqueDensityParams, PackingParams, AesParams, TuranParams, ClassProbeParams
)}


def _run_trials(params: Params, rng: RngStream, one_trial, aggregate, caveats: list[str]) -> ExperimentReport:
    """The report of ``one_trial(rng.child(i))`` for each i < ``params.trials``, with ``params`` as its params.

    ``aggregate`` maps the trial records to the report's aggregate.
    """
    records = [one_trial(rng.child(index)) for index in range(params.trials)]
    return ExperimentReport(params.experiment, params.report(), rng.master_seed, records, aggregate(records), caveats)


def _regularize(graph: SimpleGraph, params: Params, stream: RngStream) -> tuple[Partition, CleanResult, dict]:
    """Partition ``graph`` from ``stream`` and clean it as ``params`` declare, and the flat stage record of both."""
    part = sparse_regular_partition(
        graph, params.epsilon, params.p, params.t0, params.max_t, stream, refuter_trials=params.refuter_trials
    )
    cleaned = clean_partition(graph, part, params.d, params.uniformity)
    verdicts = Counter(info.verdict.status for info in part.pair_info.values())
    stage = {
        "partition_t": part.t,
        "partition_converged": part.converged,
        "inconclusive": not part.converged,
        "pairs_certified": verdicts[CERTIFIED],
        "pairs_refuted": verdicts[REFUTED],
        "pairs_undecided": verdicts[UNDECIDED],
        "deleted_clean": cleaned.deleted_total,
        "deleted_clean_within": cleaned.deleted_within,
        "deleted_clean_refuted": cleaned.deleted_refuted,
        "deleted_clean_sparse": cleaned.deleted_sparse,
        "clean_bound_inputs_hold": cleaned.bound_inputs_hold,
    }
    return part, cleaned, stage


def run_counting(params: CountingParams, rng: RngStream) -> ExperimentReport:
    """Canonical-count concentration in random multipartite slices of a random host.

    Per trial: sample the host, pick disjoint classes of size ceil(eta * N),
    extract the pattern-shaped multipartite subgraph, check pair regularity,
    and compare the exact canonical count against prod(m_ij / n^2) * n^k.
    Trials where some pair has fewer than d * p * n^2 edges are skipped
    (below the density floor the statement does not apply); when every
    trial is skipped nothing was tested, and the run raises a
    ``RejectionBudgetError`` instead of reporting a failed check.
    """
    pattern, host_n, p, delta = params.pattern, params.host_n, params.p, params.delta
    k = pattern.k
    n = math.ceil(params.eta * host_n)
    caveats = [REGULARITY_CAVEAT]
    m2 = two_density(pattern).m2
    threshold = host_n ** (-1.0 / float(m2))
    if p < threshold:
        caveats.append(
            f"p = {p} is below N^(-1/m2) = {threshold:.6f}; the counting statement "
            "is only expected to hold above that scale"
        )
    floor = Fraction(params.d) * Fraction(p) * n * n

    def one_trial(stream: RngStream) -> dict:
        host = gnp(host_n, p, stream.child(0))
        perm = [int(v) for v in stream.child(1).np_rng().permutation(host_n)]
        classes = [perm[i * n : (i + 1) * n] for i in range(k)]
        slice_graph = induced_multipartite(host, classes, pattern)
        edges = {f"{i + 1}-{j + 1}": slice_graph.edge_count(i, j) for i, j in pattern.sorted_edges()}
        thin = [key for key, m in edges.items() if Fraction(m) < floor]
        record: dict = {"edges": json.dumps(edges)}
        if thin:
            record.update(skipped=True, skip_reason=f"pairs below d p n^2: {thin}", in_band=None)
            return record
        # local index r of slice part i is the r-th smallest vertex of classes[i], so each host
        # pair is judged as the slice's pair i-j would be, from the same stream
        pairs = [VertexSetPair(classes[i], classes[j]) for i, j in pattern.sorted_edges()]
        streams = [stream.child(2, index) for index in range(len(pairs))]
        verdicts = pair_verdicts(host, pairs, params.epsilon, p, streams, params.refuter_trials)
        result = canonical_count(slice_graph)
        in_band = result.ratio is not None and abs(result.ratio - 1.0) <= delta
        record.update(
            skipped=False,
            count=str(result.count),
            expected=str(result.expected),
            ratio=result.ratio,
            refuted_pairs=sum(1 for verdict in verdicts if verdict.status == REFUTED),
            in_band=bool(in_band),
        )
        return record

    def aggregate(records: list[dict]) -> dict:
        effective = [r for r in records if not r["skipped"]]
        if not effective:
            raise RejectionBudgetError(
                f"none of the {params.trials} draws has every pair at or above the d p n^2 = "
                f"{float(floor):.6g} edge floor"
            )
        band = sum(1 for r in effective if r["in_band"])
        fraction = band / len(effective)
        return {
            "effective_trials": len(effective),
            "in_band": band,
            "band_fraction": fraction,
            "passed": fraction >= params.pass_fraction,
            "p_threshold": threshold,
        }

    return _run_trials(params, rng, one_trial, aggregate, caveats)


def _side_labels(labels: list[int], stream: RngStream) -> list[int]:
    """Vertex ``perm[i]`` labelled ``labels[i]``, for a vertex permutation ``perm`` drawn from ``stream``."""
    side = np.empty(len(labels), dtype=np.int64)
    side[stream.np_rng().permutation(len(labels))] = labels
    return side.tolist()


def _partite_cut(
    host: SimpleGraph, side: list[int], stream: RngStream
) -> tuple[SimpleGraph, tuple[np.ndarray, np.ndarray]]:
    """Host edges across the ``side`` labelling, and the interior host edges in random order.

    The interior edges join two vertices with one label.  They come as
    endpoint arrays (u, v), u < v, in ``edges()`` order permuted by
    ``stream``; each caller re-adds a prefix of them under its own
    acceptance rule.
    """
    cut = host.keep_edges_between(side)
    rest = [row ^ kept for row, kept in zip(host.adj, cut.adj)]
    u, v = SimpleGraph(host.n, rest).edge_arrays()
    order = stream.np_rng().permutation(len(u))
    return cut, (u[order], v[order])


def _template_free(graph: SimpleGraph, pattern: PatternGraph) -> bool:
    """Whether ``graph`` has no copy of ``pattern``; a complete template is checked by counting its cliques."""
    if pattern.edge_count == math.comb(pattern.k, 2):
        return count_kcliques(graph, pattern.k) == 0
    return find_embedding(graph, pattern) is None


def _success_aggregate(records: list[dict], pass_fraction: float) -> dict:
    """Count of successful trials, their fraction, and whether it reaches ``pass_fraction``."""
    successes = sum(1 for r in records if r["success"])
    fraction = successes / len(records) if records else 0.0
    return {
        "successes": successes,
        "success_fraction": fraction,
        "passed": bool(records) and fraction >= pass_fraction,
    }


def _bipartite_plant(
    host: SimpleGraph,
    pattern: PatternGraph,
    copy_budget_labelled: int,
    stream: RngStream,
) -> tuple[SimpleGraph, int, int]:
    """Few-copies subgraph: a random cut of the host plus an interior trickle.

    Keeps only host edges across a random balanced bipartition (copy-free
    for any template with an odd cycle; sparse regardless), then re-adds
    random interior host edges while the labelled-embedding count stays
    within budget.  Returns (subgraph, planted edges, labelled embeddings).
    """
    n = host.n
    side = _side_labels([1] * (n // 2) + [0] * (n - n // 2), stream.child(0))
    cut, (iu, iv) = _partite_cut(host, side, stream.child(1))
    adj = list(cut.adj)
    working = SimpleGraph(n, adj)
    planted = 0
    labelled = count_embeddings(working, pattern)  # 0 for odd-cycle-containing templates
    for u, v in zip(map(int, iu), map(int, iv)):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        gained = count_embeddings_through_edge(working, pattern, u, v)
        if labelled + gained > copy_budget_labelled:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            break
        labelled += gained
        planted += 1
    return working, planted, labelled


def run_removal(params: RemovalParams, rng: RngStream) -> ExperimentReport:
    """Few-copies subgraphs become template-free after bounded deletions.

    Per trial: build a subgraph of the random host with at most
    eps_copies * p^e(H) * N^v(H) copies (random cut plus interior trickle),
    run partition -> clean, then delete one edge from each surviving copy
    (the honest route when copies are scarce; at desk scale the cleaned
    graph may retain stragglers that no counting contradiction removes).
    The output must be exactly template-free, verified by independent
    search, with total deletions at most delta * p * N^2.
    """
    pattern, host_n, p = params.pattern, params.host_n, params.p
    aut = automorphism_count(pattern)
    copy_budget = Fraction(params.eps_copies) * Fraction(p) ** pattern.edge_count * host_n**pattern.k
    labelled_budget = int(copy_budget * aut)
    deletion_budget = Fraction(params.delta) * Fraction(p) * host_n * host_n

    def one_trial(stream: RngStream) -> dict:
        host = gnp(host_n, p, stream.child(0))
        sub, planted, labelled = _bipartite_plant(host, pattern, labelled_budget, stream.child(1))
        sub_edges = sub.edge_count
        record: dict = {
            "host_edges": host.edge_count,
            "subgraph_edges": sub_edges,
            "planted_interior_edges": planted,
            "copies_before": labelled // aut,
            "copies_within_budget": labelled <= labelled_budget,
        }
        part, cleaned, stage = _regularize(sub, params, stream.child(2))
        record.update(stage)
        record["cluster_supported_copies"] = _cluster_supported_count(
            cleaned.graph, part, cleaned.cluster, pattern
        )
        working, per_copy = _break_surviving_copies(cleaned.graph, pattern)
        record["deleted_per_copy"] = per_copy
        total_deleted = sub_edges - working.edge_count
        if total_deleted != cleaned.deleted_total + per_copy:
            raise SoundnessError(
                f"deletion accounting mismatch: {total_deleted} deleted, "
                f"{cleaned.deleted_total} by cleaning plus {per_copy} per copy"
            )
        template_free = _template_free(working, pattern)
        record["deleted_total"] = total_deleted
        record["deletion_budget"] = str(deletion_budget)
        record["template_free"] = bool(template_free)
        record["success"] = bool(template_free and Fraction(total_deleted) <= deletion_budget)
        return record

    return _run_trials(
        params,
        rng,
        one_trial,
        lambda records: _success_aggregate(records, params.pass_fraction),
        [
            REGULARITY_CAVEAT,
            "surviving copies after cleaning are removed one edge per copy; "
            "the deletion budget check covers all stages",
        ],
    )


def _break_surviving_copies(graph: SimpleGraph, pattern: PatternGraph) -> tuple[SimpleGraph, int]:
    """Delete one edge from each copy of the template; returns the new graph and the deletion count.

    Each embedding yielded loses the image of its first template edge.  The
    search runs on the rows it deletes from and resumes on them after each
    yield (the :mod:`reglab.embedding` docstring gives the rule).  So it
    yields exactly the embeddings that a search over a snapshot of the
    input rows would reach with all their edges still present, in the same
    order: one yield per deletion, and the same copies broken as by a loop
    over the snapshot.  The all-edges check stays as a guard on that rule.
    The copy-once walk would not shorten this loop: the live rows already
    prune the other labellings of a broken copy, which all use the deleted
    edge.
    """
    edges = pattern.sorted_edges()
    first_a, first_b = edges[0]
    working = SimpleGraph(graph.n, list(graph.adj))
    adj = working.adj
    deleted = 0
    for emb in iter_embeddings(working, pattern):
        if all(adj[emb[x]] >> emb[y] & 1 for x, y in edges):
            u, v = emb[first_a], emb[first_b]
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            deleted += 1
    return working, deleted


def _cluster_supported_count(
    graph: SimpleGraph, part: Partition, cluster: ClusterGraph, pattern: PatternGraph
) -> int:
    """Canonical copies summed over injective class assignments supported by the cluster.

    The assignments are the embeddings of the template into the cluster
    graph.  Counts copies whose template vertices land in pairwise distinct
    classes with every template edge on a cluster edge; copies collapsing
    two non-adjacent template vertices into one class are not visited (for
    complete templates none exist, since within-class edges are gone).

    The masked count of ``assign`` equals that of every ``assign o s`` with s
    in Aut(H) (the :mod:`reglab.embedding` docstring gives the bijection).
    Assignments are injective, so ``assign o s == assign`` only for the
    identity and each orbit has exactly |Aut(H)| members: the sum is
    |Aut(H)| times the sum over one member of each orbit, and ``iter_copies``
    of the unmasked cluster graph yields exactly one.
    """
    masks = [bitmask_of(c) for c in part.classes]
    return automorphism_count(pattern) * sum(
        count_embeddings(graph, pattern, candidate_masks=[masks[c] for c in assign])
        for assign in iter_copies(cluster.to_simple_graph(), pattern)
    )


def clique_factor(cluster: ClusterGraph, k: int) -> list[tuple[int, ...]] | None:
    """Partition of all cluster vertices into disjoint k-cliques, or None.

    Exact backtracking over covers with memoized dead states; ``None`` is
    an exhaustively verified absence.  k must divide the vertex count.  The
    cover is its own search, but its cliques come from the search kernel:
    each step covers the lowest uncovered vertex v with a clique of
    uncovered vertices through it, tried in lexicographic order.  v is the
    least vertex of each such clique, so the kernel's copy-once walk, which
    gives K_k only its increasing labellings, yields each clique once.
    """
    t = cluster.t
    if k < 2:
        raise PreconditionError("k must be >= 2")
    if t > CLIQUE_FACTOR_BUDGET:
        raise BudgetError(f"clique factor search limited to {CLIQUE_FACTOR_BUDGET} vertices")
    if t % k != 0:
        raise PreconditionError(f"k = {k} does not divide the cluster size t = {t}")
    graph = cluster.to_simple_graph()
    complete_k = PatternGraph.complete(k)
    dead: set[int] = set()

    def rec(uncovered: int, chosen: list[tuple[int, ...]]) -> bool:
        if uncovered == 0:
            return True
        if uncovered in dead:
            return False
        low = uncovered & -uncovered
        pool = graph.adj[low.bit_length() - 1] & uncovered
        for clique in iter_copies(graph, complete_k, [low] + [pool] * (k - 1)):
            chosen.append(clique)
            if rec(uncovered & ~bitmask_of(clique), chosen):
                return True
            chosen.pop()
        dead.add(uncovered)
        return False

    chosen: list[tuple[int, ...]] = []
    if rec((1 << t) - 1, chosen):
        return chosen
    return None


def _disjoint_copies(graph: SimpleGraph, pattern: PatternGraph, masks: list[int]) -> list[tuple[int, ...]]:
    """Vertex-disjoint copies of ``pattern`` under ``masks``, found one at a time until none is left.

    Each copy found is removed from every mask before the next search.
    """
    copies = []
    while (found := find_embedding(graph, pattern, candidate_masks=masks)) is not None:
        copies.append(found)
        used = bitmask_of(found)
        masks = [mask & ~used for mask in masks]
    return copies


def _induced_on(graph: SimpleGraph, vertices: list[int]) -> tuple[SimpleGraph, list[int]]:
    """Induced subgraph with dense relabeling; returns (graph, original ids)."""
    order = sorted(vertices)
    block = rows_to_matrix([graph.adj[v] for v in order], graph.n, np.uint8)[:, order]
    return SimpleGraph(len(order), matrix_to_rows(block)), order


def _pad_to_divisible(cluster: ClusterGraph, k: int) -> list[int]:
    """Cluster vertices left once the first t mod k in (starting degree, index) order are dropped."""
    return sorted(sorted(range(cluster.t), key=lambda v: (cluster.degree(v), v))[cluster.t % k :])


def packing_pipeline(graph: SimpleGraph, params: PackingParams, rng: RngStream) -> dict:
    """Partition -> clean -> trim -> cluster factor -> greedy clique extraction.

    ``graph`` is the min-degree subgraph under test; coverage is measured
    against ``params.host_n`` (the ambient vertex count) so peeled vertices
    count as uncovered.  Returns the trial record; a stage that cannot
    proceed marks the trial inconclusive with the stage named.
    """
    k, gamma, ambient = params.k, params.gamma, params.host_n
    record: dict = {"subgraph_n": graph.n, "subgraph_edges": graph.edge_count}
    part, cleaned, stage = _regularize(graph, params, rng.child(0))
    record.update(stage)
    beta = min(gamma / 2.0, 1.0 / (2 * k))
    trim = trim_min_degree(cleaned.cluster, k, beta)
    if trim.success:
        record["trim_removed"] = len(trim.removed)
        kept = list(trim.kept)
    else:
        # the degree threshold (1 - 1/k) t + k is unreachable for small t
        # even on tight instances; fall back to the whole cluster (padded
        # to divisibility by dropping lowest-degree classes) and let the
        # exact factor search decide
        record["trim_removed"] = None
        record["trim_fallback"] = True
        kept = _pad_to_divisible(cleaned.cluster, k)
        if not kept:
            record.update(stage_failed="trim", inconclusive=True, coverage=0.0, success=False)
            return record
    cluster = cleaned.cluster.induced(kept)
    factor = clique_factor(cluster, k)
    if factor is None:
        record.update(stage_failed="clique_factor", inconclusive=True, coverage=0.0, success=False)
        return record
    complete_k = PatternGraph.complete(k)
    covered: list[tuple[int, ...]] = []
    for clique in factor:
        masks = [bitmask_of(part.classes[kept[c]]) for c in clique]
        covered += _disjoint_copies(cleaned.graph, complete_k, masks)
    # mop-up: keep extracting disjoint cliques among the leftovers wherever
    # they sit, searching the input graph (the packing claim is about it,
    # not the cleaned working copy)
    uncovered = ((1 << graph.n) - 1) & ~bitmask_of(v for found in covered for v in found)
    covered += _disjoint_copies(graph, complete_k, [uncovered] * k)
    # verification: disjointness and cliquehood in the input graph
    seen: set[int] = set()
    for tup in covered:
        if len(set(tup)) != k or set(tup) & seen:
            raise SoundnessError(f"packed clique {tup} repeats or reuses a vertex")
        seen |= set(tup)
        for a in range(k):
            for b in range(a + 1, k):
                if not graph.has_edge(tup[a], tup[b]):
                    raise SoundnessError(f"packed clique {tup} misses the edge {tup[a]}-{tup[b]}")
    coverage = len(seen) / ambient
    record.update(
        factor_cliques=len(factor),
        packed_cliques=len(covered),
        covered_vertices=len(seen),
        coverage=coverage,
        success=bool(Fraction(len(seen), ambient) >= 1 - Fraction(gamma)),
    )
    return record


def run_packing(params: PackingParams, rng: RngStream) -> ExperimentReport:
    """Near-spanning clique packings of high-min-degree subgraphs of a random host.

    Per trial: peel low-degree vertices toward min degree
    (1 - 1/k + gamma) p N (the peel stops after gamma N / 4 removals and
    reports whether the target was met; at desk scale it usually is not,
    which the record carries), then run the packing pipeline and require
    coverage of at least (1 - gamma) N ambient vertices.
    """
    host_n, p = params.host_n, params.p
    target = (1 - 1 / params.k + params.gamma) * p * host_n

    def one_trial(stream: RngStream) -> dict:
        host = gnp(host_n, p, stream.child(0))
        alive, removed, target_met = _peel_low_degree(
            host, lambda size: target, limit=_peel_limit(params)
        )
        sub, _ = _induced_on(host, list(iter_bits(alive)))
        record = {
            "peeled": len(removed),
            "min_degree_target": target,
            "min_degree_target_met": bool(target_met),
        }
        record.update(packing_pipeline(sub, params, stream.child(1)))
        return record

    return _run_trials(
        params,
        rng,
        one_trial,
        lambda records: _success_aggregate(records, params.pass_fraction),
        [
            REGULARITY_CAVEAT,
            "min-degree premise is best-effort at desk scale; records carry the achieved target flag",
        ],
    )


def run_clique_density(params: CliqueDensityParams, rng: RngStream) -> ExperimentReport:
    """Clique counts of relative-density-rho subgraphs versus the dense minimum.

    Per trial: keep a uniform random rho-fraction of the host's edges,
    partition and clean it, evaluate the weighted clique sum over the
    weighted cluster graph that ``clean_partition`` returns (pair weight
    min(e / (p |Vi||Vj|), 1)), count actual k-cliques, and compare both against
    (g_hat(rho) - eps) p^C(k,2) C(N, k), where g_hat comes from the exact
    small-n minimum extended by zero below the (k-1)-partite threshold.
    """
    k, host_n, p, rho_frac = params.k, params.host_n, params.p, Fraction(params.rho)
    if rho_frac <= 1 - Fraction(1, k - 1):
        g_hat = Fraction(0)
    else:
        g_hat = gk_bruteforce(k, rho_frac, params.oracle_n)
    bound = (g_hat - Fraction(params.eps)) * Fraction(p) ** math.comb(k, 2) * math.comb(host_n, k)

    def one_trial(stream: RngStream) -> dict:
        host = gnp(host_n, p, stream.child(0))
        m_target = math.ceil(rho_frac * p * host_n * (host_n - 1) / 2)
        if m_target >= host.edge_count:
            sub = host
        else:
            u, v = host.edge_arrays()
            picks = stream.child(1).np_rng().choice(len(u), size=m_target, replace=False)
            sub = SimpleGraph(host.n, symmetric_rows(host.n, u[picks], v[picks]))
        sub_edges = sub.edge_count
        achieved_rho = float(sub_edges / (p * host_n * (host_n - 1) / 2))
        part, cleaned, stage = _regularize(sub, params, stream.child(2))
        cluster = cleaned.cluster
        t = cluster.t
        weighted_sum = Fraction(0)
        estimate = Fraction(0)
        for tup in combinations(range(t), k):
            w = math.prod(cluster.weight(a, b) for a, b in combinations(tup, 2))
            weighted_sum += w
            estimate += w * Fraction(p) ** math.comb(k, 2) * math.prod(len(part.classes[c]) for c in tup)
        true_count = count_kcliques(sub, k)
        return {
            **stage,
            "subgraph_edges": sub_edges,
            "achieved_rho": achieved_rho,
            "weighted_clique_sum": float(weighted_sum),
            "cluster_estimate": float(estimate),
            "true_count": true_count,
            "bound": float(bound),
            "count_meets_bound": bool(Fraction(true_count) >= bound),
            "estimate_meets_bound": bool(estimate >= bound),
        }

    def aggregate(records: list[dict]) -> dict:
        meets = sum(1 for r in records if r["count_meets_bound"])
        return {"count_meets_bound": meets, "passed": meets == len(records)}

    report = _run_trials(
        params,
        rng,
        one_trial,
        aggregate,
        [
            REGULARITY_CAVEAT,
            f"g_hat evaluated by exact search at n = {params.oracle_n}, extended by the "
            "classical zero region below 1 - 1/(k-1)",
        ],
    )
    report.params["g_hat"] = str(g_hat)
    return report


def run_partite_stability(params: AesParams, rng: RngStream) -> ExperimentReport:
    """Template-free min-degree subgraphs become (chi-1)-partite after small deletions.

    Per trial: intersect the host with a random balanced (chi-1)-partite
    template (template-free by construction), optionally re-add a perturbing
    fraction of interior edges while staying template-free, then run
    partition -> clean -> trim -> exact minimum-deletion (chi-1)-partition
    of the cluster graph -> lift.  Total deletions (clean + trim + lift)
    must stay within gamma * p * N^2.  Template copies derived from a
    cluster copy of the template are counted exactly; a positive count for
    a template-free input raises a soundness error.
    """
    pattern, host_n, p, gamma = params.pattern, params.host_n, params.p, params.gamma
    chi = chromatic_number(pattern)
    parts = chi - 1
    budget = Fraction(gamma) * Fraction(p) * host_n * host_n

    def one_trial(stream: RngStream) -> dict:
        host = gnp(host_n, p, stream.child(0))
        side = _side_labels([i % parts for i in range(host_n)], stream.child(1))
        cut, (iu, iv) = _partite_cut(host, side, stream.child(2))
        adj = list(cut.adj)
        sub = SimpleGraph(host_n, adj)
        budget_edges = int(params.perturb_fraction * len(iu))
        added = 0
        for u, v in zip(map(int, iu), map(int, iv)):
            if added >= budget_edges:
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            if count_embeddings_through_edge(sub, pattern, u, v) > 0:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            else:
                added += 1
        record: dict = {
            "subgraph_edges": sub.edge_count,
            "min_degree": min_degree(sub),
            "premise_min_degree": (1 - 3 / (3 * chi - 4) + gamma) * p * host_n,
        }
        record["premise_met"] = record["min_degree"] >= record["premise_min_degree"]
        part, cleaned, stage = _regularize(sub, params, stream.child(3))
        record.update(stage)

        cluster = cleaned.cluster
        trim_threshold = (1 - 3 / (3 * chi - 4) + gamma / 2) * cluster.t
        alive, removed, _ = _peel_low_degree(cluster.to_simple_graph(), lambda size: trim_threshold)
        kept = list(iter_bits(alive))
        record["trimmed_clusters"] = len(removed)
        sub_cluster = cluster.induced(kept)

        # cluster-level template search, cross-checked by exact counting
        cluster_copy = find_embedding(sub_cluster.to_simple_graph(), pattern)
        record["cluster_template_free"] = cluster_copy is None
        if cluster_copy is not None:
            classes = [part.classes[kept[c]] for c in cluster_copy]
            size = min(len(c) for c in classes)
            slice_graph = induced_multipartite(
                cleaned.graph, [c[:size] for c in classes], pattern
            )
            derived = canonical_count(slice_graph).count
            if _template_free(sub, pattern) and derived > 0:
                raise SoundnessError(
                    "cluster tuple yields canonical copies inside a template-free subgraph"
                )
            record["cluster_copy_supported_count"] = derived

        # a cluster edge (i, j) is a pair that clean_partition kept whole (its
        # survive_mask[i] contains masks[j]), so the pair's edges in the cleaned
        # graph are exactly part.pair_info[(i, j)].edges
        pair_weights = {(a, b): part.pair_info[(kept[a], kept[b])].edges for a, b in sorted(sub_cluster.edges)}
        assignment, lift_deleted = min_monochromatic_partition(sub_cluster.t, pair_weights, parts, math.inf)
        removed_set = set(removed)
        trim_deleted = sum(
            part.pair_info[(a, b)].edges for a, b in cluster.edges if a in removed_set or b in removed_set
        )
        total = cleaned.deleted_total + trim_deleted + lift_deleted
        record["deleted_trim"] = trim_deleted
        record["deleted_lift"] = lift_deleted
        record["deleted_total"] = total
        record["deletion_budget"] = str(budget)
        record["success"] = bool(Fraction(total) <= budget)
        return record

    return _run_trials(
        params,
        rng,
        one_trial,
        lambda records: _success_aggregate(records, params.pass_fraction),
        [
            REGULARITY_CAVEAT,
            "min-degree premise is best-effort at desk scale; records carry the achieved value",
        ],
    )


def run_turan(params: TuranParams, rng: RngStream) -> ExperimentReport:
    """Subgraphs above the Turan fraction contain the template.

    The quantifier over all subgraphs is untestable; per trial this draws a
    named adversarial subgraph (all edges across a random (chi-1)-partition,
    topped up with random interior edges to reach the threshold fraction)
    and searches for the template exactly.
    """
    pattern, host_n, p = params.pattern, params.host_n, params.p
    chi = chromatic_number(pattern)
    fraction_required = 1 - 1 / (chi - 1) + params.eps

    def one_trial(stream: RngStream) -> dict:
        host = gnp(host_n, p, stream.child(0))
        host_edges = host.edge_count
        required = math.ceil(fraction_required * host_edges)
        side = _side_labels([i % (chi - 1) for i in range(host_n)], stream.child(1))
        cut, (iu, iv) = _partite_cut(host, side, stream.child(2))
        # the interior edges are new and distinct, so each adds one edge
        top_up = max(0, required - cut.edge_count)
        top_rows = symmetric_rows(host_n, iu[:top_up], iv[:top_up])
        sub = SimpleGraph(host_n, [a | b for a, b in zip(cut.adj, top_rows)])
        sub_edges = sub.edge_count
        found = find_embedding(sub, pattern)
        return {
            "host_edges": host_edges,
            "subgraph_edges": sub_edges,
            "required_edges": required,
            "at_threshold": bool(sub_edges >= required),
            "found": found is not None,
            "witness": list(found) if found else None,
            "strategy": "partite-plus-interior-topup",
        }

    def aggregate(records: list[dict]) -> dict:
        found = sum(1 for r in records if r["found"])
        return {"found": found, "found_fraction": found / len(records) if records else 0.0}

    return _run_trials(
        params,
        rng,
        one_trial,
        aggregate,
        [
            "the theorem quantifies over all subgraphs; this tests one named "
            "adversarial strategy, recorded per trial"
        ],
    )


def probe_copy_free_class(params: ClassProbeParams, rng: RngStream) -> ExperimentReport:
    """Estimate how often regular m-edge members of the product class miss the template.

    Samples uniform members (independent uniform m-edge bipartite graphs per
    template edge), filters to those whose every pair the exhaustive checker
    certifies (eps, m/n^2)-regular, and estimates the probability that a
    regular member contains no canonical copy.  Reports a Wilson 95 percent
    interval and the implied per-edge rate estimate^(1/m).
    """
    pattern, n, m, eps = params.pattern, params.n, params.m, params.eps
    p_scale = m / (n * n)

    def one_trial(stream: RngStream) -> dict:
        sample = sample_class(pattern, n, m, p_scale, eps, stream, mode="raw")
        regular = True
        for pair_index, (i, j) in enumerate(pattern.sorted_edges()):
            pair_graph, sides = sample.pair_subgraph(i, j)
            verdict = pair_verdict(pair_graph, sides, eps, p_scale)
            if verdict.status == REFUTED:
                regular = False
                break
        if not regular:
            return {"regular": False, "copy_free": None}
        count = canonical_count(sample).count
        return {"regular": True, "copy_free": count == 0, "count": str(count)}

    def aggregate(records: list[dict]) -> dict:
        regular_records = [r for r in records if r["regular"]]
        if not regular_records:
            raise RejectionBudgetError(
                f"no regular samples among {params.trials} draws at eps = {eps}"
            )
        bad = sum(1 for r in regular_records if r["copy_free"])
        total = len(regular_records)
        estimate = bad / total
        z = 1.959963984540054  # two-sided 95 percent normal quantile
        denom = 1 + z * z / total
        centre = (estimate + z * z / (2 * total)) / denom
        half = z * math.sqrt(estimate * (1 - estimate) / total + z * z / (4 * total * total)) / denom
        lo, hi = max(0.0, centre - half), min(1.0, centre + half)
        return {
            "regular_samples": total,
            "acceptance_rate": total / params.trials,
            "copy_free": bad,
            "estimate": estimate,
            "wilson_95": [lo, hi],
            "beta_hat": estimate ** (1.0 / m) if bad else 0.0,
            "beta_hat_upper": hi ** (1.0 / m),
        }

    return _run_trials(
        params,
        rng,
        one_trial,
        aggregate,
        [
            "a single (n, m, eps) estimate can neither confirm nor refute the "
            "counting conjecture's quantifier order; this probe is descriptive"
        ],
    )
