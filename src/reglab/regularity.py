"""Judging pair regularity: one verdict policy, its exhaustive checker and its sampled refuter.

A bipartite pair (U, V) is (eps, p)-regular when every pair of subsets
U' of U, V' of V with |U'| >= eps|U| and |V'| >= eps|V| has density within
eps*p of d(U, V).  Exhaustive certification reduces the subset quantifier
to subsets of size exactly ceil(eps|U|) x ceil(eps|V|): the density of a
larger deviating pair is an average over its exact-size sub-pairs, so a
deviation survives the reduction in one direction.  For one fixed side the
extremal exact-size completion on the other side is reached by taking the
vertices with the largest (or smallest) number of neighbours in the fixed
side.  The exhaustive scan computes those neighbour counts for all exact-size
subsets of U at once, as the product of a cached 0/1 subset matrix with the
pair's biadjacency matrix, and takes the extremal completion sums with a
partial selection per row instead of a sort.  Deviations are compared as
integers scaled by s_u s_v |U| |V|; only the final deviation is a
``Fraction``, and only the winning witness is rebuilt vertex by vertex.

The sampled refuter first draws all its candidates from the pair's stream,
in a fixed order, as rows of positions into the sorted U and V: uniform
candidates by ``gen.choice``, guided ones by degree order and pivot
neighbourhoods.  It then counts every candidate's e(U', V') in one batch
with the count kernel it shares with the partitioner, ``graphs.set_counts``:
a table of the U rows only (|U| rows of ceil(n / 64) uint64 words), one row
of words per candidate V', and gathers of at most
``graphs.COUNT_CHUNK_WORDS`` words; no |U| x |V| matrix is built.  Every
candidate has exactly s_u x s_v vertex pairs, so its density is
e' / (s_u s_v), and its deviation |e' / (s_u s_v) - e / (|U| |V|)| times
the positive constant s_u s_v |U| |V| is the integer
|e' |U| |V| - e s_u s_v|.  Scaling by a positive constant keeps every strict
comparison, so the first argmax of these integers, when it is above 0, is
the candidate that a loop keeping each ``Fraction`` deviation that strictly
exceeds every earlier one reports, and the first argmin of e' is the first
candidate of smallest density.  The integers are at most (|U| |V|)^2, exact
in int64 while |U| |V| < 3 * 10^9.  Only a winner becomes a ``Fraction`` and
a ``VertexSetPair``, and a reported witness is recounted by ``pair_density``
on the Python-int rows, against d(U, V) counted the same way.

This module alone decides how a pair is judged.  The policy is
``pair_verdict``: the exhaustive checker when both sides have at most
``EXHAUSTIVE_PAIR_BUDGET`` vertices, the sampled refuter above.  The
partitioner, the experiments' per-pair statuses, rejection sampling of
random classes and the class probe all ask it; the one-sided
``check_lower_regular`` follows the same size rule.  Certification is only
ever claimed by the exhaustive checker.  Above its budget the sampled
refuter either produces a re-checkable witness or reports ``undecided``;
pipelines treat "not refuted" as operationally regular and must say so in
their reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BudgetError, PreconditionError, SoundnessError
from .graphs import (
    SimpleGraph,
    VertexSetPair,
    bitmask_of,
    leq_with_tolerance,
    pair_density,
    rows_to_words,
    set_counts,
    set_words,
)
from .randgraph import RngStream

EXHAUSTIVE_PAIR_BUDGET = 16

CERTIFIED = "certified_regular"
REFUTED = "refuted"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of a regularity check, as decided by ``pair_verdict`` or ``check_lower_regular``.

    ``status`` is ``certified_regular`` (never from sampled candidates),
    ``refuted`` or ``undecided`` (sampled candidates only).  ``deviation`` is
    the exact amount by which the witness violates the checked inequality:
    the absolute density deviation for regularity, the shortfall below d
    for lower-regularity.
    """

    status: str
    witness: VertexSetPair | None
    deviation: Fraction


def subset_floor(epsilon: float, size: int) -> int:
    """Witness sets must have at least eps * size vertices; we use the ceiling."""
    return max(1, math.ceil(epsilon * size))


@lru_cache(maxsize=None)
def _subset_rows(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(n, s) subsets of ``range(n)`` in ``combinations`` order.

    Returns their members (one row of ``s`` positions per subset) and their
    0/1 indicator matrix (one row of ``n`` entries per subset), both
    read-only.  Callers keep n within ``EXHAUSTIVE_PAIR_BUDGET``, so the cache
    holds at most 136 keys.
    """
    members = np.array(list(combinations(range(n), s)), dtype=np.intp).reshape(-1, s)
    indicator = np.zeros((len(members), n), dtype=np.int64)
    np.put_along_axis(indicator, members, 1, axis=1)
    members.setflags(write=False)
    indicator.setflags(write=False)
    return members, indicator


def _extremal_completion(
    weights: list[int], take: int, largest: bool
) -> tuple[list[int], int]:
    """Positions of the ``take`` largest/smallest weights (ties by index) and their sum."""
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i) if largest else (weights[i], i))
    chosen = order[:take]
    return chosen, sum(weights[i] for i in chosen)


@dataclass(frozen=True)
class _SubsetScan:
    """Every exact-size U-subset of a pair with its extremal V-completions.

    Row r of ``weights`` holds, for each V position, its number of
    neighbours in the r-th ``s_u``-subset of U (``combinations`` order);
    ``largest[r]`` and ``smallest[r]`` are the sums of its ``s_v`` largest
    and smallest weights.  ``edges`` is e(U, V).
    """

    pair: VertexSetPair
    members: np.ndarray
    weights: np.ndarray
    largest: np.ndarray
    smallest: np.ndarray
    edges: int
    s_v: int

    def witness(self, row: int, largest: bool) -> VertexSetPair:
        """The witness of one subset row, its V side completed as by ``_extremal_completion``."""
        chosen_v, _ = _extremal_completion(self.weights[row].tolist(), self.s_v, largest)
        return VertexSetPair(
            tuple(self.pair.U[i] for i in self.members[row]), tuple(self.pair.V[i] for i in chosen_v)
        )


def _scan_subsets(graph: SimpleGraph, pair: VertexSetPair, s_u: int, s_v: int) -> _SubsetScan:
    """Completion weights of all ``s_u``-subsets of U at once, as one matrix product.

    Needs 1 <= s_u <= |U| and 1 <= s_v <= |V|.  The extremal sums come from
    a partial selection per row, not a sort; ties do not change a sum.
    """
    nv = len(pair.V)
    biadjacency = np.array(
        [[row >> v & 1 for v in pair.V] for row in (graph.adj[u] for u in pair.U)], dtype=np.int64
    )
    members, indicator = _subset_rows(len(pair.U), s_u)
    weights = indicator @ biadjacency
    largest = np.partition(weights, nv - s_v, axis=1)[:, nv - s_v:].sum(axis=1)
    smallest = np.partition(weights, s_v - 1, axis=1)[:, :s_v].sum(axis=1)
    return _SubsetScan(pair, members, weights, largest, smallest, int(biadjacency.sum()), s_v)


def _fits_exhaustive(pair: VertexSetPair) -> bool:
    """The size rule of every verdict: exhaustive when both sides are within the budget."""
    return len(pair.U) <= EXHAUSTIVE_PAIR_BUDGET and len(pair.V) <= EXHAUSTIVE_PAIR_BUDGET


def check_regular_exhaustive(
    graph: SimpleGraph, pair: VertexSetPair, epsilon: float, p: float
) -> RegularityVerdict:
    """Certify or refute (eps, p)-regularity by full enumeration.

    Scans every subset of U of size exactly ceil(eps|U|); for each, the
    extremal exact-size completions in V bound the deviation over all V'.
    Returns the maximal-deviation witness when refuting: the first subset
    (``combinations`` order) reaching it, with the largest completion
    tried before the smallest.
    """
    if not pair.U or not pair.V:
        return RegularityVerdict(CERTIFIED, None, Fraction(0))
    nu, nv = len(pair.U), len(pair.V)
    if not _fits_exhaustive(pair):
        raise BudgetError(
            f"exhaustive regularity check limited to {EXHAUSTIVE_PAIR_BUDGET}+"
            f"{EXHAUSTIVE_PAIR_BUDGET} vertices (got {nu}+{nv}); use the sampled refuter"
        )
    s_u = subset_floor(epsilon, nu)
    s_v = subset_floor(epsilon, nv)
    if s_u > nu or s_v > nv:
        # eps > 1: no subset is large enough, so nothing can deviate
        return RegularityVerdict(CERTIFIED, None, Fraction(0))
    scan = _scan_subsets(graph, pair, s_u, s_v)

    # |edge_sum / (s_u s_v) - e / (nu nv)| scaled by s_u s_v nu nv: exact in int64
    # (at most 16^4); column 0 is the largest completion, column 1 the smallest
    sums = np.stack([scan.largest, scan.smallest], axis=1)
    scaled = np.abs(sums * (nu * nv) - scan.edges * (s_u * s_v))
    flat = int(np.argmax(scaled))
    best = int(scaled.flat[flat])
    best_dev = Fraction(best, s_u * s_v * nu * nv)
    if leq_with_tolerance(best_dev, epsilon * p):
        return RegularityVerdict(CERTIFIED, None, best_dev)
    witness = scan.witness(flat // 2, largest=flat % 2 == 0) if best else None
    if witness is not None and abs(pair_density(graph, witness) - pair_density(graph, pair)) != best_dev:
        raise SoundnessError("exhaustive refutation witness does not reproduce its deviation")
    return RegularityVerdict(REFUTED, witness, best_dev)


def _candidate_pairs(
    graph: SimpleGraph,
    pair: VertexSetPair,
    s_u: int,
    s_v: int,
    trials: int,
    rng: RngStream,
    guided: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate witness pairs, as rows of positions into ``pair.U`` (s_u each) and ``pair.V`` (s_v each).

    Uniform candidates draw both sides independently at random, so their
    densities are unbiased estimates of the pair density.  Guided
    candidates (degree-sorted sides and pivot-neighbourhood seeds with a
    greedy completion) deliberately chase deviations; they are much more
    powerful against planted structure but carry selection bias of order
    sqrt(d/s), so callers whose eps * p budget is below that scale should
    disable them.
    """
    u_list, v_list = pair.U, pair.V
    gen = rng.np_rng()
    us: list = []
    vs: list = []

    def complete(seed: list[int], seed_side: tuple[int, ...], side: tuple[int, ...], take: int, largest: bool):
        # the extremal completion on ``side`` of the seed positions in ``seed_side``
        seed_mask = bitmask_of(seed_side[i] for i in seed)
        weights = [(graph.adj[x] & seed_mask).bit_count() for x in side]
        return _extremal_completion(weights, take, largest)[0]

    def pivot_seed(side: tuple[int, ...], other: tuple[int, ...], take: int) -> list[int]:
        row = graph.adj[side[int(gen.integers(len(side)))]]
        nbrs = [i for i, x in enumerate(other) if row >> x & 1]
        others = [i for i, x in enumerate(other) if not row >> x & 1]
        return (nbrs + [others[i] for i in gen.permutation(len(others))])[:take]

    if guided:
        mask_u, mask_v = pair.mask_u, pair.mask_v
        deg_u = sorted(range(len(u_list)), key=lambda i: (-(graph.adj[u_list[i]] & mask_v).bit_count(), i))
        deg_v = sorted(range(len(v_list)), key=lambda i: (-(graph.adj[v_list[i]] & mask_u).bit_count(), i))
        for top_u in (deg_u[:s_u], deg_u[-s_u:]):
            for top_v in (deg_v[:s_v], deg_v[-s_v:]):
                us.append(top_u)
                vs.append(top_v)

    for t in range(trials):
        if guided and t % 4 == 3:
            # pivot: one vertex's neighbourhood (padded at random) seeds one
            # side; the other side is completed greedily both ways
            if t % 8 == 3:
                seed_v = pivot_seed(u_list, v_list, s_v)
                for largest in (True, False):
                    us.append(complete(seed_v, v_list, u_list, s_u, largest))
                    vs.append(seed_v)
            else:
                seed_u = pivot_seed(v_list, u_list, s_u)
                for largest in (True, False):
                    us.append(seed_u)
                    vs.append(complete(seed_u, u_list, v_list, s_v, largest))
        else:
            us.append(gen.choice(len(u_list), size=s_u, replace=False))
            vs.append(gen.choice(len(v_list), size=s_v, replace=False))
    return np.array(us, dtype=np.intp).reshape(-1, s_u), np.array(vs, dtype=np.intp).reshape(-1, s_v)


@dataclass(frozen=True)
class _SampledCounts:
    """The sampled candidates of a pair with their edge counts, in candidate order.

    Row c of ``us`` and ``vs`` holds candidate c's positions in ``pair.U``
    and ``pair.V``; ``edges[c]`` is its e(U', V') and ``pair_edges`` is
    e(U, V).
    """

    pair: VertexSetPair
    us: np.ndarray
    vs: np.ndarray
    edges: np.ndarray
    pair_edges: int

    def candidate(self, row: int) -> VertexSetPair:
        return VertexSetPair(
            tuple(self.pair.U[i] for i in self.us[row].tolist()),
            tuple(self.pair.V[i] for i in self.vs[row].tolist()),
        )


def _sampled_counts(
    graph: SimpleGraph,
    pair: VertexSetPair,
    s_u: int,
    s_v: int,
    trials: int,
    rng: RngStream,
    guided: bool,
) -> _SampledCounts:
    """The candidates of ``_candidate_pairs``, counted in one batch on a table of the U rows."""
    us, vs = _candidate_pairs(graph, pair, s_u, s_v, trials, rng, guided)
    table = rows_to_words([graph.adj[u] for u in pair.U], graph.n)
    v_side = np.array(pair.V, dtype=np.intp)
    words = set_words(v_side[vs], table.shape[1])
    pair_words = set_words(v_side[None], table.shape[1])
    return _SampledCounts(
        pair, us, vs, set_counts(table, us, words).sum(axis=1), int(np.bitwise_count(table & pair_words).sum())
    )


def refute_regular_sampled(
    graph: SimpleGraph,
    pair: VertexSetPair,
    epsilon: float,
    p: float,
    trials: int,
    rng: RngStream,
    guided: bool = True,
) -> RegularityVerdict:
    """Search for an (eps, p)-regularity violation; never certifies.

    Runs ``trials`` candidate witness pairs (uniform subsets, plus
    degree-sorted and pivot-guided candidates when ``guided``) and reports
    the largest deviation found if it exceeds eps * p: the first candidate
    reaching it.  Every returned witness is re-verified against the
    definition before being reported.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if not pair.U or not pair.V:
        return RegularityVerdict(UNDECIDED, None, Fraction(0))
    nu, nv = len(pair.U), len(pair.V)
    s_u = subset_floor(epsilon, nu)
    s_v = subset_floor(epsilon, nv)
    if s_u > nu or s_v > nv:
        # eps > 1: no subset is large enough to be a witness
        return RegularityVerdict(UNDECIDED, None, Fraction(0))
    found = _sampled_counts(graph, pair, s_u, s_v, trials, rng, guided)
    # |e' / (s_u s_v) - e / (nu nv)| scaled by s_u s_v nu nv, exact in int64
    scaled = np.abs(found.edges * (nu * nv) - found.pair_edges * (s_u * s_v))
    top = int(np.argmax(scaled))
    deviation = Fraction(int(scaled[top]), s_u * s_v * nu * nv)
    if scaled[top] > 0 and not leq_with_tolerance(deviation, epsilon * p):
        witness = found.candidate(top)
        if abs(pair_density(graph, witness) - pair_density(graph, pair)) != deviation:
            raise SoundnessError("refutation witness does not reproduce its deviation")
        return RegularityVerdict(REFUTED, witness, deviation)
    return RegularityVerdict(UNDECIDED, None, deviation)


def pair_verdict(
    graph: SimpleGraph,
    pair: VertexSetPair,
    epsilon: float,
    p: float,
    rng: RngStream | None = None,
    trials: int = 32,
    guided: bool = False,
) -> RegularityVerdict:
    """The verdict policy: exhaustive below the budget, sampled refutation above it.

    ``rng`` and ``trials`` feed the sampled refuter and are needed only
    above the budget.  Guided refuter candidates default to off: their
    selection bias is of order sqrt(density / subset size), which at desk
    scale exceeds eps * p for sparse hosts and would refute every pair of
    a perfectly random graph.  Unbiased uniform candidates keep the
    operational notion "not refuted" meaningful.
    """
    if _fits_exhaustive(pair):
        return check_regular_exhaustive(graph, pair, epsilon, p)
    if rng is None:
        raise PreconditionError("a pair above the exhaustive budget needs an rng stream")
    return refute_regular_sampled(graph, pair, epsilon, p, trials, rng, guided=guided)


def check_lower_regular(
    graph: SimpleGraph,
    pair: VertexSetPair,
    epsilon: float,
    d: float,
    trials: int = 64,
    rng: RngStream | None = None,
) -> RegularityVerdict:
    """Check the one-sided bound: every large subset pair has density >= d.

    Follows the size rule of ``pair_verdict``: the exhaustive scan
    certifies or refutes within the budget; above it the guided sampled
    candidates, drawn from ``rng``, refute or leave the pair ``undecided``.
    ``deviation`` on refutation is the shortfall d - d(U', V'), re-derived
    from the witness before it is reported.
    """
    if not pair.U or not pair.V:
        return RegularityVerdict(CERTIFIED, None, Fraction(0))
    nu, nv = len(pair.U), len(pair.V)
    s_u = subset_floor(epsilon, nu)
    s_v = subset_floor(epsilon, nv)
    if s_u > nu or s_v > nv:
        # eps > 1: no subset is large enough, so nothing can fall short
        return RegularityVerdict(CERTIFIED, None, Fraction(0))

    if _fits_exhaustive(pair):
        scan = _scan_subsets(graph, pair, s_u, s_v)
        row = int(np.argmin(scan.smallest))
        sparsest = Fraction(int(scan.smallest[row]), s_u * s_v)
        witness = scan.witness(row, largest=False)
        unrefuted = CERTIFIED
    else:
        if rng is None:
            raise PreconditionError("a pair above the exhaustive budget needs an rng stream")
        # guided candidates always include the four degree-sorted ones
        found = _sampled_counts(graph, pair, s_u, s_v, trials, rng, guided=True)
        row = int(np.argmin(found.edges))
        sparsest = Fraction(int(found.edges[row]), s_u * s_v)
        witness = found.candidate(row)
        unrefuted = UNDECIDED
    shortfall = Fraction(d) - sparsest
    if leq_with_tolerance(shortfall, 0.0):
        return RegularityVerdict(unrefuted, None, Fraction(0))
    if Fraction(d) - pair_density(graph, witness) != shortfall:
        raise SoundnessError("lower-regularity witness does not reproduce its shortfall")
    return RegularityVerdict(REFUTED, witness, shortfall)
