"""Judging pair regularity: one candidate record, one decision per inequality, one verdict policy.

A bipartite pair (U, V) is (eps, p)-regular when every pair of subsets
U' of U, V' of V with |U'| >= eps|U| and |V'| >= eps|V| has density within
eps*p of d(U, V).  Every check reads one record of candidate witnesses for
a block of pairs of one shape, all of the exact size s_u x s_v =
ceil(eps|U|) x ceil(eps|V|): each candidate's e(U', V') as int64, each
pair's e(U, V), and a witness that is built only on demand.  Two sources
fill it.

The exhaustive source covers the whole quantifier.  The density of a
larger pair is an average over its exact-size sub-pairs, so a deviation
survives the reduction to exact size in one direction, and for a fixed U'
the extremal V' takes the vertices with the most (or fewest) neighbours in
U'.  A pair's candidates 2r and 2r + 1 are the largest and smallest
completions of the r-th s_u-subset of U (``combinations`` order).  Pairs
that share (|U|, |V|, s_u, s_v) are scanned a block at a time.  A block
gathers its biadjacencies from one table of its U rows and takes one
float64 product of the cached 0/1 subset matrix with them: row r, pair b
holds each V position's number of neighbours in subset r of pair b's U.
Every entry is an integer of at most ``EXHAUSTIVE_PAIR_BUDGET`` = 16, far
below 2^53, so the float64 product, which runs on BLAS, is exact.  Each
row of at most 16 weights is sorted by numpy's vectorised sort (faster on
rows this short than a partial selection), and one more exact product
with two 0/1 columns sums its s_v last and s_v first entries.  Every array
a block builds holds at most ``SCAN_BLOCK_ENTRIES`` entries (or those of
one pair), and each block is decided before the next is built, so the
scan's memory is one block whatever the number of pairs.

The sampled source draws its candidates from the pair's stream, in a
fixed order, as rows of positions into the sorted U and V: uniform
candidates by ``gen.choice``, guided ones by degree order and pivot
neighbourhoods.  It counts them in one batch with the kernel it shares
with the partitioner, ``graphs.set_counts``: a table of the U rows only
(|U| rows of ceil(n / 64) uint64 words), one row of words per candidate
V', and gathers of at most ``graphs.COUNT_CHUNK_WORDS`` words; no
|U| x |V| matrix is built.  It fills a block of one pair.

Each inequality is decided once, for both sources, a whole block at a
time.  Every candidate has s_u s_v vertex pairs, so its deviation
|e' / (s_u s_v) - e / (|U| |V|)| times the positive constant
s_u s_v |U| |V| is the integer |e' |U| |V| - e s_u s_v|.  Scaling keeps
every strict comparison, and the integers are at most (|U| |V|)^2, exact
in int64 while |U| |V| < 3 * 10^9.  The two-sided decision takes each
pair's first argmax of these integers and refutes when its deviation is
above eps * p, a limit built once per call; the one-sided decision takes
each pair's first argmin of e' and refutes on a shortfall of its density
below d.  A first argmax or argmin is the candidate that a loop keeping
each strictly better ``Fraction`` reports.  Only each pair's winner
becomes a ``Fraction``, and only a refuting one becomes a
``VertexSetPair``, which ``pair_density`` recounts on the Python-int rows,
against d(U, V) counted the same way, before it is reported.

This module alone decides how a pair is judged.  The policy is the
exhaustive scan when both sides have at most ``EXHAUSTIVE_PAIR_BUDGET``
vertices and the sampled refuter above.  ``pair_verdicts`` applies it to
a list of pairs of one graph, as the partitioner does once per round, and
scans all their exhaustive pairs together.  ``pair_verdict``, which the
experiments' per-pair statuses, rejection sampling of random classes and
the class probe ask, is its one-pair case, and ``check_regular_exhaustive``
is the scan of one pair.  The one-sided ``check_lower_regular`` follows
the same size rule and the same scan.  Certification is only ever claimed
from exhaustive candidates, or when no subset pair is large enough to be a
witness.  Above the budget the sampled candidates either produce a
re-checked witness or leave the pair ``undecided``; pipelines treat "not
refuted" as operationally regular and must say so in their reports.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence
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
    tolerance_limit,
)
from .randgraph import RngStream

EXHAUSTIVE_PAIR_BUDGET = 16

#: Entries of the largest array that one block of the exhaustive scan builds
#: (or those of one pair): gathered words, biadjacencies, subset-by-V weights.
SCAN_BLOCK_ENTRIES = 1 << 16

CERTIFIED = "certified_regular"
REFUTED = "refuted"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of a regularity check, as decided by ``pair_verdicts`` or ``check_lower_regular``.

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
    0/1 indicator matrix (one float64 row of ``n`` entries per subset), both
    read-only.  Callers keep n within ``EXHAUSTIVE_PAIR_BUDGET``, so the cache
    holds at most 136 keys.
    """
    members = np.array(list(combinations(range(n), s)), dtype=np.intp).reshape(-1, s)
    indicator = np.zeros((len(members), n), dtype=np.float64)
    np.put_along_axis(indicator, members, 1.0, axis=1)
    members.setflags(write=False)
    indicator.setflags(write=False)
    return members, indicator


def _extremal_completion(weights: list[int], take: int, largest: bool) -> list[int]:
    """Positions of the ``take`` largest/smallest weights, ties by index."""
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i) if largest else (weights[i], i))
    return order[:take]


@dataclass(frozen=True)
class _Candidates:
    """Candidate witnesses of a block of same-shape pairs, each of ``cells`` = s_u s_v vertex pairs.

    ``edges[b, c]`` is e(U', V') of pair b's candidate c (int64), in
    candidate order, and ``pair_edges[b]`` is pair b's e(U, V);
    ``witness(b, c)`` builds pair b's candidate c as a ``VertexSetPair``.
    """

    edges: np.ndarray
    pair_edges: np.ndarray
    cells: int
    witness: Callable[[int, int], VertexSetPair]


def _witness_sizes(pair: VertexSetPair, epsilon: float) -> tuple[int, int] | None:
    """(ceil(eps|U|), ceil(eps|V|)), or None when no subset pair is large enough (an empty side or eps > 1)."""
    s_u, s_v = subset_floor(epsilon, len(pair.U)), subset_floor(epsilon, len(pair.V))
    return (s_u, s_v) if s_u <= len(pair.U) and s_v <= len(pair.V) else None


def _exhaustive_candidates(graph: SimpleGraph, pairs: list[VertexSetPair], s_u: int, s_v: int) -> _Candidates:
    """Candidates 2r and 2r + 1 of each pair: the largest and smallest ``s_v``-completions of its r-th ``s_u``-subset.

    The pairs share |U| and |V|.  Entry [r, b, j] of ``weights`` is the
    number of neighbours of pair b's j-th V vertex in subset r of its U,
    from one float64 product, exact because no entry exceeds |U|.  Sorting
    a row puts its ``s_v`` smallest weights first and its ``s_v`` largest
    last; ties do not change a sum.  A witness takes the V positions that
    ``_extremal_completion`` picks.
    """
    nu, nv = len(pairs[0].U), len(pairs[0].V)
    table = rows_to_words([graph.adj[u] for pair in pairs for u in pair.U], graph.n)
    v_side = np.array([pair.V for pair in pairs], dtype=np.intp)
    u_rows = np.arange(len(pairs) * nu).reshape(len(pairs), nu).T
    # [i, b, j]: bit V_b[j] of row U_b[i], so the product below is one matrix multiplication
    bits = table[u_rows[:, :, None], v_side[None, :, :] >> 6] >> (v_side & 63).astype(np.uint64) & np.uint64(1)
    biadjacency = bits.astype(np.float64)
    members, indicator = _subset_rows(nu, s_u)
    weights = (indicator @ biadjacency.reshape(nu, -1)).reshape(len(members), len(pairs), nv)
    # column 0 sums the s_v last entries of a sorted row, column 1 its s_v first ones
    ends = np.zeros((nv, 2))
    ends[nv - s_v :, 0] = ends[:s_v, 1] = 1.0
    sums = np.sort(weights, axis=2).reshape(-1, nv) @ ends
    edges = sums.reshape(len(members), len(pairs), 2).transpose(1, 0, 2).reshape(len(pairs), -1).astype(np.int64)

    def witness(b: int, c: int) -> VertexSetPair:
        pair, r = pairs[b], c // 2
        chosen_v = _extremal_completion(weights[r, b].astype(np.int64).tolist(), s_v, largest=c % 2 == 0)
        return VertexSetPair(tuple(pair.U[i] for i in members[r].tolist()), tuple(pair.V[i] for i in chosen_v))

    return _Candidates(edges, bits.sum(axis=(0, 2)).astype(np.int64), s_u * s_v, witness)


def _scan_exhaustive(
    graph: SimpleGraph, pairs: list[VertexSetPair], s_u: int, s_v: int, decide: Callable, *args
) -> list[RegularityVerdict]:
    """``decide(graph, block, candidates, *args)`` on the exhaustive candidates of each block of ``pairs``, in order.

    The pairs share |U| and |V|.  A block holds as many pairs as keep each
    of its arrays within ``SCAN_BLOCK_ENTRIES`` entries, and at least one;
    it is decided, and its candidates dropped, before the next is built.
    """
    nu, nv = len(pairs[0].U), len(pairs[0].V)
    per_pair = max(nu * -(-graph.n // 64), nu * nv, math.comb(nu, s_u) * nv)
    step = max(1, SCAN_BLOCK_ENTRIES // per_pair)
    verdicts = []
    for start in range(0, len(pairs), step):
        block = pairs[start : start + step]
        verdicts += decide(graph, block, _exhaustive_candidates(graph, block, s_u, s_v), *args)
    return verdicts


def _fits_exhaustive(pair: VertexSetPair) -> bool:
    """The size rule of every verdict: exhaustive when both sides are within the budget."""
    return len(pair.U) <= EXHAUSTIVE_PAIR_BUDGET and len(pair.V) <= EXHAUSTIVE_PAIR_BUDGET


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
        return _extremal_completion(weights, take, largest)

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


def _sampled_candidates(
    graph: SimpleGraph,
    pair: VertexSetPair,
    s_u: int,
    s_v: int,
    trials: int,
    rng: RngStream,
    guided: bool,
) -> _Candidates:
    """The candidates of ``_candidate_pairs``, counted in one batch on a table of the U rows."""
    us, vs = _candidate_pairs(graph, pair, s_u, s_v, trials, rng, guided)
    table = rows_to_words([graph.adj[u] for u in pair.U], graph.n)
    v_side = np.array(pair.V, dtype=np.intp)
    words = set_words(v_side[vs], table.shape[1])
    pair_words = set_words(v_side[None], table.shape[1])

    def witness(b: int, c: int) -> VertexSetPair:
        return VertexSetPair(tuple(pair.U[i] for i in us[c].tolist()), tuple(pair.V[i] for i in vs[c].tolist()))

    pair_edges = np.bitwise_count(table & pair_words).sum(dtype=np.int64).reshape(1)
    return _Candidates(set_counts(table, us, words).sum(axis=1)[None], pair_edges, s_u * s_v, witness)


def _decide_two_sided(
    graph: SimpleGraph, pairs: list[VertexSetPair], found: _Candidates, limit: Fraction, unrefuted: str
) -> list[RegularityVerdict]:
    """Per pair, refute with its first candidate of largest |d(U', V') - d(U, V)| if that is above ``limit``.

    The pairs share |U| and |V|; ``limit`` is eps * p with the comparison
    slack, ``graphs.tolerance_limit``.
    """
    area = len(pairs[0].U) * len(pairs[0].V)
    scaled = np.abs(found.edges * area - found.pair_edges[:, None] * found.cells)
    verdicts = []
    for b, (top, value) in enumerate(zip(scaled.argmax(axis=1).tolist(), scaled.max(axis=1).tolist())):
        deviation = Fraction(value, found.cells * area)
        if deviation <= limit:
            verdicts.append(RegularityVerdict(unrefuted, None, deviation))
            continue
        witness = found.witness(b, top)
        if abs(pair_density(graph, witness) - pair_density(graph, pairs[b])) != deviation:
            raise SoundnessError("refutation witness does not reproduce its deviation")
        verdicts.append(RegularityVerdict(REFUTED, witness, deviation))
    return verdicts


def _decide_one_sided(
    graph: SimpleGraph, pairs: list[VertexSetPair], found: _Candidates, d: float, unrefuted: str
) -> list[RegularityVerdict]:
    """Per pair, refute with its first candidate of fewest edges if its density falls short of d."""
    verdicts = []
    for b, (bottom, value) in enumerate(zip(found.edges.argmin(axis=1).tolist(), found.edges.min(axis=1).tolist())):
        shortfall = Fraction(d) - Fraction(value, found.cells)
        if leq_with_tolerance(shortfall, 0.0):
            verdicts.append(RegularityVerdict(unrefuted, None, Fraction(0)))
            continue
        witness = found.witness(b, bottom)
        if Fraction(d) - pair_density(graph, witness) != shortfall:
            raise SoundnessError("lower-regularity witness does not reproduce its shortfall")
        verdicts.append(RegularityVerdict(REFUTED, witness, shortfall))
    return verdicts


def check_regular_exhaustive(
    graph: SimpleGraph, pair: VertexSetPair, epsilon: float, p: float
) -> RegularityVerdict:
    """Certify or refute (eps, p)-regularity by full enumeration: the exhaustive scan of one pair.

    Scans every subset of U of size exactly ceil(eps|U|); for each, the
    extremal exact-size completions in V bound the deviation over all V'.
    Returns the maximal-deviation witness when refuting: the first subset
    (``combinations`` order) reaching it, with the largest completion
    tried before the smallest.  A pair with an empty side is certified
    before the budget is checked.
    """
    sizes = _witness_sizes(pair, epsilon)
    if pair.U and pair.V and not _fits_exhaustive(pair):
        raise BudgetError(
            f"exhaustive regularity check limited to {EXHAUSTIVE_PAIR_BUDGET}+"
            f"{EXHAUSTIVE_PAIR_BUDGET} vertices (got {len(pair.U)}+{len(pair.V)}); use the sampled refuter"
        )
    if sizes is None:
        return RegularityVerdict(CERTIFIED, None, Fraction(0))
    return _scan_exhaustive(graph, [pair], *sizes, _decide_two_sided, tolerance_limit(epsilon * p), CERTIFIED)[0]


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
    sizes = _witness_sizes(pair, epsilon)
    if sizes is None:
        return RegularityVerdict(UNDECIDED, None, Fraction(0))
    found = _sampled_candidates(graph, pair, *sizes, trials, rng, guided)
    return _decide_two_sided(graph, [pair], found, tolerance_limit(epsilon * p), UNDECIDED)[0]


def pair_verdict(
    graph: SimpleGraph,
    pair: VertexSetPair,
    epsilon: float,
    p: float,
    rng: RngStream | None = None,
    trials: int = 32,
    guided: bool = False,
) -> RegularityVerdict:
    """The verdict policy for one pair: exhaustive below the budget, sampled refutation above it.

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


def pair_verdicts(
    graph: SimpleGraph,
    pairs: Sequence[VertexSetPair],
    epsilon: float,
    p: float,
    rngs: Sequence[RngStream | None],
    trials: int = 32,
) -> list[RegularityVerdict]:
    """``pair_verdict`` of each pair of ``graph``, with ``rngs[i]`` the stream of ``pairs[i]``.

    The exhaustive pairs that admit a witness are grouped by
    (|U|, |V|, s_u, s_v) and each group is scanned a block of pairs at a
    time, against one eps * p limit; every other pair takes
    ``pair_verdict`` on its own stream.
    """
    verdicts: list[RegularityVerdict | None] = [None] * len(pairs)
    groups: dict[tuple[int, int, int, int], list[int]] = {}
    for index, pair in enumerate(pairs):
        sizes = _witness_sizes(pair, epsilon)
        if sizes is not None and _fits_exhaustive(pair):
            groups.setdefault((len(pair.U), len(pair.V), *sizes), []).append(index)
        else:
            verdicts[index] = pair_verdict(graph, pair, epsilon, p, rngs[index], trials)
    if groups:
        limit = tolerance_limit(epsilon * p)
        for (_, _, s_u, s_v), indices in groups.items():
            group = [pairs[i] for i in indices]
            scanned = _scan_exhaustive(graph, group, s_u, s_v, _decide_two_sided, limit, CERTIFIED)
            for index, verdict in zip(indices, scanned):
                verdicts[index] = verdict
    return verdicts


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
    A pair with no subset pair large enough is certified at any size.
    ``deviation`` on refutation is the shortfall d - d(U', V'), re-derived
    from the witness before it is reported.
    """
    sizes = _witness_sizes(pair, epsilon)
    if sizes is None:
        return RegularityVerdict(CERTIFIED, None, Fraction(0))
    if _fits_exhaustive(pair):
        return _scan_exhaustive(graph, [pair], *sizes, _decide_one_sided, d, CERTIFIED)[0]
    if rng is None:
        raise PreconditionError("a pair above the exhaustive budget needs an rng stream")
    # guided candidates always include the four degree-sorted ones
    found = _sampled_candidates(graph, pair, *sizes, trials, rng, guided=True)
    return _decide_one_sided(graph, [pair], found, d, UNDECIDED)[0]
