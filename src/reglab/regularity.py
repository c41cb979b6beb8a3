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
):
    """Yield candidate (U' vertices, V' vertices) witness pairs.

    Uniform candidates draw both sides independently at random, so their
    densities are unbiased estimates of the pair density.  Guided
    candidates (degree-sorted sides and pivot-neighbourhood seeds with a
    greedy completion) deliberately chase deviations; they are much more
    powerful against planted structure but carry selection bias of order
    sqrt(d/s), so callers whose eps * p budget is below that scale should
    disable them.
    """
    u_list, v_list = list(pair.U), list(pair.V)
    mask_u, mask_v = pair.mask_u, pair.mask_v
    gen = rng.np_rng()

    def complete(fixed: list[int], side_vertices: list[int], take: int, largest: bool) -> list[int]:
        fixed_mask = bitmask_of(fixed)
        weights = [(graph.adj[x] & fixed_mask).bit_count() for x in side_vertices]
        chosen, _ = _extremal_completion(weights, take, largest)
        return [side_vertices[i] for i in chosen]

    if guided:
        deg_u = sorted(u_list, key=lambda u: (-(graph.adj[u] & mask_v).bit_count(), u))
        deg_v = sorted(v_list, key=lambda v: (-(graph.adj[v] & mask_u).bit_count(), v))
        for us in (deg_u[:s_u], deg_u[-s_u:]):
            for vs in (deg_v[:s_v], deg_v[-s_v:]):
                yield us, vs

    for t in range(trials):
        if guided and t % 4 == 3:
            # pivot: one vertex's neighbourhood (padded at random) seeds one
            # side; the other side is completed greedily both ways
            if t % 8 == 3:
                pv = u_list[int(gen.integers(len(u_list)))]
                nbrs = [v for v in v_list if graph.adj[pv] >> v & 1]
                others = [v for v in v_list if not graph.adj[pv] >> v & 1]
                order = list(gen.permutation(len(others)))
                seed_v = (nbrs + [others[i] for i in order])[:s_v]
                yield complete(seed_v, u_list, s_u, True), seed_v
                yield complete(seed_v, u_list, s_u, False), seed_v
            else:
                pv = v_list[int(gen.integers(len(v_list)))]
                nbrs = [u for u in u_list if graph.adj[pv] >> u & 1]
                others = [u for u in u_list if not graph.adj[pv] >> u & 1]
                order = list(gen.permutation(len(others)))
                seed_u = (nbrs + [others[i] for i in order])[:s_u]
                yield seed_u, complete(seed_u, v_list, s_v, True)
                yield seed_u, complete(seed_u, v_list, s_v, False)
        else:
            us = [u_list[int(i)] for i in gen.choice(len(u_list), size=s_u, replace=False)]
            vs = [v_list[int(i)] for i in gen.choice(len(v_list), size=s_v, replace=False)]
            yield us, vs


@dataclass(frozen=True)
class _SampledExtremes:
    """Both extremes of one pass over the sampled candidates of a pair.

    ``deviating`` is the first candidate whose |d(U', V') - d(U, V)|
    strictly exceeds every earlier one and zero (``None`` when none does),
    ``deviation`` its deviation; ``sparsest`` is the first candidate of
    strictly smallest density (``None`` when there are no candidates),
    ``sparsest_density`` its density.  ``density`` is d(U, V).
    """

    density: Fraction
    deviation: Fraction
    deviating: VertexSetPair | None
    sparsest_density: Fraction | None
    sparsest: VertexSetPair | None


def _sampled_extremes(
    graph: SimpleGraph,
    pair: VertexSetPair,
    s_u: int,
    s_v: int,
    trials: int,
    rng: RngStream,
    guided: bool,
) -> _SampledExtremes:
    """Densities of the candidates of ``_candidate_pairs``, keeping both extremes."""
    d_pair = pair_density(graph, pair)
    deviation, deviating = Fraction(0), None
    sparsest_density, sparsest = None, None
    for us, vs in _candidate_pairs(graph, pair, s_u, s_v, trials, rng, guided):
        candidate = VertexSetPair(tuple(us), tuple(vs))
        dens = pair_density(graph, candidate)
        if abs(dens - d_pair) > deviation:
            deviation, deviating = abs(dens - d_pair), candidate
        if sparsest is None or dens < sparsest_density:
            sparsest_density, sparsest = dens, candidate
    return _SampledExtremes(d_pair, deviation, deviating, sparsest_density, sparsest)


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
    the largest deviation found if it exceeds eps * p.  Every returned
    witness is re-verified against the definition before being reported.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if not pair.U or not pair.V:
        return RegularityVerdict(UNDECIDED, None, Fraction(0))
    s_u = subset_floor(epsilon, len(pair.U))
    s_v = subset_floor(epsilon, len(pair.V))
    if s_u > len(pair.U) or s_v > len(pair.V):
        # eps > 1: no subset is large enough to be a witness
        return RegularityVerdict(UNDECIDED, None, Fraction(0))
    found = _sampled_extremes(graph, pair, s_u, s_v, trials, rng, guided)
    if found.deviating is not None and not leq_with_tolerance(found.deviation, epsilon * p):
        if abs(pair_density(graph, found.deviating) - found.density) != found.deviation:
            raise SoundnessError("refutation witness does not reproduce its deviation")
        return RegularityVerdict(REFUTED, found.deviating, found.deviation)
    return RegularityVerdict(UNDECIDED, None, found.deviation)


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
        # guided candidates always include the degree-sorted ones, so both are set
        found = _sampled_extremes(graph, pair, s_u, s_v, trials, rng, guided=True)
        sparsest, witness = found.sparsest_density, found.sparsest
        unrefuted = UNDECIDED
    shortfall = Fraction(d) - sparsest
    if leq_with_tolerance(shortfall, 0.0):
        return RegularityVerdict(unrefuted, None, Fraction(0))
    if Fraction(d) - pair_density(graph, witness) != shortfall:
        raise SoundnessError("lower-regularity witness does not reproduce its shortfall")
    return RegularityVerdict(REFUTED, witness, shortfall)
