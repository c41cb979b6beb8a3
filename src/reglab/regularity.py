"""Deciding and refuting pair regularity, lower-regularity, and upper-uniformity.

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

Certification is only ever claimed by the exhaustive checker.  Above its
budget the sampled refuter either produces a re-checkable witness or
reports ``undecided``; pipelines treat "not refuted" as operationally
regular and must say so in their reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
EXHAUSTIVE_UNIFORMITY_BUDGET = 2_000_000

CERTIFIED = "certified_regular"
REFUTED = "refuted"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of a regularity-style check.

    ``deviation`` is the exact amount by which the witness violates the
    checked inequality (absolute density deviation for regularity, shortfall
    below d for lower-regularity, excess above D*p for upper-uniformity).
    ``scale`` echoes the density scale p the check ran at.
    """

    status: str
    witness: VertexSetPair | None
    deviation: Fraction
    scale: float
    params: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "witness_u": list(self.witness.U) if self.witness else None,
                "witness_v": list(self.witness.V) if self.witness else None,
                "deviation": str(self.deviation),
                "scale": self.scale,
                "params": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in self.params.items()},
            }
        )


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
    params = {"check": "regular", "epsilon": epsilon, "p": p}
    if not pair.U or not pair.V:
        return RegularityVerdict(CERTIFIED, None, Fraction(0), p, params)
    nu, nv = len(pair.U), len(pair.V)
    if nu > EXHAUSTIVE_PAIR_BUDGET or nv > EXHAUSTIVE_PAIR_BUDGET:
        raise BudgetError(
            f"exhaustive regularity check limited to {EXHAUSTIVE_PAIR_BUDGET}+"
            f"{EXHAUSTIVE_PAIR_BUDGET} vertices (got {nu}+{nv}); use the sampled refuter"
        )
    s_u = subset_floor(epsilon, nu)
    s_v = subset_floor(epsilon, nv)
    if s_u > nu or s_v > nv:
        # eps > 1: no subset is large enough, so nothing can deviate
        return RegularityVerdict(CERTIFIED, None, Fraction(0), p, params)
    scan = _scan_subsets(graph, pair, s_u, s_v)

    # |edge_sum / (s_u s_v) - e / (nu nv)| scaled by s_u s_v nu nv: exact in int64
    # (at most 16^4); column 0 is the largest completion, column 1 the smallest
    sums = np.stack([scan.largest, scan.smallest], axis=1)
    scaled = np.abs(sums * (nu * nv) - scan.edges * (s_u * s_v))
    flat = int(np.argmax(scaled))
    best = int(scaled.flat[flat])
    best_dev = Fraction(best, s_u * s_v * nu * nv)
    if leq_with_tolerance(best_dev, epsilon * p):
        return RegularityVerdict(CERTIFIED, None, best_dev, p, params)
    witness = scan.witness(flat // 2, largest=flat % 2 == 0) if best else None
    if witness is not None and abs(pair_density(graph, witness) - pair_density(graph, pair)) != best_dev:
        raise SoundnessError("exhaustive refutation witness does not reproduce its deviation")
    return RegularityVerdict(REFUTED, witness, best_dev, p, params)


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
    params = {"check": "regular", "epsilon": epsilon, "p": p, "trials": trials, "guided": guided}
    if not pair.U or not pair.V:
        return RegularityVerdict(UNDECIDED, None, Fraction(0), p, params)
    s_u = subset_floor(epsilon, len(pair.U))
    s_v = subset_floor(epsilon, len(pair.V))
    d_pair = pair_density(graph, pair)

    best_dev = Fraction(0)
    best_witness: VertexSetPair | None = None
    for us, vs in _candidate_pairs(graph, pair, s_u, s_v, trials, rng, guided):
        candidate = VertexSetPair(tuple(us), tuple(vs))
        dev = abs(pair_density(graph, candidate) - d_pair)
        if dev > best_dev:
            best_dev = dev
            best_witness = candidate
    if best_witness is not None and not leq_with_tolerance(best_dev, epsilon * p):
        if abs(pair_density(graph, best_witness) - d_pair) != best_dev:
            raise SoundnessError("refutation witness does not reproduce its deviation")
        return RegularityVerdict(REFUTED, best_witness, best_dev, p, params)
    return RegularityVerdict(UNDECIDED, None, best_dev, p, params)


def check_lower_regular(
    graph: SimpleGraph,
    pair: VertexSetPair,
    epsilon: float,
    d: float,
    mode: str = "exhaustive",
    trials: int = 64,
    rng: RngStream | None = None,
) -> RegularityVerdict:
    """Check the one-sided bound: every large subset pair has density >= d.

    ``deviation`` on refutation is the shortfall d - d(U', V').
    """
    params = {"check": "lower_regular", "epsilon": epsilon, "d": d, "mode": mode}
    if not pair.U or not pair.V:
        return RegularityVerdict(CERTIFIED, None, Fraction(0), d, params)
    nu, nv = len(pair.U), len(pair.V)
    s_u = subset_floor(epsilon, nu)
    s_v = subset_floor(epsilon, nv)

    if mode == "exhaustive":
        if nu > EXHAUSTIVE_PAIR_BUDGET or nv > EXHAUSTIVE_PAIR_BUDGET:
            raise BudgetError(
                f"exhaustive lower-regularity check limited to {EXHAUSTIVE_PAIR_BUDGET} per side"
            )
        if s_u > nu or s_v > nv:
            return RegularityVerdict(CERTIFIED, None, Fraction(0), d, params)
        scan = _scan_subsets(graph, pair, s_u, s_v)
        row = int(np.argmin(scan.smallest))
        worst = Fraction(int(scan.smallest[row]), s_u * s_v)
        if not leq_with_tolerance(Fraction(d) - worst, 0.0):
            return RegularityVerdict(REFUTED, scan.witness(row, largest=False), Fraction(d) - worst, d, params)
        return RegularityVerdict(CERTIFIED, None, Fraction(0), d, params)

    if mode != "sampled":
        raise PreconditionError(f"unknown mode {mode!r}")
    if rng is None:
        raise PreconditionError("sampled mode needs an rng stream")
    worst = None
    worst_witness = None
    for us, vs in _candidate_pairs(graph, pair, s_u, s_v, trials, rng, guided=True):
        candidate = VertexSetPair(tuple(us), tuple(vs))
        dens = pair_density(graph, candidate)
        if worst is None or dens < worst:
            worst = dens
            worst_witness = candidate
    if worst is not None and not leq_with_tolerance(Fraction(d) - worst, 0.0):
        return RegularityVerdict(REFUTED, worst_witness, Fraction(d) - worst, d, params)
    return RegularityVerdict(UNDECIDED, None, Fraction(0), d, params)


def check_upper_uniform(
    graph: SimpleGraph,
    eta: float,
    p: float,
    uniformity: float,
    mode: str = "auto",
    trials: int = 200,
    rng: RngStream | None = None,
) -> RegularityVerdict:
    """Check (eta, p, D)-upper-uniformity of a whole graph.

    All disjoint pairs of vertex sets of size ceil(eta * n) must have density
    at most D*p, and every single such set U must satisfy
    e(U) <= D * p * C(|U|, 2).  ``deviation`` on refutation is the excess.
    A single-set witness is reported with an empty second side.
    """
    if not 0.0 < eta <= 1.0:
        raise PreconditionError(f"eta must be in (0, 1], got {eta}")
    d_cap = uniformity * p
    params = {"check": "upper_uniform", "eta": eta, "p": p, "D": uniformity, "mode": mode}
    n = graph.n
    s = subset_floor(eta, n)
    if 2 * s > n:
        # no two disjoint sets of the required size exist; only the single-set condition applies
        pairs_possible = False
    else:
        pairs_possible = True

    if mode == "auto":
        work = math.comb(n, s) * (math.comb(n - s, s) if pairs_possible else 1)
        mode = "exhaustive" if work <= EXHAUSTIVE_UNIFORMITY_BUDGET else "sampled"

    def single_set_excess(vertices: tuple[int, ...]) -> Fraction:
        e_inside = graph.edges_within(bitmask_of(vertices))
        cap = Fraction(uniformity) * Fraction(p) * Fraction(len(vertices) * (len(vertices) - 1), 2)
        return Fraction(e_inside) - cap

    if mode == "exhaustive":
        work = math.comb(n, s) * (math.comb(n - s, s) if pairs_possible else 1)
        if work > EXHAUSTIVE_UNIFORMITY_BUDGET:
            raise BudgetError(
                f"exhaustive upper-uniformity enumeration needs {work} pairs; use sampled mode"
            )
        best_excess = Fraction(0)
        best_witness = None
        vertices = list(range(n))
        for subset_a in combinations(vertices, s):
            excess = single_set_excess(subset_a)
            denom = Fraction(s * s)
            if excess > best_excess:
                best_excess = excess
                best_witness = VertexSetPair(subset_a, ())
            if pairs_possible:
                remaining = [v for v in vertices if v not in set(subset_a)]
                mask_a = bitmask_of(subset_a)
                for subset_b in combinations(remaining, s):
                    if subset_b[0] < subset_a[0]:
                        continue  # unordered pairs once
                    e_ab = graph.edges_between(mask_a, bitmask_of(subset_b))
                    pair_excess = Fraction(e_ab, s * s) - Fraction(d_cap)
                    if pair_excess > best_excess:
                        best_excess = pair_excess
                        best_witness = VertexSetPair(subset_a, subset_b)
        if best_witness is not None and not leq_with_tolerance(best_excess, 0.0):
            return RegularityVerdict(REFUTED, best_witness, best_excess, p, params)
        return RegularityVerdict(CERTIFIED, None, Fraction(0), p, params)

    if mode != "sampled":
        raise PreconditionError(f"unknown mode {mode!r}")
    if rng is None:
        raise PreconditionError("sampled mode needs an rng stream")
    gen = rng.np_rng()
    degree_order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    best_excess = Fraction(0)
    best_witness = None

    def consider_pair(a: list[int], b: list[int]):
        nonlocal best_excess, best_witness
        e_ab = graph.edges_between(bitmask_of(a), bitmask_of(b))
        excess = Fraction(e_ab, len(a) * len(b)) - Fraction(d_cap)
        if excess > best_excess:
            best_excess = excess
            best_witness = VertexSetPair(tuple(a), tuple(b))

    def consider_single(a: list[int]):
        nonlocal best_excess, best_witness
        excess = single_set_excess(tuple(a))
        if excess > best_excess:
            best_excess = excess
            best_witness = VertexSetPair(tuple(a), ())

    consider_single(degree_order[:s])
    if pairs_possible:
        top = degree_order[:s]
        top_mask = bitmask_of(top)
        rest = [v for v in range(n) if not top_mask >> v & 1]
        rest.sort(key=lambda v: (-(graph.adj[v] & top_mask).bit_count(), v))
        consider_pair(top, rest[:s])
    for _ in range(trials):
        perm = [int(x) for x in gen.permutation(n)]
        a = perm[:s]
        consider_single(a)
        if pairs_possible:
            mask_a = bitmask_of(a)
            others = perm[s:]
            others.sort(key=lambda v: (-(graph.adj[v] & mask_a).bit_count(), v))
            consider_pair(a, others[:s])
    if best_witness is not None and not leq_with_tolerance(best_excess, 0.0):
        return RegularityVerdict(REFUTED, best_witness, best_excess, p, params)
    return RegularityVerdict(UNDECIDED, None, Fraction(0), p, params)
