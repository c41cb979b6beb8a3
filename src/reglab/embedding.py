"""Exact subgraph search on host graphs: the package's one backtracking kernel.

Embeddings are injective vertex maps realizing every template edge; host
edges not demanded by the template are allowed (subgraph containment, not
induced).  One prologue, :func:`_plan_and_masks`, gives the template's
:func:`reglab.counting.search_plan` and each position's candidate mask.  A
pin is a one-vertex mask: template vertex v pinned to host h gets
``mask & (1 << h)``, and the plan places pinned vertices first.  Two walks
then go depth first over the plan from position 0 with every host free.  A
position's candidates are its mask minus the hosts already used,
intersected with the ``adj`` rows of its placed neighbours' images, tried in
increasing order.  :func:`count_embeddings` takes a popcount at the last
position; :func:`find_embedding`, :func:`iter_embeddings` and
:func:`automorphisms` share one generator of full assignments in search
order, which takes no pins.

:func:`count_kcliques` is the exception: it takes the level route of
:func:`reglab.counting.level_count`, which extends all partial copies one
template vertex at a time on packed numpy rows instead of backtracking.
The cliquedensity experiment's true count, the removal experiment's final
template-free check and the aes experiment's soundness cross-check (for a
complete template) run on it.

Counts that pin or mask template vertices are constant on the orbits of
Aut(H).  For an automorphism s, the map f -> f o s is a bijection from the
embeddings that pin (s(a), s(b)) to (u, v) onto the embeddings that pin
(a, b) to (u, v), and from the embeddings whose vertex v lies in mask
``m[v]`` onto those whose vertex v lies in ``m[s(v)]``.  So a sum of such
counts over a whole orbit is exactly the orbit size times the count at one
member.  :func:`automorphisms` lists Aut(H) and :func:`edge_orbits` gives
one oriented template edge per orbit with its size; counting through a host
edge and the removal experiment's cluster-supported count do one count per
orbit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .counting import level_count, search_plan
from .graphs import PatternGraph, SimpleGraph, iter_bits


def _plan_and_masks(
    graph: SimpleGraph,
    pattern: PatternGraph,
    masks: Sequence[int] | None,
    pinned: dict[int, int],
):
    """The search plan, ``pinned`` template vertices first, and each position's candidate mask."""
    plan = search_plan(pattern, tuple(pinned))
    full = (1 << graph.n) - 1
    cands = []
    for v in plan.order:
        mask = masks[v] if masks else full
        cands.append(mask & (1 << pinned[v]) if v in pinned else mask)
    return plan, cands


def _embeddings(
    graph: SimpleGraph, pattern: PatternGraph, masks: Sequence[int] | None
) -> Iterator[tuple[int, ...]]:
    """Every embedding, as host vertices indexed by template vertex, in search order."""
    plan, cands = _plan_and_masks(graph, pattern, masks, {})
    adj = graph.adj
    k = pattern.k
    assignment = [0] * k

    def rec(t: int, free: int) -> Iterator[tuple[int, ...]]:
        if t == k:
            result = [0] * k
            for pos, v in enumerate(plan.order):
                result[v] = assignment[pos]
            yield tuple(result)
            return
        cand = cands[t] & free
        for s in plan.back[t]:
            cand &= adj[assignment[s]]
            if not cand:
                return
        for v in iter_bits(cand):
            assignment[t] = v
            yield from rec(t + 1, free ^ (1 << v))

    yield from rec(0, -1)


def find_embedding(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
) -> tuple[int, ...] | None:
    """First embedding found, as host vertices indexed by template vertex, or ``None``.

    ``candidate_masks[i]`` restricts template vertex i to a host subset.
    """
    return next(_embeddings(graph, pattern, candidate_masks), None)


def count_embeddings(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
    fixed: dict[int, int] | None = None,
) -> int:
    """Number of labelled embeddings (injective maps realizing all template edges).

    ``candidate_masks[i]`` restricts template vertex i to a host subset;
    ``fixed`` pins template vertices to hosts, each pin a one-vertex mask.
    """
    plan, cands = _plan_and_masks(graph, pattern, candidate_masks, fixed or {})
    adj = graph.adj
    last = pattern.k - 1
    assignment = [0] * pattern.k

    def rec(t: int, free: int) -> int:
        cand = cands[t] & free
        for s in plan.back[t]:
            cand &= adj[assignment[s]]
            if not cand:
                return 0
        if t == last:
            return cand.bit_count()
        total = 0
        for v in iter_bits(cand):
            assignment[t] = v
            total += rec(t + 1, free ^ (1 << v))
        return total

    return rec(0, -1)


def iter_embeddings(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every labelled embedding (host tuple indexed by template vertex)."""
    yield from _embeddings(graph, pattern, candidate_masks)


@lru_cache(maxsize=None)
def automorphisms(pattern: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """Aut(H): the embeddings of the template into itself.

    An injective vertex map that keeps every edge sends the e(H) edges
    injectively into themselves, hence onto them, so it also keeps every
    non-edge and is an automorphism.
    """
    return tuple(_embeddings(SimpleGraph.from_edges(pattern.k, pattern.edges), pattern, None))


def automorphism_count(pattern: PatternGraph) -> int:
    """|Aut(H)|: the labelled copies of each unlabelled copy."""
    return len(automorphisms(pattern))


@lru_cache(maxsize=None)
def edge_orbits(pattern: PatternGraph) -> tuple[tuple[tuple[int, int], int], ...]:
    """The Aut(H) orbits on oriented template edges, as (least member, orbit size).

    The oriented edges are (a, b) and (b, a) for each template edge, so the
    sizes sum to 2 e(H).
    """
    auts = automorphisms(pattern)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for a, b in sorted([e for a, b in pattern.edges for e in ((a, b), (b, a))]):
        if (a, b) not in seen:
            orbit = {(perm[a], perm[b]) for perm in auts}
            seen |= orbit
            orbits.append(((a, b), len(orbit)))
    return tuple(orbits)


def count_embeddings_through_edge(
    graph: SimpleGraph, pattern: PatternGraph, u: int, v: int
) -> int:
    """Labelled embeddings whose image uses the host edge {u, v}.

    Each qualifying embedding maps exactly one oriented template edge onto
    (u, v), so summing the pinned counts over all 2 e(H) oriented edges
    counts it once; the pinned count is constant on each Aut(H) orbit, so
    one count per orbit, times the orbit size, gives the same sum.
    """
    return sum(
        size * count_embeddings(graph, pattern, fixed={a: u, b: v})
        for (a, b), size in edge_orbits(pattern)
    )


def count_kcliques(graph: SimpleGraph, k: int) -> int:
    """Exact number of k-vertex cliques.

    From k = 3 on, the level route of :func:`reglab.counting.level_count`
    counts the labelled copies of K_k whose images increase with the
    template vertex: template edge (a, b) with a < b gets the forward rows
    (each vertex's neighbours above it) and (b, a) the backward rows (its
    neighbours below it).  Every vertex pair of K_k is a template edge, so
    each clique is counted once, in its increasing labelling, whatever order
    the plan places the template vertices in.
    """
    if k < 1:
        return 0
    if k == 1:
        return graph.n
    if k == 2:
        return graph.edge_count
    forward = [row >> (v + 1) << (v + 1) for v, row in enumerate(graph.adj)]
    backward = [row & ((1 << v) - 1) for v, row in enumerate(graph.adj)]
    rows = {(a, b): forward if a < b else backward for a in range(k) for b in range(k) if a != b}
    return level_count(PatternGraph.complete(k), rows, graph.n)
