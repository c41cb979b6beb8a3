"""Exact subgraph search on host graphs (not restricted to canonical copies).

Entry points to the injective mode of the search kernel in
:mod:`reglab.counting`: a cached greedy template order with bitset candidate
pruning, where host vertices already used are masked out.  Embeddings are
injective vertex maps realizing every template edge; host edges not demanded
by the template are allowed (subgraph containment, not induced).

:func:`count_kcliques` is the exception: it takes the level route of
:func:`reglab.counting.level_count`, which extends all partial copies one
template vertex at a time on packed numpy rows instead of backtracking.
The cliquedensity experiment's true count, the removal experiment's final
template-free check and the aes experiment's soundness cross-check (for a
complete template) run on it.

Counting through a host edge pins one template edge per Aut(H) orbit of
oriented template edges and weights the count by the orbit size; the
:mod:`reglab.counting` docstring gives the bijection that makes this exact.
"""

from __future__ import annotations

import math

from .counting import count_extensions, edge_orbits, iter_extensions, level_count
from .graphs import PatternGraph, SimpleGraph


def find_embedding(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
    fixed: dict[int, int] | None = None,
) -> tuple[int, ...] | None:
    """First embedding found, as host vertices indexed by template vertex.

    ``candidate_masks[i]`` restricts template vertex i to a host subset;
    ``fixed`` pins template vertices to specific hosts.
    """
    found = iter_extensions(pattern, graph.adj, graph.n, fixed, candidate_masks, injective=True)
    return next(found, None)


def count_embeddings(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
    fixed: dict[int, int] | None = None,
) -> int:
    """Number of labelled embeddings (injective maps realizing all template edges)."""
    return count_extensions(pattern, graph.adj, graph.n, fixed, candidate_masks, injective=True)


def iter_embeddings(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
):
    """Yield every labelled embedding (host tuple indexed by template vertex)."""
    yield from iter_extensions(pattern, graph.adj, graph.n, None, candidate_masks, injective=True)


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
    counts the labelled copies of K_k with ``graph.adj`` on every template
    edge.  Every vertex pair of K_k is a template edge and the host has no
    loops, so each such map is injective, and each clique is counted k!
    times: the division is exact.
    """
    if k < 1:
        return 0
    if k == 1:
        return graph.n
    if k == 2:
        return graph.edge_count
    rows = {(a, b): graph.adj for a in range(k) for b in range(k) if a != b}
    return level_count(PatternGraph.complete(k), rows, graph.n) // math.factorial(k)
