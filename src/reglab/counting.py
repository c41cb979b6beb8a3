"""Exact canonical-copy counting and related quantities.

A canonical copy of a k-vertex template H in a multipartite graph G is a
tuple (v_1, ..., v_k), v_i in part i, realizing every template edge between
the prescribed parts.  Copies are labelled tuples: no automorphism factor
is divided out.  The instance gives each template edge ``(a, b)``, a < b,
one row table ``rows[(a, b)]`` over the local indices ``range(n)`` of part
b, one bitset row per vertex of part a; a route that needs the rows of
part b derives them with :func:`reglab.graphs.transposed_rows`.

A :class:`SearchPlan` orders the template vertices by greedy maximum
back-degree (pinned vertices first) and lists, per position, the earlier
positions it must be adjacent to; it is built once per (template, pinned
vertices) and cached.  The level route below walks it, and so does the
subgraph-search kernel of :mod:`reglab.embedding`, which this module does
not import.

Unpinned canonical counts (:func:`canonical_count`, :func:`constrained_count`)
are products over the template's connected components: a copy is one copy
of each component, and an isolated template vertex has n images.  Each
component with an edge is counted as a template of its own, by one of two
routes.  The matrix route, :func:`matrix_count`, turns each template
edge's rows into a 0/1 float64 matrix and eliminates template
vertices one at a time, always the lowest-index vertex of current degree
<= 2: degree 0 multiplies the scalar by its vector's sum (n without one),
degree 1 folds ``M_uv @ x_v`` into u's vector, and degree 2 replaces its two
edges by ``M_uv diag(x_v) M_vw``, multiplied entrywise into any (u, w) matrix
already there.  It applies when all of the following hold:

* the template is not complete (the level route below counted triangles
  on parts of 1800 faster than dense matrix products, at densities 0.05
  and 0.5 alike);
* the elimination empties the template, i.e. its treewidth is at most 2;
* n^k < 2^53.  Every vector, matrix entry and BLAS partial sum is then a
  count of partial copies, a non-negative integer at most n^k, and float64
  represents every such integer exactly, so the result does not depend on
  the summation order.

The matrix route holds 8 n^2 bytes per template edge.  Every other unpinned
count takes the level route, :func:`level_count`.  It walks the plan
breadth-first on numpy arrays: each template edge's rows become one packed
table of n rows of ceil(n / 64) uint64 words, the frontier of partial copies
is a column of host indices per placed position, and each level ANDs the
gathered rows of its back-constraints, unpacks them and extends the frontier
with the set bits.  The frontier is walked ``_FRONTIER_CHUNK_ROWS`` rows at a
time, depth first across levels, so besides the tables the working memory is
one chunk per level: its candidate words, its unpacked bits and the at most
``_FRONTIER_CHUNK_ROWS * n`` partial copies it extends to.  The result is
exact for every n: each chunk's popcount sum is at most
``_FRONTIER_CHUNK_ROWS * n``, far inside a 64-bit integer, and the chunk sums
add up in a Python int.

The level route has three callers: :func:`canonical_count` and
:func:`constrained_count` (through the component product) and
:func:`reglab.embedding.count_kcliques`, which runs it on K_k with a simple
graph's rows cut to the neighbours above each vertex on every template edge
(a, b), a < b, so each clique is counted once.  The clique plans place
their vertices in increasing order, so they never need a transpose.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BudgetError, PreconditionError
from .graphs import MultipartiteGraph, PatternGraph, rows_to_matrix, rows_to_words, transposed_rows

GK_BUDGET = 7

#: float64 represents every integer below this exactly.
EXACT_FLOAT_LIMIT = 2**53


@dataclass(frozen=True)
class CountResult:
    """An exact count plus its natural normalizations.

    ``expected`` is prod(m_ij / n^2) * n^k, where m_ij is the popcount of
    the instance's own rows of pair ij (the rows the count walked, for a
    constrained count); ``ratio`` is count / expected when that is positive.
    """

    count: int
    normalized: Fraction
    expected: Fraction
    ratio: float | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "count": str(self.count),
                "normalized": str(self.normalized),
                "expected": str(self.expected),
                "ratio": self.ratio,
            }
        )


def greedy_order(pattern: PatternGraph, fixed: tuple[int, ...] = ()) -> list[int]:
    """Template vertices ordered by maximum back-degree into already-placed ones."""
    placed = list(fixed)
    remaining = [v for v in range(pattern.k) if v not in placed]
    neigh = [pattern.neighbors(v) for v in range(pattern.k)]
    while remaining:
        def back_degree(v: int) -> int:
            return sum(1 for u in placed if u in neigh[v])

        nxt = max(remaining, key=lambda v: (back_degree(v), len(neigh[v]), -v))
        placed.append(nxt)
        remaining.remove(nxt)
    return placed


@dataclass(frozen=True)
class SearchPlan:
    """Placement order of the template vertices and, per position, the
    earlier positions whose images the vertex placed there must be adjacent to."""

    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def search_plan(pattern: PatternGraph, pinned: tuple[int, ...]) -> SearchPlan:
    """The cached plan for ``pattern`` with the ``pinned`` vertices placed first, in order."""
    order = tuple(greedy_order(pattern, pinned))
    back = tuple(
        tuple(s for s in range(t) if (min(order[s], v), max(order[s], v)) in pattern.edges)
        for t, v in enumerate(order)
    )
    return SearchPlan(order, back)


def _result(pattern: PatternGraph, n: int, count: int, rows: dict[tuple[int, int], list[int]]) -> CountResult:
    """``count`` with its normalizations; each pair's edge count is the popcount of its rows in ``rows``."""
    expected = Fraction(n) ** pattern.k
    for e in pattern.sorted_edges():
        expected *= Fraction(sum(row.bit_count() for row in rows[e]), n * n)
    normalized = Fraction(count, n**pattern.k)
    ratio = float(Fraction(count) / expected) if expected > 0 else None
    return CountResult(count=count, normalized=normalized, expected=expected, ratio=ratio)


@lru_cache(maxsize=None)
def elimination_steps(pattern: PatternGraph) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
    """The matrix route's steps as (vertex, its current neighbours), or ``None``.

    Each step removes the lowest-index vertex of current degree <= 2; removing
    a degree-2 vertex joins its two neighbours.  ``None`` when the template is
    complete or a step finds no such vertex (treewidth above 2).
    """
    k = pattern.k
    if pattern.edge_count == k * (k - 1) // 2:
        return None
    neigh = {v: pattern.neighbors(v) for v in range(k)}
    steps = []
    while neigh:
        v = next((u for u in sorted(neigh) if len(neigh[u]) <= 2), None)
        if v is None:
            return None
        around = tuple(sorted(neigh.pop(v)))
        for u in around:
            neigh[u].discard(v)
        if len(around) == 2:
            u, w = around
            neigh[u].add(w)
            neigh[w].add(u)
        steps.append((v, around))
    return tuple(steps)


def matrix_count(
    pattern: PatternGraph, rows: dict[tuple[int, int], list[int]], n: int
) -> int | None:
    """Canonical copies by float64 matrix elimination; ``None`` where the route does not apply.

    ``rows`` holds the row table of every template edge (a, b), a < b, over
    parts of size ``n``; the module docstring states when the route
    applies and why it is exact.
    """
    steps = elimination_steps(pattern)
    if steps is None or n**pattern.k >= EXACT_FLOAT_LIMIT:
        return None
    # matrices[(a, b)], a < b, rows indexed by part a
    matrices = {e: rows_to_matrix(rows[e], n, np.float64) for e in pattern.sorted_edges()}
    vectors: dict[int, np.ndarray] = {}
    scalar = 1

    def take(a: int, b: int) -> np.ndarray:
        return matrices.pop((a, b)) if a < b else matrices.pop((b, a)).T

    for v, around in steps:
        x = vectors.pop(v, None)
        if not around:
            scalar *= n if x is None else int(x.sum())
        elif len(around) == 1:
            (u,) = around
            m = take(u, v)
            y = m.sum(axis=1) if x is None else m @ x
            vectors[u] = vectors[u] * y if u in vectors else y
        else:
            u, w = around
            left = take(u, v)
            y = (left if x is None else left * x) @ take(v, w)
            matrices[(u, w)] = matrices[(u, w)] * y if (u, w) in matrices else y
    return scalar


#: Partial copies :func:`level_count` extends at once; bounds its working
#: memory to one chunk of this many frontier rows per level.
_FRONTIER_CHUNK_ROWS = 1024


def level_count(pattern: PatternGraph, rows: dict[tuple[int, int], list[int]], n: int) -> int:
    """Canonical copies by extending all partial copies one plan position at a time.

    Takes the arguments of :func:`matrix_count` and returns the same count
    for every template.  A frontier of partial copies holds one numpy column
    of host indices per placed position.  The table of back edge s -> t is
    the stored table when the earlier vertex is the lower one, else its
    transpose.
    """
    plan = search_plan(pattern, ())
    last = pattern.k - 1

    def table(u: int, v: int) -> np.ndarray:
        return rows_to_words(rows[(u, v)] if u < v else transposed_rows(rows[(v, u)], n), n)

    tables = {(s, t): table(plan.order[s], v) for t, v in enumerate(plan.order) for s in plan.back[t]}
    full = rows_to_words([(1 << n) - 1], n)

    def extend(t: int, frontier: list[np.ndarray], size: int) -> int:
        total = 0
        for start in range(0, size, _FRONTIER_CHUNK_ROWS):
            chunk = [column[start : start + _FRONTIER_CHUNK_ROWS] for column in frontier]
            if plan.back[t]:
                first, *rest = plan.back[t]
                cand = np.take(tables[(first, t)], chunk[first], axis=0)
                for s in rest:
                    cand &= np.take(tables[(s, t)], chunk[s], axis=0)
            else:
                cand = np.broadcast_to(full, (min(size - start, _FRONTIER_CHUNK_ROWS), full.shape[1]))
            if t == last:
                total += int(np.bitwise_count(cand).sum())
                continue
            bits = np.unpackbits(cand.view(np.uint8), axis=1, count=n, bitorder="little")
            picked, hosts = np.divmod(np.flatnonzero(bits.view(bool)), n)
            total += extend(t + 1, [column[picked] for column in chunk] + [hosts], len(hosts))
        return total

    return extend(0, [], 1)


@lru_cache(maxsize=None)
def _components(pattern: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """The vertex sets of the template's connected components, each sorted, in order of least vertex."""
    seen: set[int] = set()
    out = []
    for root in range(pattern.k):
        if root in seen:
            continue
        component, frontier = {root}, [root]
        while frontier:
            for u in pattern.neighbors(frontier.pop()) - component:
                component.add(u)
                frontier.append(u)
        seen |= component
        out.append(tuple(sorted(component)))
    return tuple(out)


def _unpinned_count(pattern: PatternGraph, rows: dict[tuple[int, int], list[int]], n: int) -> int:
    """Canonical copies as the product of the counts of the template's components.

    A copy is a choice of one copy of each component, so the count is the
    product; an isolated template vertex has n images.
    """
    count = 1
    for component in _components(pattern):
        if len(component) == 1:
            count *= n
            continue
        local = {v: idx for idx, v in enumerate(component)}
        edges = [(local[a], local[b]) for a, b in pattern.edges if a in local]
        sub = PatternGraph.from_edges(len(component), edges)
        sub_rows = {(local[a], local[b]): table for (a, b), table in rows.items() if a in local}
        part = matrix_count(sub, sub_rows, n)
        count *= level_count(sub, sub_rows, n) if part is None else part
    return count


def canonical_count(graph: MultipartiteGraph) -> CountResult:
    """Exact number of canonical copies of the template in ``graph``."""
    count = _unpinned_count(graph.pattern, graph.rows, graph.part_size)
    return _result(graph.pattern, graph.part_size, count, graph.rows)


def _effective_rows(
    graph: MultipartiteGraph, sub_pattern: PatternGraph, overlay: MultipartiteGraph
) -> dict[tuple[int, int], list[int]]:
    """Rows of ``graph`` with sub-pattern edges restricted to ``overlay`` as well."""
    if overlay.part_size != graph.part_size or overlay.k != graph.k:
        raise PreconditionError("overlay graph must share part count and part size")
    if not set(sub_pattern.edges) <= set(graph.pattern.edges):
        raise PreconditionError("sub-pattern edges must be a subset of the template's")
    rows = dict(graph.rows)
    for i, j in sub_pattern.sorted_edges():
        if (i, j) not in overlay.rows:
            raise PreconditionError(f"overlay missing pair {(i + 1, j + 1)}")
        rows[(i, j)] = [a & b for a, b in zip(graph.rows[(i, j)], overlay.rows[(i, j)])]
    return rows


def constrained_count(
    graph: MultipartiteGraph, sub_pattern: PatternGraph, overlay: MultipartiteGraph
) -> CountResult:
    """Canonical copies whose sub-pattern edges additionally lie in ``overlay``."""
    rows = _effective_rows(graph, sub_pattern, overlay)
    count = _unpinned_count(graph.pattern, rows, graph.part_size)
    return _result(graph.pattern, graph.part_size, count, rows)


def gk_bruteforce(k: int, rho: Fraction | float, n: int) -> Fraction:
    """Minimum K_k density over n-vertex graphs with edge density at least rho.

    Exhausts the labelled graphs with exactly ceil(rho * C(n, 2)) edges
    (adding edges never lowers the clique count, so the minimum over "at
    least" is attained there; the labelled minimum is the minimum over
    isomorphism classes) and normalizes the minimum count by C(n, k).  Each
    vertex pair is a bit, each k-subset the mask of its clique's pairs, and
    a graph's count is the number of masks its edge mask contains.
    """
    if n > GK_BUDGET:
        raise BudgetError(f"clique-minimum oracle limited to {GK_BUDGET} vertices, got {n}")
    if not 2 <= k <= n:
        raise PreconditionError(f"need 2 <= k <= n, got k={k}, n={n}")
    rho_frac = rho if isinstance(rho, Fraction) else Fraction(rho)
    if rho_frac > 1:
        raise PreconditionError(f"density rho must be at most 1, got {rho}")
    bits = {pair: 1 << bit for bit, pair in enumerate(combinations(range(n), 2))}
    cliques = [sum(bits[pair] for pair in combinations(subset, 2)) for subset in combinations(range(n), k)]
    best = len(cliques)
    for chosen in combinations(bits.values(), max(0, math.ceil(rho_frac * len(bits)))):
        edges = sum(chosen)
        best = min(best, sum(clique & edges == clique for clique in cliques))
        if best == 0:
            break
    return Fraction(best, len(cliques))
