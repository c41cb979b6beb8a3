"""Isomorph-free enumeration of small graphs.

Graphs on n <= 9 vertices are represented as tuples of adjacency bitmasks.
``canonical_cert`` computes a canonical certificate (the lexicographically
greatest upper-triangle bit string over all vertex orderings, found by a
prefix-pruned search that branches only across non-twin ties), and
``nonisomorphic_graphs`` grows representatives one edge at a time, deduping
each level by certificate.  These searches stay apart from the subgraph
search kernel in :mod:`reglab.embedding`: they are literal brute-force
references that the tests and the dense-minimum oracle compare against.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetError, SoundnessError

ENUMERATION_BUDGET = 9


def _twin_groups(adj: tuple[int, ...], candidates: list[int]) -> list[int]:
    """One representative per interchangeable-vertex group among candidates."""
    reps: list[int] = []
    for v in candidates:
        dup = False
        for u in reps:
            if (adj[u] & ~(1 << v)) == (adj[v] & ~(1 << u)) and (
                (adj[u] >> v & 1) == (adj[v] >> u & 1)
            ):
                dup = True
                break
        if not dup:
            reps.append(v)
    return reps


def canonical_cert(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical level sequence: position t records adjacency to positions < t."""
    best: list[int] | None = None

    def rec(placed: list[int], used: int, levels: list[int]):
        nonlocal best
        t = len(placed)
        if t == n:
            if best is None or levels > best:
                best = list(levels)
            return
        unused = [v for v in range(n) if not used >> v & 1]
        values = {}
        for v in unused:
            val = 0
            for pos, u in enumerate(placed):
                if adj[v] >> u & 1:
                    val |= 1 << pos
            values[v] = val
        top = max(values.values())
        # a level value outranks every later bit, so only max-value picks can win
        ties = [v for v in unused if values[v] == top]
        for v in _twin_groups(adj, ties):
            placed.append(v)
            rec(placed, used | (1 << v), levels + [top])
            placed.pop()

    rec([], 0, [])
    if best is None:
        raise SoundnessError("certificate search completed no vertex ordering")
    return tuple(best)


def _add_edge(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    rows = list(adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return tuple(rows)


_LEVEL_CACHE: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def nonisomorphic_graphs(n: int, m: int) -> list[tuple[int, ...]]:
    """All graphs on n labelled-irrelevant vertices with exactly m edges, up to isomorphism."""
    if n > ENUMERATION_BUDGET:
        raise BudgetError(f"graph enumeration limited to {ENUMERATION_BUDGET} vertices, got {n}")
    if m > n * (n - 1) // 2 or m < 0:
        return []
    if (n, m) in _LEVEL_CACHE:
        return _LEVEL_CACHE[(n, m)]
    if m == 0:
        reps = [tuple([0] * n)]
    else:
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for adj in nonisomorphic_graphs(n, m - 1):
            for u, v in slots:
                if adj[u] >> v & 1:
                    continue
                grown = _add_edge(adj, u, v)
                cert = canonical_cert(n, grown)
                if cert not in nxt:
                    nxt[cert] = grown
        reps = list(nxt.values())
    _LEVEL_CACHE[(n, m)] = reps
    return reps


def count_graphs(n: int, m: int) -> int:
    return len(nonisomorphic_graphs(n, m))


def clique_count(n: int, adj: tuple[int, ...], k: int) -> int:
    """Number of k-cliques by direct enumeration (tiny graphs only)."""
    total = 0
    for subset in combinations(range(n), k):
        if all(adj[a] >> b & 1 for a, b in combinations(subset, 2)):
            total += 1
    return total


def complement(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple((full ^ adj[v]) & ~(1 << v) for v in range(n))
