"""Isomorph-free enumeration of small graphs."""

import pytest

from reglab.errors import BudgetError
from reglab.randgraph import RngStream
from reglab.smallgraphs import (
    canonical_cert,
    clique_count,
    complement,
    count_graphs,
    nonisomorphic_graphs,
)

# numbers of graphs on n vertices with m edges
KNOWN_COUNTS = {
    4: [1, 1, 2, 3, 2, 1, 1],
    5: [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1],
    6: [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1],
}


def test_counts_match_known_tables():
    for n, row in KNOWN_COUNTS.items():
        assert [count_graphs(n, m) for m in range(len(row))] == row


def test_seven_vertex_spot_checks():
    assert count_graphs(7, 3) == 5
    assert count_graphs(7, 4) == 10
    assert count_graphs(7, 5) == 21


def test_cert_is_isomorphism_invariant():
    gen = RngStream(3).np_rng()
    for _ in range(40):
        n = 6
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if gen.random() < 0.4:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        perm = [int(x) for x in gen.permutation(n)]
        relabeled = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if adj[u] >> v & 1:
                    a, b = perm[u], perm[v]
                    relabeled[a] |= 1 << b
                    relabeled[b] |= 1 << a
        assert canonical_cert(n, tuple(adj)) == canonical_cert(n, tuple(relabeled))


def test_clique_count_direct():
    full = tuple(((1 << 5) - 1) ^ (1 << v) for v in range(5))
    assert clique_count(5, full, 3) == 10
    assert clique_count(5, full, 4) == 5
    ring = [0] * 5
    for i in range(5):
        ring[i] |= 1 << ((i + 1) % 5)
        ring[(i + 1) % 5] |= 1 << i
    assert clique_count(5, tuple(ring), 3) == 0


def test_complement_involution():
    gen = RngStream(4).np_rng()
    n = 7
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if gen.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    adj = tuple(adj)
    assert complement(n, complement(n, adj)) == adj


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        nonisomorphic_graphs(10, 3)
