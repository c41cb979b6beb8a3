"""Graph core: densities, construction invariants, formats."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.errors import PreconditionError
from reglab.graphs import (
    MultipartiteGraph,
    PatternGraph,
    SimpleGraph,
    VertexSetPair,
    bitmask_of,
    induced_multipartite,
    min_degree,
    pair_density,
)
from reglab.randgraph import RngStream, gnp

from helpers import bool_matrix, graph_from_bool_matrix, reference_induced_multipartite, simple_graphs


def test_pair_density_examples():
    complete = SimpleGraph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    pair = VertexSetPair((0, 1, 2), (3, 4, 5))
    assert pair_density(complete, pair) == 1
    assert pair_density(SimpleGraph.empty(6), pair) == 0
    g = SimpleGraph.from_edges(4, [(0, 2), (1, 3), (1, 2)])
    assert pair_density(g, VertexSetPair((0, 1), (2, 3))) == Fraction(3, 4)


def test_pair_density_preconditions():
    g = SimpleGraph.empty(4)
    with pytest.raises(PreconditionError):
        pair_density(g, VertexSetPair((), (1, 2)))
    with pytest.raises(PreconditionError):
        VertexSetPair((0, 1), (1, 2))


def test_min_degree_examples():
    assert min_degree(SimpleGraph.complete(5)) == 4
    with_isolated = SimpleGraph.from_edges(4, [(0, 1)])
    assert min_degree(with_isolated) == 0
    c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert min_degree(c5) == 2


def test_loops_and_duplicates_rejected():
    with pytest.raises(PreconditionError):
        SimpleGraph.from_edges(3, [(1, 1)])
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@given(simple_graphs(min_n=4, max_n=10), st.data())
def test_pair_density_symmetry_and_additivity(g, data):
    vertices = list(range(g.n))
    u_size = data.draw(st.integers(1, max(1, g.n // 2)))
    subset_u = tuple(vertices[:u_size])
    rest = vertices[u_size:]
    v_size = data.draw(st.integers(1, len(rest)))
    subset_v = tuple(rest[:v_size])
    pair = VertexSetPair(subset_u, subset_v)
    flipped = VertexSetPair(subset_v, subset_u)
    assert pair_density(g, pair) == pair_density(g, flipped)
    # splitting U: edge counts add, density is the size-weighted average
    if len(subset_u) >= 2:
        cut = len(subset_u) // 2
        u1, u2 = subset_u[:cut], subset_u[cut:]
        e_total = g.edges_between(bitmask_of(subset_u), bitmask_of(subset_v))
        e1 = g.edges_between(bitmask_of(u1), bitmask_of(subset_v))
        e2 = g.edges_between(bitmask_of(u2), bitmask_of(subset_v))
        assert e_total == e1 + e2


def test_degree_sum_equals_twice_edges():
    g = gnp(60, 0.3, RngStream(7))
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_adjacency_symmetric_no_loops():
    g = gnp(40, 0.5, RngStream(8))
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        for u in range(v):
            assert g.has_edge(u, v) == g.has_edge(v, u)


def test_bool_matrix_round_trip():
    g = gnp(30, 0.4, RngStream(9))
    again = graph_from_bool_matrix(bool_matrix(g))
    assert again == g


def test_edge_list_round_trip():
    g = gnp(20, 0.3, RngStream(10))
    text = g.to_edge_list()
    assert text.startswith("vertices 20\n")
    assert SimpleGraph.from_edge_list(text) == g
    commented = "# a comment\nvertices 3\nedge 0 2  # trailing\n"
    parsed = SimpleGraph.from_edge_list(commented)
    assert parsed.edge_count == 1 and parsed.has_edge(0, 2)


def test_induced_multipartite_examples():
    k3 = PatternGraph.complete(3)
    g = SimpleGraph.complete(3)
    tri = induced_multipartite(g, [[0], [1], [2]], k3)
    assert tri.edge_count(0, 1) == tri.edge_count(0, 2) == tri.edge_count(1, 2) == 1
    empty = induced_multipartite(SimpleGraph.empty(3), [[0], [1], [2]], k3)
    assert sum(empty.pair_edge_counts.values()) == 0


def test_induced_multipartite_matches_manual_extraction():
    g = gnp(12, 0.5, RngStream(11))
    k3 = PatternGraph.complete(3)
    classes = [[0, 3, 7, 9], [1, 4, 6, 10], [2, 5, 8, 11]]
    mg = induced_multipartite(g, classes, k3)
    for i, j in k3.sorted_edges():
        expected = {
            (a, b)
            for a in range(4)
            for b in range(4)
            if g.has_edge(classes[i][a], classes[j][b])
        }
        assert set(mg.pair_edges(i, j)) == expected


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "pattern",
    [
        PatternGraph.complete(2),
        PatternGraph.path(3),
        PatternGraph.complete(3),
        PatternGraph.cycle(4),
        PatternGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)]),
        PatternGraph.complete(4),
    ],
    ids=["K2", "P3", "K3", "C4", "star", "K4"],
)
def test_induced_multipartite_matches_whole_matrix_extraction(pattern, seed):
    # classes of scattered, unsorted host vertices; some vertices lie in no class
    size = 3 + 5 * seed
    host = gnp(pattern.k * size + 7, 0.35, RngStream(40 + seed))
    order = [int(v) for v in RngStream(50 + seed).np_rng().permutation(host.n)]
    classes = [order[c * size : (c + 1) * size] for c in range(pattern.k)]
    got = induced_multipartite(host, classes, pattern)
    want = reference_induced_multipartite(host, classes, pattern)
    assert got.part_size == want.part_size == size
    assert got.rows == want.rows
    assert got.pair_edge_counts == want.pair_edge_counts


def test_induced_multipartite_validation():
    g = SimpleGraph.empty(6)
    k2 = PatternGraph.complete(2)
    with pytest.raises(PreconditionError):
        induced_multipartite(g, [[0, 1], [2]], k2)
    with pytest.raises(PreconditionError):
        induced_multipartite(g, [[0, 1], [1, 2]], k2)


def test_multipartite_json_round_trip():
    p3 = PatternGraph.from_edges(3, [(0, 1), (1, 2)])
    mg = MultipartiteGraph.from_pair_edges(
        p3, 2, {(0, 1): [(0, 0), (1, 1)], (1, 2): [(0, 0), (0, 1), (1, 0), (1, 1)]}
    )
    again = MultipartiteGraph.from_json(mg.to_json())
    assert again.pattern.edges == mg.pattern.edges
    for i, j in p3.sorted_edges():
        assert set(again.pair_edges(i, j)) == set(mg.pair_edges(i, j))


def test_multipartite_rejects_foreign_pairs():
    p3 = PatternGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError):
        MultipartiteGraph.from_pair_edges(p3, 2, {(0, 2): [(0, 0)]})


def test_pattern_json_uses_one_based_labels():
    k3 = PatternGraph.complete(3)
    assert '"edges": [[1, 2], [1, 3], [2, 3]]' in k3.to_json()
    assert PatternGraph.from_json(k3.to_json()).edges == k3.edges


@pytest.mark.parametrize("seed", range(6))
def test_pair_subgraph_matches_edge_list_construction(seed):
    n = 2 + seed
    pattern = PatternGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    g = gnp(4 * n, 0.2 + 0.1 * seed, RngStream(seed))
    mg = induced_multipartite(g, [list(range(c * n, (c + 1) * n)) for c in range(4)], pattern)
    for i, j in pattern.sorted_edges():
        expected = SimpleGraph.from_edges(2 * n, [(u, n + v) for u, v in mg.pair_edges(i, j)])
        for a, b in ((i, j), (j, i)):
            pair_graph, sides = mg.pair_subgraph(a, b)
            assert pair_graph == expected and pair_graph.edge_count == expected.edge_count
            assert sides == VertexSetPair(tuple(range(n)), tuple(range(n, 2 * n)))
