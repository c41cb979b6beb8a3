"""Subgraph search (the backtracking kernel) against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from reglab import counting, embedding
from reglab.embedding import (
    automorphism_count,
    count_embeddings,
    count_embeddings_through_edge,
    count_kcliques,
    find_embedding,
    iter_copies,
    iter_embeddings,
)
from reglab.graphs import PatternGraph, SimpleGraph, bitmask_of
from reglab.randgraph import RngStream, gnp

from helpers import (
    ASYMMETRIC6,
    graph_from_bool_matrix,
    patterns,
    reference_automorphism_count,
    reference_break_surviving_copies,
    reference_count_kcliques,
    reference_count_through_edge,
    reference_embeddings,
    reference_orbit_least,
    simple_graphs,
)

#: One template per kind of edge orbit: trivial Aut, P3, C4, K4 - e, K1,3 and K3.
ORBIT_TEMPLATES = [
    ASYMMETRIC6,
    PatternGraph.path(3),
    PatternGraph.cycle(4),
    PatternGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    PatternGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    PatternGraph.complete(3),
]


def oracle_embeddings(graph, pattern, masks=None, fixed=None) -> set[tuple[int, ...]]:
    """Embeddings from VF2 subgraph monomorphisms, filtered by masks and pins."""
    host = nx.Graph()
    host.add_nodes_from(range(graph.n))
    host.add_edges_from(graph.edges())
    template = nx.Graph()
    template.add_nodes_from(range(pattern.k))
    template.add_edges_from(pattern.edges)
    found = set()
    for mapping in GraphMatcher(host, template).subgraph_monomorphisms_iter():
        emb = [0] * pattern.k
        for h, v in mapping.items():
            emb[v] = h
        if masks and any(not masks[v] >> emb[v] & 1 for v in range(pattern.k)):
            continue
        if fixed and any(emb[v] != h for v, h in fixed.items()):
            continue
        found.add(tuple(emb))
    return found


@st.composite
def instances(draw):
    graph = draw(simple_graphs(min_n=2, max_n=7))
    pattern = draw(patterns(max_k=4))
    masks = draw(
        st.none()
        | st.lists(st.integers(0, (1 << graph.n) - 1), min_size=pattern.k, max_size=pattern.k)
    )
    fixed = draw(
        st.dictionaries(st.integers(0, pattern.k - 1), st.integers(0, graph.n - 1), max_size=2)
    )
    return graph, pattern, masks, fixed


@settings(max_examples=150, deadline=None)
@given(instances())
def test_count_matches_networkx(instance):
    graph, pattern, masks, fixed = instance
    assert count_embeddings(graph, pattern, masks) == len(oracle_embeddings(graph, pattern, masks))
    expected = oracle_embeddings(graph, pattern, masks, fixed)
    assert count_embeddings(graph, pattern, masks, fixed) == len(expected)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_iter_yields_each_embedding_once(instance):
    graph, pattern, masks, _ = instance
    yielded = list(iter_embeddings(graph, pattern, masks))
    assert len(yielded) == len(set(yielded))
    assert set(yielded) == oracle_embeddings(graph, pattern, masks)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_find_returns_a_valid_embedding_or_none(instance):
    graph, pattern, masks, _ = instance
    expected = oracle_embeddings(graph, pattern, masks)
    found = find_embedding(graph, pattern, masks)
    if expected:
        assert found in expected
    else:
        assert found is None


@settings(max_examples=100, deadline=None)
@given(simple_graphs(min_n=2, max_n=7), patterns(max_k=4), st.data())
def test_through_edge_is_count_difference(graph, pattern, data):
    edges = list(graph.edges())
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    without = SimpleGraph.from_edges(graph.n, [e for e in edges if e != (u, v)])
    through = count_embeddings(graph, pattern) - count_embeddings(without, pattern)
    assert count_embeddings_through_edge(graph, pattern, u, v) == through
    assert count_embeddings_through_edge(graph, pattern, v, u) == through


@settings(max_examples=100, deadline=None)
@given(
    simple_graphs(min_n=2, max_n=8),
    st.sampled_from(ORBIT_TEMPLATES) | patterns(max_k=5),
    st.data(),
)
def test_through_edge_matches_sum_over_every_orientation(graph, pattern, data):
    edges = list(graph.edges())
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    expected = reference_count_through_edge(graph, pattern, u, v)
    assert count_embeddings_through_edge(graph, pattern, u, v) == expected
    assert count_embeddings_through_edge(graph, pattern, v, u) == expected


def test_asymmetric_template_has_one_orbit_per_oriented_edge():
    assert embedding.automorphism_count(ASYMMETRIC6) == 1
    assert len(embedding.edge_orbits(ASYMMETRIC6)) == 2 * ASYMMETRIC6.edge_count


def all_templates(max_k: int):
    """Every labelled template on 2..max_k vertices, the edgeless ones included."""
    for k in range(2, max_k + 1):
        slots = [(a, b) for a in range(k) for b in range(a + 1, k)]
        for bits in range(1 << len(slots)):
            yield PatternGraph.from_edges(k, [e for i, e in enumerate(slots) if bits >> i & 1])


def test_automorphisms_and_edge_orbits_on_every_small_template():
    for pattern in all_templates(5):
        assert embedding.automorphism_count(pattern) == reference_automorphism_count(pattern)
        orbits = embedding.edge_orbits(pattern)
        assert sum(size for _, size in orbits) == 2 * pattern.edge_count
        for (a, b), size in orbits:
            orbit = {(perm[a], perm[b]) for perm in embedding.automorphisms(pattern)}
            assert len(orbit) == size and min(orbit) == (a, b)
    embedding.automorphisms.cache_clear()
    embedding.edge_orbits.cache_clear()


@settings(max_examples=60, deadline=None)
@given(simple_graphs(min_n=1, max_n=10))
def test_kcliques_match_networkx(graph):
    host = nx.Graph()
    host.add_nodes_from(range(graph.n))
    host.add_edges_from(graph.edges())
    sizes = [len(c) for c in nx.enumerate_all_cliques(host)]
    for k in range(1, 6):
        assert count_kcliques(graph, k) == sizes.count(k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_kcliques_match_the_backtracker_on_random_hosts(k):
    # both count each clique once, the level route in its increasing
    # labelling.  G(200, 0.5) with k = 5 is left out: the backtracker alone
    # takes about a second on it.
    for n in (60, 130, 200):
        for density in (0.05, 0.2, 0.35, 0.5):
            if (n, density) == (200, 0.5) and k == 5:
                continue
            graph = gnp(n, density, RngStream(n, (k, int(100 * density))))
            assert count_kcliques(graph, k) == reference_count_kcliques(graph, k)


def test_plan_built_once_per_template_and_pins(monkeypatch):
    calls = []
    real = counting.greedy_order

    def counted(pattern, fixed=()):
        calls.append((pattern, fixed))
        return real(pattern, fixed)

    monkeypatch.setattr(counting, "greedy_order", counted)
    counting.search_plan.cache_clear()
    graph = SimpleGraph.complete(6)
    pattern = PatternGraph.cycle(4)
    rows = {(a, b): graph.adj for edge in pattern.edges for a, b in (edge, edge[::-1])}
    for _ in range(3):
        assert count_embeddings(graph, pattern) == 6 * 5 * 4 * 3
        count_embeddings_through_edge(graph, pattern, 0, 1)
        # the level route counts homomorphisms: the closed 4-walks of K6, 5^4 + 5
        assert counting.level_count(pattern, rows, graph.n) == 630
    assert len(calls) == len(set(calls)) == 1 + len(embedding.edge_orbits(pattern))
    counting.search_plan.cache_clear()


#: Templates with nontrivial automorphism groups: K3, K4, C4, C5, K1,3 and 2K2.
SYMMETRIC_TEMPLATES = {
    "K3": PatternGraph.complete(3),
    "K4": PatternGraph.complete(4),
    "C4": PatternGraph.cycle(4),
    "C5": PatternGraph.cycle(5),
    "K1,3": PatternGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "2K2": PatternGraph.from_edges(4, [(0, 1), (2, 3)]),
}

#: About this many labelled copies are expected in a drawn host, so the recursive oracle stays quick.
LABELLED_BUDGET = 2000


@st.composite
def symmetric_instances(draw, with_masks=False):
    """A symmetric template, a random host of up to 200 vertices (rows of up to four words) and masks or None."""
    pattern = draw(st.sampled_from(list(SYMMETRIC_TEMPLATES.values())))
    n = draw(st.integers(pattern.k, 200))
    scale = draw(st.floats(0.3, 1.5))
    density = min(0.9, scale * (LABELLED_BUDGET / n**pattern.k) ** (1 / pattern.edge_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    graph = graph_from_bool_matrix(upper | upper.T)
    masks = None
    if with_masks and draw(st.booleans()):
        masks = [bitmask_of(np.flatnonzero(rng.random(n) < 0.8).tolist()) for _ in range(pattern.k)]
    return graph, pattern, masks


@settings(max_examples=80, deadline=None)
@given(symmetric_instances(with_masks=True))
def test_loop_walk_yields_the_recursive_walks_sequence(instance):
    graph, pattern, masks = instance
    expected = reference_embeddings(graph, pattern, masks)
    assert list(iter_embeddings(graph, pattern, masks)) == expected
    assert find_embedding(graph, pattern, masks) == (expected[0] if expected else None)
    assert count_embeddings(graph, pattern, masks) == len(expected)


@settings(max_examples=80, deadline=None)
@given(symmetric_instances(with_masks=True))
def test_copies_are_the_labellings_least_in_plan_order_among_their_orbit(instance):
    graph, pattern, masks = instance
    labelled = reference_embeddings(graph, pattern, masks)
    copies = list(iter_copies(graph, pattern, masks))
    assert copies == reference_orbit_least(pattern, labelled)
    if masks is None:
        assert len(labelled) == automorphism_count(pattern) * len(copies) == count_embeddings(graph, pattern)


@settings(max_examples=80, deadline=None)
@given(symmetric_instances(), st.booleans())
def test_a_deleting_consumer_gets_the_snapshot_breakers_rows_and_one_yield_per_deletion(instance, first_edge):
    """Deleting an edge of each copy while iterating: the first template edge, or one that depends on the copy."""
    graph, pattern, _ = instance
    edges = pattern.sorted_edges()

    def edge_of(emb):
        return edges[0] if first_edge else edges[sum(emb) % len(edges)]

    expected_adj, expected_deleted = reference_break_surviving_copies(graph, pattern, edge_of)
    working = SimpleGraph(graph.n, list(graph.adj))
    adj = working.adj
    yields = 0
    for emb in iter_embeddings(working, pattern):
        yields += 1
        assert all(adj[emb[x]] >> emb[y] & 1 for x, y in edges)
        a, b = edge_of(emb)
        adj[emb[a]] &= ~(1 << emb[b])
        adj[emb[b]] &= ~(1 << emb[a])
    assert adj == expected_adj
    assert yields == expected_deleted


@pytest.mark.parametrize("pattern", SYMMETRIC_TEMPLATES.values(), ids=SYMMETRIC_TEMPLATES.keys())
def test_automorphism_count_matches_networkx(pattern):
    template = nx.Graph()
    template.add_nodes_from(range(pattern.k))
    template.add_edges_from(pattern.edges)
    assert automorphism_count(pattern) == sum(1 for _ in GraphMatcher(template, template).isomorphisms_iter())
