"""Canonical counting kernels against brute-force oracles."""

import math
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reglab import counting, embedding
from reglab.counting import (
    EXACT_FLOAT_LIMIT,
    canonical_count,
    constrained_count,
    elimination_steps,
    gk_bruteforce,
    greedy_order,
    matrix_count,
)
from reglab.embedding import automorphism_count
from reglab.errors import BudgetError, PreconditionError
from reglab.graphs import MultipartiteGraph, PatternGraph, SimpleGraph, induced_multipartite
from reglab.randgraph import RngStream

from helpers import blowup_embedding_count, naive_canonical_count, naive_constrained_count, patterns


def complete_blowup(pattern: PatternGraph, n: int) -> MultipartiteGraph:
    """Every edge between the parts of each template edge, taken from a complete host."""
    k = pattern.k
    return induced_multipartite(SimpleGraph.complete(k * n), [range(i * n, (i + 1) * n) for i in range(k)], pattern)


def random_multipartite(pattern: PatternGraph, n: int, density: float, stream: RngStream):
    gen = stream.np_rng()
    pair_edges = {}
    for i, j in pattern.sorted_edges():
        pair_edges[(i, j)] = [
            (u, v) for u in range(n) for v in range(n) if gen.random() < density
        ]
    return MultipartiteGraph.from_pair_edges(pattern, n, pair_edges)


def random_sub_multipartite(graph: MultipartiteGraph, keep: float, stream: RngStream):
    gen = stream.np_rng()
    pair_edges = {}
    for i, j in graph.pattern.sorted_edges():
        pair_edges[(i, j)] = [e for e in graph.pair_edges(i, j) if gen.random() < keep]
    return MultipartiteGraph.from_pair_edges(graph.pattern, graph.part_size, pair_edges)


def test_complete_blowup_count():
    for k in (2, 3, 4):
        blowup = complete_blowup(PatternGraph.complete(k), 2)
        assert canonical_count(blowup).count == 2**k


def test_single_edge_count_equals_edges():
    k2 = PatternGraph.complete(2)
    mg = MultipartiteGraph.from_pair_edges(k2, 4, {(0, 1): [(0, 1), (2, 3), (3, 3)]})
    assert canonical_count(mg).count == 3


def test_path_matching_complete_example():
    p3 = PatternGraph.from_edges(3, [(0, 1), (1, 2)])
    mg = MultipartiteGraph.from_pair_edges(
        p3, 2, {(0, 1): [(0, 0), (1, 1)], (1, 2): [(0, 0), (0, 1), (1, 0), (1, 1)]}
    )
    assert canonical_count(mg).count == 4


def test_constrained_with_empty_subpattern_equals_plain():
    k3 = PatternGraph.complete(3)
    graph = random_multipartite(k3, 4, 0.5, RngStream(1))
    overlay = random_sub_multipartite(graph, 0.5, RngStream(2))
    empty = PatternGraph(3, frozenset())
    assert constrained_count(graph, empty, overlay).count == canonical_count(graph).count
    assert constrained_count(graph, k3, graph).count == canonical_count(graph).count


@settings(max_examples=60, deadline=None)
@given(patterns(max_k=4), st.integers(0, 10**9))
def test_count_matches_naive(pattern, seed):
    n = 3
    graph = random_multipartite(pattern, n, 0.5, RngStream(seed))
    assert canonical_count(graph).count == naive_canonical_count(graph)


@settings(max_examples=40, deadline=None)
@given(patterns(max_k=4), st.integers(0, 10**9), st.data())
def test_constrained_matches_naive(pattern, seed, data):
    n = 3
    graph = random_multipartite(pattern, n, 0.6, RngStream(seed))
    overlay = random_sub_multipartite(graph, 0.6, RngStream(seed + 1))
    edge_list = pattern.sorted_edges()
    sub_edges = data.draw(
        st.lists(st.sampled_from(edge_list), max_size=len(edge_list), unique=True)
    ) if edge_list else []
    sub = PatternGraph.from_edges(pattern.k, sub_edges) if sub_edges else PatternGraph(pattern.k, frozenset())
    assert constrained_count(graph, sub, overlay).count == naive_constrained_count(
        graph, sub, overlay
    )


def test_count_monotone_in_edges():
    k3 = PatternGraph.complete(3)
    graph = random_multipartite(k3, 4, 0.4, RngStream(77))
    base = canonical_count(graph).count
    edges = dict((key, set(graph.pair_edges(*key))) for key in k3.sorted_edges())
    missing = next(
        (u, v) for u in range(4) for v in range(4) if (u, v) not in edges[(0, 1)]
    )
    edges[(0, 1)].add(missing)
    bigger = MultipartiteGraph.from_pair_edges(k3, 4, {k: sorted(v) for k, v in edges.items()})
    assert canonical_count(bigger).count >= base


def test_count_result_normalizations():
    k3 = PatternGraph.complete(3)
    blowup = complete_blowup(k3, 3)
    result = canonical_count(blowup)
    assert result.count == 27
    assert result.normalized == 1
    assert result.expected == 27
    assert result.ratio == 1.0
    assert '"count": "27"' in result.to_json()


DIAMOND = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


@st.composite
def treewidth_two_patterns(draw, max_k=6):
    """Disjoint unions of paths, cycles, forests, diamonds (K4 - e) and isolated
    vertices on at most ``max_k`` vertices, randomly relabelled."""
    edges = []
    k = 0
    while k < 2 or (k < max_k and draw(st.booleans())):
        kind = draw(st.sampled_from(["isolated", "path", "cycle", "forest", "diamond"]))
        room = max_k - k
        if kind == "isolated" or room < 2:
            size, part = 1, []
        elif kind == "path":
            size = draw(st.integers(2, room))
            part = [(i, i + 1) for i in range(size - 1)]
        elif kind == "cycle" and room >= 3:
            size = draw(st.integers(3, room))
            part = [(i, (i + 1) % size) for i in range(size)]
        elif kind == "diamond" and room >= 4:
            size, part = 4, DIAMOND
        else:
            size = draw(st.integers(2, room))
            part = [(draw(st.integers(0, i - 1)), i) for i in range(1, size) if draw(st.booleans())]
        edges += [(a + k, b + k) for a, b in part]
        k += size
    label = draw(st.permutations(range(k)))
    return PatternGraph.from_edges(k, [(label[a], label[b]) for a, b in edges])


def is_complete(pattern: PatternGraph) -> bool:
    return pattern.edge_count == pattern.k * (pattern.k - 1) // 2


def identity_blocks(pattern: PatternGraph, n: int) -> MultipartiteGraph:
    """Every pair a perfect matching u -- u, so a connected template has exactly n copies."""
    return MultipartiteGraph.from_pair_edges(
        pattern, n, {e: [(u, u) for u in range(n)] for e in pattern.sorted_edges()}
    )


@settings(max_examples=150, deadline=None)
@given(treewidth_two_patterns(), st.integers(1, 4), st.floats(0.2, 1.0), st.integers(0, 10**9))
def test_matrix_route_matches_backtracker_and_naive(pattern, n, density, seed):
    graph = random_multipartite(pattern, n, density, RngStream(seed))
    expected = blowup_embedding_count(graph)
    assert expected == naive_canonical_count(graph)
    count = matrix_count(pattern, graph.rows, n)
    if is_complete(pattern):
        assert count is None
    else:
        assert type(count) is int and count == expected
    assert canonical_count(graph).count == expected


@settings(max_examples=60, deadline=None)
@given(treewidth_two_patterns(max_k=5), st.integers(0, 10**9), st.data())
def test_matrix_route_constrained_matches_naive(pattern, seed, data):
    graph = random_multipartite(pattern, 3, 0.7, RngStream(seed))
    overlay = random_sub_multipartite(graph, 0.6, RngStream(seed + 1))
    edge_list = pattern.sorted_edges()
    sub_edges = data.draw(st.lists(st.sampled_from(edge_list), unique=True)) if edge_list else []
    sub = PatternGraph.from_edges(pattern.k, sub_edges)
    assert constrained_count(graph, sub, overlay).count == naive_constrained_count(graph, sub, overlay)


@settings(max_examples=100, deadline=None)
@given(patterns(max_k=6), st.integers(0, 10**9))
def test_matrix_route_on_any_template(pattern, seed):
    # whatever the template, the route either declines or counts exactly; it
    # always declines a clique and any template containing K4
    graph = random_multipartite(pattern, 2, 0.7, RngStream(seed))
    count = matrix_count(pattern, graph.rows, 2)
    has_k4 = any(
        all(pair in pattern.edges for pair in combinations(quad, 2))
        for quad in combinations(range(pattern.k), 4)
    )
    if is_complete(pattern) or has_k4:
        assert count is None
    if count is not None:
        assert count == naive_canonical_count(graph)


K4_PENDANT = PatternGraph.from_edges(5, [(a, b) for a, b in combinations(range(4), 2)] + [(3, 4)])
K5_MINUS_E = PatternGraph.from_edges(5, [(a, b) for a, b in combinations(range(5), 2) if (a, b) != (0, 1)])


def no_backtracker(*args, **kwargs):
    raise AssertionError("backtracker called")


def forbid_backtracker(patch) -> None:
    """Make every entry into the embedding kernel fail: its count and its generator."""
    patch.setattr(embedding, "count_embeddings", no_backtracker)
    patch.setattr(embedding, "_embeddings", no_backtracker)


@pytest.mark.parametrize("pattern", [
    PatternGraph.complete(2),
    PatternGraph.complete(3),
    PatternGraph.complete(4),
    K4_PENDANT,
    K5_MINUS_E,
], ids=["K2", "K3", "K4", "K4_pendant", "K5_minus_e"])
def test_cliques_and_treewidth_three_skip_the_backtracker(pattern, monkeypatch):
    assert elimination_steps(pattern) is None
    graph = random_multipartite(pattern, 3, 0.7, RngStream(pattern.k))
    assert matrix_count(pattern, graph.rows, 3) is None
    forbid_backtracker(monkeypatch)
    assert canonical_count(graph).count == naive_canonical_count(graph)
    assert constrained_count(graph, pattern, graph).count == naive_canonical_count(graph)


def multipartite_at(pattern: PatternGraph, n: int, densities: list[float], seed: int) -> MultipartiteGraph:
    """Pair ``i`` of ``pattern.sorted_edges()`` keeps each of its n^2 slots with probability ``densities[i]``."""
    gen = RngStream(seed).np_rng()
    pair_edges = {}
    for e, density in zip(pattern.sorted_edges(), densities):
        r, c = np.nonzero(gen.random((n, n)) < density)
        pair_edges[e] = list(zip(r.tolist(), c.tolist()))
    return MultipartiteGraph.from_pair_edges(pattern, n, pair_edges)


# PatternGraph needs two vertices, so the edgeless pair stands in for K1:
# every position of its plan is unconstrained
LEVEL_TEMPLATES = {
    "edgeless2": PatternGraph(2, frozenset()),
    "K2": PatternGraph.complete(2),
    "K3": PatternGraph.complete(3),
    "K4": PatternGraph.complete(4),
    "K5": PatternGraph.complete(5),
    "K4_pendant": K4_PENDANT,
    "K5_minus_e": K5_MINUS_E,
    "K3_isolated": PatternGraph.from_edges(4, [(0, 1), (0, 3), (1, 3)]),
}


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.sampled_from(sorted(LEVEL_TEMPLATES)).map(LEVEL_TEMPLATES.get), treewidth_two_patterns(max_k=5)),
    st.integers(1, 19),
    st.integers(0, 10**9),
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=10, max_size=10),  # K5 has the most edges, 10
)
@example(PatternGraph.path(4), 7, 3, [0.5] * 10)  # plan (1, 2, 0, 3) reads pair (0, 1) as its transpose
def test_level_count_matches_backtracker(pattern, n, seed, densities):
    # part sizes off multiples of 8 leave padding bits in every packed row, and
    # a float limit of 1 sends treewidth-2 templates to the level route too
    graph = multipartite_at(pattern, n, densities[: pattern.edge_count], seed)
    expected = blowup_embedding_count(graph)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "EXACT_FLOAT_LIMIT", 1)
        forbid_backtracker(patch)
        assert matrix_count(pattern, graph.rows, n) is None
        assert canonical_count(graph).count == expected
        # canonical_count splits the disconnected templates into components,
        # so the level route sees them whole only when called directly
        assert counting.level_count(pattern, graph.rows, n) == expected


@st.composite
def disjoint_unions(draw, max_k=6):
    """A template of two or more components, its vertices shuffled so no component is a run of labels."""
    parts = draw(st.lists(patterns(min_k=2, max_k=3, require_edge=False), min_size=1, max_size=3))
    isolated = draw(st.integers(0 if len(parts) > 1 else 1, 2))
    k = sum(part.k for part in parts) + isolated
    if k > max_k:
        parts, isolated = parts[:1], 1
        k = parts[0].k + 1
    labels = draw(st.permutations(range(k)))
    edges, offset = [], 0
    for part in parts:
        edges += [(labels[offset + a], labels[offset + b]) for a, b in part.edges]
        offset += part.k
    return PatternGraph.from_edges(k, edges)


@settings(max_examples=120, deadline=None)
@given(disjoint_unions(), st.integers(1, 3), st.integers(0, 10**9), st.data())
def test_disjoint_union_count_matches_naive(pattern, n, seed, data):
    """Each component is counted as a template of its own, and the product is the brute-force count."""
    e = pattern.edge_count
    densities = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=e, max_size=e))
    graph = multipartite_at(pattern, n, densities, seed)
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("matrix_count", "level_count"):
            original = getattr(counting, name)

            def recording(sub, rows, size, original=original):
                sizes.append(sub.k)
                return original(sub, rows, size)

            patch.setattr(counting, name, recording)
        assert canonical_count(graph).count == naive_canonical_count(graph)
    assert all(k < pattern.k for k in sizes)
    parts = counting._components(pattern)
    assert len(parts) >= 2 and sorted(v for part in parts for v in part) == list(range(pattern.k))


def test_components_of_k4_and_k3_are_counted_apart():
    k4_k3 = PatternGraph.from_edges(
        7, [(a, b) for a, b in combinations(range(4), 2)] + [(a, b) for a, b in combinations(range(4, 7), 2)]
    )
    assert counting._components(k4_k3) == ((0, 1, 2, 3), (4, 5, 6))
    graph = random_multipartite(k4_k3, 3, 0.8, RngStream(7))
    k4 = PatternGraph.complete(4)
    k3 = PatternGraph.complete(3)
    rows4 = {e: graph.rows[e] for e in graph.rows if max(e) < 4}
    rows3 = {(a - 4, b - 4): graph.rows[(a, b)] for a, b in graph.rows if min(a, b) >= 4}
    expected = counting.level_count(k4, rows4, 3) * counting.level_count(k3, rows3, 3)
    assert canonical_count(graph).count == expected == naive_canonical_count(graph)


def test_treewidth_two_templates_skip_the_backtracker(monkeypatch):
    forbid_backtracker(monkeypatch)
    for pattern in (PatternGraph.cycle(4), PatternGraph.path(4), PatternGraph.from_edges(4, DIAMOND)):
        blowup = complete_blowup(pattern, 3)
        assert canonical_count(blowup).count == 3**4
        assert constrained_count(blowup, pattern, blowup).count == 3**4


def test_float_limit_routes_to_the_level_route(monkeypatch):
    """At n^k >= 2^53 the count leaves the matrix route for the level route."""
    routed = []
    level_count = counting.level_count

    def recording(pattern, rows, n):
        routed.append((pattern.k, n))
        return level_count(pattern, rows, n)

    monkeypatch.setattr(counting, "level_count", recording)
    # 2^52 copies are counted by elimination, 2^53 tuples are not: the
    # pair-by-pair perfect matchings leave 2 copies of any path either way
    below, at = PatternGraph.path(52), PatternGraph.path(53)
    assert 2**52 < EXACT_FLOAT_LIMIT <= 2**53
    assert matrix_count(below, identity_blocks(below, 2).rows, 2) == 2
    assert matrix_count(at, identity_blocks(at, 2).rows, 2) is None
    assert canonical_count(identity_blocks(below, 2)).count == 2
    assert routed == []
    assert canonical_count(identity_blocks(at, 2)).count == 2
    assert routed == [(53, 2)]
    c4 = PatternGraph.cycle(4)
    wide = identity_blocks(c4, 2**14)  # n^k = 2^56
    assert matrix_count(c4, wide.rows, 2**14) is None
    assert canonical_count(wide).count == 2**14
    assert routed == [(53, 2), (4, 2**14)]


def test_matrix_route_exact_just_below_the_float_limit():
    # 3^33 lies between 2^52 and 2^53, where float64 still holds every integer
    for pattern in (PatternGraph.path(33), PatternGraph.cycle(33)):
        assert 2**52 < 3**33 < EXACT_FLOAT_LIMIT
        assert matrix_count(pattern, complete_blowup(pattern, 3).rows, 3) == 3**33


def test_elimination_steps_order():
    # lowest-index vertex of degree <= 2 first; a degree-2 step joins its neighbours
    assert elimination_steps(PatternGraph.cycle(4)) == ((0, (1, 3)), (1, (2, 3)), (2, (3,)), (3, ()))
    diamond = PatternGraph.from_edges(4, DIAMOND)
    assert elimination_steps(diamond) == ((0, (1, 2)), (1, (2, 3)), (2, (3,)), (3, ()))
    assert elimination_steps(PatternGraph(3, frozenset())) == ((0, ()), (1, ()), (2, ()))


def test_greedy_order_prefers_back_degree():
    p4 = PatternGraph.path(4)
    order = greedy_order(p4)
    assert set(order) == {0, 1, 2, 3}
    # after the first vertex, each next one is adjacent to a placed vertex
    for idx in range(1, 4):
        assert any((min(order[idx], order[s]), max(order[idx], order[s])) in p4.edges for s in range(idx))


def test_automorphism_count():
    assert automorphism_count(PatternGraph.complete(3)) == 6
    assert automorphism_count(PatternGraph.path(3)) == 2
    assert automorphism_count(PatternGraph.cycle(4)) == 8


def test_gk_zero_region_and_complete():
    # a complete bipartite graph on 6 vertices has 9 >= ceil(0.5 * 15) = 8 edges
    assert gk_bruteforce(3, Fraction(1, 2), 6) == 0
    assert gk_bruteforce(3, 1, 5) == 1
    assert gk_bruteforce(3, Fraction(1), 4) == 1


def test_gk_regression_constant():
    # exhaustive minimum over 6-vertex graphs with >= 12 edges; K_{2,2,2}
    # attains 8 triangles, so the normalized value is 8 / C(6,3)
    assert gk_bruteforce(3, Fraction(4, 5), 6) == Fraction(8, 20)


def test_gk_small_cross_check():
    # direct check against full labelled enumeration at n = 5, triangles counted by networkx
    slots = list(combinations(range(5), 2))
    for rho_num in (6, 7, 8):
        rho = Fraction(rho_num, 10)
        m0 = math.ceil(rho * len(slots))
        best = None
        for edges in combinations(slots, m0):
            graph = nx.Graph(edges)
            count = sum(nx.triangles(graph).values()) // 3
            best = count if best is None else min(best, count)
        assert gk_bruteforce(3, rho, 5) == Fraction(best, 10)


#: (k, n) -> least number of k-cliques among n-vertex graphs with m edges, for m = 0..C(n, 2);
#: the values of an independent isomorph-free enumeration over unlabelled graphs
GK_MINIMUM_COUNTS = {
    (3, 3): [0, 0, 0, 1],
    (3, 4): [0, 0, 0, 0, 0, 2, 4],
    (3, 5): [0] * 7 + [2, 4, 7, 10],
    (3, 6): [0] * 10 + [3, 6, 8, 12, 16, 20],
    (3, 7): [0] * 13 + [3, 6, 9, 12, 16, 20, 25, 30, 35],
    (4, 4): [0] * 6 + [1],
    (4, 5): [0] * 9 + [2, 5],
    (4, 6): [0] * 13 + [4, 9, 15],
    (4, 7): [0] * 17 + [4, 8, 16, 25, 35],
}


@pytest.mark.parametrize("k, n", sorted(GK_MINIMUM_COUNTS))
def test_gk_minimum_counts_table(k, n):
    slots = math.comb(n, 2)
    counts = [gk_bruteforce(k, Fraction(m, slots), n) * math.comb(n, k) for m in range(slots + 1)]
    assert counts == GK_MINIMUM_COUNTS[(k, n)]


def test_gk_budget_and_preconditions():
    assert counting.GK_BUDGET == 7
    for n in (8, 10):
        with pytest.raises(BudgetError):
            gk_bruteforce(3, Fraction(1, 2), n)
    with pytest.raises(BudgetError):  # the budget is checked first
        gk_bruteforce(9, Fraction(2), 8)
    with pytest.raises(PreconditionError, match="k <= n"):  # then k, then rho
        gk_bruteforce(8, Fraction(2), 7)
    with pytest.raises(PreconditionError):
        gk_bruteforce(3, Fraction(11, 10), 6)
    with pytest.raises(PreconditionError):
        gk_bruteforce(1, Fraction(1, 2), 6)
