"""Graph core: densities, construction invariants, formats."""

import json
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reglab.embedding import count_kcliques
from reglab.errors import PreconditionError
from reglab.graphs import (
    MultipartiteGraph,
    PatternGraph,
    SimpleGraph,
    VertexSetPair,
    bitmask_of,
    edges_to_rows,
    induced_multipartite,
    matrix_to_rows,
    min_degree,
    min_monochromatic_partition,
    pair_density,
    rows_to_edges,
    rows_to_matrix,
    rows_to_words,
    set_counts,
    set_words,
)
from reglab import graphs
from reglab.randgraph import RngStream, gnp, sample_class

from helpers import (
    bool_matrix,
    graph_from_bool_matrix,
    patterns,
    reference_edge_list,
    reference_edges,
    reference_from_edges,
    reference_from_pair_edges,
    reference_induced_multipartite,
    simple_graphs,
)

#: Largest vertex count the codec tests draw: several row blocks and a partial last one.
MAX_CODEC_N = 600


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


@pytest.mark.parametrize("text, line", [
    ("vertices 8\nedge 0 x\n", "edge 0 x"),
    ("vertices eight\n", "vertices eight"),
    ("vertices 3\nedge 1.0 2\n", "edge 1.0 2"),
])
def test_edge_list_non_integer_field_quotes_its_line(text, line):
    with pytest.raises(PreconditionError, match="non-integer field") as error:
        SimpleGraph.from_edge_list(text)
    assert repr(line) in str(error.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**9), st.data())
def test_pair_density_counts_every_cross_pair(n, seed, data):
    g = gnp(n, 0.5, RngStream(seed))
    side = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    U = [v for v in range(n) if side[v] == 1]
    V = [v for v in range(n) if side[v] == 2]
    if not U or not V:
        return
    cross = sum(g.has_edge(u, v) for u in U for v in V)
    assert pair_density(g, VertexSetPair(tuple(U), tuple(V))) == Fraction(cross, len(U) * len(V))


def test_induced_multipartite_examples():
    k3 = PatternGraph.complete(3)
    g = SimpleGraph.complete(3)
    tri = induced_multipartite(g, [[0], [1], [2]], k3)
    assert tri.edge_count(0, 1) == tri.edge_count(0, 2) == tri.edge_count(1, 2) == 1
    empty = induced_multipartite(SimpleGraph.empty(3), [[0], [1], [2]], k3)
    assert all(empty.edge_count(i, j) == 0 for i, j in k3.sorted_edges())


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


@settings(max_examples=40, deadline=None)
@given(simple_graphs(max_n=12), st.data())
def test_edge_count_follows_in_place_row_edits(graph, data):
    """An owner edits ``adj`` only; the edge count is recounted from the rows after any mix of edits."""
    slots = list(combinations(range(graph.n), 2))
    edits = data.draw(st.lists(st.tuples(st.sampled_from(slots), st.booleans()), max_size=30)) if slots else []
    for (u, v), add in edits:
        if add:
            graph.adj[u] |= 1 << v
            graph.adj[v] |= 1 << u
        else:
            graph.adj[u] &= ~(1 << v)
            graph.adj[v] &= ~(1 << u)
    brute = sum(1 for u, v in slots if graph.adj[u] >> v & 1)
    assert graph.edge_count == brute == count_kcliques(graph, 2)


def json_general_route(text: str) -> MultipartiteGraph:
    """``MultipartiteGraph.from_json`` with the bulk route switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_decode_records", lambda text: None)
        return MultipartiteGraph.from_json(text)


@pytest.mark.parametrize("seed", range(4))
def test_every_multipartite_builder_stores_one_table_per_pattern_edge(seed):
    """Each builder keys its rows by exactly the pattern edges (i, j), i < j; edge counts are their popcounts."""
    pattern = PatternGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    n = 3 + 2 * seed
    gen = RngStream(60 + seed).np_rng()
    pair_edges = {e: gen.integers(0, n, (3 * n, 2)).tolist() for e in pattern.sorted_edges()}
    host = gnp(4 * n, 0.4, RngStream(70 + seed))
    classes = [list(range(c * n, (c + 1) * n)) for c in range(4)]
    text = MultipartiteGraph.from_pair_edges(pattern, n, pair_edges).to_json()
    built = {
        "from_pair_edges": MultipartiteGraph.from_pair_edges(pattern, n, pair_edges),
        "from_json bulk": MultipartiteGraph.from_json(text),
        "from_json general": json_general_route(text),
        "induced_multipartite": induced_multipartite(host, classes, pattern),
        "sample_class raw": sample_class(pattern, n, 2 * n, 0.5, 0.5, RngStream(80 + seed)),
        "sample_class rejection": sample_class(pattern, n, 2 * n, 2 / n, 0.75, RngStream(90 + seed), mode="rejection"),
    }
    for name, graph in built.items():
        assert set(graph.rows) == set(pattern.sorted_edges()), name
        for i, j in pattern.sorted_edges():
            popcount = sum(map(int.bit_count, graph.rows[(i, j)]))
            assert graph.edge_count(i, j) == graph.edge_count(j, i) == popcount == len(list(graph.pair_edges(i, j)))
    for name in ("from_pair_edges", "from_json bulk", "from_json general"):
        assert [built[name].edge_count(*e) for e in pattern.sorted_edges()] == [
            len(set(map(tuple, pair_edges[e]))) for e in pattern.sorted_edges()
        ]
    for name in ("sample_class raw", "sample_class rejection"):
        assert all(built[name].edge_count(i, j) == 2 * n for i, j in pattern.sorted_edges())


def test_multipartite_json_peaks_at_three_times_its_text():
    """``to_json`` writes each pair's array from its rows, with no Python object per edge."""
    gen = np.random.default_rng(6)
    pattern = PatternGraph.complete(3)
    pair_edges = {e: np.argwhere(gen.random((200, 200)) < 0.25).tolist() for e in pattern.sorted_edges()}
    graph = MultipartiteGraph.from_pair_edges(pattern, 200, pair_edges)
    del pair_edges
    text = graph.to_json()
    assert sum(graph.edge_count(i, j) for i, j in pattern.sorted_edges()) >= 25_000
    assert text == json.dumps(json.loads(text))
    assert traced_peak(MultipartiteGraph.to_json, graph) <= 3 * len(text)


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


@st.composite
def drawn_pairs(draw, sizes=st.integers(1, MAX_CODEC_N), loops=False):
    """A vertex count n from ``sizes`` and random (u, v) pairs in [0, n), with repeats in both orientations."""
    n = draw(sizes)
    m = draw(st.sampled_from([0, 1, 40, 3000, 30000]))
    u, v = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, n, size=(2, m))
    if not loops:
        u, v = u[u != v], v[u != v]
    pairs = list(zip(u.tolist(), v.tolist()))
    return n, pairs + [(b, a) for a, b in pairs[::3]] + pairs[::5]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, MAX_CODEC_N), st.integers(1, MAX_CODEC_N), st.integers(0, 2**32 - 1))
def test_codec_round_trips_rectangular_rows(n_rows, width, seed):
    matrix = np.random.default_rng(seed).random((n_rows, width)) < 0.05
    rows = matrix_to_rows(matrix)
    assert (rows_to_matrix(rows, width, bool) == matrix).all()
    words = rows_to_words(rows, width)
    assert words.shape == (n_rows, -(-width // 64))
    assert [sum(int(w) << (64 * i) for i, w in enumerate(row)) for row in words] == rows
    blocks = list(rows_to_edges(rows, width))
    r, c = np.concatenate([r for r, _ in blocks]), np.concatenate([c for _, c in blocks])
    want_r, want_c = np.nonzero(matrix)
    assert r.tolist() == want_r.tolist() and c.tolist() == want_c.tolist()
    assert edges_to_rows(n_rows, width, np.concatenate((r, r)), np.concatenate((c, c))) == rows


@pytest.mark.parametrize("chunk_words", [graphs.COUNT_CHUNK_WORDS, 64, 5, 1])
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 200),
    n_sets=st.integers(1, 9),
    size=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_set_counts_match_python_popcounts_at_any_chunk(chunk_words, n, n_sets, size, seed):
    # small chunks split the sets, then the members of one set, then leave
    # one row per gather once a row has more words than the chunk
    gen = np.random.default_rng(seed)
    rows = matrix_to_rows(gen.random((n, n)) < 0.3)
    members = gen.integers(0, n, size=(n_sets, size))
    keep = gen.random((n_sets, size)) < 0.7
    sets = [bitmask_of(m for m, k in zip(ms, ks) if k) for ms, ks in zip(members.tolist(), keep.tolist())]
    words = set_words(members, -(-n // 64), keep)
    assert [sum(int(w) << (64 * i) for i, w in enumerate(row)) for row in words] == sets
    assert set_words(members, -(-n // 64)).tolist() == set_words(members, -(-n // 64), keep | True).tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "COUNT_CHUNK_WORDS", chunk_words)
        counts = set_counts(rows_to_words(rows, n), members, words)
    assert counts.tolist() == [[(rows[m] & mask).bit_count() for m in ms] for ms, mask in zip(members.tolist(), sets)]


@settings(max_examples=30, deadline=None)
@given(drawn_pairs())
def test_from_edges_matches_per_edge_reference(drawn):
    n, pairs = drawn
    got, want = SimpleGraph.from_edges(n, pairs), reference_from_edges(n, pairs)
    assert got.adj == want.adj and got.edge_count == want.edge_count


@settings(max_examples=30, deadline=None)
@given(drawn_pairs())
def test_edges_and_edge_list_match_per_bit_reference(drawn):
    graph = reference_from_edges(*drawn)
    assert list(graph.edges()) == reference_edges(graph)
    u, v = graph.edge_arrays()
    assert u.dtype == v.dtype == np.int64 and list(zip(u.tolist(), v.tolist())) == reference_edges(graph)
    assert graph.to_edge_list() == reference_edge_list(graph)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 150), st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(1, 5), st.integers(0, 10**9))
def test_keep_edges_between_matches_per_edge_reference(n, p, labels, seed):
    # labels in [-labels, labels): negative ones are ordinary labels too
    graph = gnp(n, p, RngStream(seed))
    groups = RngStream(seed, (1,)).np_rng().integers(-labels, labels, n).tolist()
    got = graph.keep_edges_between(groups)
    want = reference_from_edges(n, [(u, v) for u, v in reference_edges(graph) if groups[u] != groups[v]])
    assert got.adj == want.adj and got.edge_count == want.edge_count


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513])
def test_complete_graph_edge_list_matches_per_bit_reference(n):
    graph = SimpleGraph.complete(n)
    assert graph.to_edge_list() == reference_edge_list(graph)
    assert SimpleGraph.from_edge_list(graph.to_edge_list()) == graph


@settings(max_examples=30, deadline=None)
@given(patterns(max_k=4), st.data())
def test_from_pair_edges_matches_per_edge_reference(pattern, data):
    n = data.draw(st.integers(1, MAX_CODEC_N))
    pair_edges = {}
    for i, j in pattern.sorted_edges():
        if data.draw(st.booleans()):
            pair_edges[(i, j)] = data.draw(drawn_pairs(st.just(n), loops=True))[1]
    got = MultipartiteGraph.from_pair_edges(pattern, n, pair_edges)
    want = reference_from_pair_edges(pattern, n, pair_edges)
    assert got.rows == want.rows
    for i, j in pattern.sorted_edges():
        assert list(got.pair_edges(i, j)) == sorted(set(map(tuple, pair_edges.get((i, j), []))))


def insert_bad_pairs(data, pairs: list, bad: list) -> list:
    """``pairs`` with one to three entries of ``bad`` inserted at drawn positions."""
    pairs = list(pairs)
    for pair in data.draw(st.lists(st.sampled_from(bad), min_size=1, max_size=3)):
        pairs.insert(data.draw(st.integers(0, len(pairs))), pair)
    return pairs


@settings(max_examples=60, deadline=None)
@given(drawn_pairs(st.integers(1, 40)), st.data())
def test_from_edges_reports_the_first_bad_edge_like_the_reference(drawn, data):
    n, pairs = drawn
    pairs = insert_bad_pairs(data, pairs, [(0, 0), (n - 1, n - 1), (n, n), (-1, 0), (0, n), (n + 3, -2)])
    with pytest.raises(PreconditionError) as want:
        reference_from_edges(n, pairs)
    with pytest.raises(PreconditionError) as got:
        SimpleGraph.from_edges(n, pairs)
    assert str(got.value) == str(want.value)


@settings(max_examples=60, deadline=None)
@given(drawn_pairs(st.integers(1, 40), loops=True), st.data())
def test_from_pair_edges_reports_the_first_bad_edge_like_the_reference(drawn, data):
    n, pairs = drawn
    pattern = PatternGraph.path(3)
    pair_edges = {(0, 1): pairs, (1, 2): list(reversed(pairs))}
    key = data.draw(st.sampled_from(sorted(pair_edges)))
    pair_edges[key] = insert_bad_pairs(data, pair_edges[key], [(-1, 0), (0, n), (n, n), (n + 3, -2)])
    with pytest.raises(PreconditionError) as want:
        reference_from_pair_edges(pattern, n, pair_edges)
    with pytest.raises(PreconditionError) as got:
        MultipartiteGraph.from_pair_edges(pattern, n, pair_edges)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("entry", [[0.5, 1], [1.0, 0], ["1", "0"], [0, 1, 2]], ids=["float", "integral", "str", "triple"])
def test_edge_entries_must_be_integer_pairs(entry):
    """Entries that the old per-edge loops rejected are not truncated or parsed into edges."""
    with pytest.raises((TypeError, ValueError)):
        SimpleGraph.from_edges(3, [[0, 1], entry])
    with pytest.raises((TypeError, ValueError)):
        MultipartiteGraph.from_pair_edges(PatternGraph.complete(2), 3, {(0, 1): [[0, 1], entry]})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_min_monochromatic_partition_is_the_brute_force_least_weight(data):
    """The least weight over all parts^n assignments, with an assignment of that weight; with a finite
    ``below``, no assignment exactly when that least weight is at least ``below``."""
    n = data.draw(st.integers(0, 7), label="n")
    parts = data.draw(st.integers(1, 3), label="parts")
    pairs = list(combinations(range(n), 2))
    weights = data.draw(st.dictionaries(st.sampled_from(pairs), st.integers(0, 4)) if pairs else st.just({}))

    def weight(assignment) -> int:
        return sum(w for (u, v), w in weights.items() if assignment[u] == assignment[v])

    least = min(weight(assignment) for assignment in product(range(parts), repeat=n))
    assignment, found = min_monochromatic_partition(n, weights, parts, math.inf)
    assert len(assignment) == n and set(assignment) <= set(range(parts))
    assert found == weight(assignment) == least
    below = data.draw(st.integers(0, least + 2), label="below")
    assignment, found = min_monochromatic_partition(n, weights, parts, below)
    if least >= below:
        assert (assignment, found) == (None, below)
    else:
        assert found == weight(assignment) == least


@pytest.mark.parametrize("read, text", [
    (PatternGraph.from_json, '{"k": 3.5, "edges": [[1, 2]]}'),
    (PatternGraph.from_json, '{"k": "3", "edges": [[1, 2]]}'),
    (MultipartiteGraph.from_json, '{"pattern": {"k": 2, "edges": [[1, 2]]}, "part_size": 3.9, "pairs": {"1-2": []}}'),
    (MultipartiteGraph.from_json, '{"pattern": {"k": 2, "edges": [[1, 2]]}, "part_size": "3", "pairs": {"1-2": []}}'),
    (MultipartiteGraph.from_json, '{"pattern": {"k": 2.7, "edges": [[1, 2]]}, "part_size": 3, "pairs": {"1-2": []}}'),
], ids=["pattern_float_k", "pattern_string_k", "float_part_size", "string_part_size", "multipartite_float_k"])
def test_counts_in_json_must_be_integers(read, text):
    """``k`` and ``part_size`` are read like edge endpoints: a float or a string is rejected, not truncated or parsed."""
    with pytest.raises(PreconditionError, match="malformed"):
        read(text)


def graph_state(graph) -> tuple:
    """Everything a simple or multipartite graph holds."""
    if isinstance(graph, SimpleGraph):
        return graph.n, graph.adj
    return graph.pattern, graph.part_size, graph.rows


def read_outcome(read, text):
    """What ``read`` gives on ``text``: the graph's state, or the type and message of what it raised."""
    try:
        return "graph", graph_state(read(text))
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)


def general_outcome(read, text):
    """:func:`read_outcome` with the bulk route switched off: what the general reader alone gives."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_read_records", lambda *args: None)
        patch.setattr(graphs, "_decode_records", lambda text: None)
        return read_outcome(read, text)


def refuse(*args):
    raise AssertionError("the general route ran")


#: Block sizes of the bulk reader under test: records cut at every gap, at some, and not at all.
RECORD_BLOCKS = [1, 7, 64, graphs._RECORD_BLOCK_CHARS]


@settings(max_examples=60, deadline=None)
@given(simple_graphs(max_n=40), st.sampled_from(RECORD_BLOCKS))
def test_written_edge_lists_take_the_bulk_route(graph, block):
    """``to_edge_list`` text is read in bulk, at any block size, to the graph that wrote it."""
    text = graph.to_edge_list()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_RECORD_BLOCK_CHARS", block)
        patch.setattr(SimpleGraph, "from_edges", staticmethod(refuse))  # where the general route ends
        assert SimpleGraph.from_edge_list(text) == graph


@st.composite
def multipartite_graphs(draw, max_k=4, max_n=12):
    """A multipartite graph on a drawn pattern, some of whose pairs may be empty."""
    pattern = draw(patterns(max_k=max_k))
    n = draw(st.integers(1, max_n))
    local = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pair_edges = {key: draw(st.lists(local, max_size=3 * n)) for key in pattern.sorted_edges()}
    return MultipartiteGraph.from_pair_edges(pattern, n, pair_edges)


@settings(max_examples=60, deadline=None)
@given(multipartite_graphs(), st.sampled_from(RECORD_BLOCKS))
@example(MultipartiteGraph.from_pair_edges(PatternGraph.path(3), 2, {(0, 1): [(1, 0)]}), 1)  # pair "2-3": []
def test_written_multipartite_json_takes_the_bulk_route(graph, block):
    """``to_json`` text, empty pairs ``[]`` included, is read in bulk, at any block size, to the graph that wrote it."""
    text = graph.to_json()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_RECORD_BLOCK_CHARS", block)
        patch.setattr(graphs.json, "loads", refuse)  # where the general route starts
        patch.setattr(MultipartiteGraph, "from_pair_edges", staticmethod(refuse))
        assert graph_state(MultipartiteGraph.from_json(text)) == graph_state(graph)


#: Characters that mutations insert or write: the layout's own, signs, blanks, a dot and a non-ASCII digit.
MUTATION_CHARS = "0123456789 \n\t\r#[],:-+.e\"٣"


@st.composite
def mutated(draw, text: str, kinds: list[str]):
    """``text`` with one drawn mutation of a kind in ``kinds``."""
    kind = draw(st.sampled_from(kinds))
    numbers = [match.span() for match in re.finditer(r"[0-9]+", text)]
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(MUTATION_CHARS))
    if kind == "insert":
        return text[:at] + char + text[at:]
    if kind in ("delete", "replace") and text:
        at = min(at, len(text) - 1)
        return text[:at] + (char if kind == "replace" else "") + text[at + 1:]
    if kind in ("leading zero", "sign", "long") and numbers:
        start, end = draw(st.sampled_from(numbers))
        if kind == "long":
            return text[:start] + draw(st.sampled_from(["1" + "0" * 17, "1" + "0" * 18, "9" * 19])) + text[end:]
        return text[:start] + draw(st.sampled_from(["0", "-", "+"] if kind == "sign" else ["0"])) + text[start:]
    if kind == "tab":
        return text.replace(" ", "\t", 1)
    if kind == "comment":
        line_end = text.find("\n", at)
        return text + "# comment\n" if line_end < 0 else text[:line_end] + "  # comment" + text[line_end:]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no final newline":
        return text.removesuffix("\n")
    if kind == "indent":
        return json.dumps(json.loads(text), indent=1)
    return text


COMMON_MUTATIONS = ["insert", "delete", "replace", "leading zero", "sign", "long", "tab"]


@settings(max_examples=300, deadline=None)
@given(simple_graphs(max_n=12), st.sampled_from(RECORD_BLOCKS), st.data())
def test_mutated_edge_lists_read_as_the_general_reader_reads_them(graph, block, data):
    """Text one edit away from the bulk layout gives the general reader's graph, or its error word for word."""
    text = data.draw(mutated(graph.to_edge_list(), COMMON_MUTATIONS + ["comment", "crlf", "no final newline"]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_RECORD_BLOCK_CHARS", block)
        got = read_outcome(SimpleGraph.from_edge_list, text)
    assert got == general_outcome(SimpleGraph.from_edge_list, text)


@settings(max_examples=300, deadline=None)
@given(multipartite_graphs(max_k=3, max_n=6), st.sampled_from(RECORD_BLOCKS), st.data())
def test_mutated_multipartite_json_reads_as_the_general_reader_reads_it(graph, block, data):
    """JSON one edit away from the bulk layout gives the general reader's graph, or its error word for word."""
    text = data.draw(mutated(graph.to_json(), COMMON_MUTATIONS + ["indent"]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_RECORD_BLOCK_CHARS", block)
        got = read_outcome(MultipartiteGraph.from_json, text)
    assert got == general_outcome(MultipartiteGraph.from_json, text)


K2_JSON = '{"pattern": {"k": 2, "edges": [[1, 2]]}, "part_size": 3, "pairs": {"1-2": [[0, 1], [2, 1]]}}'


@pytest.mark.parametrize("read, text", [
    (SimpleGraph.from_edge_list, "vertices 3\nedge 0 1\nedge 1 2\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge 0 1\nedge 1 ٢\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge 0 1\nedge 1 2\r\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge 01 2\n"),
    (SimpleGraph.from_edge_list, "vertices 03\nedge 1 2\n"),
    (SimpleGraph.from_edge_list, "vertices 0\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge 1 1\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge 1 3\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge 1 2\nedge 0\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge 1 2\nvertices 3\n"),
    # every separator in place but one gap a character short and the next one long
    (SimpleGraph.from_edge_list, "vertices 9\nedge 1 2\nedge3 4 \nedge 5 6\n"),
    (SimpleGraph.from_edge_list, "vertices 3\nedge  1\n2"),
    (MultipartiteGraph.from_json, K2_JSON),
    (MultipartiteGraph.from_json, K2_JSON.replace('"part_size": 3', '"part_size": ٣')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"part_size": 3', '"part_size": 1٣')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"k": 2', '"k": ٢')),
    (MultipartiteGraph.from_json, K2_JSON.replace("[2, 1]", "[02, 1]")),
    (MultipartiteGraph.from_json, K2_JSON.replace("[2, 1]", "[2, 3]")),
    (MultipartiteGraph.from_json, K2_JSON.replace('"1-2"', '"1-3"')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"1-2": ', '"1-2": [[0, 1]], "2-1": ')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"pairs": ', '"pairs": [[1, 2]], "x": ')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"pattern": {"k": 2, "edges": [[1, 2]]}', '"pattern": [[1, 2]]')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"part_size": 3', '"part_size": [[3, 3]]')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"1-2": [[0, 1], [2, 1]]', '"1-2": [[0, 1], [2, 1]]]]')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"1-2": [[0, 1], [2, 1]]', '"1-2": [[0, 1], "]]"]')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"1-2": [[0, 1], [2, 1]]', '"1-2": {}')),
    (MultipartiteGraph.from_json, "[[1, 2]]"),
    (MultipartiteGraph.from_json, K2_JSON.replace('"1-2": [[0, 1], [2, 1]]', '"1-2": [[0, 1], 2[,1 ], [1, 1]]')),
    (MultipartiteGraph.from_json, K2_JSON.replace('"1-2": [[0, 1], [2, 1]]', '"1-2": [[0,1 ], 2[, 1]]')),
])
def test_bulk_and_general_readers_agree_on_chosen_texts(read, text):
    """Texts next to the bulk layout, non-ASCII digits included, which ``json``'s Python scanner alone would read."""
    assert read_outcome(read, text) == general_outcome(read, text)


def traced_peak(read, text: str) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated while ``read(text)`` runs."""
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_readers_allocate_less_than_the_general_readers():
    """No Python object per edge: multipartite JSON peaks at half of ``json.loads`` at most, and an edge list
    at no more than the general line loop."""
    gen = np.random.default_rng(5)
    keys = [(1, 2), (1, 3), (2, 3)]
    pairs = {f"{i}-{j}": np.argwhere(gen.random((700, 700)) < 0.1).tolist() for i, j in keys}
    assert sum(map(len, pairs.values())) >= 100_000
    text = json.dumps({"pattern": {"k": 3, "edges": [list(key) for key in keys]}, "part_size": 700, "pairs": pairs})
    del pairs
    assert traced_peak(MultipartiteGraph.from_json, text) <= traced_peak(json.loads, text) / 2

    edge_list = gnp(200, 0.9, RngStream(3)).to_edge_list()
    assert edge_list.count("\n") > 17_000

    def general(text):
        return general_outcome(SimpleGraph.from_edge_list, text)

    assert traced_peak(SimpleGraph.from_edge_list, edge_list) <= traced_peak(general, edge_list)
