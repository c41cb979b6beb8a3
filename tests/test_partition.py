"""Partition refinement, cleaning, reduced graphs, trimming."""

from fractions import Fraction

import numpy as np
import pytest

from reglab.errors import PreconditionError
from reglab.graphs import SimpleGraph, bitmask_of
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.partition import (
    ClusterGraph,
    Partition,
    _equalize_affinity,
    _otsu_cuts,
    _row_table,
    _split_by_best_probe,
    clean_partition,
    equipartition_classes,
    evaluate_partition,
    sparse_regular_partition,
    trim_min_degree,
)
from reglab.randgraph import RngStream, gnp
from reglab.regularity import CERTIFIED

from helpers import (
    cluster_graphs,
    graph_from_bool_matrix,
    reference_equalize_affinity,
    reference_otsu_cut,
    reference_partition_energy,
    reference_reduced_weighted_graph,
    reference_split_by_best_probe,
)


def planted_two_block(n: int, p_in: float, p_out: float, stream: RngStream):
    gen = stream.np_rng()
    labels = gen.permutation(n) < n // 2
    matrix = np.zeros((n, n), dtype=bool)
    upper = np.triu_indices(n, k=1)
    draws = gen.random(len(upper[0]))
    same = labels[upper[0]] == labels[upper[1]]
    matrix[upper] = np.where(same, draws < p_in, draws < p_out)
    matrix |= matrix.T
    return graph_from_bool_matrix(matrix), labels


def test_equipartition_sizes():
    classes = equipartition_classes(list(range(11)), 3)
    sizes = sorted(len(c) for c in classes)
    assert sizes == [3, 4, 4]
    assert sorted(v for c in classes for v in c) == list(range(11))


def test_empty_graph_partitions_immediately():
    g = SimpleGraph.empty(20)
    part = sparse_regular_partition(g, 0.25, 0.5, t0=4, max_t=16, rng=RngStream(1))
    assert part.converged
    assert part.t == 4
    sizes = [len(c) for c in part.classes]
    assert max(sizes) - min(sizes) <= 1
    assert len(part.refuted_pairs()) == 0


def test_random_graph_converges_unrefuted():
    g = gnp(300, 0.5, RngStream(2).child(0))
    part = sparse_regular_partition(g, 0.25, 0.5, t0=4, max_t=32, rng=RngStream(2).child(1))
    assert part.converged
    assert len(part.refuted_pairs()) <= 0.25 * part.t**2


def test_degenerate_inputs_rejected():
    with pytest.raises(PreconditionError):
        sparse_regular_partition(SimpleGraph.empty(3), 0.25, 0.5, t0=4, max_t=8, rng=RngStream(3))
    with pytest.raises(PreconditionError):
        sparse_regular_partition(SimpleGraph.empty(10), 0.25, 0.0, t0=2, max_t=8, rng=RngStream(3))


def test_max_t_below_t0_rejected():
    graph = SimpleGraph.from_edges(8, [(i, i + 1) for i in range(7)])
    with pytest.raises(PreconditionError, match="below t0"):
        sparse_regular_partition(graph, 0.3, 0.5, t0=4, max_t=3, rng=RngStream(3))
    assert sparse_regular_partition(graph, 0.3, 0.5, t0=4, max_t=4, rng=RngStream(3)).t <= 4


def test_planted_blocks_recovered():
    hits = 0
    for seed in range(5):
        g, labels = planted_two_block(300, 0.8, 0.2, RngStream(40).child(seed))
        part = sparse_regular_partition(
            g, 0.1, 1.0, t0=4, max_t=16, rng=RngStream(41).child(seed), refuter_trials=48
        )
        purity = min(
            max(sum(labels[v] for v in cls), sum(1 - labels[v] for v in cls)) / len(cls)
            for cls in part.classes
        )
        hits += purity >= 0.9
    assert hits >= 4


def test_energy_increases_on_refinement_round():
    g, _ = planted_two_block(200, 0.8, 0.2, RngStream(50))
    table = _row_table(g)
    perm = [int(v) for v in RngStream(51).np_rng().permutation(200)]
    classes = equipartition_classes(perm, 4)
    before = evaluate_partition(g, classes, 0.1, 1.0, RngStream(52), refuter_trials=48)
    atoms = _split_by_best_probe(table, before.classes, before.pair_info)
    assert len(atoms) > before.t
    refined = _equalize_affinity(table, atoms, 200)
    after = evaluate_partition(g, refined, 0.1, 1.0, RngStream(53), refuter_trials=48)
    assert after.energy > before.energy


def test_energy_bounded_under_uniformity():
    # energy <= D^2 when all pair densities are at most D p
    g = gnp(200, 0.3, RngStream(54))
    part = sparse_regular_partition(g, 0.3, 0.3, t0=4, max_t=8, rng=RngStream(55))
    assert part.energy <= 4  # D = 2 comfortably covers a random graph


def test_partition_json_fields():
    g = gnp(60, 0.4, RngStream(56))
    part = sparse_regular_partition(g, 0.3, 0.4, t0=3, max_t=8, rng=RngStream(57))
    text = part.to_json()
    assert '"membership"' in text and '"energy"' in text and '"pairs"' in text


def test_clean_keeps_dense_unrefuted_pairs():
    g = gnp(240, 0.5, RngStream(60).child(0))
    part = sparse_regular_partition(g, 0.3, 0.5, t0=4, max_t=8, rng=RngStream(60).child(1))
    result = clean_partition(g, part, 0.05, 2.0)
    # only within-class edges go
    assert result.deleted_refuted == 0
    assert result.deleted_sparse == 0
    within = sum(g.edges_within(bitmask_of(c)) for c in part.classes)
    assert result.deleted_total == within == g.edge_count - result.graph.edge_count
    assert len(result.cluster.edges) == part.t * (part.t - 1) // 2
    assert result.bound_inputs_hold


def test_clean_drops_everything_when_threshold_high():
    g = gnp(80, 0.2, RngStream(61).child(0))
    part = sparse_regular_partition(g, 0.3, 0.2, t0=4, max_t=8, rng=RngStream(61).child(1))
    result = clean_partition(g, part, 10.0, 2.0)  # d p n^2 above every count
    assert result.graph.edge_count == 0
    assert len(result.cluster.edges) == 0


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
def test_clean_rejects_p_outside_unit_interval(p):
    k22 = SimpleGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    part = Partition(classes=[[0, 1], [2, 3]], pair_info={}, energy=Fraction(0), epsilon=0.5, p=p)
    with pytest.raises(PreconditionError, match="p must be in"):
        clean_partition(k22, part, 0.1, 2.0)


def record_verdict_policy(monkeypatch) -> list:
    """Record each call of the verdict policy that ``evaluate_partition`` calls, and pass it on."""
    import reglab.partition

    judged = []
    real = reglab.partition.pair_verdicts

    def recording(*args, **kwargs):
        judged.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reglab.partition, "pair_verdicts", recording)
    return judged


K22 = SimpleGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
def test_evaluate_rejects_p_outside_unit_interval_before_any_verdict(p, monkeypatch):
    judged = record_verdict_policy(monkeypatch)
    with pytest.raises(PreconditionError, match="p must be in"):
        evaluate_partition(K22, [[0, 1], [2, 3]], 0.5, p, RngStream(1))
    assert judged == []


def test_evaluate_reaches_the_recorded_verdict_policy_once_with_a_valid_p(monkeypatch):
    # the control of the test above: the patched name is the one evaluate_partition calls
    judged = record_verdict_policy(monkeypatch)
    part = evaluate_partition(K22, [[0, 1], [2, 3]], 0.5, 0.5, RngStream(1))
    assert len(judged) == 1 and part.pair_info[(0, 1)].verdict.status == CERTIFIED


def test_clean_deletion_bound_measured():
    for seed in range(5):
        g = gnp(300, 0.2, RngStream(62).child(seed, 0))
        part = sparse_regular_partition(g, 0.25, 0.2, t0=4, max_t=16, rng=RngStream(62).child(seed, 1))
        result = clean_partition(g, part, 0.05, 2.0)
        if result.bound_inputs_hold:
            assert Fraction(result.deleted_total) <= result.deletion_bound


def test_reduced_weighted_graph_formula():
    """The cleaned cluster weighs every pair as the reduced weighted graph of the cleaned graph does."""
    matching = SimpleGraph.from_edges(8, [(0, 4), (1, 5), (2, 6)])
    halves = [[0, 1, 2, 3], [4, 5, 6, 7]]
    saturated = SimpleGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    blocks, labels = planted_two_block(96, 0.5, 0.02, RngStream(65))
    inside = [v for v in range(96) if labels[v]]
    outside = [v for v in range(96) if not labels[v]]
    quarters = [inside[:24], inside[24:], outside[:24], outside[24:]]
    cases = [
        # epsilon 1 leaves no proper witness, so the matching pair survives unrefuted
        (matching, evaluate_partition(matching, halves, 1.0, 0.5, RngStream(63))),
        (matching, evaluate_partition(matching, halves, 0.5, 0.5, RngStream(63))),
        # e / (p |Vi||Vj|) = 2, so the min saturates at weight 1
        (saturated, evaluate_partition(saturated, [[0, 1], [2, 3]], 0.5, 0.5, RngStream(64))),
        # pairs inside a block saturate, pairs across it are light or sparse
        (blocks, evaluate_partition(blocks, quarters, 0.5, 0.3, RngStream(66))),
    ]
    for d in (0.0, 0.05, 0.25):
        weights = []
        for graph, part in cases:
            cleaned = clean_partition(graph, part, d, 2.0)
            reference = reference_reduced_weighted_graph(cleaned.graph, part, part.p)
            pairs = [(i, j) for i in range(part.t) for j in range(part.t) if i != j]
            assert [cleaned.cluster.weight(i, j) for i, j in pairs] == [reference.weight(i, j) for i, j in pairs]
            weights.append(sorted({cleaned.cluster.weight(i, j) for i, j in pairs}))
        assert weights[:3] == [[Fraction(3, 8)], [0], [1]]
        # only d = 0.25 makes the cross pairs (density about 0.02) sparse
        assert weights[3][-1] == 1 and (weights[3][0] == 0) == (d == 0.25)


def full_cluster(t: int) -> ClusterGraph:
    return ClusterGraph(t, {(i, j): Fraction(1) for i in range(t) for j in range(i + 1, t)})


def test_trim_no_deletions_on_complete():
    result = trim_min_degree(full_cluster(12), 3, 0.5)
    assert result.success
    assert result.removed == ()
    assert len(result.kept) == 12


def test_trim_removes_isolated_vertex_first():
    base = full_cluster(12)
    cluster = ClusterGraph(13, {(i + 1, j + 1): Fraction(1) for i, j in base.edges})  # vertex 0 isolated
    result = trim_min_degree(cluster, 3, 0.5)
    assert result.success
    assert result.removed[0] == 0
    assert len(result.kept) == 12


def test_trim_star_fails():
    star = ClusterGraph(10, {(0, i): Fraction(1) for i in range(1, 10)})
    result = trim_min_degree(star, 3, 0.3)
    assert not result.success


def test_trim_pads_to_divisibility():
    result = trim_min_degree(full_cluster(13), 3, 0.5)
    assert result.success
    assert len(result.kept) == 12
    assert len(result.removed) == 1


@settings(max_examples=40, deadline=None)
@given(cluster_graphs(max_t=10), st.data())
def test_induced_cluster_edges_are_its_weight_keys(cluster, data):
    keep = data.draw(st.lists(st.integers(0, max(cluster.t - 1, 0)), unique=True)) if cluster.t else []
    sub = cluster.induced(keep)
    assert sub.edges == set(sub.weights)
    pos = {v: idx for idx, v in enumerate(sorted(keep))}
    assert sub.edges == {(pos[i], pos[j]) for i, j in cluster.edges if i in pos and j in pos}


def test_cluster_graph_validation():
    with pytest.raises(PreconditionError):
        ClusterGraph(3, {(0, 3): Fraction(1)})
    with pytest.raises(PreconditionError):
        ClusterGraph(3, {(0, 1): Fraction(3, 2)})


def fraction_otsu_cut(counts: list[int]) -> int:
    """The ``Fraction``/``max`` cut choice that the integer Otsu cut replaced."""
    size = len(counts)
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    total = prefix[-1]

    def between_variance(i: int) -> Fraction:
        diff = Fraction(prefix[i], i) - Fraction(total - prefix[i], size - i)
        return Fraction(i * (size - i)) * diff * diff

    return max(range(1, size), key=lambda i: (between_variance(i), -abs(i - size / 2), -i))


def test_integer_otsu_cut_matches_fraction_version():
    """Rows of different lengths, padded with zeros, are cut together as each alone."""
    gen = np.random.default_rng(4)
    vectors = [[0, 0], [3, 1], [1, 3], [5, 5], [7] * 9, [0] * 10, [2] * 17, [2, 1, 1, 0]]
    for _ in range(3000):
        size = int(gen.integers(2, 24))
        top = int(gen.choice([1, 2, 5, 40]))
        vectors.append(sorted((int(c) for c in gen.integers(0, top + 1, size)), reverse=True))
    counts = np.zeros((len(vectors), max(map(len, vectors))), dtype=np.int64)
    for row, vector in enumerate(vectors):
        counts[row, : len(vector)] = vector
    cuts = _otsu_cuts(counts, np.array([len(v) for v in vectors]))
    for vector, cut in zip(vectors, cuts.tolist()):
        assert cut == fraction_otsu_cut(vector) == reference_otsu_cut(vector), vector


def test_otsu_cut_needs_two_counts():
    with pytest.raises(PreconditionError):
        _otsu_cuts(np.array([[4, 0]]), np.array([1]))


@given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=12), min_size=1, max_size=6), st.data())
def test_otsu_cuts_of_large_counts_are_exact(rows, data):
    """Counts scaled to 10^6 keep their cuts: float scores settle their near-ties exactly."""
    scale = data.draw(st.sampled_from([1, 10**6]))
    vectors = [[c * scale for c in row] for row in rows]
    counts = np.zeros((len(vectors), 12), dtype=np.int64)
    for row, vector in enumerate(vectors):
        counts[row, : len(vector)] = vector
    cuts = _otsu_cuts(counts, np.array([len(v) for v in vectors]))
    assert cuts.tolist() == [reference_otsu_cut(v) for v in vectors]


#: host kinds of the refinement oracle tests: several are all ties
HOST_KINDS = ("empty", "complete", "sparse", "dense", "planted")


@st.composite
def hosts(draw, min_n=2, max_n=36):
    """A host of one of ``HOST_KINDS``, drawn with numpy from a drawn seed."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(HOST_KINDS))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "planted":
        labels = gen.integers(0, 2, n)
        prob = np.where(labels[:, None] == labels[None, :], 0.9, 0.1)
    else:
        prob = np.full((n, n), {"empty": 0.0, "complete": 1.0, "sparse": 0.15, "dense": 0.85}[kind])
    upper = np.triu(gen.random((n, n)) < prob, 1)
    return graph_from_bool_matrix(upper | upper.T)


@settings(max_examples=150, deadline=None)
@given(hosts(min_n=8, max_n=32), st.data())
def test_refinement_round_matches_vertex_by_vertex_reference(graph, data):
    """Energy, atoms and classes of one round equal those of the vertex-by-vertex loops.

    Classes come from a random equipartition, so their sizes differ by at
    most one; every pair takes the exhaustive scan.
    """
    t = data.draw(st.integers(2, 6))
    eps = data.draw(st.sampled_from([0.25, 0.5]))
    p = data.draw(st.sampled_from([0.05, 0.1, 0.5]))
    perm = data.draw(st.permutations(range(graph.n)))
    classes = equipartition_classes(list(perm), t)
    table = _row_table(graph)
    part = evaluate_partition(graph, classes, eps, p, RngStream(1))
    assert part.energy == reference_partition_energy(graph, classes, p)
    for (i, j), info in part.pair_info.items():
        assert info.edges == graph.edges_between(bitmask_of(classes[i]), bitmask_of(classes[j]))
    atoms = _split_by_best_probe(table, part.classes, part.pair_info)
    assert atoms == reference_split_by_best_probe(graph, part.classes, part.pair_info)
    assert _equalize_affinity(table, atoms, graph.n) == reference_equalize_affinity(graph, atoms, graph.n)


@settings(max_examples=150, deadline=None)
@given(hosts(), st.data())
def test_equalize_matches_reference_on_any_atoms(graph, data):
    """Atoms of any sizes, one-vertex atoms among them, equalise as in the ``Fraction`` loop."""
    labels = data.draw(st.lists(st.integers(0, graph.n - 1), min_size=graph.n, max_size=graph.n))
    atoms = [[v for v in range(graph.n) if labels[v] == label] for label in sorted(set(labels))]
    table = _row_table(graph)
    assert _equalize_affinity(table, atoms, graph.n) == reference_equalize_affinity(graph, atoms, graph.n)


@pytest.mark.parametrize("kind", ["empty", "complete"])
def test_equalize_breaks_all_tie_donors_by_vertex(kind):
    """Every key ties on an empty or complete host, so vertices move in index order."""
    graph = SimpleGraph.empty(9) if kind == "empty" else SimpleGraph.complete(9)
    atoms = [[0, 1, 2, 3, 4, 5, 6], [7], [8]]
    assert _equalize_affinity(_row_table(graph), atoms, 9) == reference_equalize_affinity(graph, atoms, 9)


def test_energy_of_classes_one_apart_matches_reference():
    g, _ = planted_two_block(61, 0.7, 0.2, RngStream(70))
    classes = equipartition_classes(list(range(61)), 5)
    part = evaluate_partition(g, classes, 0.3, 0.7, RngStream(71))
    assert sorted({len(c) for c in classes}) == [12, 13]
    assert part.energy == reference_partition_energy(g, classes, 0.7)
