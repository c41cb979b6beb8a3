"""Experiment building blocks: the degree peels, cluster-supported counts, and the packing pipeline."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reglab import experiments
from reglab.counting import GK_BUDGET
from reglab.errors import BudgetError, PreconditionError, RejectionBudgetError, SoundnessError
from reglab.embedding import count_embeddings, count_kcliques, find_embedding, iter_embeddings
from reglab.experiments import (
    CLIQUE_FACTOR_BUDGET,
    AesParams,
    ClassProbeParams,
    CliqueDensityParams,
    CountingParams,
    PackingParams,
    RemovalParams,
    _break_surviving_copies,
    _cluster_supported_count,
    _pad_to_divisible,
    _partite_cut,
    _template_free,
    clique_factor,
    packing_pipeline,
)
from reglab.graphs import (
    PatternGraph,
    SimpleGraph,
    VertexSetPair,
    _peel_low_degree,
    bitmask_of,
    induced_multipartite,
    iter_bits,
)
from reglab.partition import ClusterGraph, Partition, TrimResult, evaluate_partition, trim_min_degree
from reglab.randgraph import RngStream, gnp
from reglab.regularity import EXHAUSTIVE_PAIR_BUDGET, pair_verdict, pair_verdicts

from helpers import (
    cluster_graphs,
    out_of_range,
    patterns,
    reference_break_surviving_copies,
    reference_clique_factor,
    reference_constant_trim,
    reference_fallback_pad,
    reference_host_peel,
    reference_trim_min_degree,
    simple_graphs,
)


def unit_cluster(t: int, edges) -> ClusterGraph:
    return ClusterGraph(t, {e: Fraction(1) for e in edges})


def complete_cluster(t: int) -> ClusterGraph:
    return unit_cluster(t, [(i, j) for i in range(t) for j in range(i + 1, t)])


def assert_trim_matches_reference(cluster: ClusterGraph, k: int, beta: float):
    expected = reference_trim_min_degree(cluster, k, beta)
    result = trim_min_degree(cluster, k, beta)
    assert (result.success, result.kept, result.removed) == expected


def unbounded_removals(cluster: ClusterGraph, k: int) -> int:
    """Removals of both trim stages under an allowance that never binds."""
    return len(reference_trim_min_degree(cluster, k, float(cluster.t + k + 1))[2])


@settings(max_examples=300, deadline=None)
@given(cluster=cluster_graphs(), k=st.integers(2, 4), data=st.data())
def test_trim_matches_reference(cluster, k, data):
    if data.draw(st.booleans()) or cluster.t == 0:
        beta = data.draw(st.floats(0.0, 3.0))
    else:
        # allowances in half steps around both stage limits: the first stage
        # needs between R - k + 1 and R of the R unbounded removals, and the
        # padding stage may go k - 1 past the allowance
        offset = data.draw(st.sampled_from([x / 2 for x in range(-2 * k - 2, 3)]))
        beta = (unbounded_removals(cluster, k) + offset + k) / cluster.t
    assert_trim_matches_reference(cluster, k, beta)


@pytest.mark.parametrize(
    "cluster, k, beta, success, kept",
    [
        # every vertex is low while t < k(k + 1): all removed within the allowance
        (unit_cluster(5, []), 2, 3.0, True, ()),
        (complete_cluster(5), 3, 3.0, True, ()),
        # five removals against an allowance of four, then of five
        (complete_cluster(5), 3, 7 / 5, False, ()),
        (complete_cluster(5), 3, 8 / 5, True, ()),
        (complete_cluster(5), 3, 1.0, False, (3, 4)),
        # t mod k != 0: padding removes t mod k classes
        (complete_cluster(13), 3, 0.5, True, tuple(range(1, 13))),
        (complete_cluster(14), 3, 0.5, True, tuple(range(2, 14))),
        # padding needed with a negative allowance: the padding stage fails
        (complete_cluster(7), 2, 0.25, False, tuple(range(1, 7))),
        (complete_cluster(7), 2, 2 / 7, True, tuple(range(1, 7))),
        (unit_cluster(0, []), 3, 0.5, True, ()),
    ],
)
def test_trim_edge_cases(cluster, k, beta, success, kept):
    assert_trim_matches_reference(cluster, k, beta)
    result = trim_min_degree(cluster, k, beta)
    assert (result.success, result.kept) == (success, kept)


@settings(max_examples=200, deadline=None)
@given(cluster=cluster_graphs(min_t=1), threshold=st.floats(-1.0, 15.0))
@example(cluster=unit_cluster(4, [(0, 1)]), threshold=1.0)
def test_constant_trim_matches_reference(cluster, threshold):
    """The trim of ``run_partite_stability``: constant threshold, no limit."""
    alive, removed, done = _peel_low_degree(cluster.to_simple_graph(), lambda size: threshold)
    assert (list(iter_bits(alive)), removed) == reference_constant_trim(cluster, threshold)
    assert done


@settings(max_examples=200, deadline=None)
@given(cluster=cluster_graphs(), k=st.integers(2, 5))
def test_fallback_pad_matches_reference(cluster, k):
    assert _pad_to_divisible(cluster, k) == reference_fallback_pad(cluster, k)


@settings(max_examples=300, deadline=None)
@given(graph=simple_graphs(max_n=14), target=st.floats(0.0, 10.0), data=st.data())
def test_host_peel_matches_reference(graph, target, data):
    """The peel of ``run_packing``: constant target, at most ``max_removals`` removals."""
    max_removals = data.draw(st.integers(0, graph.n - 1))
    alive, removed, met = _peel_low_degree(graph, lambda size: target, max_removals)
    assert (list(iter_bits(alive)), removed, met) == reference_host_peel(graph, target, max_removals)


def brute_cluster_supported(graph, classes, cluster, pattern) -> int:
    """Labelled copies with pairwise distinct classes and every template edge on a cluster edge."""
    owner = {v: c for c, members in enumerate(classes) for v in members}
    total = 0
    for tup in permutations(range(graph.n), pattern.k):
        cls = [owner[v] for v in tup]
        if len(set(cls)) == pattern.k and all(
            graph.has_edge(tup[a], tup[b]) and cluster.has_edge(cls[a], cls[b])
            for a, b in pattern.edges
        ):
            total += 1
    return total


CLASSES = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]


def cluster_supported(graph, cluster, pattern) -> int:
    part = evaluate_partition(graph, CLASSES, 0.5, 0.5, RngStream(3), refuter_trials=4)
    return _cluster_supported_count(graph, part, cluster, pattern)


def test_cluster_supported_count_on_planted_partition():
    graph = gnp(12, 0.6, RngStream(11))
    cluster = unit_cluster(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    for pattern in (PatternGraph.complete(3), PatternGraph.path(3), PatternGraph.path(4)):
        expected = brute_cluster_supported(graph, CLASSES, cluster, pattern)
        assert expected > 0
        assert cluster_supported(graph, cluster, pattern) == expected


@settings(max_examples=30, deadline=None)
@given(
    graph=simple_graphs(min_n=12, max_n=12),
    cluster=cluster_graphs(min_t=4, max_t=4),
    pattern=patterns(max_k=4),
)
def test_cluster_supported_count_matches_brute_force(graph, cluster, pattern):
    assert cluster_supported(graph, cluster, pattern) == brute_cluster_supported(
        graph, CLASSES, cluster, pattern
    )


def unreduced_cluster_supported(graph, cluster, pattern) -> int:
    """One masked count for every cluster embedding, with no orbit reduction."""
    masks = [bitmask_of(c) for c in CLASSES]
    return sum(
        count_embeddings(graph, pattern, candidate_masks=[masks[c] for c in assign])
        for assign in iter_embeddings(cluster.to_simple_graph(), pattern)
    )


REDUCED_TEMPLATES = [
    PatternGraph.complete(3),
    PatternGraph.path(3),
    PatternGraph.path(4),
    PatternGraph.cycle(4),
]


@pytest.mark.parametrize("pattern", REDUCED_TEMPLATES, ids=["K3", "P3", "P4", "C4"])
def test_orbit_reduced_count_on_planted_partition(pattern):
    graph = gnp(12, 0.6, RngStream(11))
    cluster = complete_cluster(4)
    expected = unreduced_cluster_supported(graph, cluster, pattern)
    assert expected > 0
    assert cluster_supported(graph, cluster, pattern) == expected


@settings(max_examples=40, deadline=None)
@given(
    graph=simple_graphs(min_n=12, max_n=12),
    cluster=cluster_graphs(min_t=4, max_t=4),
    pattern=st.sampled_from(REDUCED_TEMPLATES),
)
def test_orbit_reduced_count_matches_unreduced_sum(graph, cluster, pattern):
    assert cluster_supported(graph, cluster, pattern) == unreduced_cluster_supported(
        graph, cluster, pattern
    )


@settings(max_examples=100, deadline=None)
@given(
    graph=simple_graphs(min_n=3, max_n=10),
    pattern=st.sampled_from([PatternGraph.complete(3), PatternGraph.cycle(4), PatternGraph.path(3)]),
)
def test_break_on_live_rows_matches_snapshot(graph, pattern):
    before = list(graph.adj)
    expected_adj, expected_deleted = reference_break_surviving_copies(graph, pattern)
    broken, deleted = _break_surviving_copies(graph, pattern)
    assert deleted == expected_deleted
    assert broken.adj == expected_adj
    assert broken.edge_count == graph.edge_count - deleted == sum(map(int.bit_count, expected_adj)) // 2
    assert graph.adj == before
    assert count_embeddings(broken, pattern) == 0


def spy_on_find_embedding(monkeypatch) -> list[tuple[bool, tuple[int, ...]]]:
    """Record every clique the packing pipeline finds, flagged True when the mop-up found it."""
    found = []
    original = experiments.find_embedding

    def spy(graph, pattern, candidate_masks=None):
        result = original(graph, pattern, candidate_masks=candidate_masks)
        if result is not None:
            found.append((len(set(candidate_masks)) == 1, result))
        return result

    monkeypatch.setattr(experiments, "find_embedding", spy)
    return found


@pytest.mark.parametrize(
    "graph, p, trimmed",
    [
        (SimpleGraph.complete(36), 1.0, True),
        (gnp(45, 0.95, RngStream(4)), 0.95, False),
    ],
    ids=["complete-trim", "dense-fallback"],
)
def test_packing_pipeline_extracts_verified_cliques(graph, p, trimmed, monkeypatch):
    found = spy_on_find_embedding(monkeypatch)
    record = packing_pipeline(graph, PackingParams(k=3, host_n=graph.n, p=p, gamma=0.25), RngStream(1))
    assert "stage_failed" not in record
    assert record.get("trim_fallback", False) is not trimmed
    cliques = [clique for _, clique in found]
    covered = {v for clique in cliques for v in clique}
    assert len(covered) == 3 * len(cliques)
    assert all(graph.has_edge(a, b) for clique in cliques for a in clique for b in clique if a != b)
    assert record["packed_cliques"] == len(cliques) >= record["factor_cliques"]
    assert record["covered_vertices"] == len(covered)
    assert record["coverage"] == len(covered) / graph.n
    assert record["success"] == (len(covered) >= 0.75 * graph.n)
    if not trimmed:
        assert any(mop_up for mop_up, _ in found)


def test_packing_pipeline_rejects_a_reused_vertex(monkeypatch):
    answers = iter([(0, 1, 2), (0, 3, 4)])
    monkeypatch.setattr(experiments, "find_embedding", lambda *args, **kwargs: next(answers, None))
    with pytest.raises(SoundnessError, match="reuses a vertex"):
        packing_pipeline(SimpleGraph.complete(36), PackingParams(k=3, host_n=36, p=1.0, gamma=0.25), RngStream(1))


@st.composite
def factor_instances(draw, max_t):
    """A k in {2, 3, 4} and a unit-weight cluster on a multiple of k, at most ``max_t``, vertices."""
    k = draw(st.integers(2, 4))
    t = k * draw(st.integers(0, max_t // k))
    density = draw(st.sampled_from([0.3, 0.6, 0.85, 1.0]))
    coin = random.Random(draw(st.integers(0, 2**32 - 1)))
    return unit_cluster(t, [e for e in combinations(range(t), 2) if coin.random() < density]), k


def has_clique_factor(cluster: ClusterGraph, uncovered: frozenset, k: int) -> bool:
    """Brute force: whether ``uncovered`` splits into k-cliques of ``cluster``."""
    if not uncovered:
        return True
    v, *rest = sorted(uncovered)
    return any(
        all(cluster.has_edge(a, b) for a, b in combinations((v, *others), 2))
        and has_clique_factor(cluster, uncovered - {v, *others}, k)
        for others in combinations(rest, k - 1)
    )


@settings(max_examples=300, deadline=None)
@given(factor_instances(max_t=24))
def test_clique_factor_matches_the_reference_enumerator(instance):
    cluster, k = instance
    assert clique_factor(cluster, k) == reference_clique_factor(cluster, k)


@settings(max_examples=300, deadline=None)
@given(factor_instances(max_t=9))
def test_clique_factor_is_a_partition_into_cliques_or_none_exactly_when_none_exists(instance):
    cluster, k = instance
    factor = clique_factor(cluster, k)
    assert (factor is not None) == has_clique_factor(cluster, frozenset(range(cluster.t)), k)
    if factor is not None:
        assert sorted(v for clique in factor for v in clique) == list(range(cluster.t))
        assert all(len(clique) == k for clique in factor)
        assert all(cluster.has_edge(a, b) for clique in factor for a, b in combinations(clique, 2))


def test_clique_factor_preconditions():
    with pytest.raises(PreconditionError, match="k must be >= 2"):
        clique_factor(complete_cluster(4), 1)
    with pytest.raises(BudgetError):
        clique_factor(complete_cluster(CLIQUE_FACTOR_BUDGET + 1), 3)
    with pytest.raises(PreconditionError, match="does not divide"):
        clique_factor(complete_cluster(7), 3)


K3 = PatternGraph.complete(3)


def test_empty_cluster_graph_has_no_vertices_and_no_copies():
    # no placeholder vertex: the t = 0 cluster graph has 0 vertices
    empty = ClusterGraph(0, {})
    graph = empty.to_simple_graph()
    assert (graph.n, graph.adj, graph.edge_count) == (0, [], 0)
    part = Partition(classes=[], pair_info={}, energy=Fraction(0), epsilon=0.3, p=0.5)
    for k in (2, 3, 4):
        for beta in (0.0, 0.3, 1.0):
            assert trim_min_degree(empty, k, beta) == TrimResult(True, (), ())
        assert clique_factor(empty, k) == []
    for pattern in (K3, PatternGraph.path(2), PatternGraph.cycle(4)):
        assert _cluster_supported_count(SimpleGraph.complete(4), part, empty, pattern) == 0


def test_class_probe_rejects_m_below_one_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the probe drew a sample")

    monkeypatch.setattr(experiments, "sample_class", no_draw)
    for m in (0, -1):
        with pytest.raises(PreconditionError, match=rf"m \(--m\) must be >= 1, got {m}"):
            experiments.probe_copy_free_class(ClassProbeParams(K3, 8, m, 0.75, 1), RngStream(1))


def test_class_probe_part_size_limit_is_the_exhaustive_pair_budget():
    # parts of 16 are judged exhaustively, so the probe takes them; 17 is refused
    assert EXHAUSTIVE_PAIR_BUDGET == 16
    report = experiments.probe_copy_free_class(ClassProbeParams(K3, 16, 200, 0.75, 1), RngStream(1))
    assert report.aggregate["regular_samples"] == 1
    with pytest.raises(PreconditionError, match=r"n \(--n\) must be in \[1, 16\], got 17"):
        experiments.probe_copy_free_class(ClassProbeParams(K3, 17, 200, 0.75, 1), RngStream(1))


#: (record, declared parameter) of every parameter with a declared range, hidden ones included
RANGED_PARAMS = [(record, row) for record in experiments.EXPERIMENTS.values() for row in record.declared() if row.range]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_runner_rejects_an_out_of_range_value_naming_it_before_any_draw(data):
    """Library callers get the CLI's check, of every declared range, flagged or hidden."""
    record, row = data.draw(st.sampled_from(RANGED_PARAMS))
    value = data.draw(out_of_range(row.kind, row.range))

    def no_draw(*args, **kwargs):
        raise AssertionError("a host or class sample was drawn")

    with mock.patch.object(experiments, "gnp", no_draw), mock.patch.object(experiments, "sample_class", no_draw):
        with pytest.raises(PreconditionError, match=rf"^{row.name}\b"):
            getattr(experiments, record.runner)(record(**{row.name: value}), RngStream(1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_replace_with_an_out_of_range_value_raises_naming_it(data):
    """``_replace`` builds its record through the same check as the constructor."""
    record, row = data.draw(st.sampled_from(RANGED_PARAMS))
    value = data.draw(out_of_range(row.kind, row.range))
    with pytest.raises(PreconditionError, match=rf"^{row.name}\b"):
        record()._replace(**{row.name: value})


def test_clique_density_oracle_n_is_a_size_the_oracle_serves():
    assert CliqueDensityParams(oracle_n=GK_BUDGET).oracle_n == GK_BUDGET == 7
    with pytest.raises(PreconditionError, match=r"^oracle_n must be in \[2, 7\], got 8$"):
        CliqueDensityParams(oracle_n=GK_BUDGET + 1)


def test_removal_flags_a_cut_above_the_copy_budget():
    """A bipartite template: the random cut alone holds more copies than the budget admits."""
    report = experiments.run_removal(
        RemovalParams(PatternGraph.cycle(4), 120, 0.15, 0.15, 0.01, trials=1, t0=4, max_t=8), RngStream(1)
    )
    record = report.trials[0]
    copy_budget = Fraction(0.01) * Fraction(0.15) ** 4 * 120**4
    assert record["planted_interior_edges"] == 0
    assert record["copies_before"] == 1834 > copy_budget
    assert record["copies_within_budget"] is False


def test_aes_reads_the_cleaned_graph_pair_counts_from_the_partition(monkeypatch):
    """Cleaning keeps every cluster pair whole, so aes's lift weights and trim deletions are the
    cleaned graph's edge counts between the classes; at this seed the trim drops one of six clusters."""
    seen = {}
    regularize, peel, min_deletion = (
        experiments._regularize, experiments._peel_low_degree, experiments.min_monochromatic_partition
    )

    def recording_regularize(*args):
        seen["part"], seen["cleaned"], stage = regularize(*args)
        return seen["part"], seen["cleaned"], stage

    def recording_peel(*args):
        seen["alive"], seen["removed"], met = peel(*args)
        return seen["alive"], seen["removed"], met

    def recording_min_deletion(n, weights, parts, below):
        seen["weights"] = weights
        return min_deletion(n, weights, parts, below)

    monkeypatch.setattr(experiments, "_regularize", recording_regularize)
    monkeypatch.setattr(experiments, "_peel_low_degree", recording_peel)
    monkeypatch.setattr(experiments, "min_monochromatic_partition", recording_min_deletion)
    record = experiments.run_partite_stability(
        AesParams(K3, 140, 0.5, 0.25, trials=1, perturb_fraction=0.1), RngStream(3)
    ).trials[0]
    graph, cluster = seen["cleaned"].graph, seen["cleaned"].cluster
    masks = [bitmask_of(c) for c in seen["part"].classes]
    kept = list(iter_bits(seen["alive"]))
    assert seen["removed"] and kept != list(range(len(kept)))
    assert seen["weights"] == {
        (a, b): graph.edges_between(masks[kept[a]], masks[kept[b]])
        for a in range(len(kept))
        for b in range(a + 1, len(kept))
        if cluster.has_edge(kept[a], kept[b])
    }
    removed = set(seen["removed"])
    assert record["deleted_trim"] == sum(
        graph.edges_between(masks[a], masks[b]) for a, b in cluster.edges if a in removed or b in removed
    ) > 0


def test_partite_cut_lists_the_interior_edges_in_permuted_edge_order():
    host = gnp(150, 0.2, RngStream(31))
    side = [v % 3 for v in range(150)]
    cut, (u, v) = _partite_cut(host, side, RngStream(32))
    assert cut == host.keep_edges_between(side)
    interior = [(a, b) for a, b in host.edges() if side[a] == side[b]]
    order = RngStream(32).np_rng().permutation(len(interior))
    assert list(zip(u.tolist(), v.tolist())) == [interior[i] for i in order.tolist()]


def test_template_free_decision_matches_the_search_on_a_cut_and_a_planted_triangle():
    # removal's final check and aes's soundness cross-check: a complete
    # template is decided by counting cliques, any other by the search
    n = 160
    host = gnp(n, 0.1, RngStream(33))
    side = [v % 2 for v in range(n)]
    cut, _ = _partite_cut(host, side, RngStream(34))
    # a same-side pair with exactly one common neighbour closes one triangle
    u, w = next((a, b) for a in range(0, n, 2) for b in range(a + 2, n, 2) if (cut.adj[a] & cut.adj[b]).bit_count() == 1)
    planted = SimpleGraph(n, list(cut.adj))
    planted.adj[u] |= 1 << w
    planted.adj[w] |= 1 << u
    assert count_kcliques(cut, 3) == 0 and count_kcliques(planted, 3) == 1
    for graph, free in ((cut, True), (planted, False)):
        for pattern in (PatternGraph.complete(3), PatternGraph.complete(4), PatternGraph.cycle(5), PatternGraph.cycle(4)):
            assert _template_free(graph, pattern) == (find_embedding(graph, pattern) is None)
        assert _template_free(graph, PatternGraph.complete(3)) == free


def test_counting_skips_a_trial_below_the_density_floor_and_flags_p_below_the_threshold():
    """At d = 1 the first three slices have a pair below d p n^2 = 97.2 edges, so those trials are skipped
    before any verdict and the fourth is the one effective trial; at d = 10 every trial is skipped, nothing
    is tested, and the run raises a budget error instead of reporting a failed check.  At p = 0.05 <
    N^(-1/m2(K3)) = 60^(-1/2) the report says the statement is only expected above that scale."""
    mixed = experiments.run_counting(CountingParams(K3, 60, 0.3, d=1, trials=4), RngStream(1))
    assert mixed.trials[0] == {
        "edges": '{"1-2": 91, "1-3": 97, "2-3": 107}',
        "skipped": True,
        "skip_reason": "pairs below d p n^2: ['1-2', '1-3']",
        "in_band": None,
    }
    assert [record["skipped"] for record in mixed.trials] == [True, True, True, False]
    assert mixed.aggregate["effective_trials"] == 1 and mixed.aggregate["passed"] is True
    assert len(mixed.caveats) == 1
    with pytest.raises(RejectionBudgetError, match=r"^none of the 1 draws has every pair at or above the d p n\^2 = 972 "):
        experiments.run_counting(CountingParams(K3, 60, 0.3, d=10, trials=1), RngStream(1))
    sparse = experiments.run_counting(CountingParams(K3, 60, 0.05, trials=1), RngStream(1))
    assert sparse.caveats[1] == (
        f"p = 0.05 is below N^(-1/m2) = {60 ** -0.5:.6f}; the counting statement is only expected to hold above"
        " that scale"
    )
    record = sparse.trials[0]
    assert record["skipped"] is False and record["in_band"] is False
    assert (record["count"], record["expected"], record["refuted_pairs"]) == ("1", "391/486", 3)


@pytest.mark.parametrize("n", [5, EXHAUSTIVE_PAIR_BUDGET, EXHAUSTIVE_PAIR_BUDGET + 1, 30])
@settings(max_examples=12, deadline=None)
@given(
    pattern=patterns(max_k=4),
    spare=st.integers(0, 20),
    p=st.sampled_from([0.1, 0.3, 0.7]),
    epsilon=st.sampled_from([0.25, 0.5]),
    seed=st.integers(0, 10**6),
)
def test_host_pairs_judge_as_the_slice_pairs_they_were_cut_from(n, pattern, spare, p, epsilon, seed):
    """``run_counting`` judges slice pair i-j on the host as ``VertexSetPair(classes[i], classes[j])``: on either
    side of the exhaustive budget, each verdict is that of ``slice.pair_subgraph(i, j)`` from the same stream,
    its witness the slice's read through the rank of each vertex in its class."""
    host = gnp(pattern.k * n + spare, p, RngStream(seed, (0,)))
    perm = [int(v) for v in RngStream(seed, (1,)).np_rng().permutation(host.n)]
    classes = [perm[i * n : (i + 1) * n] for i in range(pattern.k)]
    slice_graph = induced_multipartite(host, classes, pattern)
    pairs = pattern.sorted_edges()
    streams = [RngStream(seed, (2, index)) for index in range(len(pairs))]
    got = pair_verdicts(host, [VertexSetPair(classes[i], classes[j]) for i, j in pairs], epsilon, p, streams, 4)
    for (i, j), stream, verdict in zip(pairs, streams, got):
        want = pair_verdict(*slice_graph.pair_subgraph(i, j), epsilon, p, stream, 4)
        assert (verdict.status, verdict.deviation) == (want.status, want.deviation)
        rank_u, rank_v = ({v: r for r, v in enumerate(sorted(classes[c]))} for c in (i, j))
        witness = verdict.witness and VertexSetPair(
            tuple(rank_u[u] for u in verdict.witness.U), tuple(n + rank_v[v] for v in verdict.witness.V)
        )
        assert witness == want.witness


def test_aes_perturbation_re_adds_interior_edges_that_close_no_copy(monkeypatch):
    """With perturb_fraction 0.2 the subgraph is the f = 0 cut plus int(0.2 * interior) interior edges,
    each accepted because it closes no triangle; the cut's own streams are the same at both fractions."""
    subgraphs = []
    regularize = experiments._regularize

    def recording_regularize(graph, *args):
        subgraphs.append(graph)
        return regularize(graph, *args)

    monkeypatch.setattr(experiments, "_regularize", recording_regularize)
    records = [
        experiments.run_partite_stability(
            AesParams(K3, 200, 0.05, trials=1, perturb_fraction=fraction), RngStream(3)
        ).trials[0]
        for fraction in (0.0, 0.2)
    ]
    assert [record["subgraph_edges"] for record in records] == [469, 563]
    cut, perturbed = subgraphs
    assert all(row & ~big == 0 for row, big in zip(cut.adj, perturbed.adj))
    interior = gnp(200, 0.05, RngStream(3).child(0).child(0)).edge_count - cut.edge_count
    assert perturbed.edge_count - cut.edge_count == int(0.2 * interior) == 94
    assert count_kcliques(cut, 3) == count_kcliques(perturbed, 3) == 0
    assert records[1]["cluster_template_free"] is True


def test_clique_density_zero_region_skips_the_oracle_and_rho_one_keeps_the_host(monkeypatch):
    """At rho <= 1 - 1/(k-1) g_hat is 0 without the oracle, so the bound is -eps p^3 C(N, 3); at rho = 1
    on a host with at most p C(N, 2) edges the subgraph is the host itself."""

    def no_oracle(*args):
        raise AssertionError("gk_bruteforce called in the zero region")

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "gk_bruteforce", no_oracle)
        zero = experiments.run_clique_density(CliqueDensityParams(3, 60, 0.3, Fraction(1, 2), trials=1), RngStream(1))
    assert zero.params["g_hat"] == "0"
    record = zero.trials[0]
    assert record["bound"] == float(-Fraction(0.25) * Fraction(0.3) ** 3 * math.comb(60, 3)) < 0
    assert record["subgraph_edges"] == 266 and record["count_meets_bound"] and record["estimate_meets_bound"]
    whole = experiments.run_clique_density(CliqueDensityParams(3, 60, 0.3, Fraction(1), trials=1), RngStream(1))
    host = gnp(60, 0.3, RngStream(1).child(0).child(0))
    assert host.edge_count == 519 <= math.ceil(0.3 * 60 * 59 / 2)
    record = whole.trials[0]
    assert whole.params["g_hat"] == "1"
    assert record["subgraph_edges"] == host.edge_count
    assert record["true_count"] == count_kcliques(host, 3) == 846
