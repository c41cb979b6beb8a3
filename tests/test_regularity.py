"""Pair regularity checking and refutation."""

import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab import regularity
from reglab.errors import BudgetError, PreconditionError, SoundnessError
from reglab.graphs import SimpleGraph, VertexSetPair, pair_density
from reglab.partition import evaluate_partition
from reglab.randgraph import RngStream, gnp
from reglab.regularity import (
    CERTIFIED,
    EXHAUSTIVE_PAIR_BUDGET,
    REFUTED,
    UNDECIDED,
    check_lower_regular,
    check_regular_exhaustive,
    pair_verdict,
    pair_verdicts,
    refute_regular_sampled,
    subset_floor,
)

from helpers import (
    full_quantifier_regular,
    loop_check_lower_regular_exhaustive,
    loop_check_lower_regular_sampled,
    loop_check_regular_exhaustive,
    loop_refute_regular_sampled,
)


def bipartite(n_u: int, n_v: int, edges) -> tuple[SimpleGraph, VertexSetPair]:
    g = SimpleGraph.from_edges(n_u + n_v, [(u, n_u + v) for u, v in edges])
    return g, VertexSetPair(tuple(range(n_u)), tuple(range(n_u, n_u + n_v)))


def random_pair(n_u: int, n_v: int, density: float, stream: RngStream):
    gen = stream.np_rng()
    edges = [(u, v) for u in range(n_u) for v in range(n_v) if gen.random() < density]
    return bipartite(n_u, n_v, edges)


def test_complete_pair_certified():
    g, pair = bipartite(4, 4, [(u, v) for u in range(4) for v in range(4)])
    assert check_regular_exhaustive(g, pair, 0.25, 1.0).status == CERTIFIED


def test_matching_refuted_with_maximal_witness():
    g, pair = bipartite(4, 4, [(u, u) for u in range(4)])
    verdict = check_regular_exhaustive(g, pair, 0.25, 1.0)
    assert verdict.status == REFUTED
    assert verdict.deviation == Fraction(3, 4)
    assert len(verdict.witness.U) == 1 and len(verdict.witness.V) == 1


def test_empty_pair_certified():
    g, pair = bipartite(4, 4, [])
    assert check_regular_exhaustive(g, pair, 0.25, 1.0).status == CERTIFIED


def test_exhaustive_budget_error():
    g, pair = bipartite(20, 20, [])
    with pytest.raises(BudgetError):
        check_regular_exhaustive(g, pair, 0.25, 1.0)


def test_boundary_equality_is_regular():
    # perfect matching on 2+2: d = 1/2 and singleton pairs deviate by exactly
    # 1/2, which equals eps * p at eps = 1/2, p = 1: non-strict, so certified
    g, pair = bipartite(2, 2, [(0, 0), (1, 1)])
    assert check_regular_exhaustive(g, pair, 0.5, 1.0).status == CERTIFIED
    # any smaller threshold flips it
    assert check_regular_exhaustive(g, pair, 0.5, 0.99).status == REFUTED


def test_refuter_never_certifies_and_is_sound():
    g, pair = bipartite(4, 4, [(u, v) for u in range(4) for v in range(4)])
    verdict = refute_regular_sampled(g, pair, 0.25, 1.0, trials=16, rng=RngStream(5))
    assert verdict.status == UNDECIDED
    gm, pm = bipartite(4, 4, [(u, u) for u in range(4)])
    refuted = refute_regular_sampled(gm, pm, 0.25, 1.0, trials=16, rng=RngStream(5))
    assert refuted.status == REFUTED
    d_pair = pair_density(gm, pm)
    assert abs(pair_density(gm, refuted.witness) - d_pair) == refuted.deviation
    assert refuted.deviation > Fraction(1, 4)


def planted_block_pair(n: int, epsilon: float, bump: float, stream: RngStream):
    """Random pair with one dense eps*n by eps*n block of density d + bump."""
    gen = stream.np_rng()
    base = 0.5
    s = subset_floor(epsilon, n)
    edges = []
    for u in range(n):
        for v in range(n):
            prob = base + bump if u < s and v < s else base
            if gen.random() < prob:
                edges.append((u, v))
    return bipartite(n, n, edges)


def test_refuter_finds_planted_block():
    # planted density bump of 2 eps p; guided candidates should find it reliably
    epsilon, p = 0.25, 1.0
    hits = 0
    seeds = 50
    for seed in range(seeds):
        g, pair = planted_block_pair(64, epsilon, 2 * epsilon * p * 0.5, RngStream(1000 + seed))
        verdict = refute_regular_sampled(
            g, pair, epsilon, 0.5, trials=int(10 / epsilon**2), rng=RngStream(2000 + seed)
        )
        hits += verdict.status == REFUTED
    assert hits >= 0.9 * seeds


def test_refuter_leaves_honest_dense_pairs_alone():
    undecided = 0
    for seed in range(12):
        g, pair = random_pair(64, 64, 0.5, RngStream(300 + seed))
        verdict = refute_regular_sampled(
            g, pair, 0.25, 0.5, trials=24, rng=RngStream(400 + seed), guided=False
        )
        undecided += verdict.status == UNDECIDED
    assert undecided >= 10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_size_reduction_matches_full_quantifier(seed):
    stream = RngStream(seed)
    n_u = 4 + seed % 5
    n_v = 4 + (seed // 7) % 5
    g, pair = random_pair(n_u, n_v, 0.4, stream)
    for epsilon in (0.25, 0.5):
        verdict = check_regular_exhaustive(g, pair, epsilon, 0.5)
        assert (verdict.status == CERTIFIED) == full_quantifier_regular(g, pair, epsilon, 0.5)


def test_monotone_in_epsilon():
    # refuted at eps stays refuted at smaller eps when the witness still fits
    gm, pm = bipartite(8, 8, [(u, u) for u in range(8)])
    big = check_regular_exhaustive(gm, pm, 0.25, 1.0)
    assert big.status == REFUTED
    small = check_regular_exhaustive(gm, pm, 0.125, 1.0)
    assert small.status == REFUTED
    assert small.deviation >= big.deviation


def test_lower_regular_examples():
    g, pair = bipartite(4, 4, [(u, v) for u in range(4) for v in range(4)])
    assert check_lower_regular(g, pair, 0.25, 1.0).status == CERTIFIED
    # isolated vertex on the U side: its singleton has density 0
    gi, pi = bipartite(4, 4, [(u, v) for u in range(3) for v in range(4)])
    verdict = check_lower_regular(gi, pi, 0.25, 0.5)
    assert verdict.status == REFUTED
    assert verdict.witness.U == (3,)
    assert verdict.deviation == Fraction(1, 2)


def test_regular_plus_density_implies_lower_regular():
    # (eps, p)-regular with d(U, V) >= (delta + eps) p is (eps, delta p)-lower-regular
    checked = 0
    # structured boundary instance: complete 12 x 12 minus a perfect matching
    g, pair = bipartite(12, 12, [(u, v) for u in range(12) for v in range(12) if u != v])
    assert check_regular_exhaustive(g, pair, 0.25, 1.0).status == CERTIFIED
    delta = float(pair_density(g, pair)) - 0.25
    assert check_lower_regular(g, pair, 0.25, delta).status == CERTIFIED
    # dense random pairs, where exhaustive certification actually happens
    epsilon, p, delta = 0.5, 1.0, 0.4
    for seed in range(40):
        g, pair = random_pair(12, 12, 0.95, RngStream(500 + seed))
        if check_regular_exhaustive(g, pair, epsilon, p).status != CERTIFIED:
            continue
        if pair_density(g, pair) < (delta + epsilon) * p:
            continue
        checked += 1
        assert check_lower_regular(g, pair, epsilon, delta * p).status == CERTIFIED
    assert checked > 0


def scattered_pair(n_u: int, n_v: int, density: float, stream: RngStream):
    """Random graph on n_u + n_v + 3 vertices with U and V interleaved at random positions."""
    gen = stream.np_rng()
    n = n_u + n_v + 3
    order = [int(x) for x in gen.permutation(n)]
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if gen.random() < density]
    return SimpleGraph.from_edges(n, edges), VertexSetPair(tuple(order[:n_u]), tuple(order[n_u : n_u + n_v]))


def interleaved_pair(n_u: int, n_v: int, density: float, stream: RngStream):
    """Random graph on n_u + n_v + 3 vertices with U and V alternating in vertex order, then the longer side's rest."""
    gen = stream.np_rng()
    n = n_u + n_v + 3
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if gen.random() < density]
    both = 2 * min(n_u, n_v)
    rest = range(both, both + abs(n_u - n_v))
    u_side = list(range(0, both, 2)) + (list(rest) if n_u > n_v else [])
    v_side = list(range(1, both, 2)) + (list(rest) if n_v > n_u else [])
    return SimpleGraph.from_edges(n, edges), VertexSetPair(tuple(u_side), tuple(v_side))


def as_triple(verdict):
    return verdict.status, verdict.deviation, verdict.witness


SHAPES = [(1, 1), (1, 7), (7, 1), (5, 9), (9, 5), (12, 12), (3, 16), (13, 2)]
EPSILONS = [0.1, 0.3, 0.5, 1.0, 2.0]


@pytest.mark.parametrize("n_u,n_v", SHAPES)
def test_vectorised_scan_matches_loop_reference(n_u, n_v):
    checked = 0
    for seed in range(4):
        g, pair = scattered_pair(n_u, n_v, 0.15 + 0.2 * seed, RngStream(7000 + 31 * n_u + n_v + seed))
        for epsilon in EPSILONS:
            # p spans clear refutation, clear certification, and eps * p at the
            # reference's own maximum deviation (just above, on, just below)
            _, top, _ = loop_check_regular_exhaustive(g, pair, epsilon, 1.0)
            ps = [0.05, 0.5, 1.0]
            if top:
                at = float(top) / epsilon
                ps += [at * (1 - 1e-9), at, at * (1 + 1e-9)]
            for p in ps:
                got = as_triple(check_regular_exhaustive(g, pair, epsilon, p))
                assert got == loop_check_regular_exhaustive(g, pair, epsilon, p)
                checked += 1
            for d in (0.0, 0.1, 0.3, 0.6, 0.9):
                got = as_triple(check_lower_regular(g, pair, epsilon, d))
                assert got == loop_check_lower_regular_exhaustive(g, pair, epsilon, d)
    assert checked >= len(EPSILONS) * 4 * 3


def test_vectorised_scan_full_completion_side():
    # eps = 1 makes s_v = |V|: both completions are all of V
    g, pair = scattered_pair(6, 4, 0.5, RngStream(77))
    for p in (0.01, 0.2, 1.0):
        assert as_triple(check_regular_exhaustive(g, pair, 1.0, p)) == loop_check_regular_exhaustive(g, pair, 1.0, p)
    # eps < 1 with s_v = |V| = 1
    g, pair = scattered_pair(8, 1, 0.5, RngStream(78))
    assert as_triple(check_regular_exhaustive(g, pair, 0.3, 0.1)) == loop_check_regular_exhaustive(g, pair, 0.3, 0.1)


def test_eps_above_one_certifies_with_zero_deviation():
    g, pair = bipartite(4, 4, [(u, u) for u in range(4)])
    assert as_triple(check_regular_exhaustive(g, pair, 2.0, 1.0)) == (CERTIFIED, Fraction(0), None)
    assert as_triple(check_lower_regular(g, pair, 2.0, 0.9)) == (CERTIFIED, Fraction(0), None)



def test_eps_above_one_leaves_the_refuter_undecided_with_zero_deviation():
    # ceil(eps |U|) > |U| admits no witness, and the refuter never certifies
    g, pair = bipartite(4, 4, [(u, u) for u in range(4)])
    for guided in (False, True):
        verdict = refute_regular_sampled(g, pair, 1.5, 1.0, 8, RngStream(3), guided=guided)
        assert as_triple(verdict) == (UNDECIDED, Fraction(0), None)
    n = EXHAUSTIVE_PAIR_BUDGET + 1
    g, pair = bipartite(n, n, [(u, u) for u in range(n)])
    assert as_triple(pair_verdict(g, pair, 1.5, 1.0, RngStream(4))) == (UNDECIDED, Fraction(0), None)

def test_empty_side_is_certified_before_the_budget_is_checked():
    # 0 + 20 vertices is above the budget, but with no U there is nothing to scan
    g, pair = bipartite(0, 20, [])
    assert as_triple(check_regular_exhaustive(g, pair, 0.25, 0.5)) == (CERTIFIED, Fraction(0), None)


def test_eps_above_one_above_the_budget():
    # no subset pair is large enough: the one-sided check certifies without an
    # rng at any size, while the refuter and the policy only leave it undecided
    g, pair = bipartite(20, 20, [(u, v) for u in range(20) for v in range(20) if (u + v) % 3])
    assert as_triple(check_lower_regular(g, pair, 1.5, 0.9)) == (CERTIFIED, Fraction(0), None)
    assert as_triple(refute_regular_sampled(g, pair, 1.5, 0.1, 8, RngStream(5))) == (UNDECIDED, Fraction(0), None)
    assert as_triple(pair_verdict(g, pair, 1.5, 0.1, RngStream(5))) == (UNDECIDED, Fraction(0), None)


def test_a_negative_threshold_refutes_even_a_zero_deviation_with_a_witness():
    # eps * p < 0 admits no regular pair: both sources refute with a re-checked witness
    for n in (4, EXHAUSTIVE_PAIR_BUDGET + 4):
        g, pair = bipartite(n, n, [(u, v) for u in range(n) for v in range(n)])
        for verdict in (
            pair_verdict(g, pair, 0.25, -0.5, RngStream(6)),
            refute_regular_sampled(g, pair, 0.25, -0.5, 4, RngStream(6), guided=False),
        ):
            assert verdict.status == REFUTED and verdict.deviation == 0
            assert pair_density(g, verdict.witness) == 1


def test_regular_pair_with_zero_deviation_certified():
    # complete pair: every completion has density exactly d
    g, pair = bipartite(5, 3, [(u, v) for u in range(5) for v in range(3)])
    assert as_triple(check_regular_exhaustive(g, pair, 0.3, 0.0)) == (CERTIFIED, Fraction(0), None)


def test_exhaustive_refutation_rechecks_its_witness(monkeypatch):
    # a witness rebuilt with the wrong completion no longer reproduces the
    # scanned deviation, and the check must notice instead of reporting it
    g, pair = bipartite(4, 4, [(u, u) for u in range(4)])
    real = regularity._extremal_completion
    monkeypatch.setattr(regularity, "_extremal_completion", lambda w, take, largest: real(w, take, not largest))
    with pytest.raises(SoundnessError):
        check_regular_exhaustive(g, pair, 0.25, 1.0)


def test_lower_regular_refutation_rechecks_its_witness(monkeypatch):
    # the sparsest completion rebuilt as the densest one no longer has the
    # scanned density, and the check must notice instead of reporting it
    g, pair = bipartite(4, 4, [(u, v) for u in range(3) for v in range(4)] + [(3, 0)])
    assert check_lower_regular(g, pair, 0.25, 0.5).witness == VertexSetPair((3,), (5,))
    real = regularity._extremal_completion
    monkeypatch.setattr(regularity, "_extremal_completion", lambda w, take, largest: real(w, take, not largest))
    with pytest.raises(SoundnessError):
        check_lower_regular(g, pair, 0.25, 0.5)


def empty_first_candidate(monkeypatch):
    """Make the batched candidate count report no edges for the first candidate, which has some."""
    real = regularity.set_counts

    def lying(table, members, words):
        counts = real(table, members, words)
        assert counts[0].sum() > 0
        counts[0] = 0
        return counts

    monkeypatch.setattr(regularity, "set_counts", lying)


def test_sampled_refutations_recheck_their_witness(monkeypatch):
    # the re-check recounts the witness on its own; a batched count that
    # went wrong must raise instead of being reported.  The first guided
    # candidate is the full corner of the highest-degree vertices: counted
    # as empty, it ties the real empty corner and wins as the earlier one.
    g, pair = bipartite(20, 20, [(u, v) for u in range(20) for v in range(20) if u >= 5 or v >= 5])
    empty_first_candidate(monkeypatch)
    with pytest.raises(SoundnessError):
        refute_regular_sampled(g, pair, 0.25, 0.1, trials=8, rng=RngStream(3))
    with pytest.raises(SoundnessError):
        check_lower_regular(g, pair, 0.25, 0.9, trials=8, rng=RngStream(3))


def test_lower_regular_sampled_above_the_budget():
    # 20 + 20 vertices take the sampled route: it refutes a planted empty
    # corner but never certifies, and it needs an rng stream
    g, pair = bipartite(20, 20, [(u, v) for u in range(20) for v in range(20) if u >= 5 or v >= 5])
    verdict = check_lower_regular(g, pair, 0.25, 0.5, trials=8, rng=RngStream(4))
    assert verdict.status == REFUTED
    assert verdict.deviation == Fraction(1, 2) - pair_density(g, verdict.witness)
    full, full_pair = bipartite(20, 20, [(u, v) for u in range(20) for v in range(20)])
    assert check_lower_regular(full, full_pair, 0.25, 0.5, trials=8, rng=RngStream(4)).status == UNDECIDED
    with pytest.raises(PreconditionError):
        check_lower_regular(g, pair, 0.25, 0.5)


def test_pair_verdict_is_exhaustive_within_the_budget_and_unguided_sampled_above():
    small, small_pair = scattered_pair(EXHAUSTIVE_PAIR_BUDGET, 5, 0.4, RngStream(81))
    assert pair_verdict(small, small_pair, 0.3, 0.2) == check_regular_exhaustive(small, small_pair, 0.3, 0.2)
    big, big_pair = scattered_pair(EXHAUSTIVE_PAIR_BUDGET + 1, 5, 0.4, RngStream(82))
    got = pair_verdict(big, big_pair, 0.3, 0.2, RngStream(83), trials=12)
    assert got == refute_regular_sampled(big, big_pair, 0.3, 0.2, 12, RngStream(83), guided=False)
    guided = pair_verdict(big, big_pair, 0.3, 0.2, RngStream(83), trials=12, guided=True)
    assert guided == refute_regular_sampled(big, big_pair, 0.3, 0.2, 12, RngStream(83))
    with pytest.raises(PreconditionError):
        pair_verdict(big, big_pair, 0.3, 0.2)


BELOW = st.tuples(st.integers(1, EXHAUSTIVE_PAIR_BUDGET), st.integers(1, EXHAUSTIVE_PAIR_BUDGET))
ABOVE = st.tuples(st.integers(EXHAUSTIVE_PAIR_BUDGET + 1, 24), st.integers(1, 24)).flatmap(
    lambda shape: st.sampled_from([shape, shape[::-1]])
)
#: hosts of at least 131 vertices, whose rows span three uint64 words
MULTIWORD = st.tuples(st.integers(64, 90), st.integers(64, 90))


@pytest.mark.parametrize(
    "shapes, layout",
    [(BELOW, scattered_pair), (ABOVE, scattered_pair), (MULTIWORD, scattered_pair), (MULTIWORD, interleaved_pair)],
    ids=["below_budget", "above_budget", "multiword_scattered", "multiword_interleaved"],
)
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    density=st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    epsilon=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    trials=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_shared_sampled_loop_matches_the_separate_loops(shapes, layout, data, density, epsilon, trials, seed):
    n_u, n_v = data.draw(shapes)
    g, pair = layout(n_u, n_v, density, RngStream(seed))
    for guided in (True, False):
        for p in (0.05, 0.3, 1.0):
            got = as_triple(refute_regular_sampled(g, pair, epsilon, p, trials, RngStream(seed, (1,)), guided))
            assert got == loop_refute_regular_sampled(g, pair, epsilon, p, trials, RngStream(seed, (1,)), guided)
    for d in (0.0, 0.2, 0.5, 0.8, 1.0):
        got = as_triple(check_lower_regular(g, pair, epsilon, d, trials, RngStream(seed, (2,))))
        if n_u <= EXHAUSTIVE_PAIR_BUDGET and n_v <= EXHAUSTIVE_PAIR_BUDGET:
            assert got == loop_check_lower_regular_exhaustive(g, pair, epsilon, d)
        else:
            assert got == loop_check_lower_regular_sampled(g, pair, epsilon, d, trials, RngStream(seed, (2,)))


#: class sizes of a graph of at most 48 vertices: one class above the budget, and three or four classes
#: within it of at least two sizes, so the exhaustive pairs fall into at least two shape groups
CLASS_SIZES = st.tuples(
    st.integers(EXHAUSTIVE_PAIR_BUDGET + 1, 20),
    st.lists(st.integers(1, 7), min_size=3, max_size=4).filter(lambda sizes: len(set(sizes)) > 1),
)


@pytest.mark.parametrize(
    "block_entries", [regularity.SCAN_BLOCK_ENTRIES, 1], ids=["shared_blocks", "one_pair_per_block"]
)
@settings(max_examples=30, deadline=None)
@given(
    sizes=CLASS_SIZES,
    density=st.sampled_from([0.1, 0.4, 0.8]),
    epsilon=st.sampled_from([0.1, 0.3, 0.5, 1.0, 1.5]),
    p=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_pair_verdicts_is_pair_verdict_on_each_pair(block_entries, sizes, density, epsilon, p, seed):
    # every class pair, plus pairs with an empty side within and above the budget, in one call; the
    # pairs with the big class take the sampled route on their own streams
    gen = RngStream(seed).np_rng()
    sizes = [sizes[0], *sizes[1]]
    n = sum(sizes)
    order = [int(v) for v in gen.permutation(n)]
    g = SimpleGraph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if gen.random() < density])
    ends = list(accumulate(sizes, initial=0))
    classes = [tuple(order[a:b]) for a, b in zip(ends, ends[1:])]
    pairs = [VertexSetPair(classes[i], classes[j]) for i, j in combinations(range(len(classes)), 2)]
    pairs += [VertexSetPair((), classes[-1]), VertexSetPair(classes[1], ()), VertexSetPair((), classes[0])]
    shapes = {(len(pair.U), len(pair.V)) for pair in pairs if pair.U and pair.V}
    assert len({shape for shape in shapes if max(shape) <= EXHAUSTIVE_PAIR_BUDGET}) >= 2
    assert any(max(shape) > EXHAUSTIVE_PAIR_BUDGET for shape in shapes)
    rngs = [RngStream(seed, (1, index)) for index in range(len(pairs))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regularity, "SCAN_BLOCK_ENTRIES", block_entries)
        got = [as_triple(verdict) for verdict in pair_verdicts(g, pairs, epsilon, p, rngs, 4)]
    assert got == [as_triple(pair_verdict(g, pair, epsilon, p, rng, 4)) for pair, rng in zip(pairs, rngs)]


def test_one_partition_round_holds_one_scan_block_at_a_time():
    # 20 classes of 16 vertices at eps = 0.5: each of the 190 pairs scans C(16, 8) = 12,870 subsets, one
    # pair per block.  The block's weights, their sorted copy and the round's own arrays stay within three
    # blocks; a scan that kept every block's weights until the end of the round would hold 190.
    t, size = 20, 16
    block_bytes = 8 * max(regularity.SCAN_BLOCK_ENTRIES, math.comb(size, size // 2) * size)
    g = gnp(t * size, 0.5, RngStream(91))
    classes = [list(range(i * size, (i + 1) * size)) for i in range(t)]
    regularity._subset_rows(size, size // 2)  # the cached subset matrix is not part of a block
    tracemalloc.start()
    try:
        part = evaluate_partition(g, classes, 0.5, 0.5, RngStream(92))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(part.pair_info) == 190
    assert peak <= 3 * block_bytes
