"""2-density, balance classification, chromatic number."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings

from reglab.errors import BudgetError, PreconditionError
from reglab.graphs import PatternGraph
from reglab.patterns import chromatic_number, two_density

from helpers import naive_m2, naive_strictly_balanced, patterns, time_limit


def test_two_density_known_values():
    assert two_density(PatternGraph.complete(2)).m2 == Fraction(1, 2)
    for k in range(3, 7):
        assert two_density(PatternGraph.complete(k)).m2 == Fraction(k + 1, 2)
    for length in range(4, 8):
        assert two_density(PatternGraph.cycle(length)).m2 == Fraction(length - 1, length - 2)


def test_two_density_c4_brute_force():
    c4 = PatternGraph.cycle(4)
    assert two_density(c4).m2 == naive_m2(c4) == Fraction(3, 2)


def test_two_density_edgeless_rejected():
    with pytest.raises(PreconditionError):
        two_density(PatternGraph(3, frozenset()))


def test_two_density_convention_subset():
    report = two_density(PatternGraph.complete(2))
    assert report.maximizing_subset is None  # single-edge convention value wins
    report4 = two_density(PatternGraph.complete(4))
    assert report4.maximizing_subset == (0, 1, 2, 3)
    edges = report4.maximizing_subset
    assert report4.m2 == Fraction(6 - 1, 4 - 2)


def test_strictly_balanced_examples():
    assert two_density(PatternGraph.complete(3)).strictly_balanced
    assert two_density(PatternGraph.cycle(5)).strictly_balanced
    pendant = PatternGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not two_density(pendant).strictly_balanced


def test_chromatic_examples():
    assert chromatic_number(PatternGraph.complete(4)) == 4
    assert chromatic_number(PatternGraph.cycle(5)) == 3
    assert chromatic_number(PatternGraph.path(4)) == 2
    assert chromatic_number(PatternGraph.cycle(6)) == 2


@settings(max_examples=60, deadline=None)
@given(patterns(max_k=7, require_edge=False))
@example(PatternGraph.complete(7))
def test_chromatic_number_is_the_least_c_with_a_proper_colouring(pattern):
    """chi is the least c for which one of the c^k colourings leaves no template edge inside a colour."""

    def colourable(c: int) -> bool:
        colourings = product(range(c), repeat=pattern.k)
        return any(all(colour[a] != colour[b] for a, b in pattern.edges) for colour in colourings)

    assert chromatic_number(pattern) == next(c for c in range(1, pattern.k + 1) if colourable(c))


def test_chromatic_number_of_16_vertex_templates_takes_under_half_a_second():
    """K16 and three random 16-vertex templates, of density 0.3, 0.5 and 0.8, within the search budget."""
    rng = random.Random(16)
    templates = [PatternGraph.complete(16)] + [
        PatternGraph.from_edges(16, [e for e in combinations(range(16), 2) if rng.random() < density])
        for density in (0.3, 0.5, 0.8)
    ]
    found = []
    for template in templates:
        with time_limit(0.5):
            found.append(chromatic_number(template))
    assert found == [16, 4, 5, 8]


def test_chromatic_budget():
    big = PatternGraph.from_edges(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(BudgetError):
        chromatic_number(big)


@settings(max_examples=60, deadline=None)
@given(patterns(max_k=6))
def test_m2_matches_all_subgraph_definition(pattern):
    assert two_density(pattern).m2 == naive_m2(pattern)


@settings(max_examples=40, deadline=None)
@given(patterns(max_k=6))
def test_m2_monotone_under_edge_subsets(pattern):
    value = two_density(pattern).m2
    edges = sorted(pattern.edges)
    for drop in range(len(edges)):
        sub_edges = edges[:drop] + edges[drop + 1 :]
        if not sub_edges:
            continue
        sub = PatternGraph.from_edges(pattern.k, sub_edges)
        assert two_density(sub).m2 <= value


@settings(max_examples=40, deadline=None)
@given(patterns(max_k=6))
def test_degree_two_forces_m2_at_least_one(pattern):
    if any(len(pattern.neighbors(v)) >= 2 for v in range(pattern.k)):
        assert two_density(pattern).m2 >= 1


@settings(max_examples=25, deadline=None)
@given(patterns(max_k=5))
def test_strict_balance_matches_literal_definition(pattern):
    assert two_density(pattern).strictly_balanced == naive_strictly_balanced(pattern)


@settings(max_examples=40, deadline=None)
@given(patterns(max_k=6))
def test_strictly_balanced_implies_balanced(pattern):
    report = two_density(pattern)
    if report.strictly_balanced:
        assert report.balanced


def test_density_report_json():
    report = two_density(PatternGraph.complete(4))
    text = report.to_json()
    assert '"m2": "5/2"' in text and '"chromatic_number": 4' in text
