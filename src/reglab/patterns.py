"""Structural analysis of template graphs: 2-density, balance, chromatic number.

The 2-density of a template H is the maximum of (e' - 1) / (v' - 2) over
subgraphs with at least three vertices, with the single-edge convention
m2(K2) = 1/2.  It controls the edge-probability threshold p ~ n^(-1/m2)
at which sparse counting statements become non-vacuous, so the values
here must be exact rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import BudgetError, PreconditionError
from .graphs import PatternGraph, min_monochromatic_partition

CHROMATIC_BUDGET = 16


@dataclass(frozen=True)
class DensityReport:
    """2-density of a template together with the witnessing vertex subset.

    ``maximizing_subset`` is ``None`` only when the single-edge convention
    value 1/2 wins (no subset with >= 3 vertices attains more).
    """

    m2: Fraction
    maximizing_subset: tuple[int, ...] | None
    balanced: bool
    strictly_balanced: bool
    chromatic_number: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "m2": str(self.m2),
                "maximizing_subset": (
                    [v + 1 for v in self.maximizing_subset]
                    if self.maximizing_subset is not None
                    else None
                ),
                "balanced": self.balanced,
                "strictly_balanced": self.strictly_balanced,
                "chromatic_number": self.chromatic_number,
            }
        )


def _subset_edges(pattern: PatternGraph, subset: tuple[int, ...]) -> int:
    s = set(subset)
    return sum(1 for a, b in pattern.edges if a in s and b in s)


def _subset_values(pattern: PatternGraph):
    """Yield ((e' - 1) / (v' - 2), subset) over vertex subsets with >= 3 vertices."""
    for size in range(3, pattern.k + 1):
        for subset in combinations(range(pattern.k), size):
            yield Fraction(_subset_edges(pattern, subset) - 1, size - 2), subset


def two_density(pattern: PatternGraph) -> DensityReport:
    """Exact 2-density report for a template with at least one edge.

    Maximization runs over vertex subsets only; adding edges on a fixed
    vertex set never decreases (e - 1) / (v - 2), so induced subgraphs
    suffice (cross-checked against the all-subgraphs definition in tests).
    Ties break toward the smallest subset, then lexicographically.
    """
    if pattern.edge_count == 0:
        raise PreconditionError("2-density is undefined for edgeless templates")
    best = Fraction(1, 2)
    best_subset: tuple[int, ...] | None = None
    proper = Fraction(1, 2)  # the largest value of a proper subgraph, a single edge among them
    for value, subset in _subset_values(pattern):
        if value > best:
            best, best_subset = value, subset
        if len(subset) < pattern.k:
            proper = max(proper, value)
    if pattern.k < 3:
        balanced = strictly = True  # single-edge convention: no proper subgraph to compare
    else:
        full = Fraction(pattern.edge_count - 1, pattern.k - 2)
        balanced = full == best
        strictly = balanced and proper < full
    return DensityReport(
        m2=best,
        maximizing_subset=best_subset,
        balanced=balanced,
        strictly_balanced=strictly,
        chromatic_number=chromatic_number(pattern),
    )


def chromatic_number(pattern: PatternGraph) -> int:
    """Exact chromatic number: the least c, from the greedy clique bound up, with c parts free of template edges.

    The parts come from :func:`reglab.graphs.min_monochromatic_partition`, with unit edge weights and ``below`` 1.
    """
    if pattern.k > CHROMATIC_BUDGET:
        raise BudgetError(
            f"chromatic number search budget is {CHROMATIC_BUDGET} vertices, got {pattern.k}"
        )
    if pattern.edge_count == 0:
        return 1
    unit = dict.fromkeys(pattern.edges, 1)
    return next(
        c
        for c in range(max(2, _greedy_clique(pattern)), pattern.k + 1)
        if min_monochromatic_partition(pattern.k, unit, c, 1)[0] is not None
    )


def _greedy_clique(pattern: PatternGraph) -> int:
    best = 1
    for start in range(pattern.k):
        clique = [start]
        for v in range(pattern.k):
            if v != start and all(v in pattern.neighbors(u) for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best
