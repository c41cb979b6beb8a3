"""Desk-scale toolkit for sparse graph regularity.

Graph and template types, pair-regularity checking and refutation, sparse
regular partitions with cleaning and cluster graphs, exact canonical-copy
counting, seeded random graph classes with exposure schedules, and
statistical experiment pipelines over all of it.
"""

from .counting import CountResult, canonical_count, constrained_count, gk_bruteforce
from .errors import BudgetError, PreconditionError, RejectionBudgetError, SoundnessError
from .graphs import (
    MultipartiteGraph,
    PatternGraph,
    SimpleGraph,
    VertexSetPair,
    induced_multipartite,
    min_degree,
    pair_density,
)
from .partition import (
    ClusterGraph,
    Partition,
    clean_partition,
    sparse_regular_partition,
    trim_min_degree,
)
from .patterns import DensityReport, chromatic_number, two_density
from .randgraph import ExposureSchedule, RngStream, exposure_schedule, gnp, sample_class
from .regularity import RegularityVerdict, check_lower_regular, pair_verdict

__all__ = [
    "BudgetError",
    "ClusterGraph",
    "CountResult",
    "DensityReport",
    "ExposureSchedule",
    "MultipartiteGraph",
    "Partition",
    "PatternGraph",
    "PreconditionError",
    "RegularityVerdict",
    "RejectionBudgetError",
    "RngStream",
    "SimpleGraph",
    "SoundnessError",
    "VertexSetPair",
    "canonical_count",
    "check_lower_regular",
    "chromatic_number",
    "clean_partition",
    "constrained_count",
    "exposure_schedule",
    "gk_bruteforce",
    "gnp",
    "induced_multipartite",
    "min_degree",
    "pair_density",
    "pair_verdict",
    "sample_class",
    "sparse_regular_partition",
    "trim_min_degree",
    "two_density",
]
