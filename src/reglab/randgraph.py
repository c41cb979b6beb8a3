"""Seeded random graph generation and exposure schedules.

Reproducibility contract: every randomized routine takes an explicit
:class:`RngStream`.  Substreams are addressed by integer paths and derived
through a fixed 64-bit mixing function, so results depend only on
``(master_seed, path)`` and never on scheduling or worker count.  The
mixing function is an implementation constant pinned by test vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RejectionBudgetError
from .graphs import MultipartiteGraph, PatternGraph, SimpleGraph, edges_to_rows, packed_to_rows, standalone_pair

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer; the substream mixing primitive."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_key(master_seed: int, path: tuple[int, ...]) -> int:
    """Fold a substream path into a 64-bit key (counter-mode mixing)."""
    key = mix64((master_seed + _GOLDEN) & _MASK64)
    for element in path:
        key = mix64((key + _GOLDEN) & _MASK64 ^ mix64((element + _GOLDEN) & _MASK64))
    return key


@dataclass(frozen=True)
class RngStream:
    """Address of an independent random substream.

    ``child(i, j, ...)`` extends the path; distinct paths give streams that
    are independent for experimental purposes.  Each leaf stream should be
    consumed by exactly one sampling routine.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def child(self, *elements: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + elements)

    @property
    def key(self) -> int:
        return derive_key(self.master_seed, self.path)

    def np_rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.key))


@dataclass(frozen=True)
class ExposureSchedule:
    """Per-round probabilities p_1..p_R with geometric growth ratio L.

    The rounds satisfy prod(1 - p_s) = 1 - p, so the union of R independent
    p_s-random subgraphs of a host has the same distribution as a single
    p-random subgraph.
    """

    p: float
    rounds: int
    ratio: float
    probabilities: tuple[float, ...]

    def reconstruction_error(self) -> float:
        prod = 1.0
        for q in self.probabilities:
            prod *= 1.0 - q
        return abs((1.0 - self.p) - prod)


def exposure_schedule(p: float, rounds: int, ratio: float) -> ExposureSchedule:
    """Solve for p_1 with p_{s+1} = ratio * p_s and prod(1 - p_s) = 1 - p.

    Found by bisection on the strictly monotone map
    p_1 -> 1 - prod_s(1 - ratio^(s-1) p_1), to absolute precision 1e-14.
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError(f"p must be in (0, 1), got {p}")
    if rounds < 1:
        raise PreconditionError("rounds must be >= 1")
    if not 1.0 <= ratio < math.inf:
        raise PreconditionError(f"growth ratio must be finite and >= 1, got {ratio}")
    if rounds == 1:
        return ExposureSchedule(p, 1, ratio, (p,))

    try:
        factors = [ratio**s for s in range(rounds)]
    except OverflowError:
        raise PreconditionError(
            f"ratio^(rounds - 1) overflows at ratio = {ratio}, rounds = {rounds}"
        ) from None

    def union_prob(p1: float) -> float:
        prod = 1.0
        for f in factors:
            prod *= 1.0 - f * p1
        return 1.0 - prod

    hi = 1.0 / factors[-1]  # largest p1 keeping every round's probability <= 1
    if union_prob(hi) < p:
        raise PreconditionError(
            f"no feasible schedule: even p_R = 1 reaches only {union_prob(hi):.6f} < p = {p}"
        )
    lo = 0.0
    while True:  # bisect to the last representable bit (well below 1e-14)
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if union_prob(mid) < p:
            lo = mid
        else:
            hi = mid
    p1 = hi
    probs = [p1]
    for _ in range(rounds - 1):
        probs.append(probs[-1] * ratio)
    return ExposureSchedule(p, rounds, ratio, tuple(probs))


#: Rows of the upper triangle ``gnp`` unpacks at once; a multiple of 8, so
#: that a block's mirrored columns start on a byte boundary.
_GNP_BLOCK_ROWS = 128


def gnp(n: int, p: float, rng: RngStream) -> SimpleGraph:
    """Erdos-Renyi graph: each unordered pair present independently with probability p.

    Stream contract: the generator of ``rng`` yields one ``random()`` double
    per unordered pair, in row-major upper-triangle order (01, 02, ...,
    0(n-1), 12, ...), and the pair is an edge iff its double is below p.
    The doubles are drawn one row at a time; a PCG64 generator fills its
    output sequentially, so this is the graph a single draw of n(n-1)/2
    doubles gives.  Working memory is one packed n x ceil(n/8)-byte
    adjacency matrix plus one block of ``_GNP_BLOCK_ROWS`` x n booleans; no
    n x n array is built.
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"p must be in [0, 1], got {p}")
    if n <= 0:
        raise PreconditionError("vertex count must be positive")
    if p == 0.0:
        return SimpleGraph.empty(n)
    if p == 1.0:
        return SimpleGraph.complete(n)
    gen = rng.np_rng()
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    for start in range(0, n - 1, _GNP_BLOCK_ROWS):
        stop = min(start + _GNP_BLOCK_ROWS, n - 1)
        block = np.zeros((stop - start, n), dtype=bool)
        for u in range(start, stop):
            block[u - start, u + 1 :] = gen.random(n - 1 - u) < p
        packed[start:stop] |= np.packbits(block, axis=1, bitorder="little")
        # mirror: bit u of row v for every edge uv of the block, u < v
        mirror = np.packbits(np.ascontiguousarray(block.T), axis=1, bitorder="little")
        packed[:, start // 8 : start // 8 + mirror.shape[1]] |= mirror
    return SimpleGraph(n, packed_to_rows(packed))


def random_bipartite_rows(n: int, m: int, gen: np.random.Generator) -> list[int]:
    """Uniform m-subset of the n*n bipartite slots, as the bitset rows of the first side."""
    u, v = np.divmod(gen.choice(n * n, size=m, replace=False), n)
    return edges_to_rows(n, n, u, v)


def sample_class(
    pattern: PatternGraph,
    n: int,
    m: int,
    p: float,
    epsilon: float,
    rng: RngStream,
    mode: str = "raw",
    max_attempts: int = 10_000,
) -> MultipartiteGraph:
    """Sample a pattern-shaped multipartite graph with exactly m edges per pair.

    Every pair is a uniformly random m-edge bipartite graph.  Mode
    ``rejection`` re-draws any pair that ``regularity.pair_verdict`` refutes
    (with 32 guided refuter trials above the exhaustive budget) until the
    pair is not refuted; mode ``raw`` skips the filter.
    """
    from .regularity import REFUTED, pair_verdict

    if m > n * n:
        raise PreconditionError(f"m = {m} exceeds the n^2 = {n * n} available slots")
    if mode not in ("raw", "rejection"):
        raise PreconditionError(f"unknown mode {mode!r}")

    rows: dict[tuple[int, int], list[int]] = {}
    for pair_index, (i, j) in enumerate(pattern.sorted_edges()):
        pair_stream = rng.child(pair_index)
        attempt = 0
        while True:
            gen = pair_stream.child(attempt).np_rng()
            fwd = random_bipartite_rows(n, m, gen)
            if mode == "raw":
                break
            pair_graph, sides = standalone_pair(n, fwd)
            verdict = pair_verdict(
                pair_graph, sides, epsilon, p, pair_stream.child(attempt, 1), trials=32, guided=True
            )
            if verdict.status != REFUTED:
                break
            attempt += 1
            if attempt >= max_attempts:
                raise RejectionBudgetError(
                    f"pair {(i + 1, j + 1)} rejected {attempt} consecutive draws "
                    f"(acceptance rate < {1.0 / max_attempts:.0e})"
                )
        rows[(i, j)] = fwd
    return MultipartiteGraph(pattern, n, rows)
