"""Sparse regular partitions by energy increment, cleaning, and cluster graphs.

The partitioner runs the standard refinement loop: compute pair verdicts,
stop once at most eps * t^2 pairs carry a refutation, otherwise split every
class by the witness sets touching it and re-equalize.  Certification above
the exhaustive budget is sampled refutation only, so at scale "regular"
means "not refuted after the configured trials" and every downstream report
must repeat that caveat.

A refinement round asks one question many thousand times: how many
neighbours does vertex v have in vertex set S?  The host rows are packed
with ``graphs.rows_to_words`` into a table of n + 1 rows of ceil(n / 64)
uint64 words, once per ``evaluate_partition`` call and once per
``sparse_regular_partition`` call for the splits; row n is empty and pads
ragged vertex lists.  The count kernel, ``graphs.set_counts`` (shared with
the sampled refuter of :mod:`reglab.regularity`), takes a batch of
(vertex, set) questions as an index array of vertices per set and one row
of words per set (``graphs.set_words``), gathers the vertices' rows, ANDs
each with its set's words and sums ``np.bitwise_count`` over the words.
Every count of a round comes from it:

* ``evaluate_partition`` builds the n x t vertex-by-class count matrix once
  and reads every pair's edge count, and so the energy, from it;
* ``_split_by_best_probe`` runs the power iteration of every refuted
  (pair, side) job of the round together, one batched count per step, and
  scores all probes in one more;
* ``_equalize_affinity`` counts each atom once and then keeps the
  vertex-by-class counts and each class's internal edge count up to date
  as vertices move.

Exactness.  Counts are integers summed in int64, far from overflow.  Otsu
cuts compare between-class variances num^2 / (i (s - i)) in float64 with
exact int64 numerators, and donor keys |a / s - d| - |a' / s' - d'| in
float64; floats only narrow the choice, and every candidate within
``_NEAR_TIE`` of the best (a relative margin for the variances, which
carry a relative error of a few units of 2^-53, and an absolute one for
the keys, whose absolute error is below 1e-15) is compared again as an
exact rational, with the same tie rules (cut nearest the middle, then the
lower; least vertex).  So every decision equals the one that exact
``Fraction`` arithmetic vertex by vertex makes, and reports are unchanged.

Memory.  Besides the table (n^2 / 8 bytes, the host's own size) the round
holds the n x t count matrix, arrays of (jobs x largest class) entries for
the split, a (jobs x n) bool scratch while it builds set words, and gather
temporaries of at most ``graphs.COUNT_CHUNK_WORDS`` words (or one row);
never an n x n array of counts, nor a gather of jobs x class size x n
entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import PreconditionError, SoundnessError
from .graphs import (
    SimpleGraph,
    VertexSetPair,
    _peel_low_degree,
    bitmask_of,
    iter_bits,
    rows_to_words,
    set_counts,
    set_words,
)
from .randgraph import RngStream
from .regularity import REFUTED, RegularityVerdict, pair_verdicts


@dataclass(frozen=True)
class PairInfo:
    """A pair's edge count and verdict; its density is the count over the product of the class sizes."""

    edges: int
    verdict: RegularityVerdict


@dataclass
class Partition:
    """An equipartition with per-pair edge counts and regularity verdicts."""

    classes: list[list[int]]
    pair_info: dict[tuple[int, int], PairInfo]
    energy: Fraction
    epsilon: float
    p: float
    converged: bool = True
    rounds: int = 0

    @property
    def t(self) -> int:
        return len(self.classes)

    def refuted_pairs(self) -> list[tuple[int, int]]:
        return [key for key, info in self.pair_info.items() if info.verdict.status == REFUTED]

    def membership(self, n: int) -> list[int]:
        out = [-1] * n
        for idx, cls in enumerate(self.classes):
            for v in cls:
                out[v] = idx
        return out

    def to_json(self) -> str:
        n = sum(len(c) for c in self.classes)
        pairs = {
            f"{i}-{j}": {
                "density": str(Fraction(info.edges, len(self.classes[i]) * len(self.classes[j]))),
                "edges": info.edges,
                "status": info.verdict.status,
                "witness_u": list(info.verdict.witness.U) if info.verdict.witness else None,
                "witness_v": list(info.verdict.witness.V) if info.verdict.witness else None,
            }
            for (i, j), info in sorted(self.pair_info.items())
        }
        return json.dumps(
            {
                "membership": self.membership(n),
                "t": self.t,
                "energy": str(self.energy),
                "epsilon": self.epsilon,
                "p": self.p,
                "converged": self.converged,
                "rounds": self.rounds,
                "pairs": pairs,
            }
        )


@dataclass(frozen=True)
class ClusterGraph:
    """Graph on partition classes whose edges are the weighted pairs (i, j), i < j.

    Every key of ``weights`` is a cluster edge, whatever its weight, and
    no other pair is.
    """

    t: int
    weights: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        for i, j in self.weights:
            if not 0 <= i < j < self.t:
                raise PreconditionError(f"bad cluster edge ({i}, {j})")
        for w in self.weights.values():
            if not 0 <= w <= 1:
                raise PreconditionError("cluster weights must lie in [0, 1]")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.weights)

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights.get((min(i, j), max(i, j)), Fraction(0))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.weights

    def degree(self, v: int) -> int:
        return sum(1 for i, j in self.weights if v in (i, j))

    def to_simple_graph(self) -> SimpleGraph:
        """The unweighted cluster graph on t vertices."""
        adj = [0] * self.t
        for i, j in self.weights:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return SimpleGraph(self.t, adj)

    def induced(self, keep: list[int]) -> "ClusterGraph":
        """Relabelled induced subgraph on the kept class indices (sorted order)."""
        keep_sorted = sorted(keep)
        pos = {v: idx for idx, v in enumerate(keep_sorted)}
        weights = {
            (pos[i], pos[j]): w for (i, j), w in self.weights.items() if i in pos and j in pos
        }
        return ClusterGraph(len(keep_sorted), weights)

    def to_json(self) -> str:
        matrix = [["0"] * self.t for _ in range(self.t)]
        for (i, j), w in self.weights.items():
            matrix[i][j] = matrix[j][i] = str(w)
        return json.dumps(
            {"t": self.t, "weights": matrix, "edges": sorted(map(list, self.edges))}
        )


def equipartition_classes(vertices: list[int], t: int) -> list[list[int]]:
    """Split a vertex list into t consecutive chunks with sizes differing by <= 1."""
    n = len(vertices)
    q, r = divmod(n, t)
    classes = []
    offset = 0
    for idx in range(t):
        size = q + 1 if idx < r else q
        classes.append(sorted(vertices[offset : offset + size]))
        offset += size
    return classes


#: Float scores within this margin of the best are compared again exactly
#: (see the module docstring).
_NEAR_TIE = 1e-9


def _row_table(graph: SimpleGraph) -> np.ndarray:
    """The adjacency rows as an (n + 1) x ceil(n / 64) uint64 table; row n, the padding vertex, is empty."""
    return rows_to_words([*graph.adj, 0], graph.n)


def _padded(sets: Sequence[Sequence[int]], pad: int) -> np.ndarray:
    """The vertex sets as the sorted rows of one index array, each padded with ``pad`` at its end."""
    lengths = np.array([len(s) for s in sets], dtype=np.intp)
    out = np.full((len(sets), int(lengths.max(initial=0))), pad, dtype=np.intp)
    row = np.repeat(np.arange(len(sets)), lengths)
    pos = np.arange(len(row)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    out[row, pos] = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=len(row))
    return np.sort(out, axis=1)


def _class_counts(table: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """The n x t matrix whose entry [v, c] is the number of neighbours of v in class c.

    The classes are the rows of ``padded``, as :func:`_padded` writes them
    with the padding vertex n.
    """
    n = len(table) - 1
    words = set_words(padded, table.shape[1], padded < n)
    return np.ascontiguousarray(set_counts(table, np.broadcast_to(np.arange(n), (len(padded), n)), words).T)


def partition_energy(edges: Sequence[Sequence[int]], sizes: Sequence[int], n: int, p: float) -> Fraction:
    """Sum over pairs of (|Vi||Vj| / n^2) (d_ij / p)^2, exact, from the pair edge counts ``edges[i][j]``.

    Each term is e_ij^2 / (|Vi||Vj| n^2 p^2), so the terms are summed as
    integers per value of |Vi||Vj| (class sizes take at most three values
    after equalising) and divided once.
    """
    squares: dict[int, int] = {}
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            size = sizes[i] * sizes[j]
            if size:
                squares[size] = squares.get(size, 0) + edges[i][j] ** 2
    if not squares:
        return Fraction(0)
    return sum(Fraction(s2, size) for size, s2 in squares.items()) / (n * n * Fraction(p) ** 2)


def _check_p(p: float) -> None:
    """Raise ``PreconditionError`` unless 0 < p <= 1."""
    if not 0.0 < p <= 1.0:
        raise PreconditionError(f"p must be in (0, 1], got {p}")


def evaluate_partition(
    graph: SimpleGraph,
    classes: list[list[int]],
    epsilon: float,
    p: float,
    rng: RngStream,
    refuter_trials: int = 32,
    rounds: int = 0,
) -> Partition:
    """Attach pair edge counts, verdicts, and energy to the given classes.

    Every class pair is judged in one ``regularity.pair_verdicts`` call, so
    the exhaustive pairs of the round are scanned in blocks of one shape;
    pair (i, j) above the budget is refuted from its own stream
    ``rng.child(rounds, i, j)``.
    """
    _check_p(p)
    padded = _padded(classes, graph.n)
    counts = _class_counts(_row_table(graph), padded)
    # e(V_i, V_j) sums the counts of V_i's rows; the padding row n adds zero
    edges = np.vstack([counts, np.zeros(len(classes), dtype=np.int64)])[padded].sum(axis=1).tolist()
    t = len(classes)
    keys = [(i, j) for i in range(t) for j in range(i + 1, t)]
    verdicts = pair_verdicts(
        graph,
        [VertexSetPair(tuple(classes[i]), tuple(classes[j])) for i, j in keys],
        epsilon,
        p,
        [rng.child(rounds, i, j) for i, j in keys],
        refuter_trials,
    )
    pair_info = {(i, j): PairInfo(edges=edges[i][j], verdict=verdict) for (i, j), verdict in zip(keys, verdicts)}
    energy = partition_energy(edges, [len(c) for c in classes], graph.n, p)
    return Partition(
        classes=[sorted(c) for c in classes],
        pair_info=pair_info,
        energy=energy,
        epsilon=epsilon,
        p=p,
        rounds=rounds,
    )


def _otsu_cuts(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per row j, the cut 0 < i < sizes[j] maximising the between-class variance of counts[j, :sizes[j]].

    Splitting after position i gives variance i(s - i) (mean_left -
    mean_right)^2 = num^2 / (i(s - i)) with num = prefix_i s - total i.
    Ties go to the cut nearest the middle, then to the lower i.  Each num is
    an exact int64 (|num| <= i (s - i) max count); the variances are
    compared in float64, where each carries a relative error of a few units
    of 2^-53, and every cut within relative ``_NEAR_TIE`` of its row's best
    is compared again by exact rationals, so the cut is the exact one.
    Entries past sizes[j] are ignored; every size must be at least 2.
    """
    if (sizes < 2).any():
        raise PreconditionError("an Otsu cut needs at least two counts")
    sizes = sizes[:, None]
    i = np.arange(1, counts.shape[1])
    prefix = np.cumsum(counts, axis=1)
    total = np.take_along_axis(prefix, sizes - 1, axis=1)
    num = prefix[:, :-1] * sizes - total * i
    valid = i < sizes
    score = np.where(valid, num.astype(np.float64) ** 2 / np.where(valid, i * (sizes - i), 1), -1.0)
    near = valid & (score >= score.max(axis=1, keepdims=True) * (1 - _NEAR_TIE))
    cuts = near.argmax(axis=1) + 1
    for row in np.flatnonzero(near.sum(axis=1) > 1).tolist():
        size, nums = int(sizes[row, 0]), num[row].tolist()
        cuts[row] = max(
            (np.flatnonzero(near[row]) + 1).tolist(),
            key=lambda c: (Fraction(nums[c - 1] ** 2, c * (size - c)), -abs(2 * c - size), -c),
        )
    return cuts


def _otsu_groups(
    table: np.ndarray, members: np.ndarray, sizes: np.ndarray, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of ``members`` ranked by (-count into its set, vertex), with the ranked counts and Otsu cuts.

    Rows of ``members`` are sorted with padding at their ends, as
    :func:`_padded` writes them; padding stays at the end of each ranking.
    """
    counts = set_counts(table, members, words)
    valid = np.arange(members.shape[1]) < sizes[:, None]
    order = np.argsort(np.where(valid, -counts, 1), axis=1, kind="stable")
    ranked_counts = np.take_along_axis(counts, order, axis=1)
    return np.take_along_axis(members, order, axis=1), ranked_counts, _otsu_cuts(ranked_counts, sizes)


def _split_by_best_probe(
    table: np.ndarray,
    classes: list[list[int]],
    pair_info: dict[tuple[int, int], PairInfo],
) -> list[list[int]]:
    """Cut each witnessed class in two at the widest gap of its best probe ranking.

    A refutation witness is only ceil(eps n) vertices, too few to classify
    a whole class reliably, so each witness is first amplified: the
    opposite class is ranked by edge count into the witness's near side
    and Otsu-cut, and the larger-signal group becomes the probe.  The
    class is then ranked by edge count into that expanded probe and cut at
    the position maximizing the between-class variance of the counts, so a
    small foreign minority splits off as its own atom instead of being
    forced into an equal half.  Among the candidate probes a class
    inherits from its refuted pairs, the one separating its top and bottom
    halves most wins.  Untouched classes stay whole.  Every (pair, side)
    job of the round advances together, one batched count per step.
    """
    n = len(table) - 1
    jobs = []
    for (i, j), info in sorted(pair_info.items()):
        if info.verdict.status != REFUTED or info.verdict.witness is None:
            continue
        for side, other, seed in ((i, j, info.verdict.witness.U), (j, i, info.verdict.witness.V)):
            if len(classes[other]) >= 2 and len(classes[side]) >= 2:
                jobs.append((side, other, seed))
    best: dict[int, tuple[int, int, list[int], list[int], int]] = {}
    if jobs:
        padded = _padded(classes, n)
        sizes = np.array([len(c) for c in classes], dtype=np.intp)
        side = np.array([job[0] for job in jobs], dtype=np.intp)
        other = np.array([job[1] for job in jobs], dtype=np.intp)
        seeds = _padded([job[2] for job in jobs], n)
        words = set_words(seeds, table.shape[1], seeds < n)
        # power iteration: alternately re-derive each side's extreme group
        # from the other's; a weakly unbalanced witness sharpens into a
        # high-contrast probe within a few rounds
        for step in range(5):
            cls = other if step % 2 == 0 else side
            ranked, _, cuts = _otsu_groups(table, padded[cls], sizes[cls], words)
            pos = np.arange(ranked.shape[1])
            cut, size = cuts[:, None], sizes[cls][:, None]
            keep = np.where(2 * cut <= size, pos < cut, (pos >= cut) & (pos < size))
            words = set_words(ranked, table.shape[1], keep)
        probe_sizes = keep.sum(axis=1).tolist()
        ranked, counts, cuts = _otsu_groups(table, padded[side], sizes[side], words)
        prefix = np.cumsum(counts, axis=1)
        half_sums = np.take_along_axis(prefix, (sizes[side] - 1)[:, None] // 2, axis=1)[:, 0]
        # the score of a probe is (top half - bottom half) / (probe size * class size)
        gaps = (2 * half_sums - prefix[:, -1]).tolist()
        for job, idx in enumerate(side.tolist()):
            gap, probe_size = gaps[job], probe_sizes[job]
            if idx not in best or gap * best[idx][1] > best[idx][0] * probe_size:
                size = len(classes[idx])
                ranked_list, counts_list = ranked[job, :size].tolist(), counts[job, :size].tolist()
                best[idx] = (gap, probe_size, ranked_list, counts_list, int(cuts[job]))

    atoms: list[list[int]] = []
    for idx, cls in enumerate(classes):
        if idx not in best:
            atoms.append(list(cls))
            continue
        gap, probe_size, ranked_list, counts_list, cut = best[idx]
        size = len(cls)
        # two ways a split can clear the noise gate: the half-gap exceeds
        # what ranking an iid binomial sample produces by selection alone
        # (about 1.6 sqrt(d(1-d)/P)), or the cut explains nearly all count
        # variance (sharp bimodality, decisive even for tiny probes)
        total = sum(counts_list)
        mean_count = total / (size * probe_size)
        noise_floor = 2.2 * math.sqrt(max(mean_count * (1.0 - mean_count), 1e-9) / probe_size)
        total_var = Fraction(size * sum(c * c for c in counts_list) - total * total, size)
        left = sum(counts_list[:cut])
        diff = Fraction(left, cut) - Fraction(total - left, size - cut)
        between = Fraction(cut * (size - cut), size) * diff * diff
        bimodal = total_var > 0 and between / total_var >= Fraction(17, 20)
        if gap / (probe_size * size) <= noise_floor and not bimodal:
            atoms.append(list(cls))
            continue
        atoms.append(sorted(ranked_list[:cut]))
        atoms.append(sorted(ranked_list[cut:]))
    return atoms


def _equalize_affinity(table: np.ndarray, atoms: list[list[int]], n: int) -> list[list[int]]:
    """Rebalance atoms to an equipartition, moving best-fitting vertices.

    Undersized fragments (below half a class target) first merge into the
    atom whose internal density their edge density matches best; tiny
    splinters make useless receivers because their density profile is all
    noise.  Then oversized atoms donate; each deficit class receives the
    donor vertex whose density into the receiver most closely matches the
    receiver's internal density (and least matches its donor's), so strays
    migrate to classes that look like them under either assortative or
    bipartite structure.  Ties break by vertex index.

    The vertex-by-class neighbour counts and each class's internal edge
    count are kept up to date as vertices move.  Donor keys are compared in
    float64, where each carries an absolute error below 1e-15, and the keys
    within ``_NEAR_TIE`` of the least are compared again as exact
    ``Fraction`` values.
    """
    min_core = (n // len(atoms) + 1) // 2
    atoms = [sorted(a) for a in atoms]
    counts = _class_counts(table, _padded(atoms, n))
    inside = [int(counts[atom, idx].sum()) // 2 for idx, atom in enumerate(atoms)]

    def internal_density(size: int, edges: int) -> Fraction:
        return Fraction(edges, size * (size - 1) // 2) if size >= 2 else Fraction(0)

    while len(atoms) > 1:
        small = [idx for idx, a in enumerate(atoms) if len(a) < min_core]
        if not small:
            break
        frag_idx = min(small, key=lambda idx: (len(atoms[idx]), atoms[idx][0]))
        frag = atoms.pop(frag_idx)
        to_frag = counts[frag].sum(axis=0).tolist()
        del to_frag[frag_idx]
        frag_column = counts[:, frag_idx]
        counts = np.delete(counts, frag_idx, axis=1)
        frag_inside = inside.pop(frag_idx)

        def fit(idx: int) -> tuple[Fraction, int]:
            size = len(atoms[idx])
            dens = Fraction(to_frag[idx], len(frag) * size)
            return abs(dens - internal_density(size, inside[idx])), atoms[idx][0]

        best_idx = min(range(len(atoms)), key=fit)
        atoms[best_idx] = sorted(atoms[best_idx] + frag)
        counts[:, best_idx] += frag_column
        inside[best_idx] += frag_inside + to_frag[best_idx]

    t = len(atoms)
    q, r = divmod(n, t)
    order = sorted(range(t), key=lambda idx: (-len(atoms[idx]), atoms[idx][0]))
    targets = [0] * t
    for rank, idx in enumerate(order):
        targets[idx] = q + 1 if rank < r else q
    sizes = [len(a) for a in atoms]
    member = np.full(n, -1, dtype=np.intp)
    for idx, atom in enumerate(atoms):
        member[atom] = idx

    def misfit(v: int, idx: int) -> Fraction:
        return abs(Fraction(int(counts[v, idx]), sizes[idx]) - internal_density(sizes[idx], inside[idx]))

    while True:
        receivers = [i for i in range(t) if sizes[i] < targets[i]]
        if not receivers:
            break
        idx = min(receivers, key=lambda i: (sizes[i] - targets[i], i))
        donors = [i for i in range(t) if sizes[i] > targets[i]]
        if not donors:
            raise SoundnessError(f"no class above its target can donate to class {idx}")
        cand = np.flatnonzero(np.isin(member, donors))
        own = member[cand]
        size = np.array(sizes, dtype=np.float64)
        dens = np.array([e / (s * (s - 1) // 2) if s >= 2 else 0.0 for s, e in zip(sizes, inside)])
        into, at_home = counts[cand, idx], counts[cand, own]
        key = np.abs(into / size[idx] - dens[idx]) - np.abs(at_home / size[own] - dens[own])
        near = key <= key.min() + _NEAR_TIE
        # vertices with the same donor and counts have equal keys: keep the least of each
        _, first = np.unique(np.stack([own[near], into[near], at_home[near]]), axis=1, return_index=True)
        picks = cand[near][first].tolist()
        v = min(picks, key=lambda u: (misfit(u, idx) - misfit(u, int(member[u])), u))
        donor = int(member[v])
        row = np.unpackbits(table[v].view(np.uint8), count=n, bitorder="little")
        inside[donor] -= int(counts[v, donor])
        inside[idx] += int(counts[v, idx])
        counts[:, donor] -= row
        counts[:, idx] += row
        member[v] = idx
        sizes[donor] -= 1
        sizes[idx] += 1
    return [np.flatnonzero(member == idx).tolist() for idx in range(t)]


#: Refinement rounds :func:`sparse_regular_partition` runs at most.
MAX_ROUNDS = 12


def sparse_regular_partition(
    graph: SimpleGraph,
    epsilon: float,
    p: float,
    t0: int,
    max_t: int,
    rng: RngStream,
    refuter_trials: int = 32,
) -> Partition:
    """Equipartition with at most eps * t^2 refuted pairs, by iterated refinement.

    Starts from a seeded random equipartition into t0 classes.  Each round
    either certifies convergence or splits classes along refutation
    witnesses and re-equalizes; refinement stops with ``converged=False``
    when the class budget ``max_t``, the round budget, or an energy
    stagnation is hit, returning the best partition seen.  Pairs are
    judged by ``regularity.pair_verdicts``, once per round, with unguided
    refuter candidates above the exhaustive budget.
    """
    if t0 < 1:
        raise PreconditionError("t0 must be >= 1")
    if max_t < t0:
        raise PreconditionError(f"max_t = {max_t} is below t0 = {t0}")
    if graph.n < t0:
        raise PreconditionError(f"graph has {graph.n} vertices, fewer than t0 = {t0}")
    _check_p(p)

    perm = [int(v) for v in rng.child(0).np_rng().permutation(graph.n)]
    classes = equipartition_classes(perm, t0)
    best: Partition | None = None
    previous_energy: Fraction | None = None

    table = _row_table(graph)
    for round_index in range(MAX_ROUNDS):
        part = evaluate_partition(
            graph,
            classes,
            epsilon,
            p,
            rng,
            refuter_trials=refuter_trials,
            rounds=round_index,
        )
        refuted = len(part.refuted_pairs())
        # energy is the quantity refinement drives up, so it picks the
        # fallback partition when convergence is never reached
        if best is None or part.energy > best.energy:
            best = part
        if refuted <= epsilon * part.t**2:
            return part
        if previous_energy is not None and part.energy <= previous_energy:
            break  # energy stalled; refinement is no longer making progress
        previous_energy = part.energy
        atoms = _split_by_best_probe(table, part.classes, part.pair_info)
        if len(atoms) == part.t:
            break  # nothing split
        new_classes = _equalize_affinity(table, atoms, graph.n)
        if len(new_classes) > max_t or len(new_classes) > graph.n:
            break
        classes = new_classes

    if best is None:
        raise SoundnessError("refinement evaluated no partition")
    best.converged = False
    return best


@dataclass
class CleanResult:
    """Outcome of partition cleaning, with exact deletion accounting.

    ``bound_inputs_hold`` reports whether the per-class and per-pair
    upper-uniformity inequalities and the refuted pair budget used to derive
    ``deletion_bound`` all held; when they do the measured deletions are
    asserted against the bound.
    """

    graph: SimpleGraph
    cluster: ClusterGraph
    deleted_within: int
    deleted_refuted: int
    deleted_sparse: int
    deletion_bound: Fraction
    bound_inputs_hold: bool
    failed_inequalities: list[str]

    @property
    def deleted_total(self) -> int:
        return self.deleted_within + self.deleted_refuted + self.deleted_sparse


def clean_partition(
    graph: SimpleGraph,
    part: Partition,
    d: float,
    uniformity: float,
) -> CleanResult:
    """Drop within-class edges, refuted pairs, and pairs with fewer than d*p*|Vi||Vj| edges.

    eps and p are the ones ``part`` was judged with.

    The surviving pairs become the cluster edges, weighted by
    min(e / (p |Vi||Vj|), 1).  Deletions are checked against the bound
    (D/t + 2 D eps + d) * p n^2 / 2 whenever its ingredient inequalities
    hold on this instance, and always against the edges the cleaned graph
    lost, recounted from the rows of both graphs.
    """
    epsilon, p = part.epsilon, part.p
    _check_p(p)
    classes = part.classes
    t = len(classes)
    n = graph.n
    masks = [bitmask_of(c) for c in classes]
    p_frac = Fraction(p)
    d_frac = Fraction(d)
    uniformity_frac = Fraction(uniformity)

    inside = [graph.edges_within(m) for m in masks]
    within = sum(inside)
    refuted_edges = 0
    sparse_edges = 0
    weights: dict[tuple[int, int], Fraction] = {}
    per_pair_cap = uniformity_frac * p_frac * Fraction(n, t) ** 2
    failed: list[str] = []

    cap_within = per_pair_cap / 2
    for i, e_inside in enumerate(inside):
        if Fraction(e_inside) > cap_within:
            failed.append(f"class {i}: e(V_i) = {e_inside} > D p (n/t)^2 / 2 = {float(cap_within):.3f}")

    refuted_count = 0
    for (i, j), info in sorted(part.pair_info.items()):
        size = len(classes[i]) * len(classes[j])
        if info.verdict.status == REFUTED:
            refuted_count += 1
            refuted_edges += info.edges
            if Fraction(info.edges) > per_pair_cap:
                failed.append(
                    f"pair ({i}, {j}): e = {info.edges} > D p (n/t)^2 = {float(per_pair_cap):.3f}"
                )
        elif Fraction(info.edges) < d_frac * p_frac * size:
            sparse_edges += info.edges
        else:
            weights[(i, j)] = min(Fraction(info.edges) / (p_frac * size), Fraction(1))

    if refuted_count > epsilon * t * t:
        failed.append(f"refuted pairs: {refuted_count} > eps t^2 = {epsilon * t * t:.3f}")

    survive_mask = [0] * t
    for i, j in weights:
        survive_mask[i] |= masks[j]
        survive_mask[j] |= masks[i]
    membership = part.membership(n)
    adj = [0] * n
    for v in range(n):
        cls = membership[v]
        if cls >= 0:
            adj[v] = graph.adj[v] & survive_mask[cls]
    cleaned = SimpleGraph(n, adj)

    bound = (
        (uniformity_frac / t + 2 * uniformity_frac * Fraction(epsilon) + d_frac)
        * p_frac
        * n
        * n
        / 2
    )
    deleted = within + refuted_edges + sparse_edges
    if not failed and Fraction(deleted) > bound:
        raise SoundnessError(
            f"deletion bound violated with all ingredient inequalities holding: "
            f"{deleted} > {float(bound):.3f}"
        )
    removed = graph.edge_count - cleaned.edge_count
    if removed != deleted:
        raise SoundnessError(f"cleaning removed {removed} edges but accounted for {deleted}")

    return CleanResult(
        graph=cleaned,
        cluster=ClusterGraph(t, weights),
        deleted_within=within,
        deleted_refuted=refuted_edges,
        deleted_sparse=sparse_edges,
        deletion_bound=bound,
        bound_inputs_hold=not failed,
        failed_inequalities=failed,
    )


@dataclass(frozen=True)
class TrimResult:
    """Greedy min-degree trim outcome; failure is data, not an exception."""

    success: bool
    kept: tuple[int, ...]
    removed: tuple[int, ...]


def trim_min_degree(cluster: ClusterGraph, k: int, beta: float) -> TrimResult:
    """Greedily delete low-degree cluster vertices, then pad to divisibility by k.

    Vertices of degree below (1 - 1/k) t' + k are removed one at a time
    (lowest degree first, ties by index; t' is the current survivor count),
    then up to k - 1 more so that k divides the survivors.  The trim fails
    at the first deletion beyond beta * t - k, or beyond beta * t - 1 while
    padding.
    """
    if k < 2:
        raise PreconditionError("k must be >= 2")
    t = cluster.t
    graph = cluster.to_simple_graph()
    allowance = beta * t - k
    # each stage stops at the removal that first exceeds its allowance
    limit = max(1, math.floor(allowance) + 1)
    alive, removed, _ = _peel_low_degree(graph, lambda size: (1 - 1 / k) * size + k, limit, (1 << t) - 1)
    if len(removed) < limit:
        # padding: every survivor counts as low while k does not divide their number
        limit = max(1, math.floor(allowance + k - 1) + 1 - len(removed))
        alive, padded, _ = _peel_low_degree(graph, lambda size: math.inf if size % k else 0, limit, alive)
        removed += padded
        if len(padded) < limit:
            return TrimResult(True, tuple(iter_bits(alive)), tuple(removed))
    return TrimResult(False, tuple(iter_bits(alive)), tuple(removed))
