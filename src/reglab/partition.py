"""Sparse regular partitions by energy increment, cleaning, and cluster graphs.

The partitioner runs the standard refinement loop: compute pair verdicts,
stop once at most eps * t^2 pairs carry a refutation, otherwise split every
class by the witness sets touching it and re-equalize.  Certification above
the exhaustive budget is sampled refutation only, so at scale "regular"
means "not refuted after the configured trials" and every downstream report
must repeat that caveat.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, SoundnessError
from .graphs import SimpleGraph, VertexSetPair, _peel_low_degree, bitmask_of, iter_bits
from .randgraph import RngStream
from .regularity import REFUTED, RegularityVerdict, pair_verdict


@dataclass(frozen=True)
class PairInfo:
    density: Fraction
    edges: int
    verdict: RegularityVerdict


@dataclass
class Partition:
    """An equipartition with per-pair densities and regularity verdicts."""

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
                "density": str(info.density),
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
    """Graph on partition classes: unweighted surviving pairs plus pair weights."""

    t: int
    edges: frozenset[tuple[int, int]]
    weights: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for i, j in self.edges:
            if not 0 <= i < j < self.t:
                raise PreconditionError(f"bad cluster edge ({i}, {j})")
            if (i, j) not in self.weights:
                raise PreconditionError(f"cluster edge ({i}, {j}) missing from weighted support")
        for w in self.weights.values():
            if not 0 <= w <= 1:
                raise PreconditionError("cluster weights must lie in [0, 1]")

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights.get((min(i, j), max(i, j)), Fraction(0))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def degree(self, v: int) -> int:
        return sum(1 for i, j in self.edges if v in (i, j))

    def to_simple_graph(self) -> SimpleGraph:
        """The unweighted cluster graph (one isolated vertex when t = 0)."""
        return SimpleGraph.from_edges(max(self.t, 1), self.edges)

    def induced(self, keep: list[int]) -> "ClusterGraph":
        """Relabelled induced subgraph on the kept class indices (sorted order)."""
        keep_sorted = sorted(keep)
        pos = {v: idx for idx, v in enumerate(keep_sorted)}
        edges = frozenset(
            (pos[i], pos[j]) for i, j in self.edges if i in pos and j in pos
        )
        weights = {
            (pos[i], pos[j]): w for (i, j), w in self.weights.items() if i in pos and j in pos
        }
        return ClusterGraph(len(keep_sorted), edges, weights)

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


def partition_energy(graph: SimpleGraph, classes: list[list[int]], p: float) -> Fraction:
    """Sum over pairs of (|Vi||Vj| / n^2) (d_ij / p)^2, exact."""
    n = graph.n
    p_frac = Fraction(p)
    masks = [bitmask_of(c) for c in classes]
    total = Fraction(0)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            size = len(classes[i]) * len(classes[j])
            if size == 0:
                continue
            e = graph.edges_between(masks[i], masks[j])
            d = Fraction(e, size)
            total += Fraction(size, n * n) * (d / p_frac) ** 2
    return total


def evaluate_partition(
    graph: SimpleGraph,
    classes: list[list[int]],
    epsilon: float,
    p: float,
    rng: RngStream,
    refuter_trials: int = 32,
    rounds: int = 0,
) -> Partition:
    """Attach pair densities, verdicts, and energy to the given classes."""
    masks = [bitmask_of(c) for c in classes]
    t = len(classes)
    pair_info = {}
    for i in range(t):
        for j in range(i + 1, t):
            e = graph.edges_between(masks[i], masks[j])
            density = Fraction(e, len(classes[i]) * len(classes[j]))
            pair = VertexSetPair(tuple(classes[i]), tuple(classes[j]))
            verdict = pair_verdict(graph, pair, epsilon, p, rng.child(rounds, i, j), refuter_trials)
            pair_info[(i, j)] = PairInfo(density=density, edges=e, verdict=verdict)
    energy = partition_energy(graph, classes, p)
    return Partition(
        classes=[sorted(c) for c in classes],
        pair_info=pair_info,
        energy=energy,
        epsilon=epsilon,
        p=p,
        rounds=rounds,
    )


def _otsu_cut(counts: list[int]) -> int:
    """The cut 0 < i < len(counts) maximising the between-class variance of ``counts``.

    Splitting after position i gives variance i(n - i) (mean_left -
    mean_right)^2 = num^2 / (i(n - i)) with num = prefix_i n - total i, so
    cuts are compared by integer cross-multiplication.  Ties go to the cut
    nearest the middle, then to the lower i.  Needs at least two counts.
    """
    size = len(counts)
    if size < 2:
        raise PreconditionError("an Otsu cut needs at least two counts")
    total = sum(counts)
    best_cut, best_num2, best_den = 0, -1, 1
    prefix = 0
    for i in range(1, size):
        prefix += counts[i - 1]
        num = prefix * size - total * i
        num2, den = num * num, i * (size - i)
        lhs, rhs = num2 * best_den, best_num2 * den
        if lhs > rhs or (lhs == rhs and abs(2 * i - size) < abs(2 * best_cut - size)):
            best_cut, best_num2, best_den = i, num2, den
    return best_cut


def _split_by_best_probe(
    graph: SimpleGraph,
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
    halves most wins.  Untouched classes stay whole.
    """

    def ranked_counts(members: list[int], probe_mask: int) -> tuple[list[int], list[int]]:
        ranked = sorted(members, key=lambda v: (-(graph.adj[v] & probe_mask).bit_count(), v))
        return ranked, [(graph.adj[v] & probe_mask).bit_count() for v in ranked]

    def otsu_group(members: list[int], probe_mask: int) -> list[int]:
        ranked, counts = ranked_counts(members, probe_mask)
        cut = _otsu_cut(counts)
        top, bottom = ranked[:cut], ranked[cut:]
        return top if len(top) <= len(bottom) else bottom

    candidate_probes: list[list[int]] = [[] for _ in classes]
    for (i, j), info in sorted(pair_info.items()):
        if info.verdict.status != REFUTED or info.verdict.witness is None:
            continue
        for side, other, seed in (
            (i, j, info.verdict.witness.U),
            (j, i, info.verdict.witness.V),
        ):
            if len(classes[other]) < 2 or len(classes[side]) < 2:
                continue
            # power iteration: alternately re-derive each side's extreme
            # group from the other's; a weakly unbalanced witness sharpens
            # into a high-contrast probe within a few rounds
            probe = otsu_group(classes[other], bitmask_of(seed))
            for _ in range(2):
                mine = otsu_group(classes[side], bitmask_of(probe))
                probe = otsu_group(classes[other], bitmask_of(mine))
            if probe:
                candidate_probes[side].append(bitmask_of(probe))

    atoms: list[list[int]] = []
    for idx, cls in enumerate(classes):
        size = len(cls)
        half = (size + 1) // 2
        best: tuple[Fraction, int, list[int], list[int]] | None = None
        for probe_mask in candidate_probes[idx]:
            probe_size = probe_mask.bit_count()
            ranked, counts = ranked_counts(cls, probe_mask)
            score = Fraction(sum(counts[:half]) - sum(counts[half:]), probe_size * size)
            if best is None or score > best[0]:
                best = (score, probe_size, ranked, counts)
        if best is None or size < 2:
            atoms.append(list(cls))
            continue
        score, probe_size, ranked, counts = best
        cut = _otsu_cut(counts)
        # two ways a split can clear the noise gate: the half-gap exceeds
        # what ranking an iid binomial sample produces by selection alone
        # (about 1.6 sqrt(d(1-d)/P)), or the cut explains nearly all count
        # variance (sharp bimodality, decisive even for tiny probes)
        mean_count = sum(counts) / (len(counts) * probe_size)
        noise_floor = 2.2 * math.sqrt(max(mean_count * (1.0 - mean_count), 1e-9) / probe_size)
        mean = Fraction(sum(counts), size)
        total_var = sum((Fraction(c) - mean) ** 2 for c in counts)
        left = counts[:cut]
        right = counts[cut:]
        diff = Fraction(sum(left), len(left)) - Fraction(sum(right), len(right))
        between = Fraction(len(left) * len(right), size) * diff * diff
        bimodal = total_var > 0 and between / total_var >= Fraction(17, 20)
        if float(score) <= noise_floor and not bimodal:
            atoms.append(list(cls))
            continue
        atoms.append(sorted(ranked[:cut]))
        atoms.append(sorted(ranked[cut:]))
    return atoms


def _equalize_affinity(graph: SimpleGraph, atoms: list[list[int]], n: int) -> list[list[int]]:
    """Rebalance atoms to an equipartition, moving best-fitting vertices.

    Undersized fragments (below half a class target) first merge into the
    atom whose internal density their edge density matches best; tiny
    splinters make useless receivers because their density profile is all
    noise.  Then oversized atoms donate; each deficit class receives the
    donor vertex whose density into the receiver most closely matches the
    receiver's internal density (and least matches its donor's), so strays
    migrate to classes that look like them under either assortative or
    bipartite structure.  Ties break by vertex index.
    """
    min_core = (n // len(atoms) + 1) // 2
    atoms = [sorted(a) for a in atoms]
    while len(atoms) > 1:
        small = [idx for idx, a in enumerate(atoms) if len(a) < min_core]
        if not small:
            break
        frag_idx = min(small, key=lambda idx: (len(atoms[idx]), atoms[idx][0]))
        frag = atoms.pop(frag_idx)
        frag_mask = bitmask_of(frag)
        best_idx = None
        best_key = None
        for idx, atom in enumerate(atoms):
            size = len(atom)
            mask = bitmask_of(atom)
            dens = Fraction(graph.edges_between(frag_mask, mask), len(frag) * size)
            internal = (
                Fraction(graph.edges_within(mask), size * (size - 1) // 2)
                if size >= 2
                else Fraction(0)
            )
            key = (abs(dens - internal), atom[0])
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        atoms[best_idx] = sorted(atoms[best_idx] + frag)

    t = len(atoms)
    q, r = divmod(n, t)
    order = sorted(range(t), key=lambda idx: (-len(atoms[idx]), atoms[idx][0] if atoms[idx] else -1))
    targets = [0] * t
    for rank, idx in enumerate(order):
        targets[idx] = q + 1 if rank < r else q
    classes = [sorted(a) for a in atoms]
    masks = [bitmask_of(c) for c in classes]

    def internal_density(idx: int) -> Fraction:
        size = len(classes[idx])
        if size < 2:
            return Fraction(0)
        return Fraction(graph.edges_within(masks[idx]), size * (size - 1) // 2)

    def misfit(v: int, idx: int) -> Fraction:
        size = len(classes[idx])
        if size == 0:
            return Fraction(0)
        dens = Fraction((graph.adj[v] & masks[idx]).bit_count(), size)
        return abs(dens - internal_density(idx))

    receivers = [idx for idx in range(t) if len(classes[idx]) < targets[idx]]
    while receivers:
        idx = min(receivers, key=lambda i: (len(classes[i]) - targets[i], i))
        best_key = None
        best_pick = None
        for donor in range(t):
            if len(classes[donor]) <= targets[donor]:
                continue
            for v in classes[donor]:
                key = (misfit(v, idx) - misfit(v, donor), v)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pick = (donor, v)
        if best_pick is None:
            raise SoundnessError(f"no class above its target can donate to class {idx}")
        donor, v = best_pick
        classes[donor].remove(v)
        masks[donor] &= ~(1 << v)
        classes[idx].append(v)
        classes[idx].sort()
        masks[idx] |= 1 << v
        receivers = [i for i in range(t) if len(classes[i]) < targets[i]]
    return classes


def sparse_regular_partition(
    graph: SimpleGraph,
    epsilon: float,
    p: float,
    t0: int,
    max_t: int,
    rng: RngStream,
    refuter_trials: int = 32,
    max_rounds: int = 12,
) -> Partition:
    """Equipartition with at most eps * t^2 refuted pairs, by iterated refinement.

    Starts from a seeded random equipartition into t0 classes.  Each round
    either certifies convergence or splits classes along refutation
    witnesses and re-equalizes; refinement stops with ``converged=False``
    when the class budget ``max_t``, the round budget, or an energy
    stagnation is hit, returning the best partition seen.  Pairs are
    judged by ``regularity.pair_verdict``, with unguided refuter candidates
    above the exhaustive budget.
    """
    if t0 < 1:
        raise PreconditionError("t0 must be >= 1")
    if max_t < t0:
        raise PreconditionError(f"max_t = {max_t} is below t0 = {t0}")
    if graph.n < t0:
        raise PreconditionError(f"graph has {graph.n} vertices, fewer than t0 = {t0}")
    if not 0.0 < p <= 1.0:
        raise PreconditionError(f"p must be in (0, 1], got {p}")

    perm = [int(v) for v in rng.child(0).np_rng().permutation(graph.n)]
    classes = equipartition_classes(perm, t0)
    best: Partition | None = None
    previous_energy: Fraction | None = None

    for round_index in range(max_rounds):
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
        atoms = _split_by_best_probe(graph, part.classes, part.pair_info)
        if len(atoms) == part.t:
            break  # nothing split
        new_classes = _equalize_affinity(graph, atoms, graph.n)
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
    epsilon: float,
    p: float,
    d: float,
    uniformity: float,
) -> CleanResult:
    """Drop within-class edges, refuted pairs, and pairs with fewer than d*p*|Vi||Vj| edges.

    The surviving pairs become the cluster edges, weighted by
    min(e / (p |Vi||Vj|), 1).  Deletions are checked against the bound
    (D/t + 2 D eps + d) * p n^2 / 2 whenever its ingredient inequalities
    hold on this instance.
    """
    if not 0.0 < p <= 1.0:
        raise PreconditionError(f"p must be in (0, 1], got {p}")
    classes = part.classes
    t = len(classes)
    n = graph.n
    masks = [bitmask_of(c) for c in classes]
    p_frac = Fraction(p)
    d_frac = Fraction(d)
    uniformity_frac = Fraction(uniformity)

    within = sum(graph.edges_within(m) for m in masks)
    refuted_edges = 0
    sparse_edges = 0
    surviving: set[tuple[int, int]] = set()
    weights: dict[tuple[int, int], Fraction] = {}
    per_pair_cap = uniformity_frac * p_frac * Fraction(n, t) ** 2
    failed: list[str] = []

    for i in range(t):
        cap_within = per_pair_cap / 2
        e_inside = graph.edges_within(masks[i])
        if Fraction(e_inside) > cap_within:
            failed.append(f"class {i}: e(V_i) = {e_inside} > D p (n/t)^2 / 2 = {float(cap_within):.3f}")

    refuted_count = 0
    for (i, j), info in sorted(part.pair_info.items()):
        size = len(classes[i]) * len(classes[j])
        is_refuted = info.verdict.status == REFUTED
        is_sparse = Fraction(info.edges) < d_frac * p_frac * size
        if is_refuted:
            refuted_count += 1
            if Fraction(info.edges) > per_pair_cap:
                failed.append(
                    f"pair ({i}, {j}): e = {info.edges} > D p (n/t)^2 = {float(per_pair_cap):.3f}"
                )
        if is_refuted:
            refuted_edges += info.edges
        elif is_sparse:
            sparse_edges += info.edges
        if not is_refuted and not is_sparse:
            surviving.add((i, j))
            weights[(i, j)] = min(Fraction(info.edges) / (p_frac * size), Fraction(1))

    if refuted_count > epsilon * t * t:
        failed.append(f"refuted pairs: {refuted_count} > eps t^2 = {epsilon * t * t:.3f}")

    survive_mask = [0] * t
    for i, j in surviving:
        survive_mask[i] |= masks[j]
        survive_mask[j] |= masks[i]
    membership = part.membership(n)
    adj = [0] * n
    for v in range(n):
        cls = membership[v]
        if cls >= 0:
            adj[v] = graph.adj[v] & survive_mask[cls]
    cleaned = SimpleGraph(n, adj, sum(row.bit_count() for row in adj) // 2)

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
    if graph.edge_count - cleaned.edge_count != deleted:
        raise SoundnessError(
            f"cleaning removed {graph.edge_count - cleaned.edge_count} edges "
            f"but accounted for {deleted}"
        )

    cluster = ClusterGraph(t, frozenset(surviving), weights)
    return CleanResult(
        graph=cleaned,
        cluster=cluster,
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
    subgraph: ClusterGraph | None
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
            kept = tuple(iter_bits(alive))
            return TrimResult(True, cluster.induced(list(kept)), kept, tuple(removed))
    return TrimResult(False, None, tuple(iter_bits(alive)), tuple(removed))
