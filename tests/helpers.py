"""Shared hypothesis strategies and brute-force oracles for the test suite."""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
from hypothesis import strategies as st

from reglab.errors import PreconditionError, SoundnessError
from reglab.graphs import MultipartiteGraph, PatternGraph, SimpleGraph, bitmask_of, iter_bits, rows_to_matrix
from reglab.regularity import REFUTED


@st.composite
def patterns(draw, min_k=2, max_k=6, require_edge=True):
    k = draw(st.integers(min_k, max_k))
    slots = list(combinations(range(k), 2))
    min_edges = 1 if require_edge else 0
    edges = draw(
        st.lists(st.sampled_from(slots), min_size=min_edges, max_size=len(slots), unique=True)
    )
    return PatternGraph.from_edges(k, edges)


#: declared parameter type of ``reglab.experiments`` -> values of that type
PARAM_VALUES = {
    int: st.integers(-10**6, 10**6),
    float: st.floats(),
    Fraction: st.fractions(),
    PatternGraph: patterns(max_k=5, require_edge=False),
}


def out_of_range(kind: type, declared_range) -> st.SearchStrategy:
    """Values of the declared type ``kind`` outside ``declared_range``."""
    return PARAM_VALUES[kind].filter(lambda value: not declared_range.holds(value))


#: A 6-vertex template with trivial automorphism group (none has fewer vertices).
ASYMMETRIC6 = PatternGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])


@st.composite
def simple_graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    slots = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(slots), max_size=len(slots), unique=True)) if slots else []
    return SimpleGraph.from_edges(n, edges)


def graph_from_bool_matrix(matrix) -> SimpleGraph:
    """A graph from a symmetric boolean adjacency matrix (diagonal ignored)."""
    n = matrix.shape[0]
    m = np.asarray(matrix, dtype=bool).copy()
    np.fill_diagonal(m, False)
    if not (m == m.T).all():
        raise PreconditionError("adjacency matrix is not symmetric")
    packed = np.packbits(m, axis=1, bitorder="little")
    adj = [int.from_bytes(packed[v].tobytes(), "little") for v in range(n)]
    return SimpleGraph(n, adj)


def bool_matrix(graph: SimpleGraph) -> np.ndarray:
    """The n x n boolean adjacency matrix of ``graph``."""
    return rows_to_matrix(graph.adj, graph.n, bool)


def reference_edges(graph: SimpleGraph) -> list[tuple[int, int]]:
    """``SimpleGraph.edges`` bit by bit: each row above the diagonal, lowest bit first."""
    return [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n) if graph.adj[u] >> v & 1]


def reference_edge_list(graph: SimpleGraph) -> str:
    """``SimpleGraph.to_edge_list`` with one formatted line per edge."""
    lines = [f"vertices {graph.n}"] + [f"edge {u} {v}" for u, v in reference_edges(graph)]
    return "\n".join(lines) + "\n"


def reference_from_edges(n: int, edges) -> SimpleGraph:
    """``SimpleGraph.from_edges`` one edge at a time, with its checks in input order."""
    if n <= 0:
        raise PreconditionError("vertex count must be positive")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise PreconditionError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return SimpleGraph(n, adj)


def reference_from_pair_edges(pattern: PatternGraph, n: int, pair_edges) -> MultipartiteGraph:
    """``MultipartiteGraph.from_pair_edges`` one edge at a time, with its checks in input order."""
    rows = {}
    for i, j in pattern.sorted_edges():
        fwd = [0] * n
        for u, v in pair_edges.get((i, j), ()):
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"local edge ({u}, {v}) out of range for n={n}")
            fwd[u] |= 1 << v
        rows[(i, j)] = fwd
    return MultipartiteGraph(pattern, n, rows)


def reference_gnp(n: int, p: float, rng) -> SimpleGraph:
    """``randgraph.gnp`` as a single draw of n(n-1)/2 doubles into a dense n x n matrix."""
    if p == 0.0:
        return SimpleGraph.empty(n)
    if p == 1.0:
        return SimpleGraph.complete(n)
    gen = rng.np_rng()
    mask = gen.random(n * (n - 1) // 2) < p
    matrix = np.zeros((n, n), dtype=bool)
    matrix[np.triu_indices(n, k=1)] = mask
    matrix |= matrix.T
    return graph_from_bool_matrix(matrix)


def reference_induced_multipartite(graph: SimpleGraph, classes, pattern: PatternGraph) -> MultipartiteGraph:
    """``graphs.induced_multipartite`` by slicing the whole host matrix (no validation)."""
    n = len(classes[0])
    class_lists = [sorted(c) for c in classes]
    matrix = bool_matrix(graph)
    rows = {}
    for i, j in pattern.sorted_edges():
        block = matrix[np.ix_(class_lists[i], class_lists[j])]
        packed = np.packbits(block, axis=1, bitorder="little")
        rows[(i, j)] = [int.from_bytes(packed[u].tobytes(), "little") for u in range(n)]
    return MultipartiteGraph(pattern, n, rows)


def naive_m2(pattern: PatternGraph) -> Fraction:
    """Literal 2-density: maximum over all (not only induced) subgraphs."""
    best = Fraction(1, 2)
    edge_list = sorted(pattern.edges)
    for size in range(3, pattern.k + 1):
        for vertices in combinations(range(pattern.k), size):
            vset = set(vertices)
            inside = [e for e in edge_list if e[0] in vset and e[1] in vset]
            for count in range(len(inside) + 1):
                value = Fraction(count - 1, size - 2)
                if value > best:
                    best = value
    return best


def naive_strictly_balanced(pattern: PatternGraph) -> bool:
    """Literal definition: m2 strictly exceeds m2 of every proper subgraph."""
    full = naive_m2(pattern)
    edge_list = sorted(pattern.edges)
    for size in range(2, pattern.k + 1):
        for vertices in combinations(range(pattern.k), size):
            vset = set(vertices)
            inside = [e for e in edge_list if e[0] in vset and e[1] in vset]
            for keep in range(len(inside) + 1):
                for sub_edges in combinations(inside, keep):
                    if size == pattern.k and len(sub_edges) == pattern.edge_count:
                        continue  # not a proper subgraph
                    if not sub_edges:
                        continue
                    relabel = {v: i for i, v in enumerate(sorted(vset))}
                    sub = PatternGraph.from_edges(size, [(relabel[a], relabel[b]) for a, b in sub_edges])
                    if naive_m2(sub) >= full:
                        return False
    return True


def naive_canonical_count(multipartite) -> int:
    """Full tuple enumeration over the parts."""
    n = multipartite.part_size
    k = multipartite.k
    total = 0
    for tup in product(range(n), repeat=k):
        if all(
            multipartite.rows[(i, j)][tup[i]] >> tup[j] & 1
            for i, j in multipartite.pattern.sorted_edges()
        ):
            total += 1
    return total


def naive_constrained_count(graph, sub_pattern, overlay) -> int:
    n = graph.part_size
    total = 0
    sub_edges = set(sub_pattern.sorted_edges())
    for tup in product(range(n), repeat=graph.k):
        ok = True
        for i, j in graph.pattern.sorted_edges():
            if not graph.rows[(i, j)][tup[i]] >> tup[j] & 1:
                ok = False
                break
            if (i, j) in sub_edges and not overlay.rows[(i, j)][tup[i]] >> tup[j] & 1:
                ok = False
                break
        if ok:
            total += 1
    return total


def blowup_embedding_count(multipartite) -> int:
    """Canonical copies as embeddings into the k·n-vertex blow-up, template vertex i masked to part i.

    Part i occupies hosts ``i * n .. i * n + n - 1``.  The parts are disjoint,
    so every masked map is injective, and the only host edges between parts
    a and b are those of pair {a, b}.
    """
    from reglab.embedding import count_embeddings

    n, k = multipartite.part_size, multipartite.k
    edges = [
        (i * n + u, j * n + v)
        for i, j in multipartite.pattern.sorted_edges()
        for u, v in multipartite.pair_edges(i, j)
    ]
    masks = [((1 << n) - 1) << (i * n) for i in range(k)]
    return count_embeddings(SimpleGraph.from_edges(k * n, edges), multipartite.pattern, masks)


def full_quantifier_regular(graph, pair, epsilon: float, p: float) -> bool:
    """Literal definition: all subsets of size >= ceil(eps * side) on both sides."""
    from reglab.graphs import pair_density, VertexSetPair
    from reglab.regularity import subset_floor

    d_pair = pair_density(graph, pair)
    s_u = subset_floor(epsilon, len(pair.U))
    s_v = subset_floor(epsilon, len(pair.V))
    bound = Fraction(epsilon) * Fraction(p) + Fraction(1, 10**12)
    for size_u in range(s_u, len(pair.U) + 1):
        for subset_u in combinations(pair.U, size_u):
            for size_v in range(s_v, len(pair.V) + 1):
                for subset_v in combinations(pair.V, size_v):
                    cand = VertexSetPair(subset_u, subset_v)
                    if abs(pair_density(graph, cand) - d_pair) > bound:
                        return False
    return True


def _reference_locals(graph, pair):
    """Per-side vertex lists plus each V-vertex's neighbourhood as a bitmask over U positions."""
    u_list = list(pair.U)
    v_list = list(pair.V)
    v_masks_over_u = []
    for v in v_list:
        mask = 0
        row = graph.adj[v]
        for i, u in enumerate(u_list):
            if row >> u & 1:
                mask |= 1 << i
        v_masks_over_u.append(mask)
    return u_list, v_list, v_masks_over_u


def _reference_completion(weights, take, largest):
    """Positions of the ``take`` largest/smallest weights (ties by index) and their sum."""
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i) if largest else (weights[i], i))
    chosen = order[:take]
    return chosen, sum(weights[i] for i in chosen)


def loop_check_regular_exhaustive(graph, pair, epsilon: float, p: float):
    """One ``Fraction`` per subset and completion: the scan before it was vectorised.

    Returns ``(status, deviation, witness)``.
    """
    from reglab.graphs import VertexSetPair, bitmask_of, leq_with_tolerance, pair_density
    from reglab.regularity import CERTIFIED, REFUTED, subset_floor

    if not pair.U or not pair.V:
        return CERTIFIED, Fraction(0), None
    nu, nv = len(pair.U), len(pair.V)
    s_u = subset_floor(epsilon, nu)
    s_v = subset_floor(epsilon, nv)
    d_pair = pair_density(graph, pair)
    u_list, v_list, v_masks = _reference_locals(graph, pair)

    best_dev = Fraction(0)
    best_witness = None
    denom = s_u * s_v
    for chosen_u in combinations(range(nu), s_u):
        mask = bitmask_of(chosen_u)
        weights = [(vm & mask).bit_count() for vm in v_masks]
        for largest in (True, False):
            chosen_v, edge_sum = _reference_completion(weights, s_v, largest)
            dev = abs(Fraction(edge_sum, denom) - d_pair)
            if dev > best_dev:
                best_dev = dev
                best_witness = VertexSetPair(
                    tuple(u_list[i] for i in chosen_u), tuple(v_list[i] for i in chosen_v)
                )
    if leq_with_tolerance(best_dev, epsilon * p):
        return CERTIFIED, best_dev, None
    return REFUTED, best_dev, best_witness


def loop_check_lower_regular_exhaustive(graph, pair, epsilon: float, d: float):
    """The exhaustive branch of ``check_lower_regular`` before it was vectorised.

    Returns ``(status, deviation, witness)``.
    """
    from reglab.graphs import VertexSetPair, bitmask_of, leq_with_tolerance
    from reglab.regularity import CERTIFIED, REFUTED, subset_floor

    if not pair.U or not pair.V:
        return CERTIFIED, Fraction(0), None
    nu, nv = len(pair.U), len(pair.V)
    s_u = subset_floor(epsilon, nu)
    s_v = subset_floor(epsilon, nv)
    u_list, v_list, v_masks = _reference_locals(graph, pair)
    denom = s_u * s_v
    worst = None
    worst_witness = None
    for chosen_u in combinations(range(nu), s_u):
        mask = bitmask_of(chosen_u)
        weights = [(vm & mask).bit_count() for vm in v_masks]
        chosen_v, edge_sum = _reference_completion(weights, s_v, largest=False)
        dens = Fraction(edge_sum, denom)
        if worst is None or dens < worst:
            worst = dens
            worst_witness = VertexSetPair(
                tuple(u_list[i] for i in chosen_u), tuple(v_list[i] for i in chosen_v)
            )
    if worst is not None and not leq_with_tolerance(Fraction(d) - worst, 0.0):
        return REFUTED, Fraction(d) - worst, worst_witness
    return CERTIFIED, Fraction(0), None


def reference_candidate_pairs(graph, pair, s_u: int, s_v: int, trials: int, rng, guided: bool):
    """Yield candidate (U' vertices, V' vertices) witness pairs one at a time, on Python-int rows.

    The sampled refuter's candidate generator as it was before its counts
    were batched: the same draws from ``rng`` in the same order, so both
    yield the same candidates.
    """
    u_list, v_list = list(pair.U), list(pair.V)
    mask_u, mask_v = pair.mask_u, pair.mask_v
    gen = rng.np_rng()

    def complete(fixed, side_vertices, take, largest):
        fixed_mask = bitmask_of(fixed)
        weights = [(graph.adj[x] & fixed_mask).bit_count() for x in side_vertices]
        chosen, _ = _reference_completion(weights, take, largest)
        return [side_vertices[i] for i in chosen]

    if guided:
        deg_u = sorted(u_list, key=lambda u: (-(graph.adj[u] & mask_v).bit_count(), u))
        deg_v = sorted(v_list, key=lambda v: (-(graph.adj[v] & mask_u).bit_count(), v))
        for us in (deg_u[:s_u], deg_u[-s_u:]):
            for vs in (deg_v[:s_v], deg_v[-s_v:]):
                yield us, vs

    for t in range(trials):
        if guided and t % 4 == 3:
            if t % 8 == 3:
                pv = u_list[int(gen.integers(len(u_list)))]
                nbrs = [v for v in v_list if graph.adj[pv] >> v & 1]
                others = [v for v in v_list if not graph.adj[pv] >> v & 1]
                order = list(gen.permutation(len(others)))
                seed_v = (nbrs + [others[i] for i in order])[:s_v]
                yield complete(seed_v, u_list, s_u, True), seed_v
                yield complete(seed_v, u_list, s_u, False), seed_v
            else:
                pv = v_list[int(gen.integers(len(v_list)))]
                nbrs = [u for u in u_list if graph.adj[pv] >> u & 1]
                others = [u for u in u_list if not graph.adj[pv] >> u & 1]
                order = list(gen.permutation(len(others)))
                seed_u = (nbrs + [others[i] for i in order])[:s_u]
                yield seed_u, complete(seed_u, v_list, s_v, True)
                yield seed_u, complete(seed_u, v_list, s_v, False)
        else:
            us = [u_list[int(i)] for i in gen.choice(len(u_list), size=s_u, replace=False)]
            vs = [v_list[int(i)] for i in gen.choice(len(v_list), size=s_v, replace=False)]
            yield us, vs


def loop_refute_regular_sampled(graph, pair, epsilon: float, p: float, trials: int, rng, guided: bool = True):
    """``refute_regular_sampled`` as one ``Fraction`` density per candidate pair.

    Returns ``(status, deviation, witness)``.
    """
    from reglab.graphs import VertexSetPair, leq_with_tolerance, pair_density
    from reglab.regularity import REFUTED, UNDECIDED, subset_floor

    if not pair.U or not pair.V:
        return UNDECIDED, Fraction(0), None
    s_u = subset_floor(epsilon, len(pair.U))
    s_v = subset_floor(epsilon, len(pair.V))
    d_pair = pair_density(graph, pair)
    best_dev = Fraction(0)
    best_witness = None
    for us, vs in reference_candidate_pairs(graph, pair, s_u, s_v, trials, rng, guided):
        candidate = VertexSetPair(tuple(us), tuple(vs))
        dev = abs(pair_density(graph, candidate) - d_pair)
        if dev > best_dev:
            best_dev = dev
            best_witness = candidate
    if best_witness is not None and not leq_with_tolerance(best_dev, epsilon * p):
        return REFUTED, best_dev, best_witness
    return UNDECIDED, best_dev, None


def loop_check_lower_regular_sampled(graph, pair, epsilon: float, d: float, trials: int, rng):
    """The sampled branch of ``check_lower_regular`` as one ``Fraction`` density per candidate pair.

    Returns ``(status, deviation, witness)``.
    """
    from reglab.graphs import VertexSetPair, leq_with_tolerance, pair_density
    from reglab.regularity import CERTIFIED, REFUTED, UNDECIDED, subset_floor

    if not pair.U or not pair.V:
        return CERTIFIED, Fraction(0), None
    s_u = subset_floor(epsilon, len(pair.U))
    s_v = subset_floor(epsilon, len(pair.V))
    worst = None
    worst_witness = None
    for us, vs in reference_candidate_pairs(graph, pair, s_u, s_v, trials, rng, guided=True):
        candidate = VertexSetPair(tuple(us), tuple(vs))
        dens = pair_density(graph, candidate)
        if worst is None or dens < worst:
            worst = dens
            worst_witness = candidate
    if worst is not None and not leq_with_tolerance(Fraction(d) - worst, 0.0):
        return REFUTED, Fraction(d) - worst, worst_witness
    return UNDECIDED, Fraction(0), None


@contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` in the block once ``seconds`` of wall time have passed (POSIX only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def cluster_graphs(draw, min_t=0, max_t=14):
    """Unit-weight cluster graphs on min_t..max_t vertices."""
    from reglab.partition import ClusterGraph

    t = draw(st.integers(min_t, max_t))
    slots = list(combinations(range(t), 2))
    edges = draw(st.lists(st.sampled_from(slots), max_size=len(slots), unique=True)) if slots else []
    return ClusterGraph(t, {e: Fraction(1) for e in edges})


# The four greedy degree peels as they were written before they shared one
# routine; each returns what its caller observes, plus the removal order.


def reference_trim_min_degree(cluster, k: int, beta: float):
    """``partition.trim_min_degree``: returns ``(success, kept, removed)``."""
    t = cluster.t
    allowance = beta * t - k
    alive = set(range(t))
    degrees = {v: cluster.degree(v) for v in alive}
    removed: list[int] = []

    def remove(v: int):
        alive.remove(v)
        removed.append(v)
        for u in alive:
            if cluster.has_edge(u, v):
                degrees[u] -= 1

    while True:
        threshold = (1 - 1 / k) * len(alive) + k
        low = [v for v in alive if degrees[v] < threshold]
        if not low:
            break
        victim = min(low, key=lambda v: (degrees[v], v))
        remove(victim)
        if len(removed) > allowance:
            return False, tuple(sorted(alive)), tuple(removed)
    while len(alive) % k != 0:
        victim = min(alive, key=lambda v: (degrees[v], v))
        remove(victim)
        if len(removed) > allowance + k - 1 or not alive:
            return False, tuple(sorted(alive)), tuple(removed)
    return True, tuple(sorted(alive)), tuple(removed)


def reference_constant_trim(cluster, trim_threshold: float):
    """The inline trim of ``run_partite_stability``: returns ``(kept, removed)``."""
    alive = set(range(cluster.t))
    degrees = {v: cluster.degree(v) for v in alive}
    removed = []
    while True:
        low = [v for v in alive if degrees[v] < trim_threshold]
        if not low:
            break
        victim = min(low, key=lambda v: (degrees[v], v))
        alive.remove(victim)
        removed.append(victim)
        for u in alive:
            if cluster.has_edge(u, victim):
                degrees[u] -= 1
        if not alive:
            break
    return sorted(alive), removed


def reference_fallback_pad(cluster, k: int):
    """The packing trim fallback: drop lowest starting-degree classes until k divides the rest."""
    kept = list(range(cluster.t))
    degrees = {v: cluster.degree(v) for v in kept}
    while len(kept) % k != 0:
        kept.remove(min(kept, key=lambda v: (degrees[v], v)))
    return kept


def reference_host_peel(graph, target: float, max_removals: int):
    """``experiments._peel_to_min_degree``: returns ``(kept, removed, achieved)``."""
    alive = set(range(graph.n))
    degrees = {v: graph.degree(v) for v in alive}
    removed = []
    while len(removed) < max_removals:
        victim = min(alive, key=lambda v: (degrees[v], v))
        if degrees[victim] >= target:
            return sorted(alive), removed, True
        alive.remove(victim)
        removed.append(victim)
        for u in alive:
            if graph.has_edge(victim, u):
                degrees[u] -= 1
    achieved = all(degrees[v] >= target for v in alive)
    return sorted(alive), removed, achieved


def reference_automorphisms(pattern: PatternGraph) -> list[tuple[int, ...]]:
    """Aut(H) by a scan of all k! permutations."""
    edges = set(pattern.edges)
    return [
        perm
        for perm in permutations(range(pattern.k))
        if all((min(perm[a], perm[b]), max(perm[a], perm[b])) in edges for a, b in edges)
    ]


def reference_automorphism_count(pattern: PatternGraph) -> int:
    """|Aut(H)| by a scan of all k! permutations, as ``embedding.automorphism_count`` once computed it."""
    return len(reference_automorphisms(pattern))


def reference_count_through_edge(graph: SimpleGraph, pattern: PatternGraph, u: int, v: int) -> int:
    """Embeddings through {u, v} as one pinned count per template edge and orientation."""
    from reglab.embedding import count_embeddings

    total = 0
    for a, b in pattern.sorted_edges():
        total += count_embeddings(graph, pattern, fixed={a: u, b: v})
        total += count_embeddings(graph, pattern, fixed={a: v, b: u})
    return total


def reference_count_kcliques(graph: SimpleGraph, k: int) -> int:
    """Number of k-vertex cliques by backtracking, each clique once in increasing vertex order."""
    if k < 1:
        return 0
    if k == 1:
        return graph.n
    if k == 2:
        return graph.edge_count
    higher = [((1 << graph.n) - 1) >> (v + 1) << (v + 1) for v in range(graph.n)]

    def rec(common: int, depth: int, last: int) -> int:
        if depth == k:
            return 1
        remaining = common & higher[last]
        if depth == k - 1:
            return remaining.bit_count()
        total = 0
        for w in iter_bits(remaining):
            total += rec(common & graph.adj[w], depth + 1, w)
        return total

    total = 0
    for u in range(graph.n):
        for v in iter_bits(graph.adj[u] & higher[u]):
            total += rec(graph.adj[u] & graph.adj[v], 2, v)
    return total


def reference_embeddings(graph: SimpleGraph, pattern: PatternGraph, masks=None) -> list[tuple[int, ...]]:
    """Every embedding in search order, by the recursive walk that the kernel's enumeration loop replaced.

    Each position's candidates are its mask minus the used hosts,
    intersected with the rows of its placed neighbours' images as they are
    when the position is entered, and tried in increasing order.
    """
    from reglab.counting import search_plan

    plan = search_plan(pattern, ())
    full = (1 << graph.n) - 1
    cands = [masks[v] if masks else full for v in plan.order]
    adj = graph.adj
    assignment = [0] * pattern.k
    found = []

    def rec(t: int, free: int) -> None:
        if t == pattern.k:
            result = [0] * pattern.k
            for pos, v in enumerate(plan.order):
                result[v] = assignment[pos]
            found.append(tuple(result))
            return
        cand = cands[t] & free
        for s in plan.back[t]:
            cand &= adj[assignment[s]]
        for v in iter_bits(cand):
            assignment[t] = v
            rec(t + 1, free ^ (1 << v))

    rec(0, -1)
    return found


def reference_orbit_least(pattern: PatternGraph, embeddings) -> list[tuple[int, ...]]:
    """The embeddings least in plan order among their Aut(H) orbit {f o s}, in their given order."""
    from reglab.counting import search_plan

    order = search_plan(pattern, ()).order
    auts = reference_automorphisms(pattern)

    def key(emb):
        return tuple(emb[v] for v in order)

    return [
        emb for emb in embeddings
        if all(key(emb) <= key(tuple(emb[perm[v]] for v in range(pattern.k))) for perm in auts)
    ]


def reference_break_surviving_copies(graph: SimpleGraph, pattern: PatternGraph, edge_of=None):
    """The removal experiment's per-copy loop over a snapshot of the rows: returns ``(adj, deletions)``.

    Each embedding of the snapshot enumeration whose edges are all still
    present loses the image of template edge ``edge_of(emb)``, by default
    the first template edge.
    """
    edges = pattern.sorted_edges()
    adj = list(graph.adj)
    deleted = 0
    for emb in reference_embeddings(graph, pattern):
        if all(adj[emb[x]] >> emb[y] & 1 for x, y in edges):
            a, b = edge_of(emb) if edge_of else edges[0]
            u, v = emb[a], emb[b]
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            deleted += 1
    return adj, deleted


def reference_reduced_weighted_graph(graph: SimpleGraph, part, p: float):
    """Weights R(i, j) = min(e(Vi, Vj) / (p |Vi||Vj|), 1) of every class pair, exact before the min."""
    from reglab.graphs import bitmask_of
    from reglab.partition import ClusterGraph

    if p <= 0:
        raise PreconditionError("p must be positive")
    classes = part.classes
    t = len(classes)
    masks = [bitmask_of(c) for c in classes]
    p_frac = Fraction(p)
    weights = {}
    for i in range(t):
        for j in range(i + 1, t):
            e = graph.edges_between(masks[i], masks[j])
            w = min(Fraction(e) / (p_frac * len(classes[i]) * len(classes[j])), Fraction(1))
            if w > 0:
                weights[(i, j)] = w
    return ClusterGraph(t, weights)


# --- one partition refinement round, vertex by vertex -------------------------------


def reference_partition_energy(graph: SimpleGraph, classes, p: float) -> Fraction:
    """Sum over pairs of (|Vi||Vj| / n^2) (d_ij / p)^2, one exact ``Fraction`` term per pair."""
    n = graph.n
    p_frac = Fraction(p)
    masks = [bitmask_of(c) for c in classes]
    total = Fraction(0)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            size = len(classes[i]) * len(classes[j])
            if size == 0:
                continue
            d = Fraction(graph.edges_between(masks[i], masks[j]), size)
            total += Fraction(size, n * n) * (d / p_frac) ** 2
    return total


def reference_otsu_cut(counts: list[int]) -> int:
    """The Otsu cut of ``counts`` by one integer cross-multiplication per position.

    Ties go to the cut nearest the middle, then to the lower i.
    """
    size = len(counts)
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


def reference_split_by_best_probe(graph: SimpleGraph, classes, pair_info):
    """``partition._split_by_best_probe`` with one sorted neighbour count per vertex and probe."""

    def ranked_counts(members, probe_mask):
        ranked = sorted(members, key=lambda v: (-(graph.adj[v] & probe_mask).bit_count(), v))
        return ranked, [(graph.adj[v] & probe_mask).bit_count() for v in ranked]

    def otsu_group(members, probe_mask):
        ranked, counts = ranked_counts(members, probe_mask)
        cut = reference_otsu_cut(counts)
        top, bottom = ranked[:cut], ranked[cut:]
        return top if len(top) <= len(bottom) else bottom

    candidate_probes = [[] for _ in classes]
    for (i, j), info in sorted(pair_info.items()):
        if info.verdict.status != REFUTED or info.verdict.witness is None:
            continue
        for side, other, seed in ((i, j, info.verdict.witness.U), (j, i, info.verdict.witness.V)):
            if len(classes[other]) < 2 or len(classes[side]) < 2:
                continue
            probe = otsu_group(classes[other], bitmask_of(seed))
            for _ in range(2):
                mine = otsu_group(classes[side], bitmask_of(probe))
                probe = otsu_group(classes[other], bitmask_of(mine))
            if probe:
                candidate_probes[side].append(bitmask_of(probe))

    atoms = []
    for idx, cls in enumerate(classes):
        size = len(cls)
        half = (size + 1) // 2
        best = None
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
        cut = reference_otsu_cut(counts)
        mean_count = sum(counts) / (len(counts) * probe_size)
        noise_floor = 2.2 * math.sqrt(max(mean_count * (1.0 - mean_count), 1e-9) / probe_size)
        mean = Fraction(sum(counts), size)
        total_var = sum((Fraction(c) - mean) ** 2 for c in counts)
        left, right = counts[:cut], counts[cut:]
        diff = Fraction(sum(left), len(left)) - Fraction(sum(right), len(right))
        between = Fraction(len(left) * len(right), size) * diff * diff
        bimodal = total_var > 0 and between / total_var >= Fraction(17, 20)
        if float(score) <= noise_floor and not bimodal:
            atoms.append(list(cls))
            continue
        atoms.append(sorted(ranked[:cut]))
        atoms.append(sorted(ranked[cut:]))
    return atoms


def reference_equalize_affinity(graph: SimpleGraph, atoms, n: int):
    """``partition._equalize_affinity`` with a ``Fraction`` misfit per vertex and class."""
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
                Fraction(graph.edges_within(mask), size * (size - 1) // 2) if size >= 2 else Fraction(0)
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

    def internal_density(idx):
        size = len(classes[idx])
        if size < 2:
            return Fraction(0)
        return Fraction(graph.edges_within(masks[idx]), size * (size - 1) // 2)

    def misfit(v, idx):
        size = len(classes[idx])
        if size == 0:
            return Fraction(0)
        return abs(Fraction((graph.adj[v] & masks[idx]).bit_count(), size) - internal_density(idx))

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


def reference_clique_factor(cluster, k: int):
    """``experiments.clique_factor``'s exact cover with its own clique backtracker, without the precondition checks.

    Covers the lowest uncovered vertex first, trying its cliques in
    lexicographic order; returns the cliques in cover order, or None.
    """
    adj = cluster.to_simple_graph().adj
    dead: set[int] = set()

    def rec(uncovered: int, chosen: list) -> bool:
        if uncovered == 0:
            return True
        if uncovered in dead:
            return False
        v = (uncovered & -uncovered).bit_length() - 1

        def extend(clique: list[int], cand: int) -> bool:
            if len(clique) == k:
                chosen.append(tuple(clique))
                if rec(uncovered & ~bitmask_of(clique), chosen):
                    return True
                chosen.pop()
                return False
            for u in iter_bits(cand):
                clique.append(u)
                if extend(clique, cand & adj[u] & ~((1 << (u + 1)) - 1)):
                    return True
                clique.pop()
            return False

        if extend([v], adj[v] & uncovered):
            return True
        dead.add(uncovered)
        return False

    chosen: list = []
    return chosen if rec((1 << cluster.t) - 1, chosen) else None
