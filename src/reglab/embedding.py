"""Exact subgraph search on host graphs: the package's subgraph-search kernel.

Two searches lie outside it: the part-assignment search ``graphs.min_monochromatic_partition``
and ``experiments.clique_factor``'s exact cover, which takes its cliques from here.

Embeddings are injective vertex maps realizing every template edge; host
edges not demanded by the template are allowed (subgraph containment, not
induced).  One prologue, :func:`_plan_and_masks`, gives the template's
:func:`reglab.counting.search_plan` and each position's candidate mask.  A
pin is a one-vertex mask: template vertex v pinned to host h gets
``mask & (1 << h)``, and the plan places pinned vertices first.  Two walks
then go depth first over the plan from position 0 with every host free.
Each is one loop over an explicit stack that holds, per plan position, the
candidates not yet tried.  A position's candidates are its mask minus the
hosts already used, intersected with the ``adj`` rows of its placed
neighbours' images, tried in increasing order.  :func:`count_embeddings`
takes a popcount at the last position; :func:`find_embedding`,
:func:`iter_embeddings`, :func:`iter_copies` and :func:`automorphisms`
share one generator of full assignments in search order, which takes no
pins.

The generator resumes on the live rows.  After each yield it checks whether
the ``adj`` row of a placed host has changed (a changed row is a new int
object).  If one has, each later position's untried candidates are
intersected with the current rows of its placed neighbours, and the walk
resumes at the shallowest position whose own template edge is gone.  A
consumer that deletes edges between yields is therefore given exactly the
embeddings that a walk over a snapshot of the rows would reach with all
their edges still present, in the same order; a consumer that changes no
row sees the snapshot walk's sequence.  An edge added during the walk is
seen only by candidate sets taken after it was added.

The copy-once rule: :func:`iter_copies`, and :func:`count_embeddings`
without masks or pins, keep only the labelling of each copy that is least
in plan order among its Aut(H) orbit.  The conditions are derived once per
template along the stabiliser chain of :func:`automorphisms`, which itself
keeps the unconditioned walk; each is a lower bound on the image at a later
position, applied in the candidate step.  The walk reaches each orbit's
least labelling before the rest of the orbit, so the copies come in the
order in which the labelled walk first reaches them.  Under masks the rule
keeps the labellings that meet the masks and are least in their whole
orbit: one per copy when each mask is the same on every template vertex of
an Aut(H) orbit, and possibly none for a copy otherwise.

:func:`count_kcliques` is the exception: it takes the level route of
:func:`reglab.counting.level_count`, which extends all partial copies one
template vertex at a time on packed numpy rows instead of backtracking.
The cliquedensity experiment's true count, the removal experiment's final
template-free check and the aes experiment's soundness cross-check (for a
complete template) run on it.

Counts that pin or mask template vertices are constant on the orbits of
Aut(H).  For an automorphism s, the map f -> f o s is a bijection from the
embeddings that pin (s(a), s(b)) to (u, v) onto the embeddings that pin
(a, b) to (u, v), and from the embeddings whose vertex v lies in mask
``m[v]`` onto those whose vertex v lies in ``m[s(v)]``.  So a sum of such
counts over a whole orbit is exactly the orbit size times the count at one
member.  :func:`automorphisms` lists Aut(H) and :func:`edge_orbits` gives
one oriented template edge per orbit with its size; counting through a host
edge and the removal experiment's cluster-supported count do one count per
orbit.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .counting import level_count, search_plan
from .graphs import PatternGraph, SimpleGraph


def _plan_and_masks(
    graph: SimpleGraph,
    pattern: PatternGraph,
    masks: Sequence[int] | None,
    pinned: dict[int, int],
):
    """The search plan, ``pinned`` template vertices first, and each position's candidate mask."""
    plan = search_plan(pattern, tuple(pinned))
    cands = [masks[v] for v in plan.order] if masks else [(1 << graph.n) - 1] * pattern.k
    for position, host in enumerate(pinned.values()):
        cands[position] &= 1 << host
    return plan, cands


def _no_bounds(pattern: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """No lower bound at any position: the walk keeps every labelling."""
    return ((),) * pattern.k


@lru_cache(maxsize=None)
def _orbit_least_bounds(pattern: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """Per position of the unpinned plan, the earlier positions whose images its image must exceed.

    With the plan order v0, v1, ... take the stabiliser chain of Aut(H):
    A0 = Aut(H), and A(i+1) the members of Ai that fix vi.  A labelling f
    is the least of its orbit {f o s : s in Aut(H)} in plan order exactly
    when f(vi) < f(w) for every i and every w != vi in the Ai-orbit of vi
    (Grochow & Kellis 2007).  Ai fixes v0, ..., v(i-1), so each such w is
    placed after vi, and the condition is a lower bound at w's position.  A
    position keeps only the bounds that no other of its bounds implies.
    """
    order = search_plan(pattern, ()).order
    group = automorphisms(pattern)
    below: list[set[int]] = [set() for _ in order]
    for i, v in enumerate(order):
        for w in {perm[v] for perm in group} - {v}:
            below[order.index(w)].add(i)
        group = tuple(perm for perm in group if perm[v] == v)
    implied: list[set[int]] = []  # every position whose image lies below, directly or through a chain
    for lows in below:
        implied.append(set().union(*(implied[i] | {i} for i in lows)))
    return tuple(
        tuple(sorted(i for i in lows if not any(i in implied[j] for j in lows))) for lows in below
    )


@lru_cache(maxsize=None)
def _by_template_vertex(pattern: PatternGraph) -> itemgetter:
    """Reads an assignment by position of the unpinned plan as a tuple indexed by template vertex."""
    order = search_plan(pattern, ()).order
    return itemgetter(*(order.index(v) for v in range(pattern.k)))


def _embeddings(
    graph: SimpleGraph,
    pattern: PatternGraph,
    masks: Sequence[int] | None,
    bounds: Sequence[tuple[int, ...]],
) -> Iterator[tuple[int, ...]]:
    """Every embedding whose image at each position exceeds the images at its ``bounds``, in search order.

    ``rows[t]`` is the ``adj`` row of the host placed at position t as the
    walk read it; the module docstring gives the resume rule that keeps
    them live.
    """
    plan, cands = _plan_and_masks(graph, pattern, masks, {})
    back = plan.back
    adj = graph.adj
    pick = _by_template_vertex(pattern)
    k = pattern.k
    last = k - 1
    assign = [0] * k  # host image by plan position
    rows = [0] * k  # adj row of each placed host, as read
    stack = [0] * k  # untried candidates by plan position
    frees = [0] * k  # hosts not used above each position
    stack[0], frees[0] = cands[0], -1
    t = 0
    while True:
        cand = stack[t]
        if not cand:
            if not t:
                return
            t -= 1
            continue
        low = cand & -cand
        stack[t] = cand ^ low
        assign[t] = v = low.bit_length() - 1
        if t < last:
            rows[t] = adj[v]
            free = frees[t] ^ low
            cand = cands[t + 1] & free
            for s in back[t + 1]:
                cand &= rows[s]
                if not cand:
                    break
            for s in bounds[t + 1]:
                cand &= -2 << assign[s]
            if cand:
                t += 1
                stack[t], frees[t] = cand, free
            continue
        yield pick(assign)
        for m in range(last):
            if adj[assign[m]] is not rows[m]:
                break
        else:
            continue
        rows[m] = adj[assign[m]]
        for j in range(m + 1, k):
            live = -1
            for s in back[j]:
                live &= rows[s]
            stack[j] &= live
            if not live >> assign[j] & 1:
                t = j
                break
            if j < last:
                rows[j] = adj[assign[j]]


def find_embedding(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
) -> tuple[int, ...] | None:
    """First embedding found, as host vertices indexed by template vertex, or ``None``.

    ``candidate_masks[i]`` restricts template vertex i to a host subset.
    """
    return next(_embeddings(graph, pattern, candidate_masks, _no_bounds(pattern)), None)


def count_embeddings(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
    fixed: dict[int, int] | None = None,
) -> int:
    """Number of labelled embeddings (injective maps realizing all template edges).

    ``candidate_masks[i]`` restricts template vertex i to a host subset;
    ``fixed`` pins template vertices to hosts, each pin a one-vertex mask.
    Without either, the walk counts one labelling per copy and multiplies
    by |Aut(H)|.
    """
    copies = not candidate_masks and not fixed
    plan, cands = _plan_and_masks(graph, pattern, candidate_masks, fixed or {})
    bounds = _orbit_least_bounds(pattern) if copies else _no_bounds(pattern)
    back = plan.back
    adj = graph.adj
    last = pattern.k - 1
    assign = [0] * last  # host image by plan position
    stack = [0] * last  # untried candidates by plan position
    frees = [0] * last  # hosts not used above each position
    stack[0], frees[0] = cands[0], -1
    total = 0
    t = 0
    while True:
        cand = stack[t]
        if not cand:
            if t:
                t -= 1
                continue
            return total * automorphism_count(pattern) if copies else total
        low = cand & -cand
        stack[t] = cand ^ low
        assign[t] = low.bit_length() - 1
        free = frees[t] ^ low
        cand = cands[t + 1] & free
        for s in back[t + 1]:
            cand &= adj[assign[s]]
            if not cand:
                break
        for s in bounds[t + 1]:
            cand &= -2 << assign[s]
        if t + 1 == last:
            total += cand.bit_count()
        elif cand:
            t += 1
            stack[t], frees[t] = cand, free


def iter_embeddings(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every labelled embedding (host tuple indexed by template vertex), pruning on the live rows."""
    yield from _embeddings(graph, pattern, candidate_masks, _no_bounds(pattern))


def iter_copies(
    graph: SimpleGraph,
    pattern: PatternGraph,
    candidate_masks: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the embeddings that are least in plan order among their Aut(H) orbit.

    That is one labelling per copy when each mask is the same on every
    template vertex of an Aut(H) orbit.  Otherwise a copy whose least
    labelling misses the masks is not yielded, even where another of its
    labellings meets them.
    """
    yield from _embeddings(graph, pattern, candidate_masks, _orbit_least_bounds(pattern))


@lru_cache(maxsize=None)
def automorphisms(pattern: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """Aut(H): the embeddings of the template into itself.

    An injective vertex map that keeps every edge sends the e(H) edges
    injectively into themselves, hence onto them, so it also keeps every
    non-edge and is an automorphism.
    """
    host = SimpleGraph.from_edges(pattern.k, pattern.edges)
    return tuple(_embeddings(host, pattern, None, _no_bounds(pattern)))


def automorphism_count(pattern: PatternGraph) -> int:
    """|Aut(H)|: the labelled copies of each unlabelled copy."""
    return len(automorphisms(pattern))


@lru_cache(maxsize=None)
def edge_orbits(pattern: PatternGraph) -> tuple[tuple[tuple[int, int], int], ...]:
    """The Aut(H) orbits on oriented template edges, as (least member, orbit size).

    The oriented edges are (a, b) and (b, a) for each template edge, so the
    sizes sum to 2 e(H).
    """
    auts = automorphisms(pattern)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for a, b in sorted([e for a, b in pattern.edges for e in ((a, b), (b, a))]):
        if (a, b) not in seen:
            orbit = {(perm[a], perm[b]) for perm in auts}
            seen |= orbit
            orbits.append(((a, b), len(orbit)))
    return tuple(orbits)


def count_embeddings_through_edge(
    graph: SimpleGraph, pattern: PatternGraph, u: int, v: int
) -> int:
    """Labelled embeddings whose image uses the host edge {u, v}.

    Each qualifying embedding maps exactly one oriented template edge onto
    (u, v), so summing the pinned counts over all 2 e(H) oriented edges
    counts it once; the pinned count is constant on each Aut(H) orbit, so
    one count per orbit, times the orbit size, gives the same sum.
    """
    total = 0
    for (a, b), size in edge_orbits(pattern):
        total += size * count_embeddings(graph, pattern, fixed={a: u, b: v})
    return total


def count_kcliques(graph: SimpleGraph, k: int) -> int:
    """Exact number of k-vertex cliques.

    From k = 3 on, the level route of :func:`reglab.counting.level_count`
    counts the labelled copies of K_k whose images increase with the
    template vertex: every template edge (a, b), a < b, gets the forward
    rows (each vertex's neighbours above it).  Every vertex pair of K_k is
    a template edge, so each clique is counted once, in its increasing
    labelling, whatever order the plan places the template vertices in.
    """
    if k < 1:
        return 0
    if k == 1:
        return graph.n
    if k == 2:
        return graph.edge_count
    forward = [row >> (v + 1) << (v + 1) for v, row in enumerate(graph.adj)]
    rows = {(a, b): forward for a in range(k) for b in range(a + 1, k)}
    return level_count(PatternGraph.complete(k), rows, graph.n)
