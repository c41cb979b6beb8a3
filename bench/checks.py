"""Independent checks of reglab's outputs.

Each check recomputes what it can from the benchmark's own inputs, with
numpy and exact rationals, or tests a property the method must have.  None
compares against a stored copy of earlier output.  A failed check raises
:class:`CheckError` with the reason.

Parameters are passed around as the decimal strings given on the command
line.  The CLI parses them to binary doubles, so :func:`param` turns a string
into the exact rational value of that double, which is the value the program
computes with.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

#: Slack the program applies when a rational deviation meets a float threshold.
SLACK = Fraction(1, 10**12)
#: Relative tolerance for float fields that the program derives from exact values.
FLOAT_RTOL = 1e-12

CERTIFIED = "certified_regular"
REFUTED = "refuted"


class CheckError(Exception):
    """An output contradicts an independent computation or a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def param(text: str) -> Fraction:
    """Exact value of the double the CLI parses from ``text``."""
    return Fraction(float(text))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-300)


def binomial_plausible(count: int, trials: int, p: float, sds: float = 6.0) -> bool:
    """``count`` lies within ``sds`` standard deviations of Bin(trials, p)'s mean."""
    mean = trials * p
    return abs(count - mean) <= sds * math.sqrt(mean * (1.0 - p)) + 1.0


# --- edge lists --------------------------------------------------------------


def parse_edge_list(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Header vertex count and edge endpoint arrays of an edge-list file."""
    header, _, body = text.partition("\n")
    head = header.split()
    require(len(head) == 2 and head[0] == "vertices", f"bad header line {header!r}")
    n = int(head[1])
    tokens = body.split()
    require(len(tokens) % 3 == 0, "edge lines must have exactly three fields")
    require(set(tokens[0::3]) <= {"edge"}, "every line after the header must be an edge line")
    u = np.array(tokens[1::3], dtype=np.int64)
    v = np.array(tokens[2::3], dtype=np.int64)
    return n, u, v


def check_gnp(text: str, n: int, p_text: str) -> None:
    """``gen gnp``: header, u < v, in range, no duplicates, plausible edge count."""
    header_n, u, v = parse_edge_list(text)
    require(header_n == n, f"header says {header_n} vertices, expected {n}")
    require(bool((u < v).all()), "an edge is not written as u < v")
    require(bool((u >= 0).all()) and bool((v < n).all()), "an edge endpoint is out of range")
    require(len(np.unique(u * n + v)) == len(u), "duplicate edge")
    slots = n * (n - 1) // 2
    require(
        binomial_plausible(len(u), slots, float(p_text), sds=5.0),
        f"{len(u)} edges is more than 5 sd from p C(N, 2) = {slots * float(p_text):.1f}",
    )


# --- pair regularity and partitions ------------------------------------------


@lru_cache(maxsize=None)
def _subsets(n: int, size: int) -> np.ndarray:
    return np.array(list(combinations(range(n), size)), dtype=np.intp).reshape(-1, size)


def witness_size(eps: Fraction, side: int) -> int:
    """Smallest subset size allowed by the definition: at least eps * |side|, and 1."""
    return max(1, math.ceil(eps * side))


def max_exact_size_deviation(block: np.ndarray, eps: Fraction) -> Fraction:
    """Largest |d(U', V') - d(U, V)| over all exact-size subset pairs of a biadjacency block.

    Scans every subset U' of the rows of size ceil(eps |U|).  For a fixed U'
    the densest and the sparsest V' of size ceil(eps |V|) take the columns
    with the most and the fewest neighbours in U', so two sorted sums bound
    every V'.  All arithmetic is on integers.
    """
    nu, nv = block.shape
    su, sv = witness_size(eps, nu), witness_size(eps, nv)
    weights = block.astype(np.int64)[_subsets(nu, su)].sum(axis=1)
    weights.sort(axis=1)
    low = weights[:, :sv].sum(axis=1)
    high = weights[:, nv - sv :].sum(axis=1)
    edges = int(block.sum())
    size, denom = nu * nv, su * sv
    worst = max(
        int(np.abs(high * size - edges * denom).max()),
        int(np.abs(low * size - edges * denom).max()),
    )
    return Fraction(worst, denom * size)


def partition_classes(obj: dict, n: int) -> list[np.ndarray]:
    membership = np.asarray(obj["membership"], dtype=np.int64)
    t = obj["t"]
    require(membership.shape == (n,), f"membership has {membership.size} entries, expected {n}")
    require(int(membership.min()) >= 0 and int(membership.max()) < t, "membership label out of range")
    classes = [np.flatnonzero(membership == i) for i in range(t)]
    sizes = [len(c) for c in classes]
    require(min(sizes) >= 1 and max(sizes) - min(sizes) <= 1, f"not an equipartition: sizes {sorted(set(sizes))}")
    return classes


def check_partition(text: str, adj: np.ndarray, eps_text: str, p_text: str, max_t: int) -> None:
    """``partition`` on a host whose classes all take the exhaustive path.

    Recomputes every pair's edges, density and verdict evidence from the
    benchmark's adjacency matrix, the energy in exact rationals, the
    equipartition, and the convergence rule.
    """
    obj = json.loads(text)
    n = adj.shape[0]
    eps, p = param(eps_text), param(p_text)
    threshold = eps * p
    classes = partition_classes(obj, n)
    t = len(classes)
    require(t <= max_t, f"t = {t} exceeds max_t = {max_t}")
    pairs = obj["pairs"]
    require(len(pairs) == t * (t - 1) // 2, f"{len(pairs)} pair records for t = {t}")
    energy = Fraction(0)
    refuted = 0
    for i in range(t):
        for j in range(i + 1, t):
            key = f"{i}-{j}"
            require(key in pairs, f"pair {key} missing")
            info = pairs[key]
            block = adj[np.ix_(classes[i], classes[j])]
            edges = int(block.sum())
            size = block.size
            require(info["edges"] == edges, f"pair {key}: {info['edges']} edges reported, {edges} counted")
            density = Fraction(edges, size)
            require(Fraction(info["density"]) == density, f"pair {key}: density {info['density']} != {density}")
            energy += Fraction(size, n * n) * (density / p) ** 2
            if info["status"] == REFUTED:
                refuted += 1
                _check_witness(key, info, classes[i], classes[j], adj, eps, density, threshold)
            else:
                require(info["status"] == CERTIFIED, f"pair {key}: status {info['status']!r} on an exhaustive-size pair")
                worst = max_exact_size_deviation(block, eps)
                require(
                    worst <= threshold + SLACK,
                    f"pair {key} certified but a subset pair deviates by {float(worst):.6g} > eps p",
                )
    require(Fraction(obj["energy"]) == energy, f"energy {obj['energy']} != recomputed {energy}")
    converged = refuted <= float(eps_text) * t * t
    require(obj["converged"] == converged, f"converged = {obj['converged']} with {refuted} refuted pairs at t = {t}")


def _check_witness(key, info, class_u, class_v, adj, eps, density, threshold) -> None:
    wu, wv = info["witness_u"], info["witness_v"]
    require(wu is not None and wv is not None, f"pair {key} refuted without a witness")
    require(len(set(wu)) == len(wu) and set(wu) <= set(class_u.tolist()), f"pair {key}: witness U not in its class")
    require(len(set(wv)) == len(wv) and set(wv) <= set(class_v.tolist()), f"pair {key}: witness V not in its class")
    require(len(wu) >= eps * len(class_u) and len(wv) >= eps * len(class_v), f"pair {key}: witness too small")
    sub = int(adj[np.ix_(wu, wv)].sum())
    deviation = abs(Fraction(sub, len(wu) * len(wv)) - density)
    require(deviation > threshold, f"pair {key}: witness deviates by {float(deviation):.6g} <= eps p")


def check_clean(
    text: str,
    adj: np.ndarray,
    partition_text: str,
    eps_text: str,
    p_text: str,
    d_text: str,
    uniformity_text: str,
) -> None:
    """``clean``: deletion totals and cluster graph against the verified partition.

    ``partition_text`` is the output of ``partition`` with the same graph,
    seed and parameters, which the partition check has verified on its own.
    """
    obj = json.loads(text)
    part = json.loads(partition_text)
    n = adj.shape[0]
    eps, p, d, dd = param(eps_text), param(p_text), param(d_text), param(uniformity_text)
    classes = partition_classes(part, n)
    t = len(classes)
    cluster = obj["cluster"]
    require(cluster["t"] == t, f"cluster has t = {cluster['t']}, partition has {t}")

    cap = dd * p * Fraction(n, t) ** 2
    failures = 0
    within = 0
    for cls in classes:
        inside = int(adj[np.ix_(cls, cls)].sum()) // 2
        within += inside
        failures += inside > cap / 2
    refuted_edges = sparse_edges = refuted = 0
    surviving = []
    weights = [["0"] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            edges = int(adj[np.ix_(classes[i], classes[j])].sum())
            size = len(classes[i]) * len(classes[j])
            if part["pairs"][f"{i}-{j}"]["status"] == REFUTED:
                refuted += 1
                refuted_edges += edges
                failures += edges > cap
            elif edges < d * p * size:
                sparse_edges += edges
            else:
                surviving.append([i, j])
                weights[i][j] = weights[j][i] = str(min(Fraction(edges) / (p * size), Fraction(1)))
    failures += refuted > float(eps_text) * t * t

    for field, value in (("deleted_within", within), ("deleted_refuted", refuted_edges), ("deleted_sparse", sparse_edges)):
        require(obj[field] == value, f"{field} = {obj[field]}, recomputed {value}")
    total = within + refuted_edges + sparse_edges
    require(
        obj["deleted_total"] == total == obj["deleted_within"] + obj["deleted_refuted"] + obj["deleted_sparse"],
        f"deleted_total = {obj['deleted_total']}, recomputed {total}",
    )
    bound = (dd / t + 2 * dd * eps + d) * p * n * n / 2
    require(Fraction(obj["deletion_bound"]) == bound, f"deletion_bound {obj['deletion_bound']} != {bound}")
    require(len(obj["failed_inequalities"]) == failures, f"{len(obj['failed_inequalities'])} failed inequalities reported, {failures} found")
    require(obj["bound_inputs_hold"] == (failures == 0), "bound_inputs_hold disagrees with the failed inequalities")
    if failures == 0:
        require(total <= bound, f"{total} deletions exceed the bound {float(bound):.3f} although its inputs hold")
    require(sorted(cluster["edges"]) == surviving, "cluster edges are not the surviving pairs")
    require(cluster["weights"] == weights, "cluster weights differ from min(e / (p |Vi||Vj|), 1)")


# --- canonical counting ------------------------------------------------------


def write_multipartite(path, k: int, edges: list[tuple[int, int]], blocks: dict) -> None:
    """Multipartite JSON input for ``reglab count`` (vertices 1-based in the pattern)."""
    pairs = {}
    for i, j in edges:
        u, v = np.nonzero(blocks[(i, j)])
        pairs[f"{i + 1}-{j + 1}"] = np.stack([u, v], axis=1).tolist()
    payload = {
        "pattern": {"k": k, "edges": [[i + 1, j + 1] for i, j in edges]},
        "part_size": next(iter(blocks.values())).shape[0],
        "pairs": pairs,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _exact(value: float, bound: int) -> int:
    """Round a float64 matrix-product result known to be an integer below 2**53."""
    require(bound < 2**53, "count would not be exact in float64")
    return int(round(value))


def canonical_count_numpy(shape: str, k: int, blocks: dict) -> int:
    """Canonical copies of a path, cycle or clique template by matrix products.

    ``blocks[(i, j)]`` (i < j) is the biadjacency matrix between parts i and
    j.  Paths and cycles run along parts 0, 1, ..., k-1.  Every product has
    entries that are integers below 2**53, so float64 is exact.
    """
    mats = {key: b.astype(np.float64) for key, b in blocks.items()}
    n = next(iter(mats.values())).shape[0]
    if shape == "path":
        vec = np.ones(n)
        for i in range(k - 2, -1, -1):
            vec = mats[(i, i + 1)] @ vec
        return _exact(vec.sum(), n**k)
    if shape == "cycle":
        walk = mats[(0, 1)]
        for i in range(1, k - 1):
            walk = walk @ mats[(i, i + 1)]
        return _exact(float((walk * mats[(0, k - 1)]).sum()), n**k)
    if shape == "clique" and k == 3:
        return _exact(float(((mats[(0, 1)] @ mats[(1, 2)]) * mats[(0, 2)]).sum()), n**3)
    if shape == "clique" and k == 4:
        # sum over edges cd of part pair (2, 3) of x_cd^T A01 y_cd, where
        # x_cd[a] = A02[a, c] A03[a, d] and y_cd[b] = A12[b, c] A13[b, d]
        c, d = np.nonzero(blocks[(2, 3)])
        x = mats[(0, 2)][:, c] * mats[(0, 3)][:, d]
        y = mats[(1, 2)][:, c] * mats[(1, 3)][:, d]
        return _exact(float(((mats[(0, 1)] @ y) * x).sum()), n**4)
    raise ValueError(f"no matrix-product count for {shape} on {k} vertices")


def check_count(text: str, shape: str, k: int, edges: list[tuple[int, int]], blocks: dict) -> None:
    """``count``: the exact count and its normalisations."""
    obj = json.loads(text)
    n = next(iter(blocks.values())).shape[0]
    count = canonical_count_numpy(shape, k, blocks)
    require(int(obj["count"]) == count, f"count {obj['count']} != {count} by matrix products")
    expected = Fraction(n) ** k
    for key in edges:
        expected *= Fraction(int(blocks[key].sum()), n * n)
    require(Fraction(obj["expected"]) == expected, f"expected {obj['expected']} != {expected}")
    require(Fraction(obj["normalized"]) == Fraction(count, n**k), "normalized != count / n^k")
    require(expected > 0 and close(obj["ratio"], float(Fraction(count) / expected)), "ratio != count / expected")


# --- experiment reports --------------------------------------------------------


def two_density(k: int, edges: list[tuple[int, int]]) -> Fraction:
    """max (e' - 1) / (v' - 2) over vertex subsets with at least 3 vertices."""
    best = Fraction(1, 2)
    for size in range(3, k + 1):
        for subset in combinations(range(k), size):
            inside = sum(1 for a, b in edges if a in subset and b in subset)
            best = max(best, Fraction(inside - 1, size - 2))
    return best


def min_clique_density(k: int, rho: Fraction, n: int) -> Fraction:
    """Minimum K_k count over n-vertex graphs with at least rho C(n, 2) edges, over C(n, k)."""
    slots = list(combinations(range(n), 2))
    need = math.ceil(rho * len(slots))
    cliques = [
        [slots.index(pair) for pair in combinations(members, 2)]
        for members in combinations(range(n), k)
    ]
    best = None
    for mask in range(1 << len(slots)):
        if mask.bit_count() < need:
            continue
        found = sum(1 for clique in cliques if all(mask >> s & 1 for s in clique))
        best = found if best is None else min(best, found)
    return Fraction(best, math.comb(n, k))


def _report(text: str, name: str, seed: int, rc: int, params: dict) -> dict:
    obj = json.loads(text)
    require(obj["name"] == name, f"report name {obj['name']!r}, expected {name!r}")
    require(obj["seed"] == seed, f"report seed {obj['seed']}, expected {seed}")
    for key, value in params.items():
        require(obj["params"][key] == value, f"params.{key} = {obj['params'][key]!r}, passed {value!r}")
    passed = obj["aggregate"].get("passed", True)
    require(rc == (0 if passed else 4), f"exit code {rc} with aggregate passed = {passed}")
    return obj


def _success_aggregate(obj: dict, pass_fraction: float) -> None:
    trials = obj["trials"]
    successes = sum(1 for r in trials if r["success"])
    fraction = successes / len(trials)
    agg = obj["aggregate"]
    require(agg["successes"] == successes and close(agg["success_fraction"], fraction), "aggregate success counts")
    require(agg["passed"] == (fraction >= pass_fraction), "aggregate passed != success_fraction >= pass_fraction")


def check_counting(text: str, rc: int, seed: int, a: dict) -> None:
    """``experiment counting`` with a template on parts of ceil(eta N) vertices."""
    k, edges = a["k"], a["edges"]
    big_n, p, d = a["N"], param(a["p"]), param(a["d"])
    obj = _report(text, "counting", seed, rc, {"N": big_n, "trials": a["trials"]})
    n = math.ceil(param(a["eta"]) * big_n)
    floor = d * p * n * n
    delta = float(a["delta"])
    effective = in_band = 0
    for index, record in enumerate(obj["trials"]):
        counts = json.loads(record["edges"])
        require(sorted(counts) == sorted(f"{i + 1}-{j + 1}" for i, j in edges), f"trial {index}: pair keys")
        for key, m in counts.items():
            require(binomial_plausible(m, n * n, float(p)), f"trial {index}: pair {key} has an implausible {m} edges")
        skipped = any(m < floor for m in counts.values())
        require(record["skipped"] == skipped, f"trial {index}: skipped = {record['skipped']}, floor says {skipped}")
        if skipped:
            continue
        effective += 1
        expected = Fraction(n) ** k
        for m in counts.values():
            expected *= Fraction(m, n * n)
        require(Fraction(record["expected"]) == expected, f"trial {index}: expected {record['expected']} != {expected}")
        ratio = float(Fraction(int(record["count"])) / expected)
        require(close(record["ratio"], ratio), f"trial {index}: ratio != count / expected")
        require(abs(ratio - 1.0) <= delta, f"trial {index}: ratio {ratio:.6f} outside 1 +- delta")
        require(record["in_band"] is True, f"trial {index}: in_band is not true")
        require(0 <= record["refuted_pairs"] <= len(edges), f"trial {index}: refuted_pairs out of range")
        in_band += 1
    agg = obj["aggregate"]
    require(agg["effective_trials"] == effective and agg["in_band"] == in_band, "aggregate trial counts")
    require(agg["passed"] == (effective > 0 and in_band / effective >= 0.9), "aggregate passed")
    require(close(agg["p_threshold"], big_n ** (-1.0 / float(two_density(k, edges)))), "p_threshold != N^(-1/m2)")


def check_removal(text: str, rc: int, seed: int, a: dict) -> None:
    """``experiment removal``: budgets in exact rationals and the deletion identity."""
    big_n, p, delta, eps_copies = a["N"], param(a["p"]), param(a["delta"]), param(a["eps"])
    obj = _report(text, "removal", seed, rc, {"N": big_n, "trials": a["trials"]})
    budget = delta * p * big_n * big_n
    copy_budget = eps_copies * p ** len(a["edges"]) * big_n ** a["k"]
    for index, r in enumerate(obj["trials"]):
        require(binomial_plausible(r["host_edges"], big_n * (big_n - 1) // 2, float(p)), f"trial {index}: host edges")
        require(r["subgraph_edges"] <= r["host_edges"], f"trial {index}: subgraph larger than the host")
        require(r["copies_before"] <= copy_budget, f"trial {index}: copies_before above the copy budget")
        require(Fraction(r["deletion_budget"]) == budget, f"trial {index}: deletion_budget != delta p N^2")
        require(r["deleted_total"] == r["deleted_clean"] + r["deleted_per_copy"], f"trial {index}: deleted_total != clean + per_copy")
        require(r["deleted_total"] <= r["subgraph_edges"], f"trial {index}: more deletions than edges")
        require(r["template_free"] is True, f"trial {index}: output not template-free after per-copy deletion")
        require(r["success"] == (r["template_free"] and r["deleted_total"] <= budget), f"trial {index}: success flag")
    _success_aggregate(obj, 0.9)


def check_packing(text: str, rc: int, seed: int, a: dict) -> None:
    """``experiment packing``: peel, coverage and success arithmetic."""
    big_n, k, p, gamma = a["N"], a["k"], float(a["p"]), float(a["gamma"])
    obj = _report(text, "packing", seed, rc, {"N": big_n, "k": k, "trials": a["trials"]})
    for index, r in enumerate(obj["trials"]):
        require(r["peeled"] <= int(gamma * big_n / 4), f"trial {index}: peeled beyond gamma N / 4")
        require(r["subgraph_n"] == big_n - r["peeled"], f"trial {index}: subgraph_n != N - peeled")
        require(close(r["min_degree_target"], (1 - 1 / k + gamma) * p * big_n), f"trial {index}: min_degree_target")
        require(r["deleted_clean"] <= r["subgraph_edges"], f"trial {index}: more deletions than edges")
        if "stage_failed" in r:
            require(r["success"] is False and r["coverage"] == 0.0, f"trial {index}: stopped trial marked covered")
            continue
        require(r["covered_vertices"] == k * r["packed_cliques"] <= big_n, f"trial {index}: covered != k * cliques")
        require(close(r["coverage"], r["covered_vertices"] / big_n), f"trial {index}: coverage")
        covered = Fraction(r["covered_vertices"], big_n)
        require(r["success"] == (covered >= 1 - param(a["gamma"])), f"trial {index}: success flag")
    _success_aggregate(obj, 0.8)


def check_aes(text: str, rc: int, seed: int, a: dict) -> None:
    """``experiment aes``: deleted_total = clean + trim + lift within gamma p N^2."""
    big_n, p, gamma = a["N"], param(a["p"]), param(a["gamma"])
    obj = _report(text, "aes", seed, rc, {"N": big_n, "trials": a["trials"]})
    budget = gamma * p * big_n * big_n
    chi = 3  # the benchmark runs aes with a triangle
    premise = (1 - 3 / (3 * chi - 4) + float(a["gamma"])) * float(a["p"]) * big_n
    for index, r in enumerate(obj["trials"]):
        total = r["deleted_clean"] + r["deleted_trim"] + r["deleted_lift"]
        require(r["deleted_total"] == total, f"trial {index}: deleted_total != clean + trim + lift")
        require(total <= r["subgraph_edges"], f"trial {index}: more deletions than edges")
        require(Fraction(r["deletion_budget"]) == budget, f"trial {index}: deletion_budget != gamma p N^2")
        require(r["success"] == (total <= budget), f"trial {index}: success flag")
        require(close(r["premise_min_degree"], premise), f"trial {index}: premise_min_degree")
        require(r["premise_met"] == (r["min_degree"] >= r["premise_min_degree"]), f"trial {index}: premise_met")
    _success_aggregate(obj, 0.8)


def check_cliquedensity(text: str, rc: int, seed: int, a: dict) -> None:
    """``experiment cliquedensity``: the dense-minimum oracle and the count bound."""
    big_n, k, p = a["N"], a["k"], param(a["p"])
    rho, eps = Fraction(a["rho"]), param(a["eps"])
    obj = _report(text, "cliquedensity", seed, rc, {"N": big_n, "k": k, "trials": a["trials"]})
    oracle_n = obj["params"]["oracle_n"]
    g_hat = Fraction(0) if rho <= 1 - Fraction(1, k - 1) else min_clique_density(k, rho, oracle_n)
    require(Fraction(obj["params"]["g_hat"]) == g_hat, f"g_hat {obj['params']['g_hat']} != {g_hat}")
    bound = (g_hat - eps) * p ** math.comb(k, 2) * math.comb(big_n, k)
    target = rho * p * big_n * (big_n - 1) / 2
    meets = 0
    for index, r in enumerate(obj["trials"]):
        require(abs(r["subgraph_edges"] - target) < 1 + SLACK, f"trial {index}: subgraph_edges far from rho p C(N, 2)")
        require(close(r["achieved_rho"], float(r["subgraph_edges"] / (p * big_n * (big_n - 1) / 2))), f"trial {index}: achieved_rho")
        require(close(r["bound"], float(bound)), f"trial {index}: bound != (g_hat - eps) p^C(k,2) C(N, k)")
        require(r["true_count"] >= 0 and r["weighted_clique_sum"] >= 0, f"trial {index}: negative count")
        require(r["count_meets_bound"] == (r["true_count"] >= bound), f"trial {index}: count_meets_bound")
        meets += r["count_meets_bound"]
    agg = obj["aggregate"]
    require(agg["count_meets_bound"] == meets and agg["passed"] == (meets == len(obj["trials"])), "aggregate")


def check_turan(text: str, rc: int, seed: int, a: dict) -> None:
    """``experiment turan``: threshold arithmetic and a well-formed witness."""
    big_n, k, eps = a["N"], a["k"], param(a["eps"])
    obj = _report(text, "turan", seed, rc, {"N": big_n, "trials": a["trials"]})
    chi = 3  # the benchmark runs turan with a triangle
    found = 0
    for index, r in enumerate(obj["trials"]):
        required = math.ceil((1 - Fraction(1, chi - 1) + eps) * r["host_edges"])
        require(r["required_edges"] == required, f"trial {index}: required_edges != ceil((1 - 1/(chi-1) + eps) e(G))")
        require(r["subgraph_edges"] <= r["host_edges"], f"trial {index}: subgraph larger than the host")
        require(r["at_threshold"] == (r["subgraph_edges"] >= required), f"trial {index}: at_threshold")
        witness = r["witness"]
        require(r["found"] == (witness is not None), f"trial {index}: found disagrees with the witness")
        if witness is not None:
            require(
                len(witness) == k and len(set(witness)) == k and all(0 <= v < big_n for v in witness),
                f"trial {index}: witness is not {k} distinct in-range vertices",
            )
            found += 1
    agg = obj["aggregate"]
    require(agg["found"] == found and close(agg["found_fraction"], found / len(obj["trials"])), "aggregate")
