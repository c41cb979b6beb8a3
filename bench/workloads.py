"""Workload definitions: inputs drawn from the workload seed, CLI calls, and their checks.

Every call passes all the parameters its command reads, and none passes
``--threads``, so changes to CLI defaults or to the thread flag do not change
what a workload does.  Inputs are drawn with numpy from the workload seed
before any timing starts; reglab only ever sees the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

#: Seed of the two calls that fail on every input (see README): the failure
#: must not depend on the workload seed, so their inputs do not either.
FIXED_SEED = 1

TRIANGLE = (3, [(0, 1), (0, 2), (1, 2)])


@dataclass
class Op:
    """One CLI call, the file it writes, and the check of that file."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[str, int], None]


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def block_model(rng: np.random.Generator, n: int, blocks: int, p_in: float, p_out: float) -> np.ndarray:
    """Symmetric adjacency matrix of a planted-block graph (blocks=1 gives G(n, p_in))."""
    labels = rng.permutation(np.arange(n) % blocks)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < prob, 1)
    return upper | upper.T


def write_edge_list(path: Path, adj: np.ndarray) -> None:
    u, v = np.nonzero(np.triu(adj, 1))
    lines = [f"vertices {adj.shape[0]}"] + [f"edge {a} {b}" for a, b in zip(u.tolist(), v.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pattern(path: Path, k: int, edges: list[tuple[int, int]]) -> None:
    pairs = ", ".join(f"[{a + 1}, {b + 1}]" for a, b in edges)
    path.write_text(f'{{"k": {k}, "edges": [{pairs}]}}\n', encoding="utf-8")


def _global(seed: int, out: Path) -> list[str]:
    return ["--seed", str(seed), "--format", "json", "--out", str(out)]


# --- exact_pairs ---------------------------------------------------------------

EP_N = 200
EP = {"eps": "0.3", "t0": 17, "max_t": 40, "refuter_trials": 32, "d": "0.25", "uniformity": "2"}


def exact_pairs(seed: int, work: Path) -> list[Op]:
    """Partition a sparse planted-block host and a dense G(N, p) host, then clean the first.

    With N = 200 and t0 = 17 every class has at most 12 vertices, so every
    pair verdict takes the exhaustive scan.  On the sparse host almost every
    pair is refuted far above eps p; on the dense host many pair deviations
    lie near eps p, so both verdicts occur close to the threshold, where a
    faulty scan would show.
    """
    hosts = {
        "planted": (block_model(_rng(seed, 1, 0), EP_N, 4, 0.3, 0.05), "0.1"),
        "dense": (block_model(_rng(seed, 1, 1), EP_N, 1, 0.9, 0.9), "0.9"),
    }
    ops = []
    for name, (adj, p) in hosts.items():
        graph = work / f"{name}.edges"
        write_edge_list(graph, adj)
        out = work / f"partition_{name}.json"
        argv = _global(seed, out) + [
            "partition", "--graph", str(graph), "--eps", EP["eps"], "--p", p,
            "--t0", str(EP["t0"]), "--max-t", str(EP["max_t"]), "--refuter-trials", str(EP["refuter_trials"]),
        ]

        def check(text, rc, adj=adj, p=p):
            checks.check_partition(text, adj, EP["eps"], p, EP["max_t"])

        ops.append(Op(f"partition/{name}", argv, out, check))

    adj, p = hosts["planted"]
    partition_out = ops[0].out
    out = work / "clean_planted.json"
    argv = _global(seed, out) + [
        "clean", "--graph", str(work / "planted.edges"), "--eps", EP["eps"], "--p", p,
        "--d", EP["d"], "--uniformity", EP["uniformity"], "--t0", str(EP["t0"]), "--max-t", str(EP["max_t"]),
    ]

    def check_clean(text, rc):
        partition_text = partition_out.read_text(encoding="utf-8")
        checks.check_clean(text, adj, partition_text, EP["eps"], p, EP["d"], EP["uniformity"])

    ops.append(Op("clean/planted", argv, out, check_clean))
    return ops


# --- large_hosts ---------------------------------------------------------------

GNP = {"n": 4000, "p": "0.05"}
COUNTING = {"N": 6000, "p": "0.05", "eta": "0.3", "d": "0.25", "delta": "0.15", "eps": "0.25", "trials": 1}
#: (shape, k, part size, pair edge probability) of the drawn multipartite inputs.
COUNT_INPUTS = [
    ("cycle", 4, 400, 0.1),
    ("cycle", 5, 200, 0.1),
    ("path", 4, 500, 0.05),
    ("clique", 3, 700, 0.1),
    ("clique", 4, 120, 0.3),
]


def template_edges(shape: str, k: int) -> list[tuple[int, int]]:
    if shape == "clique":
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    path = [(i, i + 1) for i in range(k - 1)]
    return path + [(0, k - 1)] if shape == "cycle" else path


def large_hosts(seed: int, work: Path) -> list[Op]:
    """Host generation and K3 counting at N in the thousands, plus drawn count inputs."""
    ops = []
    out = work / "gnp.edges"
    argv = _global(seed, out) + ["gen", "gnp", "--n", str(GNP["n"]), "--p", GNP["p"]]
    ops.append(Op("gen_gnp", argv, out, lambda text, rc: checks.check_gnp(text, GNP["n"], GNP["p"])))

    pattern = work / "triangle.json"
    write_pattern(pattern, *TRIANGLE)
    out = work / "counting.json"
    c = COUNTING
    argv = _global(seed, out) + [
        "experiment", "counting", "--pattern", str(pattern), "--N", str(c["N"]), "--p", c["p"],
        "--eta", c["eta"], "--d", c["d"], "--delta", c["delta"], "--eps", c["eps"], "--trials", str(c["trials"]),
    ]
    spec = dict(c, k=TRIANGLE[0], edges=TRIANGLE[1])
    ops.append(Op("experiment_counting", argv, out, lambda text, rc: checks.check_counting(text, rc, seed, spec)))

    for index, (shape, k, n, p) in enumerate(COUNT_INPUTS):
        rng = _rng(seed, 2, index)
        edges = template_edges(shape, k)
        blocks = {key: rng.random((n, n)) < p for key in edges}
        graph = work / f"{shape}{k}.json"
        checks.write_multipartite(graph, k, edges, blocks)
        out = work / f"count_{shape}{k}.json"

        def check(text, rc, shape=shape, k=k, edges=edges, blocks=blocks):
            checks.check_count(text, shape, k, edges, blocks)

        ops.append(Op(f"count/{shape}{k}", _global(seed, out) + ["count", "--graph", str(graph)], out, check))
    return ops


# --- pipelines -----------------------------------------------------------------

PIPE = {"N": 800, "p": "0.1"}
#: experiment -> (CLI seed source, parameters).  removal and packing fail on
#: every input at these sizes and run at a fixed seed; the rest take the
#: workload seed.
EXPERIMENTS = {
    "removal": ("fixed", {"delta": "0.15", "eps": "0.25", "trials": 1}),
    "packing": ("fixed", {"k": 3, "gamma": "0.25", "trials": 1}),
    "aes": ("seed", {"gamma": "0.25", "trials": 4}),
    "cliquedensity": ("seed", {"k": 3, "rho": "0.9", "eps": "0.25", "trials": 3}),
    "turan": ("seed", {"eps": "0.25", "trials": 8}),
}
PIPELINE_CHECKS = {
    "removal": checks.check_removal,
    "packing": checks.check_packing,
    "aes": checks.check_aes,
    "cliquedensity": checks.check_cliquedensity,
    "turan": checks.check_turan,
}
TEMPLATE_EXPERIMENTS = ("removal", "aes", "turan")


def pipelines(seed: int, work: Path) -> list[Op]:
    """Every experiment pipeline except counting and classprobe at N = 800."""
    pattern = work / "triangle.json"
    write_pattern(pattern, *TRIANGLE)
    ops = []
    for name, (source, params) in EXPERIMENTS.items():
        cli_seed = FIXED_SEED if source == "fixed" else seed
        out = work / f"{name}.json"
        argv = _global(cli_seed, out) + ["experiment", name]
        if name in TEMPLATE_EXPERIMENTS:
            argv += ["--pattern", str(pattern)]
        argv += ["--N", str(PIPE["N"]), "--p", PIPE["p"]]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        spec = {"k": TRIANGLE[0], **PIPE, **params, "edges": TRIANGLE[1]}

        def check(text, rc, name=name, cli_seed=cli_seed, spec=spec):
            PIPELINE_CHECKS[name](text, rc, cli_seed, spec)

        ops.append(Op(f"experiment_{name}", argv, out, check))
    return ops


WORKLOADS = {"exact_pairs": exact_pairs, "large_hosts": large_hosts, "pipelines": pipelines}
