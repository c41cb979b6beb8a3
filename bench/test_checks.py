"""The benchmark's checkers accept reglab's real outputs and reject corrupted ones.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import checks
import workloads
from reglab.cli import main as reglab


def run_cli(tmp_path, *argv, seed=3):
    out = tmp_path / "out.json"
    code = reglab(["--seed", str(seed), "--format", "json", "--out", str(out), *map(str, argv)])
    return code, out.read_text(encoding="utf-8")


def rejects(check, text, *args):
    with pytest.raises(checks.CheckError):
        check(text, *args)


@pytest.fixture(scope="module")
def planted():
    return workloads.block_model(np.random.default_rng(7), 60, 3, 0.9, 0.9)


@pytest.fixture(scope="module")
def partition_text(planted, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("partition")
    workloads.write_edge_list(tmp / "g.edges", planted)
    code, text = run_cli(tmp, "partition", "--graph", tmp / "g.edges", "--eps", "0.3", "--p", "0.9",
                         "--t0", "5", "--max-t", "12", "--refuter-trials", "32")
    assert code == 0
    return text


def test_exact_size_scan_matches_brute_force():
    rng = np.random.default_rng(0)
    eps = Fraction(1, 3)
    for _ in range(20):
        block = rng.random((6, 5)) < 0.4
        su, sv = checks.witness_size(eps, 6), checks.witness_size(eps, 5)
        d = Fraction(int(block.sum()), block.size)
        brute = max(
            abs(Fraction(int(block[np.ix_(us, vs)].sum()), su * sv) - d)
            for us in combinations(range(6), su)
            for vs in combinations(range(5), sv)
        )
        assert checks.max_exact_size_deviation(block, eps) == brute


@pytest.mark.parametrize("shape,k", [("path", 4), ("cycle", 4), ("cycle", 5), ("clique", 3), ("clique", 4)])
def test_matrix_product_counts_match_brute_force(shape, k):
    rng = np.random.default_rng(k)
    n = 4
    edges = workloads.template_edges(shape, k)
    blocks = {key: rng.random((n, n)) < 0.6 for key in edges}
    brute = sum(
        all(blocks[(i, j)][tup[i], tup[j]] for i, j in edges) for tup in product(range(n), repeat=k)
    )
    assert checks.canonical_count_numpy(shape, k, blocks) == brute


def test_partition_check_rejects_flipped_verdicts(planted, partition_text):
    checks.check_partition(partition_text, planted, "0.3", "0.9", 12)
    obj = json.loads(partition_text)
    statuses = {info["status"] for info in obj["pairs"].values()}
    assert statuses == {checks.CERTIFIED, checks.REFUTED}
    for key, info in obj["pairs"].items():
        bad = json.loads(partition_text)
        if info["status"] == checks.REFUTED:
            bad["pairs"][key].update(status=checks.CERTIFIED, witness_u=None, witness_v=None)
        else:
            members = [v for v, c in enumerate(obj["membership"]) if c in map(int, key.split("-"))]
            bad["pairs"][key].update(status=checks.REFUTED, witness_u=members[:3], witness_v=members[-3:])
        rejects(checks.check_partition, json.dumps(bad), planted, "0.3", "0.9", 12)


def test_partition_check_rejects_wrong_edges_and_energy(planted, partition_text):
    bad = json.loads(partition_text)
    bad["pairs"]["0-1"]["edges"] += 1
    rejects(checks.check_partition, json.dumps(bad), planted, "0.3", "0.9", 12)
    bad = json.loads(partition_text)
    bad["energy"] = str(Fraction(bad["energy"]) + Fraction(1, 10**9))
    rejects(checks.check_partition, json.dumps(bad), planted, "0.3", "0.9", 12)


def test_clean_check_rejects_wrong_deletion_totals(planted, partition_text, tmp_path):
    workloads.write_edge_list(tmp_path / "g.edges", planted)
    code, text = run_cli(tmp_path, "clean", "--graph", tmp_path / "g.edges", "--eps", "0.3", "--p", "0.9",
                         "--d", "0.25", "--uniformity", "2", "--t0", "5", "--max-t", "12")
    assert code == 0
    args = (planted, partition_text, "0.3", "0.9", "0.25", "2")
    checks.check_clean(text, *args)
    for field in ("deleted_total", "deleted_within", "deleted_refuted", "deleted_sparse"):
        bad = json.loads(text)
        bad[field] += 1
        rejects(checks.check_clean, json.dumps(bad), *args)


def test_count_check_rejects_count_off_by_one(tmp_path):
    rng = np.random.default_rng(1)
    k, edges = 4, workloads.template_edges("cycle", 4)
    blocks = {key: rng.random((30, 30)) < 0.3 for key in edges}
    checks.write_multipartite(tmp_path / "g.json", k, edges, blocks)
    code, text = run_cli(tmp_path, "count", "--graph", tmp_path / "g.json")
    assert code == 0
    checks.check_count(text, "cycle", k, edges, blocks)
    for delta in (1, -1):
        bad = json.loads(text)
        bad["count"] = str(int(bad["count"]) + delta)
        rejects(checks.check_count, json.dumps(bad), "cycle", k, edges, blocks)


def test_gnp_check_rejects_malformed_edge_lists(tmp_path):
    code, text = run_cli(tmp_path, "gen", "gnp", "--n", "300", "--p", "0.05")
    assert code == 0
    checks.check_gnp(text, 300, "0.05")
    lines = text.splitlines()
    u, v = lines[1].split()[1:]
    for bad in (
        [lines[0], lines[1]] + lines[1:],  # duplicate edge
        [lines[0], f"edge {v} {u}"] + lines[2:],  # u > v
        [lines[0]] + lines[1 : len(lines) // 2],  # edge count far below p C(N, 2)
    ):
        rejects(checks.check_gnp, "\n".join(bad) + "\n", 300, "0.05")


def experiment(tmp_path, name, seed=3, **params):
    workloads.write_pattern(tmp_path / "k3.json", *workloads.TRIANGLE)
    argv = ["experiment", name]
    if name in workloads.TEMPLATE_EXPERIMENTS + ("counting",):
        argv += ["--pattern", tmp_path / "k3.json"]
    for key, value in params.items():
        argv += [f"--{key}", value]
    spec = {"k": 3, "edges": workloads.TRIANGLE[1], **params}
    code, text = run_cli(tmp_path, *argv, seed=seed)
    return code, text, spec


def test_aes_check_rejects_wrong_deletion_total(tmp_path):
    code, text, spec = experiment(tmp_path, "aes", N=400, p="0.1", gamma="0.25", trials=1)
    checks.check_aes(text, code, 3, spec)
    bad = json.loads(text)
    bad["trials"][0]["deleted_total"] += 1
    rejects(checks.check_aes, json.dumps(bad), code, 3, spec)


def test_removal_check_rejects_wrong_deletion_total(tmp_path):
    code, text, spec = experiment(tmp_path, "removal", N=200, p="0.1", delta="0.15", eps="0.25", trials=1)
    checks.check_removal(text, code, 3, spec)
    bad = json.loads(text)
    bad["trials"][0]["deleted_total"] -= 1
    rejects(checks.check_removal, json.dumps(bad), code, 3, spec)
    rejects(checks.check_removal, text, 0, 3, spec)  # exit code contradicts the verdict


def test_counting_check_rejects_count_off_by_one(tmp_path):
    code, text, spec = experiment(tmp_path, "counting", N=600, p="0.1", eta="0.3", d="0.25",
                                  delta="0.15", eps="0.25", trials=1)
    checks.check_counting(text, code, 3, spec)
    bad = json.loads(text)
    bad["trials"][0]["count"] = str(int(bad["trials"][0]["count"]) + 1)
    rejects(checks.check_counting, json.dumps(bad), code, 3, spec)


def test_turan_check_rejects_bad_witness(tmp_path):
    code, text, spec = experiment(tmp_path, "turan", N=300, p="0.1", eps="0.25", trials=2)
    checks.check_turan(text, code, 3, spec)
    bad = json.loads(text)
    witness = bad["trials"][0]["witness"]
    bad["trials"][0]["witness"] = [witness[0], witness[0], witness[2]]
    rejects(checks.check_turan, json.dumps(bad), code, 3, spec)


def test_cliquedensity_oracle_and_flags(tmp_path):
    code, text, spec = experiment(tmp_path, "cliquedensity", N=300, p="0.1", k=3, rho="0.9",
                                  eps="0.25", trials=1)
    checks.check_cliquedensity(text, code, 3, spec)
    assert checks.min_clique_density(3, Fraction(9, 10), 6) == Fraction(16, 20)
    bad = json.loads(text)
    bad["trials"][0]["count_meets_bound"] = not bad["trials"][0]["count_meets_bound"]
    rejects(checks.check_cliquedensity, json.dumps(bad), code, 3, spec)
