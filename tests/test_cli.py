"""Golden reports of ``reglab experiment`` at tiny sizes, the flags each experiment reads, and the exit-code table.

Every golden case passes all the flags its experiment reads explicitly, so a
change of a CLI default does not change what it runs.  Each case runs twice: both
reports must be byte-identical and match the recorded digest.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reglab
from reglab import cli, experiments
from reglab.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_SOUNDNESS, EXIT_USAGE, main
from reglab.errors import SoundnessError
from reglab.experiments import ExperimentReport
from reglab.graphs import PatternGraph, SimpleGraph
from reglab.randgraph import RngStream

TRIANGLE = '{"k": 3, "edges": [[1, 2], [1, 3], [2, 3]]}\n'

#: experiment -> argv of its golden case: every flag it reads, "{pattern}" the triangle's path
GOLDEN_ARGV = {
    "counting": [
        "--pattern", "{pattern}", "--N", "60", "--p", "0.3", "--eta", "0.3", "--d", "0.25", "--delta", "0.15",
        "--eps", "0.25", "--trials", "2",
    ],
    "removal": [
        "--pattern", "{pattern}", "--N", "60", "--p", "0.3", "--delta", "0.15", "--eps", "0.25", "--trials", "2",
    ],
    "cliquedensity": ["--k", "3", "--N", "60", "--p", "0.3", "--rho", "0.9", "--eps", "0.25", "--trials", "2"],
    "packing": ["--k", "3", "--N", "60", "--p", "0.3", "--gamma", "0.25", "--trials", "2"],
    "aes": ["--pattern", "{pattern}", "--N", "60", "--p", "0.3", "--gamma", "0.25", "--trials", "2"],
    "turan": ["--pattern", "{pattern}", "--N", "60", "--p", "0.3", "--eps", "0.25", "--trials", "2"],
}

#: experiment -> (exit code, sha256 of the JSON report)
GOLDEN = {
    "turan": (EXIT_OK, "d2b66056c443a336770b372f069b294562d3090e58d82dee1928e095d3143351"),
    "aes": (EXIT_CHECK_FAILED, "5dbb69d7c8282225040da51a2764218bd3bbdac6a4b1e2b1e9525ecf513ba0fa"),
    "removal": (EXIT_CHECK_FAILED, "a6fac29f5d028ab29e97bbb53825a2d7f090e35bcf81a753da1ef84ef6c005be"),
    "packing": (EXIT_CHECK_FAILED, "8b8e5ce7c9f3a47ed9d3f937bd67e3e8830f2e09f99e029a8efc041a4fa25c17"),
    "cliquedensity": (EXIT_OK, "094c231ec4f7c140f052d278be0e143f25b6ae5b723bdfefa2f2b46437650167"),
    "counting": (EXIT_OK, "88c10b33b40047a0e3b462b47648ca8b1e42ce17b4326a2256c2eb2d972ad8d9"),
}


def run_golden(name: str, tmp_path, run: int, fmt: str = "json") -> tuple[int, bytes]:
    """Exit code and report (JSON unless ``fmt`` says otherwise) of one golden run of experiment ``name``."""
    pattern = tmp_path / "triangle.json"
    pattern.write_text(TRIANGLE, encoding="utf-8")
    out = tmp_path / f"{name}-{run}.{fmt}"
    params = [arg.format(pattern=pattern) for arg in GOLDEN_ARGV[name]]
    argv = ["--seed", "1", "--format", fmt, "--out", str(out), "experiment", name, *params]
    return main(argv), out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_experiment_report_is_golden_and_rerun_identical(name, tmp_path):
    expected_code, expected_digest = GOLDEN[name]
    digests = []
    for run in range(2):
        code, report = run_golden(name, tmp_path, run)
        assert code == expected_code
        digests.append(hashlib.sha256(report).hexdigest())
    assert digests == [expected_digest, expected_digest]


def test_csv_report_has_one_row_per_trial_under_the_json_trial_keys(tmp_path):
    runs = [run_golden("turan", tmp_path, run, "csv") for run in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == EXIT_OK
    _, report = run_golden("turan", tmp_path, 2)
    trials = json.loads(report)["trials"]
    rows = list(csv.reader(io.StringIO(runs[0][1].decode("utf-8"))))
    assert rows[0] == ["trial"] + sorted(set().union(*trials))
    assert [row[0] for row in rows[1:]] == [str(index) for index in range(len(trials))]
    assert len(trials) == 2


#: experiment -> (its runner in ``reglab.experiments``, each flag it reads -> the runner keyword it sets)
READ_FLAGS = {
    "counting": ("run_counting", {
        "--pattern": "pattern", "--N": "host_n", "--p": "p", "--eta": "eta", "--d": "d", "--delta": "delta",
        "--eps": "epsilon", "--trials": "trials",
    }),
    "removal": ("run_removal", {
        "--pattern": "pattern", "--N": "host_n", "--p": "p", "--delta": "delta", "--eps": "eps_copies",
        "--trials": "trials",
    }),
    "cliquedensity": ("run_clique_density", {
        "--k": "k", "--N": "host_n", "--p": "p", "--rho": "rho", "--eps": "eps", "--trials": "trials",
    }),
    "packing": ("run_packing", {"--k": "k", "--N": "host_n", "--p": "p", "--gamma": "gamma", "--trials": "trials"}),
    "aes": ("run_partite_stability", {
        "--pattern": "pattern", "--N": "host_n", "--p": "p", "--gamma": "gamma", "--trials": "trials",
    }),
    "turan": ("run_turan", {"--pattern": "pattern", "--N": "host_n", "--p": "p", "--eps": "eps", "--trials": "trials"}),
    "classprobe": ("probe_copy_free_class", {
        "--pattern": "pattern", "--n": "n", "--m": "m", "--eps": "eps", "--trials": "trials",
    }),
}

C5 = '{"k": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}\n'

#: experiment flag -> (argv value, the value the runner receives), none of them a default
FLAG_VALUES = {
    "--pattern": ("{pattern}", PatternGraph.from_json(C5)),
    "--N": ("61", 61),
    "--n": ("7", 7),
    "--m": ("13", 13),
    "--p": ("0.35", 0.35),
    "--eps": ("0.45", 0.45),
    "--delta": ("0.17", 0.17),
    "--d": ("0.27", 0.27),
    "--eta": ("0.31", 0.31),
    "--gamma": ("0.29", 0.29),
    "--rho": ("7/8", Fraction(7, 8)),
    "--k": ("4", 4),
    "--trials": ("3", 3),
}


@pytest.mark.parametrize("name", sorted(READ_FLAGS))
def test_experiment_accepts_exactly_the_flags_its_runner_reads(name, tmp_path, monkeypatch):
    """Each read flag reaches its runner keyword; any other experiment flag exits 2 before the runner."""
    assert sum(len(flags) for _, flags in READ_FLAGS.values()) == 40
    runner, flags = READ_FLAGS[name]
    calls = []

    def recording_runner(*args, **kwargs):
        calls.append(kwargs)
        return ExperimentReport(name, {}, 1, [], {}, [])

    monkeypatch.setattr(experiments, runner, recording_runner)
    pattern = tmp_path / "c5.json"
    pattern.write_text(C5, encoding="utf-8")
    head = ["--seed", "1", "--out", str(tmp_path / "out.json"), "experiment", name]
    argv = [arg.format(pattern=pattern) for flag in flags for arg in (flag, FLAG_VALUES[flag][0])]
    assert main(head + argv) == EXIT_OK
    rng = calls[0].pop("rng")
    assert isinstance(rng, RngStream)
    assert calls == [{keyword: FLAG_VALUES[flag][1] for flag, keyword in flags.items()}]
    for flag in sorted(set(FLAG_VALUES) - set(flags)):
        value = FLAG_VALUES[flag][0].format(pattern=pattern)
        assert main(head + argv + [flag, value]) == EXIT_USAGE, flag
    assert len(calls) == 1


def test_cli_looks_up_the_runner_when_it_calls_it(tmp_path, monkeypatch):
    """A wrapper patched onto ``reglab.experiments`` after import is the runner that runs."""
    calls = []
    real = experiments.run_turan

    def recording_turan(**kwargs):
        calls.append(sorted(kwargs))
        return real(**kwargs)

    monkeypatch.setattr(experiments, "run_turan", recording_turan)
    code, report = run_golden("turan", tmp_path, 0)
    assert calls == [["eps", "host_n", "p", "pattern", "rng", "trials"]]
    assert (code, hashlib.sha256(report).hexdigest()) == GOLDEN["turan"]


#: Stage fields of ``experiments._regularize`` that no trial record carried before it.
STAGE_KEYS = (
    "pairs_certified", "pairs_refuted", "pairs_undecided", "deleted_clean_within", "deleted_clean_refuted",
    "deleted_clean_sparse", "clean_bound_inputs_hold",
)

#: experiment -> the keys its trial records gained with the regularize stage
ADDED_RECORD_KEYS = {
    "aes": STAGE_KEYS + ("partition_converged",),
    "removal": STAGE_KEYS + ("copies_within_budget",),
    "packing": STAGE_KEYS,
    "cliquedensity": STAGE_KEYS + ("partition_converged", "inconclusive", "deleted_clean"),
}

#: experiment -> sha256 of its golden report when its trial records lacked ADDED_RECORD_KEYS
NARROW_RECORDS_GOLDEN = {
    "aes": "bbc4af08eb7ca8e2a7751cdcbb927df794aae76444180bd7c71ee3e2715babf0",
    "removal": "6c2cde2cfd0f58450d61a2c3d070d64fc7dc67f569154a0ee3782af2779ac1a5",
    "packing": "44a49d8935885aa2c02ecd806f5b7361fc057813b52f9dccd7b81809002f781b",
    "cliquedensity": "064893e2c67a09385f7e472e3c0db5edb65f94800c0cc43cf88ef3268fcef0ef",
}


def narrow_records(obj: dict, name: str) -> None:
    """Delete the keys the regularize stage added from every trial record of a parsed report."""
    for record in obj["trials"]:
        for key in ADDED_RECORD_KEYS[name]:
            del record[key]


def digest(obj: dict) -> str:
    """sha256 of a parsed report serialised as ``reglab`` writes it."""
    return hashlib.sha256((json.dumps(obj, sort_keys=True) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(NARROW_RECORDS_GOLDEN))
def test_regularize_stage_only_adds_record_keys(name, tmp_path):
    """Without the added record keys the report is the one written before, byte for byte."""
    _, report = run_golden(name, tmp_path, 0)
    obj = json.loads(report)
    narrow_records(obj, name)
    assert digest(obj) == NARROW_RECORDS_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ADDED_RECORD_KEYS))
def test_regularize_stage_counts_add_up(name, tmp_path):
    """Verdicts cover every class pair once; cleaning's deletions are the sum of their causes."""
    _, report = run_golden(name, tmp_path, 0)
    for record in json.loads(report)["trials"]:
        pairs = record["pairs_certified"] + record["pairs_refuted"] + record["pairs_undecided"]
        assert pairs == math.comb(record["partition_t"], 2)
        causes = record["deleted_clean_within"] + record["deleted_clean_refuted"] + record["deleted_clean_sparse"]
        assert record["deleted_clean"] == causes
        assert "stage_failed" in record or record["inconclusive"] == (not record["partition_converged"])


#: Runner arguments that the aes and cliquedensity params once left out.
ADDED_PARAMS = ("t0", "max_t", "epsilon", "d", "uniformity", "refuter_trials")

#: experiment -> sha256 of its golden report when its params lacked ADDED_PARAMS and its
#: trial records lacked ADDED_RECORD_KEYS
NARROW_PARAMS_GOLDEN = {
    "aes": "8455bfe5ea3ed13aa146b44315e9e847187e4d902210009eb671387ce1a44dfa",
    "cliquedensity": "6a3046845a81c46f257ac8754315569619485e103983129e7f6a22ad4dfb9501",
}


@pytest.mark.parametrize("name", sorted(NARROW_PARAMS_GOLDEN))
def test_full_params_only_add_the_left_out_arguments(name, tmp_path):
    """Without the added params and record keys the report is the one written before, byte for byte."""
    _, report = run_golden(name, tmp_path, 0)
    obj = json.loads(report)
    narrow_records(obj, name)
    for key in ADDED_PARAMS:
        del obj["params"][key]
    assert digest(obj) == NARROW_PARAMS_GOLDEN[name]


#: case -> (argv after the triangle --pattern, exit code, sha256 of the output); the
#: rejection cases take the exhaustive (n <= 16) and the guided sampled verdict route
ROUTE_GOLDEN = {
    "class_rejection_exhaustive": (
        ["gen", "class", "--n", "8", "--m", "16", "--p", "0.25", "--eps", "0.75", "--mode", "rejection"],
        EXIT_OK, "766b4a24862bbe6f84561d15c6d7c0f4bed8ced6c35dd957f7249c309235d32b",
    ),
    "class_rejection_exhaustive_redraws": (
        ["gen", "class", "--n", "8", "--m", "16", "--p", "0.25", "--eps", "0.625", "--mode", "rejection"],
        EXIT_OK, "399de2210b0fa6d416686570651f6dcaa0ffc25a8105c5170b7c402f26a4131e",
    ),
    "class_rejection_sampled_redraws": (
        ["gen", "class", "--n", "17", "--m", "72", "--p", "0.3", "--eps", "0.5", "--mode", "rejection"],
        EXIT_OK, "b8e5f235cfb2fb1caaf9b218c1a9b882bfe3a43e45b2f9e4c2c15666e233062e",
    ),
    "classprobe": (
        ["experiment", "classprobe", "--n", "8", "--m", "16", "--eps", "0.75", "--trials", "10"],
        EXIT_OK, "2b92daa762e362320e294f2dbde998ab4037f421e5ef1d7c2ec9734e8e8a2370",
    ),
}


@pytest.mark.parametrize("name", sorted(ROUTE_GOLDEN))
def test_verdict_route_output_is_golden_and_rerun_identical(name, tmp_path):
    pattern = tmp_path / "triangle.json"
    pattern.write_text(TRIANGLE, encoding="utf-8")
    args, expected_code, expected_digest = ROUTE_GOLDEN[name]
    command, rest = args[:2], args[2:]
    digests = []
    for run in range(2):
        out = tmp_path / f"{name}-{run}.json"
        argv = ["--seed", "1", "--format", "json", "--out", str(out), *command, "--pattern", str(pattern), *rest]
        assert main(argv) == expected_code
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [expected_digest, expected_digest]


#: sha256 of ``--seed 1 gen gnp --n 300 --p 0.05``, as the dense single-draw
#: sampler (``helpers.reference_gnp``) writes it
GNP_GOLDEN = "bdeb4c36c294047acf44f4698f159c7ec43e0b887ab385a52c9e1084f833e1a6"


def test_gnp_edge_list_is_golden_and_rerun_identical(tmp_path):
    digests = []
    for run in range(2):
        out = tmp_path / f"gnp-{run}.edges"
        assert main(["--seed", "1", "--out", str(out), "gen", "gnp", "--n", "300", "--p", "0.05"]) == EXIT_OK
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [GNP_GOLDEN, GNP_GOLDEN]


def multipartite_clique(k: int, n: int) -> str:
    """Multipartite JSON of K_k on parts of ``n``: pair (i, j) joins u and v iff (u (i+2) + v (j+3) + i j) mod 5 < 3."""
    pairs = {
        f"{i + 1}-{j + 1}": [[u, v] for u in range(n) for v in range(n) if (u * (i + 2) + v * (j + 3) + i * j) % 5 < 3]
        for i in range(k)
        for j in range(i + 1, k)
    }
    edges = [[i + 1, j + 1] for i in range(k) for j in range(i + 1, k)]
    return json.dumps({"pattern": {"k": k, "edges": edges}, "part_size": n, "pairs": pairs}) + "\n"


#: (k, part size) -> sha256 of ``reglab count`` on ``multipartite_clique(k, n)``;
#: both part sizes leave padding bits in the packed rows and both counts span
#: several frontier chunks
COUNT_GOLDEN = {
    (3, 70): "e6655b53ddf73cb210a493b18b323676c57d2655bef83f318a2a0643e7d252f8",
    (4, 37): "832dd82593a100b2193b31eb2c1ba4e8b3e9c870ca0e619a0420c7fb5a2c3a16",
}


@pytest.mark.parametrize("k, n", sorted(COUNT_GOLDEN), ids=["K3", "K4"])
def test_clique_count_is_golden_and_rerun_identical(k, n, tmp_path):
    graph = tmp_path / f"k{k}.json"
    graph.write_text(multipartite_clique(k, n), encoding="utf-8")
    digests = []
    for run in range(2):
        out = tmp_path / f"count-{run}.json"
        assert main(["--seed", "1", "--out", str(out), "count", "--graph", str(graph)]) == EXIT_OK
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [COUNT_GOLDEN[(k, n)]] * 2


def planted_blocks(n: int, blocks: int, p_in: float, p_out: float, seed: int) -> SimpleGraph:
    """A planted-block host: vertex labels and edges drawn from ``np.random.default_rng(seed)``."""
    gen = np.random.default_rng(seed)
    labels = gen.permutation(np.arange(n) % blocks)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    u, v = np.nonzero(np.triu(gen.random((n, n)) < prob, 1))
    return SimpleGraph.from_edges(n, zip(u.tolist(), v.tolist()))


#: case -> (planted_blocks arguments, refinement arguments); "exhaustive" refines
#: classes of at most 12 vertices through four rounds, so every verdict is an
#: exhaustive scan, and "sampled" refines classes of 34-67 vertices through
#: three rounds of sampled refutation
REFINE_CASES = {
    "exhaustive": ((120, 4, 0.3, 0.05, 120), ["--eps", "0.3", "--p", "0.1", "--t0", "10", "--max-t", "40"]),
    "sampled": ((200, 3, 0.7, 0.1, 200), ["--eps", "0.15", "--p", "0.5", "--t0", "3", "--max-t", "12"]),
}

#: (case, command) -> (exit code, sha256 of the output)
REFINE_GOLDEN = {
    ("exhaustive", "partition"): (EXIT_OK, "db6fde75dea97e5c9b6fcca81552de752f5d51d7e30e22e3fcb9f9186da67823"),
    ("exhaustive", "clean"): (EXIT_OK, "c55e72eaac79bb43c7fb919cd355fec33281be0bd12e0e70dadb71f484c6c296"),
    ("sampled", "partition"): (EXIT_OK, "eef7824b52ce7741b5995f5addef61e49fef8d39e1d5dfec6b86d15af828ee0d"),
    ("sampled", "clean"): (EXIT_OK, "efc049b77e235bdce1f56e5aaec24e54b71e6e006ed1b672cc324972e8c37231"),
}


@pytest.mark.parametrize("case, command", sorted(REFINE_GOLDEN))
def test_refinement_output_is_golden_and_rerun_identical(case, command, tmp_path):
    host_args, args = REFINE_CASES[case]
    graph = tmp_path / "host.edges"
    graph.write_text(planted_blocks(*host_args).to_edge_list(), encoding="utf-8")
    if command == "clean":
        args = args + ["--d", "0.25", "--uniformity", "2"]
    expected_code, expected_digest = REFINE_GOLDEN[(case, command)]
    digests = []
    for run in range(2):
        out = tmp_path / f"{command}-{run}.json"
        argv = ["--seed", "1", "--format", "json", "--out", str(out), command, "--graph", str(graph), *args]
        assert main(argv) == expected_code
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [expected_digest, expected_digest]


def test_counting_runs_on_its_defaults(tmp_path):
    out = tmp_path / "counting.json"
    assert main(["--seed", "1", "--out", str(out), "experiment", "counting", "--trials", "1"]) == EXIT_OK


def multipartite_k2(pairs: str) -> str:
    """Multipartite JSON of one 2-vertex pair with part size 2 and the given ``pairs`` entry."""
    return f'{{"pattern": {{"k": 2, "edges": [[1, 2]]}}, "part_size": 2, "pairs": {{"1-2": {pairs}}}}}\n'


#: placeholder -> text of the input file that it names in EXIT_CODES
INPUT_FILES = {
    "triangle": TRIANGLE,
    "bad_pattern": '{"k": 3}\n',
    "edgeless_pattern": '{"k": 3, "edges": []}\n',
    "bad_multipartite": multipartite_k2('[["a", 1]]'),
    "float_multipartite": multipartite_k2("[[0.5, 1]]"),
    "integral_float_multipartite": multipartite_k2("[[0, 1], [1.0, 0]]"),
    "string_multipartite": multipartite_k2('[[0, 1], ["1", "0"]]'),
    "short_edge_line": "vertices 3\nedge 1\n",
    "bare_vertices": "vertices\nedge 0 1\n",
    "extra_edge_field": "vertices 8\nedge 0 1\nedge 1 2 7\n",
    "second_vertices": "vertices 3\nedge 0 1\nvertices 4\n",
    "non_integer_field": "vertices 8\nedge 0 x\n",
}

#: case -> (argv with {dir}, {graph} and INPUT_FILES placeholders, exit code)
EXIT_CODES = {
    "graph_is_directory": (["partition", "--graph", "{dir}", "--eps", "0.3", "--p", "0.5"], EXIT_USAGE),
    "graph_missing": (["partition", "--graph", "{dir}/absent.edges", "--eps", "0.3", "--p", "0.5"], EXIT_USAGE),
    "pattern_without_edges": (["m2", "--pattern", "{bad_pattern}"], EXIT_USAGE),
    "experiment_pattern_without_edges": (
        ["experiment", "turan", "--pattern", "{bad_pattern}", "--N", "30", "--trials", "1"], EXIT_USAGE,
    ),
    "multipartite_wrong_type": (["count", "--graph", "{bad_multipartite}"], EXIT_USAGE),
    "multipartite_float_entry": (["count", "--graph", "{float_multipartite}"], EXIT_USAGE),
    "multipartite_integral_float_entry": (["count", "--graph", "{integral_float_multipartite}"], EXIT_USAGE),
    "multipartite_string_entry": (["count", "--graph", "{string_multipartite}"], EXIT_USAGE),
    "edge_list_short_edge_line": (
        ["partition", "--graph", "{short_edge_line}", "--eps", "0.3", "--p", "0.5"], EXIT_USAGE,
    ),
    "edge_list_bare_vertices": (
        ["partition", "--graph", "{bare_vertices}", "--eps", "0.3", "--p", "0.5"], EXIT_USAGE,
    ),
    "edge_list_extra_field": (
        ["partition", "--graph", "{extra_edge_field}", "--eps", "0.3", "--p", "0.5"], EXIT_USAGE,
    ),
    "edge_list_second_vertices": (
        ["partition", "--graph", "{second_vertices}", "--eps", "0.3", "--p", "0.5"], EXIT_USAGE,
    ),
    "edge_list_non_integer_field": (
        ["partition", "--graph", "{non_integer_field}", "--eps", "0.3", "--p", "0.5"], EXIT_USAGE,
    ),
    "eps_above_one": (["partition", "--graph", "{graph}", "--eps", "2", "--p", "0.5"], EXIT_USAGE),
    "eps_zero": (["partition", "--graph", "{graph}", "--eps", "0", "--p", "0.5"], EXIT_USAGE),
    "eps_one_accepted": (["partition", "--graph", "{graph}", "--eps", "1", "--p", "0.5"], EXIT_OK),
    "clean_eps_above_one": (
        ["clean", "--graph", "{graph}", "--eps", "1.5", "--p", "0.5", "--d", "0.25"], EXIT_USAGE,
    ),
    "experiment_eps_negative": (["experiment", "turan", "--N", "30", "--eps", "-0.25"], EXIT_USAGE),
    "trials_zero": (["experiment", "turan", "--N", "30", "--trials", "0"], EXIT_USAGE),
    "refuter_trials_zero": (
        ["partition", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--refuter-trials", "0"], EXIT_USAGE,
    ),
    "zero_denominator": (["schedule", "--p", "1/0", "--rounds", "2", "--ratio", "0.5"], EXIT_USAGE),
    "schedule_ratio_nan": (["schedule", "--p", "0.5", "--rounds", "2", "--ratio", "nan"], EXIT_USAGE),
    "schedule_ratio_inf": (["schedule", "--p", "0.5", "--rounds", "2", "--ratio", "inf"], EXIT_USAGE),
    "schedule_ratio_overflow": (["schedule", "--p", "0.5", "--rounds", "3", "--ratio", "1e200"], EXIT_USAGE),
    "turan_edgeless_template": (
        ["experiment", "turan", "--pattern", "{edgeless_pattern}", "--N", "30", "--trials", "1"], EXIT_USAGE,
    ),
    "removal_edgeless_template": (
        ["experiment", "removal", "--pattern", "{edgeless_pattern}", "--N", "30", "--trials", "1"], EXIT_USAGE,
    ),
    "cliquedensity_p_zero": (["experiment", "cliquedensity", "--N", "30", "--p", "0", "--trials", "1"], EXIT_USAGE),
    "turan_p_zero": (["experiment", "turan", "--N", "30", "--p", "0", "--trials", "1"], EXIT_USAGE),
    "counting_N_zero": (["experiment", "counting", "--N", "0", "--trials", "1"], EXIT_USAGE),
    "eta_zero": (["experiment", "counting", "--N", "30", "--trials", "1", "--eta", "0"], EXIT_USAGE),
    "eta_above_one": (["experiment", "counting", "--N", "30", "--trials", "1", "--eta", "1.5"], EXIT_USAGE),
    "packing_k_zero": (["experiment", "packing", "--N", "30", "--k", "0", "--trials", "1"], EXIT_USAGE),
    "classprobe_m_zero": (["experiment", "classprobe", "--m", "0", "--trials", "1"], EXIT_USAGE),
    "classprobe_n_zero": (["experiment", "classprobe", "--n", "0", "--trials", "1"], EXIT_USAGE),
    "delta_negative": (["experiment", "counting", "--N", "30", "--trials", "1", "--delta", "-0.1"], EXIT_USAGE),
    "d_negative": (["experiment", "counting", "--N", "30", "--trials", "1", "--d", "-1/4"], EXIT_USAGE),
    "gamma_negative": (["experiment", "aes", "--N", "30", "--trials", "1", "--gamma", "-0.25"], EXIT_USAGE),
    "gamma_nan": (["experiment", "aes", "--N", "30", "--trials", "1", "--gamma", "nan"], EXIT_USAGE),
    "clean_d_negative": (
        ["clean", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--d", "-1"], EXIT_USAGE,
    ),
    "clean_uniformity_negative": (
        ["clean", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--d", "0.25", "--uniformity", "-3"],
        EXIT_USAGE,
    ),
    "partition_max_t_below_t0": (
        ["partition", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--max-t", "0"], EXIT_USAGE,
    ),
    "clean_max_t_below_t0": (
        ["clean", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--d", "0.25", "--t0", "3", "--max-t", "2"],
        EXIT_USAGE,
    ),
    "class_n_negative": (
        ["gen", "class", "--pattern", "{triangle}", "--n", "-2", "--m", "0", "--p", "0.5", "--eps", "0.5"],
        EXIT_USAGE,
    ),
    "class_n_zero": (
        ["gen", "class", "--pattern", "{triangle}", "--n", "0", "--m", "0", "--p", "0.5", "--eps", "0.5"],
        EXIT_USAGE,
    ),
    "class_m_negative": (
        ["gen", "class", "--pattern", "{triangle}", "--n", "4", "--m", "-1", "--p", "0.5", "--eps", "0.5"],
        EXIT_USAGE,
    ),
    "class_p_negative": (
        ["gen", "class", "--pattern", "{triangle}", "--n", "4", "--m", "3", "--p", "-0.5", "--eps", "0.5",
         "--mode", "rejection"],
        EXIT_USAGE,
    ),
    "class_m_zero_accepted": (
        ["gen", "class", "--pattern", "{triangle}", "--n", "1", "--m", "0", "--p", "0.5", "--eps", "0.5"],
        EXIT_OK,
    ),
    "max_t_equal_to_t0_accepted": (
        ["partition", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--t0", "2", "--max-t", "2"], EXIT_OK,
    ),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_code_table(case, tmp_path):
    graph = tmp_path / "path.edges"
    graph.write_text(SimpleGraph.from_edges(8, [(i, i + 1) for i in range(7)]).to_edge_list())
    paths = {"dir": tmp_path, "graph": graph}
    for name, text in INPUT_FILES.items():
        paths[name] = tmp_path / f"{name}.input"
        paths[name].write_text(text, encoding="utf-8")
    template, expected = EXIT_CODES[case]
    argv = ["--seed", "1", "--out", str(tmp_path / "out.txt")] + [arg.format(**paths) for arg in template]
    assert main(argv) == expected


def test_soundness_error_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise SoundnessError("witness does not reproduce its deviation")

    monkeypatch.setattr(cli, "sparse_regular_partition", broken)
    graph = tmp_path / "path.edges"
    graph.write_text(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]).to_edge_list())
    argv = ["--seed", "1", "partition", "--graph", str(graph), "--eps", "0.3", "--p", "0.5"]
    assert main(argv) == EXIT_SOUNDNESS
    assert "soundness error" in capsys.readouterr().err


def test_rho_with_a_zero_denominator_is_a_usage_error_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(reglab.__file__).parent.parent))
    argv = ["--seed", "1", "experiment", "cliquedensity", "--rho", "1/0", "--trials", "1", "--N", "60"]
    done = subprocess.run([sys.executable, "-m", "reglab.cli", *argv], capture_output=True, text=True, env=env)
    assert done.returncode == EXIT_USAGE
    assert "--rho" in done.stderr and "Traceback" not in done.stderr


def test_negative_rho_is_a_usage_error_before_any_draw():
    env = dict(os.environ, PYTHONPATH=str(Path(reglab.__file__).parent.parent))
    argv = ["--seed", "1", "experiment", "cliquedensity", "--rho=-1/2", "--trials", "1", "--N", "60"]
    done = subprocess.run([sys.executable, "-m", "reglab.cli", *argv], capture_output=True, text=True, env=env)
    assert done.returncode == EXIT_USAGE
    assert "rho" in done.stderr
    assert "negative dimensions" not in done.stderr and "Traceback" not in done.stderr
