"""CLI outputs pinned as golden files, the flags each experiment reads, and the exit-code table.

Golden files.  ``GOLDEN_CASES`` names each file under ``tests/golden/`` with the argv
that writes it and the exit code that argv returns.  The test runs each case twice
with ``--seed 1``; both runs must return the code and write exactly what the file
holds.  Every experiment case passes all the flags its experiment reads explicitly,
so a change of a CLI default does not change what it runs.

- Storage: a ``.json`` golden holds the output pretty-printed,
  ``json.dumps(obj, indent=1)`` plus a newline, so ``git diff`` shows each changed
  value on its own line.  Any other golden (edge list, CSV, bare ``m2`` value) holds
  the output byte for byte.
- Comparison: exact bytes.  A JSON output must equal the golden re-serialised
  compactly, ``json.dumps(json.loads(golden)) + "\\n"``; ``json.loads`` keeps key
  order and float reprs round-trip, so this is the same check as a digest of the
  output.
- Update: on a mismatch the test fails with a unified diff of the golden against
  the new output in the golden's form, which it writes to pytest's ``tmp_path`` and
  names.  Copying that file over the golden accepts the change; a change that moves
  a golden says why in CHANGES.md.  A new case is one ``GOLDEN_CASES`` row: its
  first run fails with every line added and writes the file to copy.
"""

import contextlib
import csv
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglab
from reglab import cli, experiments
from reglab.cli import EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_OK, EXIT_SOUNDNESS, EXIT_USAGE, main
from reglab.errors import SoundnessError
from reglab.experiments import ExperimentReport
from reglab.graphs import PatternGraph, SimpleGraph
from reglab.randgraph import RngStream, gnp

from helpers import out_of_range

TRIANGLE = '{"k": 3, "edges": [[1, 2], [1, 3], [2, 3]]}\n'
C5 = '{"k": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}\n'


def multipartite(k: int, edges, n: int) -> str:
    """Multipartite JSON of the template on ``k`` vertices with 0-based ``edges`` (i, j), i < j, on parts of ``n``.

    Pair (i, j) joins u and v iff (u (i+2) + v (j+3) + i j) mod 5 < 3.
    """
    edges = list(edges)
    pairs = {
        f"{i + 1}-{j + 1}": [[u, v] for u in range(n) for v in range(n) if (u * (i + 2) + v * (j + 3) + i * j) % 5 < 3]
        for i, j in edges
    }
    pattern = {"k": k, "edges": [[i + 1, j + 1] for i, j in edges]}
    return json.dumps({"pattern": pattern, "part_size": n, "pairs": pairs}) + "\n"


def multipartite_k2(pairs: str) -> str:
    """Multipartite JSON of one 2-vertex pair with part size 2 and the given ``pairs`` entry."""
    return f'{{"pattern": {{"k": 2, "edges": [[1, 2]]}}, "part_size": 2, "pairs": {{"1-2": {pairs}}}}}\n'


def planted_blocks(n: int, blocks: int, p_in: float, p_out: float, seed: int) -> SimpleGraph:
    """A planted-block host: vertex labels and edges drawn from ``np.random.default_rng(seed)``."""
    gen = np.random.default_rng(seed)
    labels = gen.permutation(np.arange(n) % blocks)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    u, v = np.nonzero(np.triu(gen.random((n, n)) < prob, 1))
    return SimpleGraph.from_edges(n, zip(u.tolist(), v.tolist()))


#: placeholder -> text of the input file that it names in GOLDEN_CASES and EXIT_CODES
INPUT_FILES = {
    "triangle": TRIANGLE,
    "c5": C5,
    "graph": SimpleGraph.from_edges(8, [(i, i + 1) for i in range(7)]).to_edge_list(),
    # both part sizes leave padding bits in the packed rows, and both clique counts
    # span several frontier chunks; C4 takes the matrix route, cliques the level route
    "k3_parts_70": multipartite(3, combinations(range(3), 2), 70),
    "k4_parts_37": multipartite(4, combinations(range(4), 2), 37),
    "c4_parts_37": multipartite(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 37),
    # refined with classes of at most 12 vertices through four rounds, so every
    # verdict is an exhaustive scan
    "blocks_exhaustive": planted_blocks(120, 4, 0.3, 0.05, 120).to_edge_list(),
    # refined with classes of 34-67 vertices through three rounds of sampled refutation
    "blocks_sampled": planted_blocks(200, 3, 0.7, 0.1, 200).to_edge_list(),
    # cleaning keeps six cluster pairs whole with its bound inputs holding, so the report carries pair weights
    "gnp_64": gnp(64, 0.5, RngStream(7)).to_edge_list(),
    "bad_pattern": '{"k": 3}\n',
    "edgeless_pattern": '{"k": 3, "edges": []}\n',
    "bad_multipartite": multipartite_k2('[["a", 1]]'),
    "float_multipartite": multipartite_k2("[[0.5, 1]]"),
    "integral_float_multipartite": multipartite_k2("[[0, 1], [1.0, 0]]"),
    "string_multipartite": multipartite_k2('[[0, 1], ["1", "0"]]'),
    # each count read with int() would be truncated or parsed, and the file read as a graph
    "float_part_size": multipartite_k2("[[0, 1]]").replace('"part_size": 2', '"part_size": 2.5'),
    "string_part_size": multipartite_k2("[[0, 1]]").replace('"part_size": 2', '"part_size": "2"'),
    "float_k_pattern": '{"k": 2.5, "edges": [[1, 2]]}\n',
    "short_edge_line": "vertices 3\nedge 1\n",
    "bare_vertices": "vertices\nedge 0 1\n",
    "extra_edge_field": "vertices 8\nedge 0 1\nedge 1 2 7\n",
    "second_vertices": "vertices 3\nedge 0 1\nvertices 4\n",
    "non_integer_field": "vertices 8\nedge 0 x\n",
    # sizes whose rows fail to allocate at once (a size near 10^9 would try to fill memory instead)
    "huge_vertices": "vertices 100000000000000000\n",
    "huge_part_size": multipartite_k2("[]").replace('"part_size": 2', '"part_size": 100000000000000000'),
}


def run_cli(template: list[str], tmp_path: Path, out: Path | None, seed: int | None = 1) -> int:
    """Exit code of ``reglab --seed <seed> --out <out>`` on ``template``; a ``None`` leaves its flag out.

    ``{dir}`` in ``template`` is ``tmp_path``; any other ``{name}`` is the path of a
    file, written under ``tmp_path``, that holds ``INPUT_FILES[name]``.
    """
    paths = {"dir": tmp_path}
    for name, text in INPUT_FILES.items():
        if any("{" + name + "}" in arg for arg in template):
            paths[name] = tmp_path / f"{name}.input"
            paths[name].write_text(text, encoding="utf-8")
    head = ([] if seed is None else ["--seed", str(seed)]) + ([] if out is None else ["--out", str(out)])
    return main(head + [arg.format(**paths) for arg in template])


GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden file under GOLDEN_DIR -> (argv after ``--seed 1 --out``, exit code)
GOLDEN_CASES = {
    "counting.json": ([
        "experiment", "counting", "--pattern", "{triangle}", "--N", "60", "--p", "0.3", "--eta", "0.3", "--d", "0.25",
        "--delta", "0.15", "--eps", "0.25", "--trials", "2",
    ], EXIT_OK),
    "removal.json": ([
        "experiment", "removal", "--pattern", "{triangle}", "--N", "60", "--p", "0.3", "--delta", "0.15",
        "--eps", "0.25", "--trials", "2",
    ], EXIT_CHECK_FAILED),
    "cliquedensity.json": ([
        "experiment", "cliquedensity", "--k", "3", "--N", "60", "--p", "0.3", "--rho", "0.9", "--eps", "0.25",
        "--trials", "2",
    ], EXIT_OK),
    "packing.json": (
        ["experiment", "packing", "--k", "3", "--N", "60", "--p", "0.3", "--gamma", "0.25", "--trials", "2"],
        EXIT_CHECK_FAILED,
    ),
    # a passing pipeline: the trim succeeds without the fallback, and coverage reaches (1 - gamma) N
    "packing_passing.json": (
        ["experiment", "packing", "--k", "3", "--N", "1600", "--p", "0.1", "--gamma", "0.25", "--trials", "1"],
        EXIT_OK,
    ),
    "aes.json": ([
        "experiment", "aes", "--pattern", "{triangle}", "--N", "60", "--p", "0.3", "--gamma", "0.25", "--trials", "2",
    ], EXIT_CHECK_FAILED),
    "turan.json": ([
        "experiment", "turan", "--pattern", "{triangle}", "--N", "60", "--p", "0.3", "--eps", "0.25", "--trials", "2",
    ], EXIT_OK),
    "turan.csv": ([
        "--format", "csv", "experiment", "turan", "--pattern", "{triangle}", "--N", "60", "--p", "0.3",
        "--eps", "0.25", "--trials", "2",
    ], EXIT_OK),
    "classprobe.json": ([
        "experiment", "classprobe", "--pattern", "{triangle}", "--n", "8", "--m", "16", "--eps", "0.75",
        "--trials", "10",
    ], EXIT_OK),
    # the rejection cases take the exhaustive (n <= 16) and the guided sampled verdict route
    "class_rejection_exhaustive.json": ([
        "gen", "class", "--pattern", "{triangle}", "--n", "8", "--m", "16", "--p", "0.25", "--eps", "0.75",
        "--mode", "rejection",
    ], EXIT_OK),
    "class_rejection_exhaustive_redraws.json": ([
        "gen", "class", "--pattern", "{triangle}", "--n", "8", "--m", "16", "--p", "0.25", "--eps", "0.625",
        "--mode", "rejection",
    ], EXIT_OK),
    "class_rejection_sampled_redraws.json": ([
        "gen", "class", "--pattern", "{triangle}", "--n", "17", "--m", "72", "--p", "0.3", "--eps", "0.5",
        "--mode", "rejection",
    ], EXIT_OK),
    "class_raw.json": ([
        "gen", "class", "--pattern", "{triangle}", "--n", "17", "--m", "72", "--p", "0.3", "--eps", "0.5",
        "--mode", "raw",
    ], EXIT_OK),
    # written by the dense single-draw sampler, ``helpers.reference_gnp``, too
    "gnp.edges": (["gen", "gnp", "--n", "300", "--p", "0.05"], EXIT_OK),
    "count_K3.json": (["count", "--graph", "{k3_parts_70}"], EXIT_OK),
    "count_K4.json": (["count", "--graph", "{k4_parts_37}"], EXIT_OK),
    "count_C4.json": (["count", "--graph", "{c4_parts_37}"], EXIT_OK),
    "partition_exhaustive.json": ([
        "partition", "--graph", "{blocks_exhaustive}", "--eps", "0.3", "--p", "0.1", "--t0", "10", "--max-t", "40",
    ], EXIT_OK),
    "clean_exhaustive.json": ([
        "clean", "--graph", "{blocks_exhaustive}", "--eps", "0.3", "--p", "0.1", "--t0", "10", "--max-t", "40",
        "--d", "0.25", "--uniformity", "2",
    ], EXIT_OK),
    "partition_sampled.json": ([
        "partition", "--graph", "{blocks_sampled}", "--eps", "0.15", "--p", "0.5", "--t0", "3", "--max-t", "12",
    ], EXIT_OK),
    "clean_sampled.json": ([
        "clean", "--graph", "{blocks_sampled}", "--eps", "0.15", "--p", "0.5", "--t0", "3", "--max-t", "12",
        "--d", "0.25", "--uniformity", "2",
    ], EXIT_OK),
    "clean_kept_pairs.json": ([
        "clean", "--graph", "{gnp_64}", "--eps", "0.6", "--p", "0.5", "--t0", "4", "--max-t", "8",
        "--d", "0.25", "--uniformity", "2",
    ], EXIT_OK),
    "m2_C5.txt": (["m2", "--pattern", "{c5}"], EXIT_OK),
    "m2_C5_report.json": (["m2", "--pattern", "{c5}", "--report"], EXIT_OK),
    "schedule.json": (["schedule", "--p", "0.1", "--rounds", "4", "--ratio", "2"], EXIT_OK),
}


def run_case(case: str, tmp_path: Path, run: int = 0) -> tuple[int, bytes]:
    """Exit code and output of one run of golden case ``case``."""
    out = tmp_path / f"run{run}-{case}"
    return run_cli(GOLDEN_CASES[case][0], tmp_path, out), out.read_bytes()


def stored_form(output: bytes, suffix: str) -> str:
    """An output as a golden file of that suffix holds it: indented JSON for ``.json``, else its text."""
    text = output.decode("utf-8")
    return json.dumps(json.loads(text), indent=1) + "\n" if suffix == ".json" else text


def pinned_output(golden: Path) -> bytes:
    """The output a golden file pins: its JSON re-serialised compactly for ``.json``, else its bytes."""
    if golden.suffix == ".json":
        return (json.dumps(json.loads(golden.read_bytes())) + "\n").encode()
    return golden.read_bytes()


def assert_golden(output: bytes, golden: Path, tmp_path: Path) -> None:
    """Pass if ``output`` is what ``golden`` pins; else write it to ``tmp_path`` and fail with a diff."""
    if golden.exists() and output == pinned_output(golden):
        return
    new = tmp_path / golden.name
    stored = stored_form(output, golden.suffix)
    new.write_text(stored, encoding="utf-8")
    old = golden.read_text(encoding="utf-8").splitlines(keepends=True) if golden.exists() else []
    diff = "".join(difflib.unified_diff(old, stored.splitlines(keepends=True), str(golden), str(new)))
    pytest.fail(
        f"{diff or 'no line differs: the output is not the compact json.dumps form of its golden'}\n"
        f"new output written to {new}; copy it over {golden} to accept it",
        pytrace=False,
    )


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_output_is_golden_and_rerun_identical(case, tmp_path):
    for run in range(2):
        code, output = run_case(case, tmp_path, run)
        assert_golden(output, GOLDEN_DIR / case, tmp_path)
        assert code == GOLDEN_CASES[case][1]


def record_from_params(record, params: dict):
    """The ``record`` whose every declared parameter is read back from report params under its report key."""
    values = {}
    for row in record.declared():
        value = params[row.key or row.name]
        if row.kind is PatternGraph:
            value = PatternGraph.from_json(json.dumps(value))
        elif row.kind is Fraction:
            value = Fraction(value)
        values[row.name] = value
    return record(**values)


@pytest.mark.parametrize(
    "case", sorted(case for case, (argv, _) in GOLDEN_CASES.items() if argv[0] == "experiment" and ".json" in case)
)
def test_a_report_reruns_from_its_own_params(case):
    """The record read back from a golden report's params, run from the report's seed, writes the golden again."""
    golden = json.loads((GOLDEN_DIR / case).read_bytes())
    record = experiments.EXPERIMENTS[golden["name"]]
    params = record_from_params(record, {key: value for key, value in golden["params"].items() if key != "g_hat"})
    report = getattr(experiments, record.runner)(params, RngStream(golden["seed"]))
    assert (report.to_json() + "\n").encode() == pinned_output(GOLDEN_DIR / case)


def test_a_changed_golden_value_fails_with_a_diff_of_its_line(tmp_path):
    golden = GOLDEN_DIR / "turan.json"
    text = golden.read_text(encoding="utf-8")
    output = pinned_output(golden)
    assert_golden(output, golden, tmp_path)
    changed = tmp_path / "changed" / golden.name
    changed.parent.mkdir()
    changed.write_text(text.replace('  "N": 60,\n', '  "N": 61,\n', 1), encoding="utf-8")
    assert changed.read_text(encoding="utf-8") != text
    with pytest.raises(pytest.fail.Exception) as failure:
        assert_golden(output, changed, tmp_path)
    message = str(failure.value)
    assert '\n-  "N": 61,\n' in message and '\n+  "N": 60,\n' in message
    assert str(tmp_path / golden.name) in message
    assert (tmp_path / golden.name).read_text(encoding="utf-8") == text


def test_csv_report_has_one_row_per_trial_under_the_json_trial_keys():
    assert GOLDEN_CASES["turan.csv"] == (["--format", "csv", *GOLDEN_CASES["turan.json"][0]], EXIT_OK)
    trials = json.loads((GOLDEN_DIR / "turan.json").read_bytes())["trials"]
    rows = list(csv.reader(io.StringIO((GOLDEN_DIR / "turan.csv").read_text(encoding="utf-8"))))
    assert rows[0] == ["trial"] + sorted(set().union(*trials))
    assert [row[0] for row in rows[1:]] == [str(index) for index in range(len(trials))]
    assert len(trials) == 2


@pytest.mark.parametrize("name", ["aes", "cliquedensity", "packing", "removal"])
def test_regularize_stage_counts_add_up(name):
    """In the golden report, verdicts cover every class pair once; cleaning's deletions are the sum of their causes."""
    for record in json.loads((GOLDEN_DIR / f"{name}.json").read_bytes())["trials"]:
        pairs = record["pairs_certified"] + record["pairs_refuted"] + record["pairs_undecided"]
        assert pairs == math.comb(record["partition_t"], 2)
        causes = record["deleted_clean_within"] + record["deleted_clean_refuted"] + record["deleted_clean_sparse"]
        assert record["deleted_clean"] == causes
        assert "stage_failed" in record or record["inconclusive"] == (not record["partition_converged"])


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
    "--eta": ("0.19", 0.19),
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

    def recording_runner(params, rng):
        values = {row.name: (getattr(params, row.name), row.default) for row in params.declared()}
        calls.append({name: value for name, (value, default) in values.items() if value != default} | {"rng": rng})
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

    def recording_turan(params, rng):
        calls.append(params)
        return real(params, rng)

    monkeypatch.setattr(experiments, "run_turan", recording_turan)
    code, output = run_case("turan.json", tmp_path)
    assert calls == [experiments.TuranParams(PatternGraph.complete(3), host_n=60, p=0.3, eps=0.25, trials=2)]
    assert code == EXIT_OK
    assert_golden(output, GOLDEN_DIR / "turan.json", tmp_path)


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """The first ``main`` call builds the parser; later calls reuse it."""
    builds = []
    real = cli.build_parser

    def counting_build():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for _ in range(2):
        assert run_cli(GOLDEN_CASES["schedule.json"][0], tmp_path, tmp_path / "schedule.json") == EXIT_OK
    assert builds == [1]


def test_counting_runs_on_its_defaults(tmp_path):
    out = tmp_path / "counting.json"
    assert main(["--seed", "1", "--out", str(out), "experiment", "counting", "--trials", "1"]) == EXIT_OK


#: case -> (argv with {dir} and INPUT_FILES placeholders, exit code)
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
    "multipartite_float_part_size": (["count", "--graph", "{float_part_size}"], EXIT_USAGE),
    "multipartite_string_part_size": (["count", "--graph", "{string_part_size}"], EXIT_USAGE),
    "pattern_float_k": (["m2", "--pattern", "{float_k_pattern}"], EXIT_USAGE),
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
    "removal_delta_inf": (["experiment", "removal", "--N", "30", "--trials", "1", "--delta", "inf"], EXIT_USAGE),
    "counting_d_inf": (["experiment", "counting", "--N", "30", "--trials", "1", "--d", "inf"], EXIT_USAGE),
    "clean_d_inf": (["clean", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--d", "inf"], EXIT_USAGE),
    "clean_uniformity_inf": (
        ["clean", "--graph", "{graph}", "--eps", "0.3", "--p", "0.5", "--d", "0.25", "--uniformity", "inf"],
        EXIT_USAGE,
    ),
    "aes_gamma_inf": (["experiment", "aes", "--N", "30", "--trials", "1", "--gamma", "inf"], EXIT_USAGE),
    "packing_gamma_inf": (["experiment", "packing", "--N", "30", "--trials", "1", "--gamma", "inf"], EXIT_USAGE),
    "packing_gamma_above_one": (
        ["experiment", "packing", "--N", "30", "--trials", "1", "--gamma", "1e308"], EXIT_USAGE,
    ),
    "cliquedensity_N_one": (["experiment", "cliquedensity", "--N", "1", "--trials", "1"], EXIT_USAGE),
    "packing_k_one": (["experiment", "packing", "--N", "30", "--k", "1", "--trials", "1"], EXIT_USAGE),
    # N below the t0 classes of the first partition: removal's 8, aes's and cliquedensity's 6
    "removal_N_below_t0": (["experiment", "removal", "--N", "7", "--trials", "1"], EXIT_USAGE),
    "aes_N_below_t0": (["experiment", "aes", "--N", "5", "--trials", "1"], EXIT_USAGE),
    "cliquedensity_N_below_t0": (["experiment", "cliquedensity", "--N", "5", "--trials", "1"], EXIT_USAGE),
    # no regular sample among its 10 draws at eps = 0.25 (ROADMAP item 10)
    "classprobe_defaults": (["experiment", "classprobe"], EXIT_BUDGET),
    # every trial has a pair below d p n^2, so nothing is tested
    "counting_every_trial_below_the_floor": (
        ["experiment", "counting", "--pattern", "{triangle}", "--N", "60", "--p", "0.3", "--d", "10", "--trials", "1"],
        EXIT_BUDGET,
    ),
    "no_seed": (["experiment", "turan", "--N", "30", "--trials", "1"], EXIT_USAGE),
    "partition_unallocatable_vertex_count": (
        ["partition", "--graph", "{huge_vertices}", "--eps", "0.3", "--p", "0.5"], EXIT_BUDGET,
    ),
    "count_unallocatable_part_size": (["count", "--graph", "{huge_part_size}"], EXIT_BUDGET),
}

#: EXIT_CODES cases run without ``--seed``; every case runs with ``REGLAB_SEED`` unset
UNSEEDED = {"no_seed"}


def record_draws(monkeypatch) -> list[str]:
    """The names of the host and class samplers that ``reglab.experiments`` calls from now on, one per call."""
    draws = []
    for sampler in ("gnp", "sample_class"):
        real = getattr(experiments, sampler)

        def recording(*args, sampler=sampler, real=real, **kwargs):
            draws.append(sampler)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, sampler, recording)
    return draws


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_code_table(case, tmp_path, monkeypatch):
    """Each case exits with its code; a usage error comes before any host or class draw."""
    template, expected = EXIT_CODES[case]
    monkeypatch.delenv("REGLAB_SEED", raising=False)
    draws = record_draws(monkeypatch)
    assert run_cli(template, tmp_path, tmp_path / "out.txt", seed=None if case in UNSEEDED else 1) == expected
    assert expected != EXIT_USAGE or draws == []


@pytest.mark.parametrize("case", ["partition_unallocatable_vertex_count", "count_unallocatable_part_size"])
def test_an_unallocatable_input_size_is_a_budget_error_without_a_traceback(case, tmp_path, capsys):
    template, expected = EXIT_CODES[case]
    assert run_cli(template, tmp_path, tmp_path / "out.txt") == expected == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err == "budget error: the input's size could not be allocated\n"


def test_reglab_seed_stands_in_for_the_seed_flag(tmp_path, monkeypatch):
    """Without ``--seed``, ``REGLAB_SEED=1`` writes the bytes that ``--seed 1`` writes."""
    monkeypatch.setenv("REGLAB_SEED", "1")
    template, code = GOLDEN_CASES["turan.json"]
    assert run_cli(template, tmp_path, tmp_path / "out.json", seed=None) == code
    assert_golden((tmp_path / "out.json").read_bytes(), GOLDEN_DIR / "turan.json", tmp_path)


def test_without_out_the_output_goes_to_stdout(tmp_path, capsys):
    """Without ``--out``, the bytes that ``--out`` writes go to stdout."""
    template, code = GOLDEN_CASES["turan.json"]
    assert run_cli(template, tmp_path, None) == code
    assert_golden(capsys.readouterr().out.encode(), GOLDEN_DIR / "turan.json", tmp_path)


#: (experiment, declared parameter) of each experiment option with a declared range
RANGED_OPTIONS = [
    (name, row)
    for name, record in experiments.EXPERIMENTS.items()
    for row in record.declared()
    if row.option and row.range
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_out_of_range_option_exits_2_naming_it_before_any_draw(data):
    """Any value outside an option's declared range exits 2 with the option and its keyword in stderr."""
    name, row = data.draw(st.sampled_from(RANGED_OPTIONS))
    value = data.draw(out_of_range(row.kind, row.range))

    def no_draw(*args, **kwargs):
        raise AssertionError("a host or class sample was drawn")

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(experiments, "gnp", no_draw), \
            mock.patch.object(experiments, "sample_class", no_draw), contextlib.redirect_stderr(err):
        text = repr(value) if row.kind is float else str(value)
        if row.kind is PatternGraph:
            text = Path(tmp, "template.json")
            text.write_text(value.to_json(), encoding="utf-8")
        code = main(["--seed", "1", "--out", str(Path(tmp, "out.json")), "experiment", name, f"{row.option}={text}"])
    assert code == EXIT_USAGE
    assert row.option in err.getvalue() and row.name in err.getvalue()


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
