"""The tracer records nested spans, reports removed names, and summarises a traced round.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH = Path(__file__).resolve().parent


def test_wrappers_reach_every_namespace_and_missing_names_are_reported():
    lib = types.ModuleType("reglab._trace_lib")
    user = types.ModuleType("reglab._trace_user")
    exec("def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n", lib.__dict__)
    user.outer = lib.outer  # imported by name, as reglab's modules do
    sys.modules.update({lib.__name__: lib, user.__name__: user})
    try:
        tracer = tracing.Tracer()
        tracer.install({
            "fake.outer": [(lib.__name__, "outer")],
            "fake.inner": [(lib.__name__, "inner"), (lib.__name__, "removed_name")],
        })
        assert user.outer(1) == 4
    finally:
        for name in (lib.__name__, user.__name__):
            del sys.modules[name]
    assert tracer.missing == ["reglab._trace_lib.removed_name"]
    (outer, start, end, parent), (inner, i_start, i_end, i_parent) = tracer.spans
    assert (outer, parent, inner, i_parent) == ("reglab._trace_lib.outer", -1, "reglab._trace_lib.inner", 0)
    assert start <= i_start <= i_end <= end


def test_traced_round_reports_every_layer(tmp_path):
    adj = workloads.block_model(np.random.default_rng(0), 40, 2, 0.5, 0.1)
    workloads.write_edge_list(tmp_path / "g.edges", adj)
    plan = [["--seed", "1", "--format", "json", "--out", str(tmp_path / "p.json"), "partition",
             "--graph", str(tmp_path / "g.edges"), "--eps", "0.3", "--p", "0.3", "--t0", "4",
             "--max-t", "8", "--refuter-trials", "8"]]
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    paths = [str(tmp_path / name) for name in ("result.json", "plan.json", "spans.jsonl")]
    subprocess.run([sys.executable, str(BENCH / "worker.py"), *paths], env=env, check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [call["code"] for call in result["calls"]] == [0]
    metrics, missing = tracing.summarize(paths[2])
    assert missing == []
    expected = set(tracing.PER_LAYER_UNITS) - {"cli.import_s", "trace.overhead_s"}
    assert expected <= set(metrics)
    assert metrics["partition.rounds"] >= 1 and metrics["regularity.exhaustive_calls"] >= 6
    assert metrics["regularity.exhaustive_subsets"] >= metrics["regularity.exhaustive_calls"]
    assert all(metrics[name] >= 0 for name in expected)
    assert metrics["cli.self_s"] > 0 and metrics["graphs.parse_s"] > 0
