"""Smoke tests of the benchmark harness; run with ``python3 -m pytest perfbench``.

They run every workload at its smoke size through the same code paths and
output checks as the timed runs, so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def _result(*args):
    proc = _bench("--smoke", "--seed", "5", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_smoke_untraced_reports_every_end_to_end_metric():
    result = _result("--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    for workload in workloads.SIZES:
        for name, unit in run.END_TO_END:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0


def test_smoke_traced_reports_every_layer_metric_and_covers_the_body():
    result = _result("--trace", "1")
    assert result["correct"] and result["failed"] == 0
    for workload in workloads.SIZES:
        for name, unit, _ in layers.PER_LAYER:
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
        assert result["metrics"][f"{workload}.trace.top_level_cover_frac"]["value"] >= 0.9
    assert result["metrics"]["engines.gaussian.measure_x.calls"]["value"] > 0
    assert result["metrics"]["sweep.gaussian.measure_x.calls"]["value"] == 0


def test_tracer_sees_names_imported_elsewhere_and_records_absent_ones():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import numpy as np, spans, spinlight\n"
        "t = spans.Tracer('spinlight')\n"
        "t.install(['gaussian.measure_x', 'experiment.no_such_fn', 'no_such_module.f'])\n"
        "spinlight.protocols.teleport_spin_state((0.0, 0.0), 4.0, n_runs=3, seed=1)\n"
        "s = t.summary()\n"
        "print(s['functions']['gaussian.measure_x']['calls'], ','.join(s['absent']))\n")
    proc = subprocess.run([sys.executable, "-c", code, HERE, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["12", "experiment.no_such_fn,no_such_module.f"]


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "engines", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
