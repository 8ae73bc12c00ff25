"""Self-test of the benchmark suite::

    python -m pytest benchmarks/suite -q

Runs the whole suite twice in ``--smoke`` mode (a few jobs per workload,
untraced and traced) and checks the reports: every declared metric is
present with its unit, no output is wrong, and the deterministic counts
repeat exactly between the two runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECL["workloads"]]
SECTIONS = (("untraced", "end_to_end"), ("traced", "per_layer"))
#: Workloads whose search runs in the measuring process, deterministically.
IN_PROCESS = ("queko_depth", "queko_swap", "certified_depth", "large_device")


def run_suite(out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--seed", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return run_suite(tmp / "a.json"), run_suite(tmp / "b.json")


def test_every_declared_metric_has_a_value_and_unit(reports):
    for report in reports:
        for name in NAMES:
            for kind, section in SECTIONS:
                metrics = report["workloads"][name][kind]["line"]["metrics"]
                assert sorted(metrics) == sorted(m["name"] for m in DECL[section])
                for spec in DECL[section]:
                    assert metrics[spec["name"]]["unit"] == spec["unit"]
                    assert isinstance(metrics[spec["name"]]["value"], (int, float))


def test_no_output_is_wrong(reports):
    for report in reports:
        for name in NAMES:
            for kind, _section in SECTIONS:
                line = report["workloads"][name][kind]["line"]
                assert line["correct"] is True, (name, kind, line)
                assert line["attempted"] >= 1
                assert line["failed"] == 0


def test_deterministic_counts_repeat(reports):
    a, b = (r["workloads"] for r in reports)
    for name in IN_PROCESS:
        for kind, _section in SECTIONS:
            for key in ("depth_total", "swap_total"):
                assert a[name][kind]["details"][key] == b[name][kind]["details"][key]
        for metric in ("solver.conflicts", "encoder.clauses"):
            values = [w[name]["traced"]["line"]["metrics"][metric]["value"] for w in (a, b)]
            assert values[0] == values[1], (name, metric, values)


def test_template_reuse_shows_only_where_expected(reports):
    for report in reports:
        hits = {
            name: report["workloads"][name]["traced"]["line"]["metrics"]
            ["templates.hits"]["value"]
            for name in NAMES
        }
        assert hits["queko_depth"] == hits["queko_swap"] == 0
        assert hits["certified_depth"] == 0
        assert hits["service_mix"] > 0


def test_layer_map_covers_exactly_the_per_layer_metrics():
    layers = json.loads((SUITE / "layers.json").read_text())
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in DECL["per_layer"])
    for layer in layers.values():
        assert set(layer["heavy_on"] + layer["flat_on"]) <= set(NAMES)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
