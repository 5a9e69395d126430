"""What the benchmark prints matches what BENCHMARK.json declares."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import PER_LAYER, RUN_LEVEL
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def fake_process(wall, trace=None):
    proc = {"wall_s": wall, "cpu_s": 2 * wall, "rss_mb": 100.0 + wall, "code": 0}
    if trace is not None:
        proc["trace"] = trace
    return proc


def test_every_name_is_well_formed_and_used_once():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer") for m in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_untraced_run_prints_exactly_the_declared_end_to_end_metrics():
    values = run.metric_values([1.0, 3.0, 2.0], [fake_process(5.0), fake_process(4.0)], [])
    assert dict(run.END_TO_END) == declared("end_to_end")
    assert set(values) == set(declared("end_to_end"))
    assert values["setup_s"] == 2.0 and values["command_s"] == 4.5
    assert values["peak_rss_mb"] == 105.0


def test_traced_run_prints_exactly_the_declared_per_layer_metrics():
    trace = {"import_s": 1.0, "spans": [
        {"name": "cli.main", "start": 0.0, "end": 2.0, "parent": None, "thread": 1}]}
    values = run.metric_values([1.0], [fake_process(4.0)], [fake_process(5.0, trace)])
    assert dict(PER_LAYER + RUN_LEVEL) == declared("per_layer")
    assert set(values) == set(declared("per_layer"))
    assert values["trace.overhead_s"] == pytest.approx(1.0)


def test_without_the_program_source_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "estimate-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
