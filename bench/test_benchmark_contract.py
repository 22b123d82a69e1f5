"""Contract test of the benchmark: ``BENCHMARK.json`` against what
``bench/run.py`` really emits.

Every workload runs at ``--scale smoke`` (ring-4, ``interdomain-3as``,
``ring-16-c2``, a 4x4 torus with 2,000 demands), once untraced and once
traced, each in its own subprocess exactly as the benchmark driver
invokes it.  The two runs share a seed, so they double as the
determinism check: across processes, and with the tracer on, the
simulated outputs and counts must come out identical.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [path for path in (str(ROOT), str(ROOT / "src"))
                if path not in sys.path]

from bench import compare, layers, run  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The declared command, under the interpreter running this test.
COMMAND = [sys.executable] + BENCHMARK["command"][1:]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7


def _run(workload: str, trace: int, out: Path) -> dict:
    finished = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(SEED), "--seconds",
                   "0", "--trace", str(trace), "--scale", "smoke", "--out",
                   str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    assert finished.returncode == 0, finished.stdout
    result = json.loads(finished.stdout.splitlines()[-1])
    record = json.loads((out / f"run-{workload}-s{SEED}-t{trace}.json")
                        .read_text())
    assert record["metrics"] == result["metrics"]
    return dict(record, result=result)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-smoke")
    return {(workload["name"], trace): _run(workload["name"], trace, out)
            for workload in BENCHMARK["workloads"] for trace in (0, 1)}


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        BENCHMARK["end_to_end"][0].items()


def test_declarations_match_the_code_in_both_directions():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    for section, declared in (("end_to_end", layers.END_TO_END),
                              ("per_layer", layers.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK[section]] == list(declared)


def test_emitted_metrics_equal_the_declared_ones(records):
    for (workload, trace), record in records.items():
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: entry["unit"]
                for name, entry in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in declared}, (workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert record["scale"] == "smoke"
        if not trace:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())
            assert set(WORKLOADS[workload].phases) <= set(record["phases"])


def test_same_seed_gives_identical_outputs_traced_or_not(records):
    for workload in WORKLOADS:
        assert records[workload, 0]["outputs"] \
            == records[workload, 1]["outputs"], workload


def test_traced_layers_and_remainder_sum_to_the_traced_wall(records):
    for workload in WORKLOADS:
        record = records[workload, 1]
        value = {name: entry["value"]
                 for name, entry in record["metrics"].items()}
        wall = record["traced_wall_s"]
        layered = sum(value[f"{layer}.self_s"] for layer in layers.LAYERS)
        remainder = value["harness.unattributed_share"] * wall
        assert layered + remainder == pytest.approx(wall, rel=0.05), workload
        assert value["harness.unattributed_share"] < 0.05, workload


def test_compare_refuses_smoke_records(records, tmp_path):
    runs = tmp_path / "runs.json"
    runs.write_text(json.dumps([records[workload, 0]
                                for workload in WORKLOADS]))
    with pytest.raises(SystemExit, match="smoke-scale"):
        compare.load(str(runs))


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result, a non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    finished = subprocess.run(
        COMMAND + ["--workload", "ospf_torus64", "--seed", "1", "--seconds",
                   "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert finished.returncode != 0
    assert finished.stdout == ""
