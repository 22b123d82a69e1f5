"""Tests for the parallel sweep runner and its JSON/CSV export."""

from __future__ import annotations

import csv
import json

import pytest

from repro.experiments import (
    render_sweep_table,
    run_scenario,
    run_sweep,
    write_json,
    write_sweep_csv,
)
from repro.experiments.sweep import SweepResult
from repro.scenarios import ScenarioSpec

#: Small scenarios so the parallel tests stay fast.
FAST_SPECS = [
    ScenarioSpec("sweep-ring", "ring", {"num_switches": 3},
                 framework={"vm_boot_delay": 1.0}, max_time=600.0),
    ScenarioSpec("sweep-star", "star", {"num_leaves": 3},
                 framework={"vm_boot_delay": 1.0}, max_time=600.0),
    ScenarioSpec("sweep-random", "random", {"num_switches": 4}, seed=5,
                 framework={"vm_boot_delay": 1.0}, max_time=600.0),
]


def comparable(results):
    """Everything deterministic about a result (wall clock excluded)."""
    return [(r.scenario, r.family, r.seed, r.num_switches, r.num_links,
             r.auto_seconds, r.manual_seconds, r.milestones) for r in results]


class TestRunScenario:
    def test_configures_and_records_shape(self):
        result = run_scenario(FAST_SPECS[0])
        assert result.scenario == "sweep-ring"
        assert result.configured
        assert result.num_switches == 3
        assert result.auto_seconds > 0
        assert result.manual_seconds == 3 * 15 * 60
        assert "ospf_converged" in result.milestones
        assert result.wall_seconds > 0

    def test_is_deterministic(self):
        assert comparable([run_scenario(FAST_SPECS[2])]) == comparable(
            [run_scenario(FAST_SPECS[2])])


class TestRunSweep:
    def test_accepts_registry_names(self):
        results = run_sweep(["ring-4"])
        assert [r.scenario for r in results] == ["ring-4"]
        assert results[0].configured

    def test_accepts_a_bare_name_or_spec(self):
        assert [r.scenario for r in run_sweep("ring-4")] == ["ring-4"]
        assert [r.scenario for r in run_sweep(FAST_SPECS[0])] == ["sweep-ring"]

    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            run_sweep(["ring-4"], workers=0)

    def test_parallel_matches_serial_in_order(self):
        serial = run_sweep(FAST_SPECS, workers=1)
        parallel = run_sweep(FAST_SPECS, workers=3)
        assert comparable(parallel) == comparable(serial)
        assert [r.scenario for r in parallel] == [s.name for s in FAST_SPECS]

    def test_render_table(self):
        results = run_sweep([FAST_SPECS[0]])
        table = render_sweep_table(results)
        assert "sweep-ring" in table
        assert "speedup" in table


class TestSweepExport:
    def test_json_round_trip(self, tmp_path):
        results = run_sweep(FAST_SPECS[:2])
        path = write_json(results, tmp_path / "sweep.json")
        loaded = json.loads(path.read_text())
        assert [(r["scenario"], r["family"], r["seed"], r["switches"],
                 r["links"], r["auto_seconds"], r["manual_seconds"],
                 r["milestones"]) for r in loaded] == comparable(results)

    def test_csv_round_trip(self, tmp_path):
        results = run_sweep(FAST_SPECS[:2])
        path = write_sweep_csv(results, tmp_path / "sweep.csv")
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        # CSV carries no milestones; compare the scalar columns.
        assert [(r["scenario"], r["family"], int(r["seed"]),
                 int(r["switches"]), int(r["links"]),
                 float(r["auto_seconds"]), float(r["manual_seconds"]))
                for r in rows] == \
               [(r.scenario, r.family, r.seed, r.num_switches, r.num_links,
                 r.auto_seconds, r.manual_seconds) for r in results]

    def test_csv_preserves_unconfigured_runs(self, tmp_path):
        result = SweepResult(scenario="t", family="ring", seed=0,
                             num_switches=3, num_links=3, auto_seconds=None,
                             manual_seconds=2700.0)
        path = write_sweep_csv([result], tmp_path / "none.csv")
        with path.open(newline="") as handle:
            row, = csv.DictReader(handle)
        assert (row["auto_seconds"], row["speedup"]) == ("", "")
