"""CSV export of sweeps and failover suites, and reading sweeps back.

JSON is written by :func:`repro.experiments.run.write_json`, whose sweep
documents :func:`read_sweep_json` reads back.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.experiments.failover import FailoverResult
from repro.experiments.sweep import SweepResult

PathLike = Union[str, Path]


def read_sweep_json(path: PathLike) -> List[SweepResult]:
    """Load a sweep previously written by
    :func:`~repro.experiments.run.write_json`."""
    payload = json.loads(Path(path).read_text())
    return [
        SweepResult(
            scenario=entry["scenario"],
            family=entry["family"],
            seed=int(entry["seed"]),
            controllers=int(entry.get("controllers", 1)),
            num_switches=int(entry["switches"]),
            num_links=int(entry["links"]),
            auto_seconds=entry["auto_seconds"],
            manual_seconds=entry["manual_seconds"],
            milestones=dict(entry.get("milestones", {})),
            frames_delivered=int(entry.get("frames_delivered", 0)),
            frames_dropped=int(entry.get("frames_dropped", 0)),
            wall_seconds=float(entry.get("wall_seconds", 0.0)),
        )
        for entry in payload
    ]


def write_sweep_csv(results: Iterable[SweepResult], path: PathLike) -> Path:
    """Write a scenario sweep as CSV (one row per scenario, no milestones)."""
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "family", "seed", "controllers",
                         "switches", "links", "auto_seconds",
                         "manual_seconds", "speedup", "frames_delivered",
                         "frames_dropped"])
        for result in results:
            writer.writerow([result.scenario, result.family, result.seed,
                             result.controllers,
                             result.num_switches, result.num_links,
                             result.auto_seconds, result.manual_seconds,
                             result.speedup, result.frames_delivered,
                             result.frames_dropped])
    return target


def read_sweep_csv(path: PathLike) -> List[SweepResult]:
    """Load a sweep previously written by :func:`write_sweep_csv`.

    The CSV format carries no milestones or wall-clock column, so those
    fields come back empty/zero.  Frame counters default to zero for files
    written before the columns existed.
    """
    results = []
    with Path(path).open(newline="") as handle:
        for row in csv.DictReader(handle):
            auto = row["auto_seconds"]
            results.append(SweepResult(
                scenario=row["scenario"],
                family=row["family"],
                seed=int(row["seed"]),
                controllers=int(row.get("controllers") or 1),
                num_switches=int(row["switches"]),
                num_links=int(row["links"]),
                auto_seconds=float(auto) if auto not in ("", "None") else None,
                manual_seconds=float(row["manual_seconds"]),
                frames_delivered=int(row.get("frames_delivered") or 0),
                frames_dropped=int(row.get("frames_dropped") or 0),
            ))
    return results


def write_failover_csv(results: Iterable[FailoverResult], path: PathLike) -> Path:
    """Write a failover suite as CSV, one row per injected failure event.

    The per-run delivery/drop totals ride on every row so the file stays
    flat (same shape as the sweep CSV).
    """
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "family", "seed", "switches", "links",
                         "configured_seconds", "event_index", "action",
                         "event", "at_seconds", "reconverge_seconds",
                         "route_changes", "frames_lost", "frames_delivered",
                         "frames_dropped"])
        for result in results:
            delivered = result.link_stats.get("frames_delivered", 0)
            dropped = result.link_stats.get("frames_dropped", 0)
            if not result.events:
                writer.writerow([result.scenario, result.family, result.seed,
                                 result.num_switches, result.num_links,
                                 result.configured_seconds, "", "", "", "",
                                 "", "", "", delivered, dropped])
                continue
            for event in result.events:
                writer.writerow([result.scenario, result.family, result.seed,
                                 result.num_switches, result.num_links,
                                 result.configured_seconds, event.index,
                                 event.action, event.description,
                                 event.at_seconds, event.reconverge_seconds,
                                 event.route_changes, event.frames_lost,
                                 delivered, dropped])
    return target
