"""CSV export of sweeps and failover suites.

JSON is written by :func:`repro.experiments.run.write_json`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Union

from repro.experiments.failover import FailoverResult
from repro.experiments.sweep import SweepResult

PathLike = Union[str, Path]


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
