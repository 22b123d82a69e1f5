"""Parallel scenario sweeps.

Generalises the Figure 3 harness: any list of registered (or ad-hoc)
:class:`~repro.scenarios.ScenarioSpec` objects is executed as a sweep, one
independent simulation per scenario.  Runs are embarrassingly parallel —
every scenario builds its own simulator, topology and framework from a
deterministic seed — so with ``workers > 1`` they are fanned out across
processes with :class:`concurrent.futures.ProcessPoolExecutor`.  Results
come back in scenario order and are bit-identical to a serial run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.experiments.config_time import run_single_configuration
from repro.experiments.results import format_seconds, format_table
from repro.experiments.run import PathLike, write_csv
from repro.scenarios import ScenarioSpec, resolve

LOG = logging.getLogger(__name__)

ScenarioLike = Union[str, ScenarioSpec]


@dataclass
class SweepResult:
    """The outcome of configuring one scenario."""

    scenario: str
    family: str
    seed: int
    num_switches: int
    num_links: int
    auto_seconds: Optional[float]
    manual_seconds: float
    #: Controller shards the scenario ran under (1 = single RF-controller).
    controllers: int = 1
    milestones: Dict[str, float] = field(default_factory=dict)
    #: Physical frames delivered / dropped across the emulated network by
    #: the end of the run (from ``EmulatedNetwork.stats()``).
    frames_delivered: int = 0
    frames_dropped: int = 0
    #: Host wall-clock spent on this run (not simulated time; informational
    #: only — it varies between runs and machines and is excluded from
    #: equality comparisons in the test-suite).
    wall_seconds: float = 0.0

    #: Derived values the JSON payload carries (see ``run.to_payload``).
    payload_properties = ("speedup",)

    @property
    def configured(self) -> bool:
        return self.auto_seconds is not None

    @property
    def speedup(self) -> Optional[float]:
        if not self.auto_seconds:
            return None
        return self.manual_seconds / self.auto_seconds


def run_scenario(spec: ScenarioSpec) -> SweepResult:
    """Build and automatically configure one scenario, measuring the time.

    Delegates the measurement itself to the Figure 3 harness
    (:func:`run_single_configuration`), so sweep numbers can never diverge
    from the paper-figure numbers for the same topology.
    """
    started = time.perf_counter()
    topology = spec.build_topology()
    measured = run_single_configuration(topology,
                                        config=spec.framework_config(topology),
                                        max_time=spec.max_time)
    return SweepResult(
        scenario=spec.name,
        family=spec.family,
        seed=spec.seed,
        num_switches=measured.num_switches,
        num_links=measured.num_links,
        auto_seconds=measured.auto_seconds,
        manual_seconds=measured.manual_seconds,
        controllers=spec.controllers,
        milestones=dict(measured.milestones),
        frames_delivered=measured.link_stats.get("frames_delivered", 0),
        frames_dropped=measured.link_stats.get("frames_dropped", 0),
        wall_seconds=time.perf_counter() - started,
    )


def _resolve_specs(scenarios: Iterable[ScenarioLike]) -> List[ScenarioSpec]:
    specs: List[ScenarioSpec] = []
    for item in scenarios:
        if isinstance(item, ScenarioSpec):
            specs.append(item)
        else:
            specs.extend(resolve([item]))
    return specs


def run_sweep(scenarios: Union[ScenarioLike, Sequence[ScenarioLike]],
              workers: int = 1,
              controllers: Optional[int] = None) -> List[SweepResult]:
    """Run every scenario and return their results in input order.

    ``scenarios`` mixes registry names and ad-hoc :class:`ScenarioSpec`
    objects.  ``workers=1`` runs serially in-process; ``workers > 1`` fans
    the runs out over a process pool (each worker re-imports the package,
    so ad-hoc specs must be picklable — plain dataclasses always are).
    Per-scenario seeds live in the specs themselves, so the results are
    independent of ``workers`` and of scheduling order.  ``controllers``
    overrides every scenario's controller-shard count for the sweep
    (``repro sweep --controllers``).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if isinstance(scenarios, (str, ScenarioSpec)):
        # A lone name/spec would otherwise be iterated element-by-element
        # (character-by-character for a string).
        scenarios = [scenarios]
    specs = _resolve_specs(scenarios)
    if controllers is not None:
        specs = [spec.with_controllers(controllers) for spec in specs]
    if not specs:
        return []
    if workers == 1 or len(specs) == 1:
        results = []
        for spec in specs:
            result = run_scenario(spec)
            LOG.info("sweep: %s (%d switches) -> auto %s", spec.name,
                     result.num_switches, format_seconds(result.auto_seconds))
            results.append(result)
        return results
    # Imported here: it loads ``multiprocessing``, which every other
    # ``import repro`` (the CLI, the performance ledger) would pay for
    # unused.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        # ``map`` preserves submission order regardless of completion order.
        results = list(pool.map(run_scenario, specs, chunksize=1))
    for result in results:
        LOG.info("sweep: %s (%d switches) -> auto %s", result.scenario,
                 result.num_switches, format_seconds(result.auto_seconds))
    return results


def render_sweep_table(results: Sequence[SweepResult]) -> str:
    """Render a sweep as an ASCII table."""
    rows = []
    for result in results:
        rows.append([
            result.scenario,
            result.num_switches,
            result.num_links,
            format_seconds(result.auto_seconds),
            format_seconds(result.manual_seconds),
            f"{result.speedup:.0f}x" if result.speedup else "n/a",
        ])
    return format_table(
        ["scenario", "switches", "links", "automatic", "manual (paper model)",
         "speedup"], rows)


def write_sweep_csv(results: Iterable[SweepResult], path: PathLike) -> Path:
    """Write a scenario sweep as CSV (one row per scenario, no milestones)."""
    return write_csv(path, [
        "scenario", "family", "seed", "controllers", "switches", "links",
        "auto_seconds", "manual_seconds", "speedup", "frames_delivered",
        "frames_dropped"], (
        [result.scenario, result.family, result.seed, result.controllers,
         result.num_switches, result.num_links, result.auto_seconds,
         result.manual_seconds, result.speedup, result.frames_delivered,
         result.frames_dropped]
        for result in results))
