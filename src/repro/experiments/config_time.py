"""Figure 3: automatic vs manual configuration time on ring topologies.

For each ring size the experiment builds the emulated network, attaches a
cold automatic-configuration framework, runs the simulation until RouteFlow
is fully configured (every switch mirrored by a running VM, every link
addressed, OSPF converged everywhere) and records the simulated time.  The
manual baseline uses the paper's 5+2+8-minutes-per-switch model.
"""

from __future__ import annotations

import logging
from typing import Iterable, List, Optional

from repro.core.autoconfig import FrameworkConfig
from repro.core.manual_model import ManualConfigurationModel
from repro.experiments.results import ConfigTimeResult, format_seconds, format_table
from repro.experiments.run import ScenarioRun
from repro.topology.generators import ring_topology
from repro.topology.graph import Topology

LOG = logging.getLogger(__name__)

#: Ring sizes reported in the paper's Figure 3 sweep.
DEFAULT_RING_SIZES = (4, 8, 12, 16, 20, 24, 28)


def run_single_configuration(topology: Topology,
                             config: Optional[FrameworkConfig] = None,
                             max_time: float = 3600.0) -> ConfigTimeResult:
    """Configure one topology automatically and measure the time taken."""
    run = ScenarioRun(topology, config if config is not None
                      else FrameworkConfig(detect_edge_ports=False))
    manual = ManualConfigurationModel()
    return ConfigTimeResult(
        num_switches=topology.num_nodes,
        num_links=topology.num_links,
        auto_seconds=run.configure(max_time),
        manual_seconds=manual.seconds_for(topology.num_nodes),
        milestones=dict(run.framework.milestones),
        link_stats=run.network.stats(),
    )


def run_config_time_sweep(ring_sizes: Iterable[int] = DEFAULT_RING_SIZES,
                          config: Optional[FrameworkConfig] = None,
                          max_time: float = 3600.0) -> List[ConfigTimeResult]:
    """Reproduce the Figure 3 sweep over ring topologies."""
    results = []
    for size in ring_sizes:
        topology = ring_topology(size)
        result = run_single_configuration(topology, config=config, max_time=max_time)
        LOG.info("config-time: %d switches -> auto %s, manual %s", size,
                 format_seconds(result.auto_seconds),
                 format_seconds(result.manual_seconds))
        results.append(result)
    return results


def render_config_time_table(results: List[ConfigTimeResult]) -> str:
    """Render the Figure 3 series as an ASCII table."""
    rows = []
    for result in results:
        rows.append([
            result.num_switches,
            format_seconds(result.auto_seconds),
            format_seconds(result.manual_seconds),
            f"{result.speedup:.0f}x" if result.speedup else "n/a",
        ])
    return format_table(
        ["switches", "automatic", "manual (paper model)", "speedup"], rows)
