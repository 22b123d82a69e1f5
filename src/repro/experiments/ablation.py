"""Ablation experiments over the framework's design choices.

docs/DESIGN.md ("Design parameters under ablation") calls out three
design parameters worth isolating:

* **A1 — controller split.**  The paper deliberately separates the topology
  controller from the RF-controller (behind FlowVisor) "to share the load";
  the ablation compares that deployment against a single controller running
  both roles.
* **A2 — VM creation latency.**  Automatic configuration time is dominated
  by how long a VM takes to clone and boot; the ablation sweeps that
  latency.
* **A3 — OSPF timers.**  The remaining time goes to routing-protocol
  convergence, which is governed by the hello interval (and the derived
  dead interval).
"""

from __future__ import annotations

import logging
from typing import Iterable, List

from repro.core.autoconfig import FrameworkConfig
from repro.experiments.config_time import run_single_configuration
from repro.experiments.results import AblationResult, format_seconds, format_table
from repro.topology.generators import ring_topology
from repro.topology.graph import Topology

LOG = logging.getLogger(__name__)

#: Simulated-time deadline of each A1 and A3 run.
DEADLINE = 3600.0
#: The OSPF hello intervals A3 sweeps, in seconds.
HELLO_INTERVALS = (1, 5, 10)


def _measure(topology: Topology, config: FrameworkConfig, label: str,
             parameter: object, max_time: float) -> AblationResult:
    result = run_single_configuration(topology, config=config, max_time=max_time)
    LOG.info("ablation %s=%s -> %s", label, parameter,
             format_seconds(result.auto_seconds))
    return AblationResult(label=label, parameter=parameter,
                          auto_seconds=result.auto_seconds,
                          milestones=result.milestones)


def run_controller_split_ablation(num_switches: int = 16) -> List[AblationResult]:
    """A1: separate topology controller + FlowVisor vs a single controller."""
    results = []
    for use_flowvisor, label in ((True, "split (FlowVisor + 2 controllers)"),
                                 (False, "single controller")):
        config = FrameworkConfig(use_flowvisor=use_flowvisor, detect_edge_ports=False)
        results.append(_measure(ring_topology(num_switches), config,
                                label="deployment", parameter=label,
                                max_time=DEADLINE))
    return results


def run_vm_latency_ablation(boot_delays: Iterable[float] = (1.0, 5.0, 10.0, 30.0, 60.0),
                            num_switches: int = 16,
                            max_time: float = 7200.0) -> List[AblationResult]:
    """A2: configuration time as a function of per-VM boot latency."""
    results = []
    for boot_delay in boot_delays:
        config = FrameworkConfig(vm_boot_delay=boot_delay, detect_edge_ports=False)
        results.append(_measure(ring_topology(num_switches), config,
                                label="vm_boot_delay_s", parameter=boot_delay,
                                max_time=max_time))
    return results


def run_ospf_timer_ablation(num_switches: int = 12) -> List[AblationResult]:
    """A3: configuration time as a function of the OSPF hello interval."""
    results = []
    for hello in HELLO_INTERVALS:
        config = FrameworkConfig(ospf_hello_interval=hello,
                                 ospf_dead_interval=4 * hello,
                                 detect_edge_ports=False)
        results.append(_measure(ring_topology(num_switches), config,
                                label="hello_interval_s",
                                parameter=hello, max_time=DEADLINE))
    return results


def render_ablation_table(results: List[AblationResult], title: str) -> str:
    rows = [[result.parameter, format_seconds(result.auto_seconds)]
            for result in results]
    table = format_table([results[0].label if results else "parameter",
                          "automatic configuration time"], rows)
    return f"{title}\n{table}"
