"""Shared SPF bases change no output: not by hash seed, not by history.

SPF bases are shared by LSDB content across every LSDB of the process,
while equal-cost stub ties are broken by each LSDB's own arrival order.
An odd ring has such ties (from any router the two routers opposite it
are equally far, and both advertise the link between them), so a 5-ring
is configured:

* in two fresh processes, under ``PYTHONHASHSEED`` 0 and 1;
* twice in this process, after a torus has filled the base map, the
  first run kept alive so the second one's LSDBs find bases the first
  one's built, from LSAs that arrived in another order.

Every VM's ``show ip route`` and every switch's flow table, entry by
entry with the time it was last added or modified, must be
byte-identical across all four.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.autoconfig import FrameworkConfig
from repro.experiments.run import ScenarioRun
from repro.quagga.ospf.spf import shortest_paths, spf_base
from repro.topology.generators import ring_topology, torus_topology

#: Run in a fresh process with this file's path as argv[1].
_RING = '''
import json, runpy, sys
from repro.topology.generators import ring_topology
helpers = runpy.run_path(sys.argv[1])
print(json.dumps(helpers["outputs"](helpers["configure"](ring_topology(5)))))
'''


def configure(topology) -> ScenarioRun:
    run = ScenarioRun(topology, FrameworkConfig(detect_edge_ports=False))
    #: id(entry) -> the simulated time it was last added or modified.
    run.changed_at = {}

    def note(_table, changed) -> None:
        run.changed_at.update((id(entry), run.sim.now) for entry in changed or ())

    for switch in run.network.switches.values():
        switch.flow_table.add_change_listener(note)
    assert run.configure(max_time=3600.0) is not None
    return run


def outputs(run: ScenarioRun) -> dict:
    """Every VM's route table and every switch's flow table, as text."""
    return {
        "routes": {str(name): vm.zebra.show_ip_route() for name, vm
                   in sorted(run.framework.control_plane.vms.items())},
        "flows": {str(dpid): [f"{run.changed_at[id(entry)]!r} {entry!r}"
                              for entry in switch.flow_table.entries]
                  for dpid, switch in sorted(run.network.switches.items())},
    }


def _has_equal_cost_tie(daemon) -> bool:
    """Whether two advertisers offer one stub prefix at the same cost."""
    nodes = shortest_paths(daemon.lsdb, daemon.router_id)
    for group in spf_base(daemon.lsdb).stubs:
        costs = [nodes[router].distance + metric
                 for router, metric, *_ in group if router in nodes]
        if len(costs) != len(set(costs)):
            return True
    return False


def _in_subprocess(hash_seed: str) -> dict:
    here = Path(__file__).resolve()
    finished = subprocess.run(
        [sys.executable, "-c", _RING, str(here)], check=True,
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                 PYTHONPATH=str(here.parent.parent / "src")))
    return json.loads(finished.stdout)


def test_ring_outputs_depend_on_neither_hash_seed_nor_history():
    warm = configure(torus_topology(4, 4))
    first = configure(ring_topology(5))
    second = configure(ring_topology(5))
    vms = first.framework.control_plane.vms
    assert all(_has_equal_cost_tie(vm.ospf) for vm in vms.values())
    # The second run computed on bases the first one built.
    for name, vm in second.framework.control_plane.vms.items():
        assert spf_base(vm.ospf.lsdb) is spf_base(vms[name].ospf.lsdb)
    expected = outputs(first)
    assert outputs(second) == expected
    assert _in_subprocess("0") == expected
    assert _in_subprocess("1") == expected
    assert warm.configured_at is not None
