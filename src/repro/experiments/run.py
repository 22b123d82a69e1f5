"""The scenario run every experiment repeats, and the one result payload.

:class:`ScenarioRun` owns what every experiment needs: the simulator, the
address manager, the automatic-configuration framework and the emulated
network, attached in that order; the cold configuration; the FIB watch
and the "run until the FIBs are quiet" loop; and the physical-to-virtual
mirror for failure events.  What an experiment measures after that
(per-event windows, per-AS breakdowns, fluid demands, TE policies) stays
in its own module.

:func:`to_payload` turns any result dataclass into the JSON document the
``--out`` options write, and :func:`write_json` writes it;
:func:`write_csv` writes the flat tables of the ``--csv`` options.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.bus import topics
from repro.bus.reliable import acquire_publisher
from repro.core.autoconfig import AutoConfigFramework, FrameworkConfig
from repro.core.ipam import IPAddressManager
from repro.routeflow.ipc import PortStatusRelay
from repro.scenarios import FailureAction
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.graph import Topology

PathLike = Union[str, Path]


def mirror_into_routeflow(network: EmulatedNetwork, bus):
    """Build the physical→virtual mirroring listener for failure events.

    The relay rides the control-plane bus (the RFProxy→RFServer
    port-status hop): each affected link is published as a
    :class:`~repro.routeflow.ipc.PortStatusRelay` on the
    :data:`~repro.bus.topics.PORT_STATUS` topic, where the control plane —
    single RFServer or sharded — mirrors it onto the virtual wires.  On a
    reliable bus the relay acquires an acknowledged publisher, so a lossy
    fault profile cannot silently eat a port-status transition.
    """
    publisher = acquire_publisher(bus, topics.PORT_STATUS,
                                  "emulator:port-status")

    def mirror(event) -> None:
        if event.action in FailureAction.LINK_ACTIONS:
            pairs = [(event.node_a, event.node_b)]
        elif event.action in FailureAction.NODE_ACTIONS:
            pairs = network.links_of(event.node_a)
        else:
            return  # shard events carry no physical change to mirror
        for node_a, node_b in pairs:
            port_a, port_b = network.ports_for_link(node_a, node_b)
            # Mirror the *effective* physical state, not the event's
            # direction: restoring a node must not bring a virtual wire up
            # while the link (or its other endpoint) is still failed.
            interface = network.switches[node_a].port(port_a).interface
            up = interface.link is not None and interface.link.up
            publisher.publish(
                PortStatusRelay(node_a, port_a, node_b, port_b, up).to_json())

    return mirror


def check_non_negative(**values: float) -> None:
    """Reject a negative or non-finite phase length or event count before
    anything runs (an infinite or NaN phase would never end)."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


class ScenarioRun:
    """One topology under one cold automatic-configuration framework.

    Construction builds and attaches everything; :meth:`configure` runs
    the configuration.  They are two calls so an experiment can start
    applications (the demo's video stream) in between.
    """

    def __init__(self, topology: Topology, config: FrameworkConfig):
        self.started = time.perf_counter()
        self.topology = topology
        self.sim = Simulator()
        self.ipam = IPAddressManager()
        self.framework = AutoConfigFramework(self.sim, config=config,
                                             ipam=self.ipam)
        self.network = EmulatedNetwork(self.sim, topology, ipam=self.ipam)
        self.framework.attach(self.network)
        #: Simulated configuration time (None until configured, or when the
        #: deadline passed first).
        self.configured_at: Optional[float] = None

    def configure(self, max_time: float, settle: float = 0.0
                  ) -> Optional[float]:
        """Run until the framework is configured (see
        :meth:`AutoConfigFramework.run_until_configured`)."""
        self.configured_at = self.framework.run_until_configured(
            max_time=max_time, settle=settle)
        return self.configured_at

    @property
    def wall_seconds(self) -> float:
        """Host seconds since the run was built."""
        return time.perf_counter() - self.started

    def total(self, key: str) -> int:
        """One control-plane load counter summed over every shard."""
        return sum(load[key] for load in self.framework.shard_loads())

    def watch_fib(self) -> List[float]:
        """Simulated times of every FIB change across the VMs, from now on."""
        changes: List[float] = []
        sim = self.sim
        for vm in self.framework.control_plane.vms.values():
            vm.zebra.add_fib_listener(
                lambda _prefix, _new, _old: changes.append(sim.now))
        return changes

    def quiesce(self, changes: List[float], floor: float, deadline: float,
                settle: float) -> bool:
        """Run until no FIB changed for ``settle`` simulated seconds past
        ``floor`` (the last scheduled event) or the last change; False when
        ``deadline`` came first."""
        sim = self.sim
        while sim.now < deadline:
            sim.run(until=min(sim.now + 1.0, deadline))
            if sim.now >= max(floor, changes[-1] if changes else floor) \
                    + settle:
                return True
        return False

    def mirror_failures(self) -> None:
        """Relay physical failure events into the RouteFlow virtual
        topology (:func:`mirror_into_routeflow`)."""
        self.network.add_failure_listener(
            mirror_into_routeflow(self.network, self.framework.bus))


#: Field names the JSON documents spell shorter.  ``results`` is
#: :class:`~repro.experiments.te.TEResult`'s list of policy runs.
_PAYLOAD_NAMES = {"num_switches": "switches", "num_links": "links",
                  "num_ases": "ases", "results": "policies"}


def to_payload(value):
    """The JSON-ready form of a result, a list of results, or any value
    inside one.

    Dataclass fields are walked recursively (renamed by
    ``_PAYLOAD_NAMES``); a result class adds the derived properties named
    in its ``payload_properties`` and leaves out the fields named in its
    ``payload_omit_none`` while they are None.  Integer dict keys become
    strings.
    """
    if dataclasses.is_dataclass(value):
        omit = getattr(value, "payload_omit_none", ())
        payload = {}
        for spec in dataclasses.fields(value):
            item = getattr(value, spec.name)
            if item is None and spec.name in omit:
                continue
            payload[_PAYLOAD_NAMES.get(spec.name, spec.name)] = \
                to_payload(item)
        for name in getattr(value, "payload_properties", ()):
            payload[name] = to_payload(getattr(value, name))
        return payload
    if isinstance(value, dict):
        return {str(key) if isinstance(key, int) else key: to_payload(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_payload(item) for item in value]
    return value


def write_json(obj, path: PathLike) -> Path:
    """Write :func:`to_payload` of ``obj`` as sorted, indented JSON."""
    target = Path(path)
    target.write_text(json.dumps(to_payload(obj), indent=2, sort_keys=True)
                      + "\n")
    return target


def write_csv(path: PathLike, header: Sequence[str],
              rows: Iterable[Sequence]) -> Path:
    """Write ``header`` and then ``rows`` as one CSV file."""
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return target
