"""Layer taxonomy of the ledger: where spans go and which metrics come out.

The layer rows follow the infrastructure / southbound / hypervisor /
network-OS / application split of the SDN survey in PAPERS.md, spelled
with this repo's package names.  Three tables live here and nowhere else:

* :data:`EVENT_LAYERS` maps a kernel event label to a layer.  A label no
  rule matches lands in the ``unattributed`` remainder row, so a PR that
  adds a kernel label sees it there and extends this table in a
  benchmark PR;
* :func:`patch_layers` lists the public entry points wrapped with
  function spans; and
* :data:`END_TO_END` / :data:`PER_LAYER` declare every metric the
  benchmark emits, with unit and direction.  ``BENCHMARK.json`` repeats
  them for the driver; the contract test keeps the two in step.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Tuple

from repro.bus.bus import MessageBus
from repro.controller.base import Controller
from repro.core.rpc import RPCServer
from repro.flowvisor.proxy import FlowVisor
from repro.net.ethernet import Ethernet
from repro.openflow.flow_table import FlowTable
from repro.openflow.match import PacketFields
from repro.openflow.messages import OpenFlowMessage
from repro.quagga.bgp.daemon import BGPDaemon
from repro.quagga.ospf.daemon import OSPFDaemon
from repro.quagga.ospf.lsdb import LSDB
from repro.quagga.ospf.spf import compute_routes
from repro.quagga.rib import RIB
from repro.routeflow.rfproxy import RFProxy
from repro.routeflow.rfserver import RFServer
from repro.routeflow.sharding import ShardedControlPlane
from repro.sim import Simulator
from repro.te.controller import FlowTableActuator, TEController
from repro.te.ksp import KShortestPathEngine
from repro.te.policy import GreedyLeastUtilizedPolicy
from repro.topology.emulator import EmulatedNetwork
from repro.traffic.fluid import FluidEngine, max_min_allocation
from repro.traffic.resolver import PathResolver
from repro.traffic.synthetic import SyntheticRoutes

from bench.tracer import HARNESS, UNATTRIBUTED, Tracer

LAYERS = ("sim", "net", "openflow", "flowvisor", "controller", "core",
          "quagga.ospf", "quagga.bgp", "quagga.rib", "routeflow",
          "routeflow.sharding", "bus", "topology", "traffic", "te")

#: First matching rule wins, so the virtual-link rule precedes ``^link:``.
EVENT_LAYERS = tuple((re.compile(pattern), layer) for pattern, layer in (
    (r"^link:rfvs:|^ospf:", "quagga.ospf"),
    (r"^bgp:", "quagga.bgp"),
    (r"^ofchan:|:pipeline$|:flow-expiry$", "openflow"),
    (r"^flowvisor:", "flowvisor"),
    (r"^rfserver:|^rfclient:|:boot$|:ospfd-start$|:bgpd-start$", "routeflow"),
    (r"^ack:|^rto:|^bus:", "bus"),
    (r"^discovery:|-controller(-\d+)?:handle$", "controller"),
    (r"^rpc:|^framework:", "core"),
    (r"^shard", "routeflow.sharding"),
    (r"^failure:|^emulator:", "topology"),
    (r"^link:", "net"),
    (r"^fluid:", "traffic"),
    (r"^te:", "te"),
))


def layer_of_event(label: str) -> str:
    for pattern, layer in EVENT_LAYERS:
        if pattern.search(label):
            return layer
    return UNATTRIBUTED


def patch_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer with a function span.

    Must run before any fixture is built: objects that capture a bound
    method at construction (the TE monitor's ``pre_sample``) keep
    whichever function the class attribute held at that moment.
    """
    for owner, layer, attributes in (
            (Simulator, "sim", ("run",)),
            (Ethernet, "net", ("decode",)),
            (PacketFields, "openflow", ("from_frame",)),
            (OpenFlowMessage, "openflow", ("decode",)),
            (FlowTable, "openflow", ("add", "delete", "lookup", "expire")),
            (FlowVisor, "flowvisor", ("channel_receive",)),
            (Controller, "controller", ("channel_receive",)),
            (RPCServer, "core", ("receive",)),
            (OSPFDaemon, "quagga.ospf", ("receive_packet",)),
            (LSDB, "quagga.ospf", ("install",)),
            (RIB, "quagga.rib", ("add_route", "remove_route")),
            (BGPDaemon, "quagga.bgp", ("receive_update_batch",
                                       "receive_announcement",
                                       "on_session_established")),
            (RFServer, "routeflow", ("receive_route_mod",)),
            (RFProxy, "routeflow", ("install_route", "remove_route")),
            (MessageBus, "bus", ("publish",)),
            (ShardedControlPlane, "routeflow.sharding", ("takeover",
                                                         "reshard")),
            (EmulatedNetwork, "topology", ("fail_link", "restore_link")),
            (PathResolver, "traffic", ("resolve",)),
            (FluidEngine, "traffic", ("register", "reallocate")),
            (SyntheticRoutes, "traffic", ("install", "reroute")),
            (KShortestPathEngine, "te", ("paths",)),
            (GreedyLeastUtilizedPolicy, "te", ("decide",)),
            (FlowTableActuator, "te", ("apply",)),
            (TEController, "te", ("clear",))):
        for attribute in attributes:
            tracer.patch_method(owner, attribute, layer)
    # replace_routes returns the prefixes it changed: an SPF run whose
    # snapshot changed nothing was wasted work.
    tracer.patch_method(RIB, "replace_routes", "quagga.rib", useful=bool)
    tracer.patch_function(compute_routes, "quagga.ospf")
    tracer.patch_function(max_min_allocation, "traffic")


# ---------------------------------------------------------------------------
# metric declarations: (name, unit, better)
# ---------------------------------------------------------------------------
Declaration = Tuple[str, str, str]

END_TO_END: Tuple[Declaration, ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_COUNTS: Tuple[Declaration, ...] = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.event_cost_us", "us", "lower"),
    ("sim.sim_seconds", "sim_s", "lower"),
    ("sim.config_s", "sim_s", "lower"),
    ("sim.reconverge_s", "sim_s", "lower"),
    ("net.frames_tx", "count", "lower"),
    ("net.frames_dropped", "count", "lower"),
    ("net.decodes", "count", "lower"),
    ("openflow.channel_messages", "count", "lower"),
    ("openflow.flow_mods", "count", "lower"),
    ("openflow.packet_ins", "count", "lower"),
    ("openflow.table_lookups", "count", "lower"),
    ("openflow.table_hit_share", "ratio", "higher"),
    ("openflow.flows_final", "count", "higher"),
    ("flowvisor.messages", "count", "lower"),
    ("controller.packet_ins", "count", "lower"),
    ("controller.links_discovered", "count", "higher"),
    ("core.rpc_messages", "count", "lower"),
    ("core.vms_configured", "count", "higher"),
    ("quagga.ospf.packets_rx", "count", "lower"),
    ("quagga.ospf.lsa_installs", "count", "lower"),
    ("quagga.ospf.spf_runs", "count", "lower"),
    ("quagga.ospf.spf_runs_per_router", "count", "lower"),
    ("quagga.ospf.spf_useful_share", "ratio", "higher"),
    ("quagga.rib.replace_calls", "count", "lower"),
    ("quagga.rib.route_adds", "count", "lower"),
    ("quagga.rib.route_removes", "count", "lower"),
    ("quagga.rib.fib_installs", "count", "lower"),
    ("quagga.rib.fib_withdraws", "count", "lower"),
    ("quagga.bgp.sessions", "count", "higher"),
    ("quagga.bgp.updates_sent", "count", "lower"),
    ("quagga.bgp.updates_received", "count", "lower"),
    ("quagga.bgp.withdrawals_sent", "count", "lower"),
    ("quagga.bgp.withdrawn_flow_mods", "count", "lower"),
    ("routeflow.route_mods", "count", "lower"),
    ("routeflow.route_mods_parked", "count", "lower"),
    ("routeflow.flow_mods_installed", "count", "lower"),
    ("routeflow.flow_mods_removed", "count", "lower"),
    ("routeflow.flows_current", "count", "higher"),
    ("routeflow.duplicate_installs", "count", "lower"),
    ("routeflow.client_resyncs", "count", "lower"),
    ("routeflow.sharding.takeovers", "count", "lower"),
    ("routeflow.sharding.reshards", "count", "lower"),
    ("routeflow.sharding.stale_announcements", "count", "lower"),
    ("bus.published", "count", "lower"),
    ("bus.delivered", "count", "lower"),
    ("bus.bytes_published", "bytes", "lower"),
    ("bus.dropped_fault", "count", "lower"),
    ("bus.retransmits", "count", "lower"),
    ("bus.retransmit_share", "ratio", "lower"),
    ("bus.acked", "count", "lower"),
    ("bus.exhausted", "count", "lower"),
    ("bus.rx_duplicates", "count", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.failure_events", "count", "lower"),
    ("traffic.demand_gen_s", "s", "lower"),
    ("traffic.install_s", "s", "lower"),
    ("traffic.register_s", "s", "lower"),
    ("traffic.cold_reallocate_s", "s", "lower"),
    ("traffic.reallocate_s", "s", "lower"),
    ("traffic.reroute_s", "s", "lower"),
    ("traffic.commodities", "count", "higher"),
    ("traffic.walks", "count", "lower"),
    ("traffic.lookups", "count", "lower"),
    ("traffic.reresolutions", "count", "lower"),
    ("traffic.affected_demands", "count", "lower"),
    ("traffic.reresolved_share", "ratio", "lower"),
    ("traffic.reresolutions_per_steer", "count", "lower"),
    ("te.decisions", "count", "lower"),
    ("te.steer_changes", "count", "lower"),
    ("te.reroutes", "count", "lower"),
    ("te.pruned_steers", "count", "lower"),
    ("te.ksp_computations", "count", "lower"),
    ("te.ksp_hit_share", "ratio", "higher"),
    ("te.delivered_share", "ratio", "higher"),
    ("te.decide_s", "s", "lower"),
    ("te.actuate_s", "s", "lower"),
    ("te.clear_s", "s", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.calibration_s", "s", "lower"),
    ("harness.calibration_drift", "ratio", "lower"),
    ("harness.first_rep_ratio", "ratio", "lower"),
    ("harness.spans_dropped", "count", "lower"),
)

PER_LAYER: Tuple[Declaration, ...] = tuple(
    declaration for layer in LAYERS
    for declaration in ((f"{layer}.self_s", "s", "lower"),
                        (f"{layer}.calls", "count", "lower"))) + _COUNTS


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_values(tracer: Tracer, counts: Mapping[str, float],
                     untraced_wall: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced unit.

    ``counts`` holds what the workload read from the public counters at
    the phase boundaries plus the harness's own numbers; the rest comes
    from the span aggregates.  A layer that did no work reports zeros.
    """
    values: Dict[str, float] = {name: 0.0 for name, _unit, _better
                                in PER_LAYER}
    rows = tracer.by_layer()
    for layer in LAYERS:
        self_s, calls = rows.get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.calls"] = calls
    values.update((name, value) for name, value in counts.items()
                  if name in values)
    events = values["sim.events"]
    values["sim.events_per_s"] = _share(events, untraced_wall)
    values["sim.event_cost_us"] = 1e6 * _share(values["sim.self_s"], events)
    row = tracer.row
    values["net.decodes"] = row("net", "Ethernet.decode").calls
    values["openflow.table_hit_share"] = _share(
        counts.get("openflow.table_matched", 0),
        values["openflow.table_lookups"])
    values["flowvisor.messages"] = row("flowvisor",
                                       "FlowVisor.channel_receive").calls
    values["quagga.ospf.packets_rx"] = row("quagga.ospf",
                                           "OSPFDaemon.receive_packet").calls
    values["quagga.ospf.lsa_installs"] = row("quagga.ospf",
                                             "LSDB.install").calls
    replaces = row("quagga.rib", "RIB.replace_routes")
    values["quagga.ospf.spf_useful_share"] = _share(
        replaces.useful, values["quagga.ospf.spf_runs"])
    values["quagga.rib.replace_calls"] = replaces.calls
    values["quagga.rib.route_adds"] = row("quagga.rib", "RIB.add_route").calls
    values["quagga.rib.route_removes"] = row("quagga.rib",
                                             "RIB.remove_route").calls
    values["bus.retransmit_share"] = _share(values["bus.retransmits"],
                                            values["bus.published"])
    reallocations = row("traffic", "FluidEngine.reallocate")
    values["traffic.reallocate_s"] = reallocations.total_s
    values["traffic.reroute_s"] = row("traffic",
                                      "SyntheticRoutes.reroute").total_s
    values["traffic.reresolved_share"] = _share(
        values["traffic.reresolutions"],
        values["traffic.commodities"] * reallocations.calls)
    values["te.decide_s"] = row("te",
                                "GreedyLeastUtilizedPolicy.decide").total_s
    values["te.actuate_s"] = row("te", "FlowTableActuator.apply").total_s
    values["te.clear_s"] = row("te", "TEController.clear").total_s
    wall = tracer.wall()
    remainder = sum(rows.get(layer, (0.0, 0))[0]
                    for layer in (HARNESS, UNATTRIBUTED))
    values["harness.unattributed_share"] = _share(remainder, wall)
    values["harness.trace_overhead_share"] = _share(wall - untraced_wall,
                                                    untraced_wall)
    values["harness.spans_dropped"] = tracer.dropped
    return values


def unattributed_rows(tracer: Tracer, limit: int = 5
                      ) -> List[Tuple[str, float, int]]:
    """The remainder row's biggest contributors: (label, self s, calls)."""
    rows = tracer.top(UNATTRIBUTED, limit) + tracer.top(HARNESS, limit)
    rows.sort(key=lambda row: -row[1])
    return rows[:limit]
