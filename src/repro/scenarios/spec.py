"""Declarative experiment scenarios.

A :class:`ScenarioSpec` names everything one configuration-time measurement
needs — a topology family plus its parameters, the framework configuration
overrides, the random seed and the simulation deadline — as plain data, so
scenarios can be registered by name and pickled to worker processes by the
parallel sweep runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, Optional

from repro.core.autoconfig import FrameworkConfig
from repro.scenarios.events import FailureSchedule
from repro.te.spec import TESpec
from repro.traffic.demand import DemandSpec
from repro.topology.generators import (
    as_map_from_topology,
    as_relationships_from_topology,
    dumbbell_topology,
    fat_tree_topology,
    full_mesh_topology,
    linear_topology,
    multi_as_topology,
    random_topology,
    ring_topology,
    scale_free_as_topology,
    star_topology,
    torus_topology,
    transit_stub_topology,
    tree_topology,
    waxman_topology,
)
from repro.topology.graph import Topology, TopologyError
from repro.topology.pan_european import pan_european_topology


class ScenarioError(ValueError):
    """Raised for malformed scenario definitions."""


def _seeded(builder: Callable[..., Topology]) -> Callable[[Dict[str, Any], int], Topology]:
    """Wrap a generator that takes a ``seed`` keyword."""

    def build(params: Dict[str, Any], seed: int) -> Topology:
        return builder(seed=seed, **params)

    return build


def _seedless(builder: Callable[..., Topology]) -> Callable[[Dict[str, Any], int], Topology]:
    """Wrap a deterministic generator (the scenario seed is ignored)."""

    def build(params: Dict[str, Any], seed: int) -> Topology:
        return builder(**params)

    return build


#: Topology family name -> ``build(params, seed)`` callable.  Families whose
#: generator is stochastic receive the scenario seed; the rest ignore it.
TOPOLOGY_FAMILIES: Dict[str, Callable[[Dict[str, Any], int], Topology]] = {
    "ring": _seedless(ring_topology),
    "linear": _seedless(linear_topology),
    "star": _seedless(star_topology),
    "tree": _seedless(tree_topology),
    "full-mesh": _seedless(full_mesh_topology),
    "random": _seeded(random_topology),
    "fat-tree": _seedless(fat_tree_topology),
    "torus": _seedless(torus_topology),
    "waxman": _seeded(waxman_topology),
    "dumbbell": _seedless(dumbbell_topology),
    "pan-european": _seedless(pan_european_topology),
    "multi-as": _seedless(multi_as_topology),
    "transit-stub": _seedless(transit_stub_topology),
    "scale-free-as": _seeded(scale_free_as_topology),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, reproducible configuration-time experiment."""

    #: Unique name the registry and CLI refer to the scenario by.
    name: str
    #: Key into :data:`TOPOLOGY_FAMILIES`.
    family: str
    #: Keyword arguments for the family's topology generator.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: :class:`FrameworkConfig` field overrides (defaults match the paper).
    framework: Mapping[str, Any] = field(default_factory=dict)
    #: Seed for stochastic topology families (and recorded with the result).
    seed: int = 0
    #: Simulation deadline handed to ``run_until_configured``.
    max_time: float = 3600.0
    #: One-line human description shown by ``repro sweep --list``.
    description: str = ""
    #: Optional failure/churn schedule executed by ``repro failover`` once
    #: the scenario is configured (event times are relative to that point).
    failures: Optional[FailureSchedule] = None
    #: Optional aggregate traffic demands driven by ``repro traffic``
    #: through the fluid fast path (demand times are relative to the
    #: configured point).  None keeps the scenario packet-only.
    demands: Optional[DemandSpec] = None
    #: Number of RouteFlow controller shards the scenario runs under
    #: (1 = the paper's single RF-controller; flows into
    #: :attr:`FrameworkConfig.controllers`).
    controllers: int = 1
    #: Run the scenario as an *interdomain* experiment: the topology must
    #: carry a per-node AS assignment (the ``multi-as``/``transit-stub``
    #: families), bgpd runs in every VM, inter-AS links speak eBGP and the
    #: convergence criterion covers the whole interdomain route exchange.
    interdomain: bool = False
    #: Optional traffic-engineering control loop driven by ``repro te``
    #: (like ``enable_bgp``, fully gated: None means no TE controller is
    #: ever instantiated and no TE route can exist).
    te: Optional[TESpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.family not in TOPOLOGY_FAMILIES:
            raise ScenarioError(
                f"unknown topology family {self.family!r}; known families: "
                + ", ".join(sorted(TOPOLOGY_FAMILIES)))
        if self.controllers < 1:
            raise ScenarioError(
                f"controllers must be >= 1, got {self.controllers}")
        # Freeze the mappings too, so a registry spec cannot be corrupted
        # through ``get(name).params[...] = ...``.
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "framework",
                           MappingProxyType(dict(self.framework)))

    def __hash__(self) -> int:
        # The generated dataclass hash would choke on the mapping fields.
        return hash((self.name, self.family, self.seed, self.controllers,
                     self.interdomain,
                     tuple(sorted(self.params.items())),
                     tuple(sorted(self.framework.items())),
                     self.failures, self.demands, self.te))

    # Mapping proxies are not picklable, so spell out the process-pool
    # transfer in terms of plain dicts.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["params"] = dict(self.params)
        state["framework"] = dict(self.framework)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for key, value in state.items():
            if key in ("params", "framework"):
                value = MappingProxyType(dict(value))
            object.__setattr__(self, key, value)

    def build_topology(self) -> Topology:
        """Instantiate the scenario's topology."""
        try:
            return TOPOLOGY_FAMILIES[self.family](dict(self.params), self.seed)
        except TypeError as exc:
            raise ScenarioError(
                f"bad parameters for family {self.family!r}: {exc}") from exc

    def framework_config(self,
                         topology: Optional[Topology] = None) -> FrameworkConfig:
        """The framework configuration with this scenario's overrides applied.

        Like the Figure 3 experiments, scenarios default to
        ``detect_edge_ports=False`` (the sweep topologies carry no hosts);
        any field of :class:`FrameworkConfig` can be overridden — except
        ``controllers``, which only the :attr:`controllers` field may set.
        A ``framework`` override of it would silently defeat
        :meth:`with_controllers` (and with it ``repro ctlscale``'s
        shard-count sweep and conservation check), so it is rejected.

        Interdomain scenarios additionally set ``enable_bgp`` and derive
        the dpid → AS map from the topology's per-node AS assignment; pass
        the already-built ``topology`` to avoid generating it twice (the
        run paths that have one in hand do).
        """
        if "controllers" in self.framework:
            raise ScenarioError(
                f"scenario {self.name!r}: set ScenarioSpec.controllers, not "
                f"framework['controllers'] — the framework override would "
                f"shadow the shard-count knob")
        values: Dict[str, Any] = {"detect_edge_ports": False,
                                  "controllers": self.controllers}
        if self.interdomain:
            if topology is None:
                topology = self.build_topology()
            try:
                as_map = as_map_from_topology(topology)
            except TopologyError as exc:
                raise ScenarioError(
                    f"interdomain scenario {self.name!r}: {exc}") from exc
            values["enable_bgp"] = True
            values["as_map"] = as_map
            relationships = as_relationships_from_topology(topology)
            if relationships:
                values["as_relationships"] = relationships
        values.update(self.framework)
        valid = FrameworkConfig.__dataclass_fields__
        unknown = sorted(set(values) - set(valid))
        if unknown:
            raise ScenarioError(
                f"unknown FrameworkConfig fields in scenario {self.name!r}: "
                + ", ".join(unknown))
        return FrameworkConfig(**values)

    def with_controllers(self, controllers: int) -> "ScenarioSpec":
        """A copy of this scenario under a different shard count.

        The name is preserved so sweep/ctlscale exports stay comparable
        across shard counts (the controller count rides in its own column).
        """
        return replace(self, controllers=controllers)
