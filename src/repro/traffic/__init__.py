"""Flow-level fluid fast path: resolve-once demand routing.

Aggregate traffic is modelled as demands (source datapath, destination
address, offered rate, start, duration), held column-wise in a
:class:`DemandSet`; a :class:`FlowDemand` is the per-object view of one.
Each demand is resolved **once** against the installed flow tables — the same
lookup the packet pipeline runs per frame — into a concrete path, then
advanced analytically by :class:`FluidEngine` with per-link max-min fair
capacity sharing, recomputed only at events (arrival, expiry, route
change, link failure).  Control-plane frames stay on the packet path;
with no demands registered the subsystem is fully inert.
"""

from repro.traffic.demand import (
    DEMAND_MODELS,
    DemandSet,
    DemandSpec,
    FlowDemand,
    generate_demands,
    gravity_demands,
    uniform_demands,
)
from repro.traffic.fluid import Commodity, FluidEngine, max_min_allocation
from repro.traffic.resolver import (
    DELIVERED,
    LINK_DOWN,
    LOOP,
    UNROUTED,
    PathResolver,
    ResolvedPath,
)
from repro.traffic.synthetic import (
    SyntheticRoutes,
    service_address,
    service_prefix,
)

__all__ = [
    "DEMAND_MODELS",
    "DELIVERED",
    "LINK_DOWN",
    "LOOP",
    "UNROUTED",
    "Commodity",
    "DemandSet",
    "DemandSpec",
    "FlowDemand",
    "FluidEngine",
    "PathResolver",
    "ResolvedPath",
    "SyntheticRoutes",
    "generate_demands",
    "gravity_demands",
    "max_min_allocation",
    "service_address",
    "service_prefix",
    "uniform_demands",
]
