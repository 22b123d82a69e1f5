"""Flow demands: the unit of aggregate (fluid) traffic.

A :class:`FlowDemand` describes one unidirectional traffic aggregate — a
"user flow" in the millions-of-users sense — as (source switch,
destination address, offered rate, start, duration).  Demands never become
packets: the fluid engine resolves each one **once** against the installed
flow tables into a concrete path and then advances it analytically.

:class:`DemandSpec` is the declarative, serializable description of a whole
demand *set* (how many, which traffic matrix, which seed) that rides on
:class:`~repro.scenarios.ScenarioSpec` the same way a failure schedule
does; :func:`generate_demands` turns it into a :class:`DemandSet`, the
concrete demands held column-wise, against the addresses of a configured
network.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from math import inf, isfinite
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional

from repro.net.addresses import IPv4Address
from repro.sim import SeededRandom

#: The traffic-matrix models :func:`generate_demands` understands.
DEMAND_MODELS = ("uniform", "gravity")


class FlowDemand:
    """One unidirectional traffic aggregate.

    The per-object view of one row of a :class:`DemandSet`: what tests
    build by hand and what an arrival or expiry event carries.
    """

    __slots__ = ("src_dpid", "dst", "rate_bps", "start", "duration")

    def __init__(self, src_dpid: int, dst: IPv4Address, rate_bps: float,
                 start: float = 0.0, duration: float = inf) -> None:
        self.src_dpid = src_dpid
        self.dst = int(dst)
        self.rate_bps = rate_bps
        self.start = start
        self.duration = duration

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __repr__(self) -> str:
        return (f"<FlowDemand {self.src_dpid}->{IPv4Address(self.dst)} "
                f"{self.rate_bps:.0f}bps [{self.start}, {self.end})>")


@dataclass(frozen=True)
class DemandSpec:
    """Declarative description of a seeded demand set.

    Attached to :attr:`~repro.scenarios.ScenarioSpec.demands`; the traffic
    experiment materializes it with :func:`generate_demands` once the
    network is configured and per-router addresses are known.
    """

    #: Traffic matrix model: ``uniform`` or ``gravity``.
    model: str = "uniform"
    #: Number of demands to generate.
    count: int = 100
    #: Offered rate per demand (bits/second).
    rate_bps: float = 1_000_000.0
    #: Seed of the demand generator.
    seed: int = 0
    #: Demand start times are uniform in [0, start_window) seconds.
    start_window: float = 0.0
    #: Demand lifetime; 0 means "for the whole experiment".
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in DEMAND_MODELS:
            raise ValueError(f"unknown demand model {self.model!r}; "
                             f"known models: {', '.join(DEMAND_MODELS)}")
        if self.count < 1:
            raise ValueError(f"demand count must be >= 1, got {self.count}")
        for name in ("rate_bps", "start_window", "duration"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name == "rate_bps" and value <= 0:
                raise ValueError(f"rate_bps must be > 0, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def to_dict(self) -> Dict[str, Any]:
        return {"model": self.model, "count": self.count,
                "rate_bps": self.rate_bps, "seed": self.seed,
                "start_window": self.start_window, "duration": self.duration}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DemandSpec":
        return cls(model=str(payload.get("model", "uniform")),
                   count=int(payload.get("count", 100)),
                   rate_bps=float(payload.get("rate_bps", 1_000_000.0)),
                   seed=int(payload.get("seed", 0)),
                   start_window=float(payload.get("start_window", 0.0)),
                   duration=float(payload.get("duration", 0.0)))


class DemandSet:
    """A demand set held column-wise: one typed array per field.

    What the generators return and the only thing
    :meth:`FluidEngine.register` admits.  A million demands are a few
    arrays, not a million objects; a :class:`FlowDemand` exists only where
    somebody asks for one (iteration, a kernel event).  A rate, start or
    duration column of one item holds for every demand, which is what the
    generators produce for each value they do not draw.  The typecodes
    hold a 64-bit datapath id and a 32-bit address, and a value outside
    them raises ``OverflowError`` instead of wrapping.
    """

    __slots__ = ("src_dpids", "dsts", "rates", "starts", "durations")

    def __init__(self) -> None:
        self.src_dpids = array("Q")
        self.dsts = array("L")
        self.rates = array("d")
        self.starts = array("d")
        self.durations = array("d")

    @classmethod
    def from_demands(cls, demands: Iterable[FlowDemand]) -> "DemandSet":
        """The columns of hand-built demands (a :class:`DemandSet` is
        returned as it is)."""
        if isinstance(demands, cls):
            return demands
        columns = cls()
        for demand in demands:
            columns.src_dpids.append(demand.src_dpid)
            columns.dsts.append(demand.dst)
            columns.rates.append(demand.rate_bps)
            columns.starts.append(demand.start)
            columns.durations.append(demand.duration)
        return columns

    def rows(self) -> Iterator[tuple]:
        """``(src_dpid, dst, rate_bps, start, duration)`` per demand."""
        count = len(self.src_dpids)
        return zip(self.src_dpids, self.dsts,
                   *(repeat(column[0], count) if len(column) == 1 else column
                     for column in (self.rates, self.starts, self.durations)))

    def __len__(self) -> int:
        return len(self.src_dpids)

    def __iter__(self) -> Iterator[FlowDemand]:
        return (FlowDemand(*row) for row in self.rows())

    def last_end(self) -> Optional[float]:
        """When the last timed demand expires; None if all are open-ended."""
        return max((start + duration
                    for _src, _dst, _rate, start, duration in self.rows()
                    if duration != inf), default=None)


def _draw_demands(draw: Callable[[], int], rng: SeededRandom,
                  addresses: Mapping[int, IPv4Address], count: int,
                  rate_bps: float, spec: Optional[DemandSpec]) -> DemandSet:
    """``count`` demands between distinct routers picked by ``draw`` (an
    index into the sorted datapath ids).

    The order of draws is the seeded contract: source, destination (again
    until it differs), then the start time if there is a start window.
    """
    if spec is None:  # validates count and rate
        spec = DemandSpec(count=count, rate_bps=rate_bps)
    dpids = sorted(addresses)
    dsts = [int(addresses[dpid]) for dpid in dpids]
    window = spec.start_window
    demands = DemandSet()
    demands.rates.append(rate_bps)
    demands.durations.append(spec.duration if spec.duration > 0 else inf)
    if window <= 0:
        demands.starts.append(0.0)
    add_src, add_dst = demands.src_dpids.append, demands.dsts.append
    add_start, uniform = demands.starts.append, rng.uniform
    for _ in range(count):
        src = draw()
        dst = draw()
        while dst == src:
            dst = draw()
        add_src(dpids[src])
        add_dst(dsts[dst])
        if window > 0:
            add_start(uniform(0.0, window))
    return demands


def uniform_demands(addresses: Mapping[int, IPv4Address], count: int,
                    rate_bps: float, seed: int = 0,
                    spec: Optional[DemandSpec] = None) -> DemandSet:
    """``count`` demands between uniformly random distinct router pairs."""
    if len(addresses) < 2:
        raise ValueError("uniform demands need at least two routers")
    rng = SeededRandom(seed)
    # randint(0, n - 1) is randrange(n) two Python calls down, and a
    # million demands are two million of these draws; ``SeededRandom`` has
    # no delegate for it.
    draw = partial(rng._random.randrange, len(addresses))
    return _draw_demands(draw, rng, addresses, count, rate_bps, spec)


def gravity_demands(addresses: Mapping[int, IPv4Address], count: int,
                    rate_bps: float, seed: int = 0,
                    spec: Optional[DemandSpec] = None) -> DemandSet:
    """``count`` demands from a seeded gravity model.

    Each router gets a random "mass"; the probability of an (s, d) demand
    is proportional to ``mass[s] * mass[d]`` — the classic gravity traffic
    matrix, producing the hot-spot skew uniform sampling lacks.
    """
    if len(addresses) < 2:
        raise ValueError("gravity demands need at least two routers")
    rng = SeededRandom(seed)
    # Heavy-tailed masses (a bounded Pareto draw) so a handful of routers
    # dominate the matrix, like real PoP traffic.
    masses = [min(100.0, rng.random() ** -0.8) for _ in addresses]
    cumulative = []
    total = 0.0
    for mass in masses:
        total += mass
        cumulative.append(total)
    last = len(cumulative) - 1

    def draw() -> int:
        return min(bisect_right(cumulative, rng.uniform(0.0, total)), last)

    return _draw_demands(draw, rng, addresses, count, rate_bps, spec)


def generate_demands(spec: DemandSpec,
                     addresses: Mapping[int, IPv4Address]) -> DemandSet:
    """Materialize a :class:`DemandSpec` against a configured address map."""
    generator = uniform_demands if spec.model == "uniform" else gravity_demands
    return generator(addresses, spec.count, spec.rate_bps, seed=spec.seed,
                     spec=spec)
