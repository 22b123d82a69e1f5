"""Declarative traffic-engineering configuration (`ScenarioSpec.te`).

A :class:`TESpec` rides on a scenario exactly like
:class:`~repro.traffic.DemandSpec` does: scalar fields only, hashable,
picklable to sweep workers.  Like ``enable_bgp``,
TE is fully gated behind this knob — a scenario without one never
instantiates a controller, installs no TE routes and leaves every trace
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Policy names accepted by :attr:`TESpec.policy` and ``repro te --policy``.
POLICY_NAMES = ("static-ecmp", "greedy", "bandit")

#: Actuation engines: ``zebra`` steers through the VMs' RIB/FIB and the
#: RouteMod lifecycle (full control-plane fidelity); ``synthetic`` rewrites
#: the RouteFlow-shaped flow tables directly (for topologies too large to
#: converge a full control plane in reasonable wall time); ``auto`` picks
#: ``zebra`` up to :data:`AUTO_ZEBRA_MAX_SWITCHES` switches.
ENGINE_NAMES = ("auto", "zebra", "synthetic")

#: ``engine="auto"`` uses the full control plane up to this many switches.
AUTO_ZEBRA_MAX_SWITCHES = 64


@dataclass(frozen=True)
class TESpec:
    """Seeded description of a traffic-engineering control loop."""

    #: Which :class:`~repro.te.policy.TEPolicy` drives re-routes.
    policy: str = "greedy"
    #: Paths per (src, dst) pair the Yen engine offers the policy.
    k_paths: int = 4
    #: Measurement-loop period (simulated seconds between utilization
    #: snapshots and policy decisions).
    interval: float = 5.0
    #: Links at or above this utilization fraction count as hot.
    threshold: float = 0.7
    #: Exploration rate for the bandit policy.
    epsilon: float = 0.1
    #: Seed for policy-internal randomness (bandit exploration).
    seed: int = 0
    #: Upper bound on steers applied per measurement tick.
    max_steers_per_tick: int = 4
    #: Actuation engine: ``auto`` / ``zebra`` / ``synthetic``.
    engine: str = "auto"
    #: Optional induced hot link, ``"a:b"`` — its capacity is scaled by
    #: :attr:`hot_capacity_scale` before traffic starts, the standard way
    #: the TE scenarios manufacture a bottleneck.
    hot_link: Optional[str] = None
    hot_capacity_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown TE policy {self.policy!r}; choose from {POLICY_NAMES}")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown TE engine {self.engine!r}; choose from {ENGINE_NAMES}")
        if self.k_paths < 1:
            raise ValueError("k_paths must be >= 1")
        if self.interval <= 0.0:
            raise ValueError("interval must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be within [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        if self.max_steers_per_tick < 1:
            raise ValueError("max_steers_per_tick must be >= 1")
        if self.hot_link is not None:
            self.hot_link_pair()  # validates the format eagerly
        if not 0.0 < self.hot_capacity_scale <= 1.0:
            raise ValueError("hot_capacity_scale must be within (0, 1]")

    def hot_link_pair(self) -> Optional[Tuple[int, int]]:
        """The induced hot link as a (node, node) pair, or None."""
        if self.hot_link is None:
            return None
        try:
            left, right = self.hot_link.split(":")
            return (int(left), int(right))
        except ValueError:
            raise ValueError(
                f"hot_link must look like 'a:b', got {self.hot_link!r}")
