"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.bus import MessageBus
from repro.routeflow import ShardedControlPlane, make_partitioner
from repro.sim import SeededRandom, Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import torus_topology
from repro.traffic import FluidEngine, SyntheticRoutes, service_address


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator per test."""
    return Simulator()


@pytest.fixture
def rng() -> SeededRandom:
    """A deterministic random source."""
    return SeededRandom(42)


@pytest.fixture
def one_shard_plane(sim):
    """Builder of a one-shard RouteFlow control plane on its own bus, with
    a given VM boot delay: shard 0's controller, RFServer and RFProxy,
    with no discovery or RPC in the loop."""
    def build(vm_boot_delay: float) -> ShardedControlPlane:
        return ShardedControlPlane(sim, MessageBus(sim),
                                   make_partitioner("hash", 1),
                                   vm_boot_delay=vm_boot_delay)
    return build


def _torus_fluid(rows: int = 16, cols: int = 16):
    """A torus with synthetic RouteFlow-shaped flow tables and an attached
    fluid engine: ``(sim, network, routes, engine, addresses)``, ready for
    demand registration."""
    sim = Simulator()
    network = EmulatedNetwork(sim, torus_topology(rows, cols))
    routes = SyntheticRoutes(network)
    routes.install()
    addresses = {dpid: service_address(dpid) for dpid in network.switches}
    owners = {int(address): dpid for dpid, address in addresses.items()}
    engine = FluidEngine(sim, network, owner_of=owners.get)
    engine.attach()
    return sim, network, routes, engine, addresses


@pytest.fixture
def torus_fluid_fixture():
    """Builder of :func:`_torus_fluid` fixtures (default 16x16: 256
    routers, the fluid cases of the pinned outputs)."""
    return _torus_fluid
