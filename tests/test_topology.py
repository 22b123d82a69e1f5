"""Tests for topology descriptions, generators, the pan-European map and the emulator."""

from __future__ import annotations

import pytest

from repro.core.ipam import IPAddressManager
from repro.topology import (
    EmulatedNetwork,
    PAN_EUROPEAN_CITIES,
    PAN_EUROPEAN_LINKS,
    Topology,
    TopologyError,
    dumbbell_topology,
    fat_tree_topology,
    full_mesh_topology,
    great_circle_km,
    linear_topology,
    link_delay_seconds,
    pan_european_topology,
    random_topology,
    ring_topology,
    star_topology,
    torus_topology,
    tree_topology,
    waxman_topology,
)


class TestTopologyGraph:
    def test_add_nodes_links_hosts(self):
        topology = Topology("t")
        topology.add_node(1, "a")
        topology.add_node(2, "b")
        topology.add_link(1, 2, delay=0.005)
        topology.attach_host("h1", 1)
        assert topology.num_nodes == 2
        assert topology.num_links == 1
        assert topology.node_by_name("b").node_id == 2
        assert topology.neighbors(1) == [2]
        assert topology.degree(2) == 1
        assert [(h.host_name, h.node_id) for h in topology.hosts] == [("h1", 1)]

    def test_duplicate_node_rejected(self):
        topology = Topology("t")
        topology.add_node(1)
        with pytest.raises(TopologyError):
            topology.add_node(1)

    def test_non_positive_node_id_rejected(self):
        with pytest.raises(TopologyError):
            Topology("t").add_node(0)

    def test_link_validation(self):
        topology = Topology("t")
        topology.add_node(1)
        topology.add_node(2)
        with pytest.raises(TopologyError):
            topology.add_link(1, 3)
        with pytest.raises(TopologyError):
            topology.add_link(1, 1)
        topology.add_link(1, 2)
        with pytest.raises(TopologyError):
            topology.add_link(2, 1)  # duplicate in either direction

    def test_host_validation(self):
        topology = Topology("t")
        topology.add_node(1)
        topology.attach_host("h", 1)
        with pytest.raises(TopologyError):
            topology.attach_host("h", 1)
        with pytest.raises(TopologyError):
            topology.attach_host("other", 9)

    def test_connectivity_check(self):
        topology = Topology("t")
        for node in (1, 2, 3):
            topology.add_node(node)
        topology.add_link(1, 2)
        assert not topology.is_connected()
        topology.add_link(2, 3)
        assert topology.is_connected()
        assert not Topology("empty").is_connected()


class TestGenerators:
    def test_ring_shape(self):
        topology = ring_topology(6)
        assert topology.num_nodes == 6
        assert topology.num_links == 6
        assert all(topology.degree(n.node_id) == 2 for n in topology.nodes)
        assert topology.is_connected()

    def test_ring_minimum_size(self):
        with pytest.raises(TopologyError):
            ring_topology(2)

    def test_linear_shape(self):
        topology = linear_topology(5)
        assert topology.num_links == 4
        assert topology.degree(1) == 1 and topology.degree(3) == 2

    def test_star_shape(self):
        topology = star_topology(4)
        assert topology.num_nodes == 5
        assert topology.degree(1) == 4

    def test_tree_shape(self):
        topology = tree_topology(depth=2, fanout=2)
        assert topology.num_nodes == 7
        assert topology.num_links == 6
        assert topology.is_connected()

    def test_full_mesh_shape(self):
        topology = full_mesh_topology(5)
        assert topology.num_links == 10
        assert all(topology.degree(n.node_id) == 4 for n in topology.nodes)

    def test_random_topology_connected_and_reproducible(self):
        one = random_topology(12, extra_link_probability=0.2, seed=3)
        two = random_topology(12, extra_link_probability=0.2, seed=3)
        other = random_topology(12, extra_link_probability=0.2, seed=4)
        assert one.is_connected()
        assert {l.canonical() for l in one.links} == {l.canonical() for l in two.links}
        assert {l.canonical() for l in one.links} != {l.canonical() for l in other.links}

    def test_random_topology_probability_bounds(self):
        with pytest.raises(TopologyError):
            random_topology(5, extra_link_probability=1.5)

    def test_random_topology_never_duplicates_tree_links(self):
        # Regression: with probability 1.0 the extra-link pass visits every
        # pair, so any spanning-tree link missing from the dedup set would
        # raise a duplicate-link TopologyError.  The result must be exactly
        # the complete graph, under any seed.
        for seed in range(10):
            topology = random_topology(9, extra_link_probability=1.0, seed=seed)
            assert topology.num_links == 9 * 8 // 2
            canonicals = [l.canonical() for l in topology.links]
            assert len(canonicals) == len(set(canonicals))


class TestFatTree:
    def test_k4_shape(self):
        topology = fat_tree_topology(4)
        assert topology.num_nodes == 20
        assert topology.num_links == 32
        assert topology.is_connected()
        # Cores uplink once per pod (degree k); aggregation switches carry
        # k/2 uplinks + k/2 downlinks; edge switches keep their k/2 host
        # ports free, so their switch-graph degree is k/2.
        for core in range(1, 5):
            assert topology.degree(core) == 4
        for node in topology.nodes:
            expected = 2 if node.name.startswith("edge") else 4
            assert topology.degree(node.node_id) == expected

    def test_k6_counts(self):
        topology = fat_tree_topology(6)
        assert topology.num_nodes == 9 + 6 * 6
        assert topology.num_links == 9 * 6 + 6 * 9
        assert topology.is_connected()

    def test_odd_or_tiny_arity_rejected(self):
        with pytest.raises(TopologyError):
            fat_tree_topology(3)
        with pytest.raises(TopologyError):
            fat_tree_topology(0)


class TestTorus:
    def test_wrapped_torus_is_degree_4(self):
        topology = torus_topology(4, 5)
        assert topology.num_nodes == 20
        assert topology.num_links == 40
        assert all(topology.degree(n.node_id) == 4 for n in topology.nodes)
        assert topology.is_connected()

    def test_grid_without_wrap(self):
        topology = torus_topology(3, 4, wrap=False)
        assert topology.num_nodes == 12
        assert topology.num_links == 3 * 3 + 2 * 4
        assert topology.degree(1) == 2  # corner
        assert topology.is_connected()

    def test_size_two_dimension_not_double_linked(self):
        # Wrapping a dimension of size 2 would duplicate the grid link.
        topology = torus_topology(2, 3)
        canonicals = [l.canonical() for l in topology.links]
        assert len(canonicals) == len(set(canonicals))
        assert topology.is_connected()

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            torus_topology(1, 5)


class TestWaxman:
    def test_connected_and_deterministic(self):
        one = waxman_topology(24, seed=5)
        two = waxman_topology(24, seed=5)
        other = waxman_topology(24, seed=6)
        assert one.is_connected()
        assert {l.canonical() for l in one.links} == {l.canonical() for l in two.links}
        assert {l.canonical() for l in one.links} != {l.canonical() for l in other.links}

    def test_delays_follow_distance(self):
        topology = waxman_topology(16, seed=0)
        delays = [l.delay for l in topology.links]
        assert all(d > 0 for d in delays)
        assert max(delays) > min(delays)

    def test_sparse_parameters_still_connected(self):
        # Tiny alpha draws almost no random links; stitching must connect.
        topology = waxman_topology(12, alpha=0.01, beta=0.05, seed=3)
        assert topology.is_connected()

    def test_parameter_validation(self):
        with pytest.raises(TopologyError):
            waxman_topology(1)
        with pytest.raises(TopologyError):
            waxman_topology(5, alpha=0.0)
        with pytest.raises(TopologyError):
            waxman_topology(5, beta=-1.0)


class TestDumbbell:
    def test_shape_with_trunk(self):
        topology = dumbbell_topology(3, 4, trunk_switches=2)
        assert topology.num_nodes == 2 + 2 + 3 + 4
        assert topology.num_links == 3 + 3 + 4
        assert topology.is_connected()
        assert topology.degree(topology.node_by_name("hub-left").node_id) == 4

    def test_trunk_is_the_bottleneck(self):
        topology = dumbbell_topology(2, 2)
        trunk = next(l for l in topology.links if {l.node_a, l.node_b} == {1, 2})
        leaf = next(l for l in topology.links if 1 in (l.node_a, l.node_b)
                    and l is not trunk)
        assert trunk.bandwidth_bps < leaf.bandwidth_bps
        assert trunk.delay > leaf.delay

    def test_validation(self):
        with pytest.raises(TopologyError):
            dumbbell_topology(0, 3)
        with pytest.raises(TopologyError):
            dumbbell_topology(2, 2, trunk_switches=-1)


class TestPanEuropean:
    def test_has_28_nodes_and_42_links(self):
        topology = pan_european_topology()
        assert topology.num_nodes == 28
        assert topology.num_links == 42
        assert len(PAN_EUROPEAN_CITIES) == 28
        assert len(PAN_EUROPEAN_LINKS) == 42

    def test_connected_and_named_after_cities(self):
        topology = pan_european_topology()
        assert topology.is_connected()
        assert topology.node_by_name("Madrid") is not None
        assert topology.node_by_name("Stockholm") is not None

    def test_no_degree_zero_nodes(self):
        topology = pan_european_topology()
        assert all(topology.degree(node.node_id) >= 2 for node in topology.nodes)

    def test_link_delays_follow_distance(self):
        topology = pan_european_topology()
        athens = topology.node_by_name("Athens").node_id
        rome = topology.node_by_name("Rome").node_id
        amsterdam = topology.node_by_name("Amsterdam").node_id
        brussels = topology.node_by_name("Brussels").node_id
        delay_long = next(l.delay for l in topology.links
                          if {l.node_a, l.node_b} == {athens, rome})
        delay_short = next(l.delay for l in topology.links
                           if {l.node_a, l.node_b} == {amsterdam, brussels})
        assert delay_long > delay_short > 0

    def test_great_circle_distance_sanity(self):
        paris = next(c for c in PAN_EUROPEAN_CITIES if c[0] == "Paris")
        london = next(c for c in PAN_EUROPEAN_CITIES if c[0] == "London")
        distance = great_circle_km(paris[1], paris[2], london[1], london[2])
        assert 300 < distance < 400
        assert link_delay_seconds(distance) == pytest.approx(
            distance * 1.3 * 1000 / 2e8)


class TestEmulator:
    def test_builds_switches_and_ports(self, sim):
        network = EmulatedNetwork(sim, ring_topology(4))
        assert network.num_switches == 4
        for switch in network.switches.values():
            assert sorted(switch.ports) == [1, 2]
        assert len(network.links) == 4

    def test_link_port_lookup_is_symmetric(self, sim):
        network = EmulatedNetwork(sim, linear_topology(3))
        port_12, port_21 = network.ports_for_link(1, 2)
        port_21_b, port_12_b = network.ports_for_link(2, 1)
        assert (port_12, port_21) == (port_12_b, port_21_b)

    def test_hosts_get_addresses_from_shared_ipam(self, sim):
        ipam = IPAddressManager()
        topology = linear_topology(2)
        topology.attach_host("h1", 1)
        topology.attach_host("h2", 2)
        network = EmulatedNetwork(sim, topology, ipam=ipam)
        info = network.hosts["h1"]
        allocation = ipam.edge_allocation(info.datapath_id, info.port_no)
        assert allocation is not None
        assert network.host("h1").ip in allocation.network
        assert info.gateway == allocation.gateway
        assert network.host("h1").gateway == allocation.gateway

    def test_namespaces_created_per_device(self, sim):
        topology = linear_topology(2)
        topology.attach_host("h1", 1)
        network = EmulatedNetwork(sim, topology)
        assert len(network.namespaces) == 3
        assert "h1" in network.namespaces

    def test_fail_link_brings_link_down(self, sim):
        network = EmulatedNetwork(sim, linear_topology(2))
        network.fail_link(1, 2)
        port_a, _ = network.ports_for_link(1, 2)
        assert not network.switch(1).port(port_a).interface.link.up

    def test_control_plane_connection_staggered(self, sim):
        from repro.controller import Controller

        controller = Controller(sim)
        network = EmulatedNetwork(sim, ring_topology(5))
        network.connect_control_plane(controller.accept_channel, controller)
        sim.run(until=0.05)
        assert len(controller.connected_datapaths) <= 1
        sim.run(until=3.0)
        assert controller.connected_datapaths == [1, 2, 3, 4, 5]
