"""Property tests for the scale-free AS-graph generator.

Hypothesis drives the pure-graph invariants (connectivity, role and
relationship consistency, provider-DAG acyclicity, seed determinism)
over a range of sizes and seeds; a small end-to-end run then checks the
semantic consequence — every AS path actually received by a BGP speaker
is valley-free under the generated relationships.
"""

import pytest

from repro.core import AutoConfigFramework, FrameworkConfig, IPAddressManager
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.graph import TopologyError
from repro.topology.generators import (
    BASE_ASN,
    as_map_from_topology,
    scale_free_as_topology,
)

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


graph_params = st.tuples(
    st.integers(min_value=3, max_value=24),     # num_ases
    st.integers(min_value=0, max_value=2**32),  # seed
    st.integers(min_value=1, max_value=3),      # attach
)


def _signature(topology):
    """Everything observable about a generated topology, hashable."""
    return (
        tuple((n.node_id, n.name, n.asn) for n in topology.nodes),
        tuple(sorted((link.node_a, link.node_b) for link in topology.links)),
        tuple(sorted(topology.as_relationships.items())),
        tuple(sorted(topology.as_roles.items())),
    )


class TestScaleFreeGraphProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(params=graph_params)
    def test_graph_connected(self, params):
        num_ases, seed, attach = params
        topology = scale_free_as_topology(num_ases, seed=seed, attach=attach)
        assert topology.is_connected()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(params=graph_params)
    def test_roles_consistent(self, params):
        num_ases, seed, attach = params
        topology = scale_free_as_topology(num_ases, seed=seed, attach=attach)
        relationships = topology.as_relationships
        roles = topology.as_roles
        assert set(roles) == {BASE_ASN + i for i in range(num_ases)}
        customers_of = {}
        providers_of = {}
        for (asn_a, asn_b), rel in relationships.items():
            # The map stores both directions with the correct inverse.
            inverse = {"customer": "provider", "provider": "customer",
                       "peer": "peer"}[rel]
            assert relationships[(asn_b, asn_a)] == inverse
            if rel == "customer":
                customers_of.setdefault(asn_a, set()).add(asn_b)
            elif rel == "provider":
                providers_of.setdefault(asn_a, set()).add(asn_b)
        for asn, role in roles.items():
            if role == "transit":
                # The peer clique never buys transit.
                assert asn not in providers_of
            elif role == "mid":
                assert asn in customers_of and asn in providers_of
            else:
                assert role == "stub"
                assert asn not in customers_of

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(params=graph_params)
    def test_provider_relation_acyclic(self, params):
        num_ases, seed, attach = params
        topology = scale_free_as_topology(num_ases, seed=seed, attach=attach)
        for (asn_a, asn_b), rel in topology.as_relationships.items():
            if rel == "provider":
                # Customers always attach to already-present (lower) ASes,
                # so customer->provider edges strictly decrease the index:
                # the provider relation is a DAG by construction.
                assert asn_b < asn_a

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(params=graph_params)
    def test_seed_determinism(self, params):
        num_ases, seed, attach = params
        first = scale_free_as_topology(num_ases, seed=seed, attach=attach)
        second = scale_free_as_topology(num_ases, seed=seed, attach=attach)
        assert _signature(first) == _signature(second)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(TopologyError):
            scale_free_as_topology(2)
        with pytest.raises(TopologyError):
            scale_free_as_topology(8, attach=0)
        with pytest.raises(TopologyError):
            scale_free_as_topology(8, core_ases=8)


def _valley_free(hops, relationships):
    """Gao-Rexford validity of a propagation chain of ASNs.

    ``hops`` lists the ASes in propagation order (origin first, final
    receiver last).  A path is valley-free when it climbs customer->
    provider edges, crosses at most one peer edge, then only descends
    provider->customer: once a route has gone down or sideways it may
    never go up or sideways again.
    """
    descending = False
    for sender, receiver in zip(hops, hops[1:]):
        rel = relationships[(sender, receiver)]  # receiver, seen by sender
        if rel == "customer":          # sending down to a customer
            descending = True
        elif descending:               # up or sideways after the turn
            return False
        elif rel == "peer":            # the single allowed sideways step
            descending = True
    return True


class TestValleyFreePaths:
    @pytest.fixture(scope="class", params=(1, 2))
    def scale_free_run(self, request):
        topology = scale_free_as_topology(
            8, seed=request.param, attach=2, core_ases=2,
            transit_as_size=2)
        config = FrameworkConfig(
            detect_edge_ports=False, enable_bgp=True,
            as_map=as_map_from_topology(topology),
            as_relationships=topology.as_relationships)
        sim = Simulator()
        ipam = IPAddressManager()
        framework = AutoConfigFramework(sim, config=config, ipam=ipam)
        network = EmulatedNetwork(sim, topology, ipam=ipam)
        framework.attach(network)
        configured = framework.run_until_configured(max_time=900.0)
        assert configured is not None
        sim.run(until=configured + 60.0)
        return topology, framework

    def test_received_paths_are_valley_free(self, scale_free_run):
        topology, framework = scale_free_run
        relationships = topology.as_relationships
        checked = 0
        for vm in framework.control_plane.vms.values():
            daemon = vm.bgp
            if daemon is None:
                continue
            for holders in daemon._adj_in.values():
                for _session, announcement in holders.values():
                    if not announcement.as_path:
                        continue
                    # as_path is most-recent-first; propagation order is
                    # origin ... advertiser, then this speaker.
                    hops = list(reversed(announcement.as_path))
                    hops.append(daemon.local_as)
                    assert _valley_free(hops, relationships), \
                        f"valley in path {hops} at AS {daemon.local_as}"
                    checked += 1
        assert checked > 0

    def test_stubs_never_transit(self, scale_free_run):
        topology, framework = scale_free_run
        stubs = {asn for asn, role in topology.as_roles.items()
                 if role == "stub"}
        for vm in framework.control_plane.vms.values():
            daemon = vm.bgp
            if daemon is None:
                continue
            for holders in daemon._adj_in.values():
                for _session, announcement in holders.values():
                    # A stub AS may originate (appear last) but must never
                    # appear in the middle of a received path.
                    for asn in announcement.as_path[:-1]:
                        assert asn not in stubs, \
                            f"stub AS {asn} transits in {announcement.as_path}"
