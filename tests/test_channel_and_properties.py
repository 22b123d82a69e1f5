"""Control-channel behaviour plus extra property-based tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import IPAddressManager
from repro.net import IPv4Address, IPv4Network
from repro.openflow import ControlChannel, Hello, OpenFlowMessage
from repro.routeflow import RouteMod
from repro.sim import Simulator


class _Endpoint:
    """A channel endpoint recording everything it receives."""

    def __init__(self):
        self.received = []
        self.closed = 0

    def channel_receive(self, channel, data):
        self.received.append(data)

    def channel_closed(self, channel):
        self.closed += 1


class TestControlChannel:
    def test_messages_delivered_after_latency(self, sim):
        a, b = _Endpoint(), _Endpoint()
        channel = ControlChannel(sim, latency=0.25)
        channel.connect(a, b)
        channel.send(a, b"one")
        channel.send(b, b"two")
        sim.run(until=0.2)
        assert a.received == [] and b.received == []
        sim.run(until=0.3)
        assert b.received == [b"one"]
        assert a.received == [b"two"]

    def test_counters_track_direction(self, sim):
        a, b = _Endpoint(), _Endpoint()
        channel = ControlChannel(sim, latency=0.01)
        channel.connect(a, b)
        channel.send(a, b"xx")
        channel.send(a, b"yyy")
        channel.send(b, b"z")
        sim.run()
        assert channel.messages_a_to_b == 2 and b.received == [b"xx", b"yyy"]
        assert channel.messages_b_to_a == 1 and a.received == [b"z"]

    def test_send_before_connect_fails(self, sim):
        channel = ControlChannel(sim)
        assert channel.send(_Endpoint(), b"data") is False

    def test_close_notifies_both_ends_and_blocks_sends(self, sim):
        a, b = _Endpoint(), _Endpoint()
        channel = ControlChannel(sim, latency=0.01)
        channel.connect(a, b)
        channel.close()
        sim.run()
        assert a.closed == 1 and b.closed == 1
        assert channel.send(a, b"late") is False

    def test_messages_in_flight_when_closed_are_dropped(self, sim):
        a, b = _Endpoint(), _Endpoint()
        channel = ControlChannel(sim, latency=1.0)
        channel.connect(a, b)
        channel.send(a, b"will-be-dropped")
        sim.schedule(0.5, channel.close)
        sim.run()
        assert b.received == []

    def test_peer_of_unknown_endpoint_rejected(self, sim):
        a, b = _Endpoint(), _Endpoint()
        channel = ControlChannel(sim)
        channel.connect(a, b)
        with pytest.raises(ValueError):
            channel.peer_of(_Endpoint())

    def test_carries_real_openflow_messages(self, sim):
        a, b = _Endpoint(), _Endpoint()
        channel = ControlChannel(sim, latency=0.01)
        channel.connect(a, b)
        channel.send(a, Hello(xid=7).encode())
        sim.run()
        decoded = OpenFlowMessage.decode(b.received[0])
        assert isinstance(decoded, Hello) and decoded.xid == 7


class TestIPAMProperties:
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=64),
                              st.integers(min_value=1, max_value=8),
                              st.integers(min_value=1, max_value=64),
                              st.integers(min_value=1, max_value=8)),
                    min_size=1, max_size=40))
    def test_link_subnets_never_overlap(self, links):
        ipam = IPAddressManager()
        allocations = []
        for dpid_a, port_a, dpid_b, port_b in links:
            if dpid_a == dpid_b:
                continue
            allocations.append(ipam.allocate_link(dpid_a, port_a, dpid_b, port_b))
        networks = [a.network for a in allocations]
        # Re-allocating the same key returns the same subnet, and distinct
        # subnets never overlap.
        assert len({str(n) for n in networks}) == ipam.allocated_links
        nets = list({str(n): n for n in networks}.values())
        for i, one in enumerate(nets):
            for other in nets[i + 1:]:
                assert one.network not in other
                assert other.network not in one

    @given(st.integers(min_value=1, max_value=100000),
           st.integers(min_value=1, max_value=100000))
    def test_router_ids_injective(self, vm_a, vm_b):
        ipam = IPAddressManager()
        if vm_a != vm_b:
            assert ipam.router_id(vm_a) != ipam.router_id(vm_b)
        else:
            assert ipam.router_id(vm_a) == ipam.router_id(vm_b)


class TestRouteModProperties:
    prefixes = st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                         st.integers(min_value=0, max_value=32))

    @given(st.integers(min_value=1, max_value=2**48),
           prefixes,
           st.one_of(st.none(), st.integers(min_value=1, max_value=2**32 - 1)),
           st.integers(min_value=0, max_value=1000))
    def test_json_roundtrip(self, vm_id, prefix_spec, next_hop, metric):
        base, plen = prefix_spec
        prefix = IPv4Network((IPv4Address(base), plen))
        hop = IPv4Address(next_hop) if next_hop is not None else None
        message = RouteMod.add(vm_id=vm_id, prefix=prefix, next_hop=hop,
                               interface="eth1", metric=metric)
        decoded = RouteMod.from_json(message.to_json())
        assert decoded.vm_id == vm_id
        assert decoded.prefix_network == prefix
        assert decoded.next_hop_address == hop
        assert decoded.metric == metric
