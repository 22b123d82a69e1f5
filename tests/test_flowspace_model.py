"""``FlowSpace.slices_for_packet`` against a list-scan model of FlowVisor.

FlowVisor hands a packet to the slices of the highest-priority flowspace
rules that match it, and to no others.  The model keeps the rules in the
order they were added and answers by scanning all of them: drop the rules
that do not match (by its own reading of a rule's kind, not by ``Match``),
keep those at the highest priority left, and return the slices among them
that may read, first occurrence first.  Hypothesis draws rule sets with
tied priorities, every permission and LLDP / IPv4 / ARP / wildcard
matches, and frames of each of those ethertypes.  The seeded mutant is
the any-match scan the flowspace used before: it also delivers LLDP to
the RouteFlow wildcard below the LLDP rule.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.flowvisor import FlowSpace, Permission  # noqa: E402
from repro.net import (ARP, LLDP, LLDP_MULTICAST, UDP, Ethernet,  # noqa: E402
                       EtherType, IPv4, IPv4Address, MACAddress)
from repro.net.ipv4 import IPProtocol  # noqa: E402
from repro.openflow import Match, PacketFields  # noqa: E402

MAC = MACAddress(1)
FRAMES = {
    EtherType.LLDP: Ethernet(
        src=MAC, dst=LLDP_MULTICAST, ethertype=EtherType.LLDP,
        payload=LLDP(chassis_id=1, port_id=1)).encode(),
    EtherType.IPV4: Ethernet(
        src=MAC, dst=MACAddress(2), ethertype=EtherType.IPV4,
        payload=IPv4(src=IPv4Address("10.0.0.1"),
                     dst=IPv4Address("10.0.0.2"), protocol=IPProtocol.UDP,
                     payload=UDP(1, 2, b"x"))).encode(),
    EtherType.ARP: Ethernet(
        src=MAC, dst=MACAddress(2), ethertype=EtherType.ARP,
        payload=ARP(ARP.REQUEST, MAC, IPv4Address("10.0.0.1"),
                    MACAddress(0), IPv4Address("10.0.0.2"))).encode(),
}
#: A rule's kind: the ethertype it matches, or None for the wildcard.
KINDS = st.sampled_from((None, EtherType.LLDP, EtherType.IPV4, EtherType.ARP))
PERMISSIONS = st.sampled_from((Permission.READ, Permission.WRITE,
                               Permission.READ_WRITE))
#: Few slices and priorities, so names repeat and priorities tie.
RULES = st.lists(st.tuples(KINDS, st.sampled_from(("topo", "rf", "rf2")),
                           PERMISSIONS, st.sampled_from((10, 100, 200))),
                 max_size=6)


def model_slices(rules, ethertype):
    """The list-scan model: highest matching priority decides alone."""
    matching = [rule for rule in rules if rule[0] in (None, ethertype)]
    if not matching:
        return []
    top = max(priority for _, _, _, priority in matching)
    result = []
    for _, slice_name, permissions, priority in matching:
        if (priority == top and permissions & Permission.READ
                and slice_name not in result):
            result.append(slice_name)
    return result


def build(rules) -> FlowSpace:
    flowspace = FlowSpace()
    for kind, slice_name, permissions, priority in rules:
        match = Match.wildcard_all()
        if kind is not None:
            match.set_dl_type(kind)
        flowspace.add(match, slice_name, permissions, priority)
    return flowspace


def check_against_model(rules, ethertype):
    fields = PacketFields.from_frame(FRAMES[ethertype], in_port=1)
    assert build(rules).slices_for_packet(fields) == model_slices(
        rules, ethertype), (rules, ethertype)


SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)


class TestFlowSpaceModel:
    @SETTINGS
    @given(rules=RULES, ethertype=st.sampled_from(sorted(FRAMES)))
    def test_slices_for_packet_follows_the_model(self, rules, ethertype):
        check_against_model(rules, ethertype)

    def test_paper_rules_by_the_model(self):
        rules = [(EtherType.LLDP, "topo", Permission.READ_WRITE, 200),
                 (None, "rf", Permission.READ_WRITE, 100)]
        assert model_slices(rules, EtherType.LLDP) == ["topo"]
        assert model_slices(rules, EtherType.IPV4) == ["rf"]
        for ethertype in FRAMES:
            check_against_model(rules, ethertype)


def any_match_scan(self, fields):
    """The mutant: every slice with any matching read rule."""
    result = []
    for rule in self._rules:
        if (rule.slice_name not in result and rule.match.matches(fields)
                and rule.allows_read()):
            result.append(rule.slice_name)
    return result


def test_kills_the_any_match_scan(monkeypatch):
    monkeypatch.setattr(FlowSpace, "slices_for_packet", any_match_scan)

    @settings(SETTINGS, phases=(Phase.generate,), report_multiple_bugs=False)
    @given(rules=RULES, ethertype=st.sampled_from(sorted(FRAMES)))
    def run(rules, ethertype):
        check_against_model(rules, ethertype)

    with pytest.raises(AssertionError):
        run()
