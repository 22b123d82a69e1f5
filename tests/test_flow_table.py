"""Tests for the OpenFlow flow table."""

from __future__ import annotations

import pytest

from repro.net import EtherType, IPv4Address
from repro.openflow import FlowEntry, FlowTable, Match, OutputAction, PacketFields
from repro.openflow.constants import OFPFlowModFlags, OFPPort


def prefix_match(prefix: str, plen: int) -> Match:
    return Match.for_destination_prefix(IPv4Address(prefix), plen)


def fields_for(dst: str, in_port: int = 1) -> PacketFields:
    fields = PacketFields(in_port=in_port)
    fields.dl_type = EtherType.IPV4
    fields.nw_dst = IPv4Address(dst)
    return fields


class TestLookup:
    def test_empty_table_misses(self):
        table = FlowTable()
        assert table.lookup(fields_for("10.0.0.1")) is None
        assert table.lookup_count == 1
        assert table.matched_count == 0

    def test_highest_priority_wins(self):
        table = FlowTable()
        low = FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(1)], priority=100)
        high = FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(2)], priority=200)
        table.add(low)
        table.add(high)
        assert table.lookup(fields_for("10.1.1.1")) is high

    def test_exact_match_beats_wildcard_priority(self):
        table = FlowTable()
        wildcard = FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(1)],
                             priority=0xFFFF)
        exact_fields = fields_for("10.0.0.9", in_port=2)
        exact = FlowEntry(Match.exact_from_fields(exact_fields), [OutputAction(2)],
                          priority=1)
        table.add(wildcard)
        table.add(exact)
        assert table.lookup(exact_fields) is exact

    def test_non_matching_entry_skipped(self):
        table = FlowTable()
        table.add(FlowEntry(prefix_match("192.168.0.0", 16), [OutputAction(1)]))
        assert table.lookup(fields_for("10.0.0.1")) is None
        # Among 500 disjoint /24s only the one covering the packet matches.
        for index in range(500):
            table.add(FlowEntry(
                Match.for_destination_prefix(
                    IPv4Address((10 << 24) | (index << 8)), 24),
                [OutputAction(1)], priority=100 + index % 7))
        entry = table.lookup(fields_for("10.0.200.4"))
        assert entry.match == prefix_match("10.0.200.0", 24)

    def test_add_replaces_identical_match_and_priority(self):
        table = FlowTable()
        table.add(FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(1)], priority=5))
        table.add(FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(2)], priority=5))
        assert len(table) == 1
        entry = table.lookup(fields_for("10.2.3.4"))
        assert entry.actions == (OutputAction(2),)

    def test_counters_update_on_use(self, sim):
        table = FlowTable()
        entry = FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(1)])
        table.add(entry)
        entry.mark_used(now=5.0, packet_len=100)
        entry.mark_used(now=6.0, packet_len=50)
        assert entry.packet_count == 2
        assert entry.byte_count == 150
        assert entry.last_used == 6.0


class TestModifyDelete:
    def test_strict_delete_requires_exact_match_and_priority(self):
        table = FlowTable()
        entry = FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(1)], priority=7)
        table.add(entry)
        removed = table.delete(prefix_match("10.0.0.0", 8), strict=True, priority=8)
        assert removed == []
        removed = table.delete(prefix_match("10.0.0.0", 8), strict=True, priority=7)
        assert removed == [entry]
        assert len(table) == 0

    def test_nonstrict_delete_removes_covered_entries(self):
        table = FlowTable()
        narrow = FlowEntry(prefix_match("10.1.0.0", 16), [OutputAction(1)], priority=5)
        other = FlowEntry(prefix_match("192.168.0.0", 16), [OutputAction(1)], priority=5)
        table.add(narrow)
        table.add(other)
        removed = table.delete(prefix_match("10.0.0.0", 8), strict=False, priority=0)
        assert removed == [narrow]
        assert len(table) == 1

    def test_delete_filtered_by_out_port(self):
        table = FlowTable()
        to_port1 = FlowEntry(prefix_match("10.1.0.0", 16), [OutputAction(1)])
        to_port2 = FlowEntry(prefix_match("10.2.0.0", 16), [OutputAction(2)])
        table.add(to_port1)
        table.add(to_port2)
        removed = table.delete(Match.wildcard_all(), strict=False, priority=0, out_port=2)
        assert removed == [to_port2]

    def test_modify_changes_actions_in_place(self):
        table = FlowTable()
        entry = FlowEntry(prefix_match("10.1.0.0", 16), [OutputAction(1)], priority=9)
        table.add(entry)
        touched = table.modify(prefix_match("10.0.0.0", 8), [OutputAction(3)],
                               strict=False, priority=0)
        assert touched == 1
        assert entry.actions == (OutputAction(3),)

    def test_overlap_detection(self):
        table = FlowTable()
        table.add(FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(1)], priority=5))
        overlap = table.find_overlapping(prefix_match("10.3.0.0", 16), priority=5)
        assert overlap is not None
        assert table.find_overlapping(prefix_match("10.3.0.0", 16), priority=6) is None

    def test_clear(self):
        table = FlowTable()
        table.add(FlowEntry(Match.wildcard_all(), [OutputAction(1)]))
        table.clear()
        assert len(table) == 0


class TestExpiry:
    def test_hard_timeout(self):
        table = FlowTable()
        entry = FlowEntry(Match.wildcard_all(), [OutputAction(1)], hard_timeout=10,
                          install_time=0.0)
        table.add(entry)
        assert table.expire(now=5.0) == []
        expired = table.expire(now=10.0)
        assert expired == [(entry, "hard")]
        assert len(table) == 0

    def test_idle_timeout_reset_by_use(self):
        table = FlowTable()
        entry = FlowEntry(Match.wildcard_all(), [OutputAction(1)], idle_timeout=10,
                          install_time=0.0)
        table.add(entry)
        entry.mark_used(now=8.0, packet_len=1)
        assert table.expire(now=15.0) == []
        expired = table.expire(now=18.0)
        assert expired == [(entry, "idle")]

    def test_zero_timeouts_never_expire(self):
        table = FlowTable()
        entry = FlowEntry(Match.wildcard_all(), [OutputAction(1)], install_time=0.0)
        table.add(entry)
        assert table.expire(now=1e9) == []

    def test_send_flow_removed_flag(self):
        entry = FlowEntry(Match.wildcard_all(), [OutputAction(1)],
                          flags=OFPFlowModFlags.SEND_FLOW_REM)
        assert entry.send_flow_removed
        assert not FlowEntry(Match.wildcard_all(), []).send_flow_removed

    def test_table_capacity(self):
        table = FlowTable(max_entries=2)
        table.add(FlowEntry(prefix_match("10.1.0.0", 16), [OutputAction(1)]))
        table.add(FlowEntry(prefix_match("10.2.0.0", 16), [OutputAction(1)]))
        assert table.is_full

    def test_outputs_to_none_port_matches_everything(self):
        entry = FlowEntry(Match.wildcard_all(), [OutputAction(4)])
        assert entry.outputs_to(OFPPort.NONE)
        assert entry.outputs_to(4)
        assert not entry.outputs_to(5)
