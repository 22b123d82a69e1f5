"""Tests for the OpenFlow flow table."""

from __future__ import annotations

import pytest

from repro.net import EtherType, IPv4Address
from repro.openflow import FlowEntry, FlowTable, Match, OutputAction, PacketFields
from repro.openflow.constants import OFPPort


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

    def test_counters_update_on_use(self):
        table = FlowTable()
        entry = FlowEntry(prefix_match("10.0.0.0", 8), [OutputAction(1)])
        table.add(entry)
        assert table.lookup(fields_for("10.1.2.3")) is entry
        assert table.lookup(fields_for("11.0.0.1")) is None
        assert table.lookup_destination(EtherType.IPV4, 0x0A000001) is entry
        assert (table.lookup_count, table.matched_count) == (3, 2)


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

    def test_clear(self):
        table = FlowTable()
        table.add(FlowEntry(Match.wildcard_all(), [OutputAction(1)]))
        table.clear()
        assert len(table) == 0


class TestExpiry:
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
