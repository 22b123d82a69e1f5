"""``FlowTable`` against a list-scan model of an OpenFlow 1.0 table.

The table keeps three indexes beside its priority-ordered list (identity
-> entry, destination cells per (prefix length, dl_type), and the residue
of other shapes).  The model keeps none: its entries in install order, and
every command answered by scanning them with the 1.0 rules (exact matches
first, then highest priority, then earliest install; STRICT means equal
match and priority, non-strict means covered; an out port filters
deletes).  A Hypothesis state machine drives both through adds of every
shape, modify, delete and clear, and after every step compares
lookups, entry order, actions, counters, ``version`` and what listeners
were told.  Three seeded mutants, one per index, show it has teeth.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (RuleBasedStateMachine, invariant,  # noqa: E402
                                 rule, run_state_machine_as_test)

from repro.net.addresses import IPv4Address  # noqa: E402
from repro.net.ethernet import EtherType  # noqa: E402
from repro.openflow.actions import OutputAction  # noqa: E402
from repro.openflow.constants import OFPPort  # noqa: E402
from repro.openflow.flow_table import FlowEntry, FlowTable  # noqa: E402
from repro.openflow.match import Match, PacketFields  # noqa: E402

#: Addresses that part at bit 32, 24, 16 and 8, so /32, /24, /16, /8 and
#: /0 prefixes over them each cover a different subset.
ADDRESSES = (0x0A000001, 0x0A000002, 0x0A000101, 0x0A010001, 0x0B000001)
IPV4, ARP = EtherType.IPV4, EtherType.ARP
#: What every looked-up packet carries besides its destination.
IN_PORT, SOURCE = 1, ADDRESSES[0]
PRIORITIES = st.sampled_from((5, 6, 0x8000))
PORTS = st.sampled_from(((), (1,), (2,), (1, 2)))
#: (shape, address, prefix length, dl_type, in_port).  "in_port" and
#: "nw_src" are the shapes only the residue holds; "exact" ranks above
#: every priority; "all" (a selection only) covers everything.
SPECS = st.tuples(
    st.sampled_from(("prefix", "prefix", "prefix", "in_port", "nw_src",
                     "exact")),
    st.sampled_from(ADDRESSES), st.sampled_from((0, 8, 16, 24, 32)),
    st.sampled_from((IPV4, IPV4, ARP)), st.sampled_from((1, 2)))
SELECTIONS = st.one_of(SPECS, st.just(("all", 0, 0, 0, 0)))
#: None draws the command's match and priority; an index names those of
#: one of the last entries added (installed or gone) instead, so identical
#: adds and STRICT commands meet something.
PICKS = st.one_of(st.none(), st.integers(min_value=0, max_value=7))


def _packet(dst: int, dl_type: int, in_port: int = IN_PORT,
            source: int = SOURCE) -> PacketFields:
    fields = PacketFields(in_port=in_port)
    fields.dl_type = dl_type
    fields.nw_src = IPv4Address(source)
    fields.nw_dst = IPv4Address(dst)
    return fields


#: Every address as IPv4, plus one non-IPv4 packet.
PACKETS = [(dst, IPV4) for dst in ADDRESSES] + [(ADDRESSES[0], ARP)]


def _build(spec) -> Match:
    shape, address, prefix_len, dl_type, in_port = spec
    if shape == "all":
        return Match.wildcard_all()
    if shape == "exact":
        return Match.exact_from_fields(_packet(address, dl_type))
    match = Match.wildcard_all().set_dl_type(dl_type)
    if shape == "nw_src":
        return match.set_nw_src(IPv4Address(address), prefix_len)
    match.set_nw_dst(IPv4Address(address), prefix_len)
    return match.set_in_port(in_port) if shape == "in_port" else match


def _same(a: Match, b: Match) -> bool:
    return a.encode() == b.encode()


class ListTable:
    """The model: entry -> actions, in install order; every command is a
    scan under the OpenFlow 1.0 rules."""

    def __init__(self) -> None:
        self.actions = {}

    @staticmethod
    def _rank(entry) -> int:
        return 0x10000 if entry.match.wildcards == 0 else entry.priority

    def ordered(self) -> list:
        # sorted() is stable: install order breaks ties.
        return sorted(self.actions, key=lambda e: -self._rank(e))

    def add(self, entry) -> list:
        stale = [e for e in self.actions if _same(e.match, entry.match)
                 and e.priority == entry.priority]
        for old in stale:
            del self.actions[old]
        self.actions[entry] = tuple(entry.actions)
        return stale + [entry]

    def select(self, match, strict, priority, out_port) -> list:
        return [e for e in self.ordered()
                if (out_port == OFPPort.NONE or any(
                    a.port == out_port for a in self.actions[e]))
                and ((_same(e.match, match) and e.priority == priority)
                     if strict else match.covers(e.match))]

    def modify(self, match, actions, strict, priority) -> list:
        touched = self.select(match, strict, priority, OFPPort.NONE)
        for entry in touched:
            self.actions[entry] = tuple(actions)
        return touched

    def delete(self, match, strict, priority, out_port) -> list:
        removed = self.select(match, strict, priority, out_port)
        for entry in removed:
            del self.actions[entry]
        return removed

    def lookup(self, fields):
        hits = [e for e in self.ordered() if e.match.matches(fields)]
        return hits[0] if hits else None


class FlowTableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.table = FlowTable()
        self.model = ListTable()
        self.heard = []
        self.table.add_change_listener(
            lambda table, changed: self.heard.append(changed))
        self.lookups = self.matched = 0
        #: One shared Match per spec: entries may share theirs, as those of
        #: ``SyntheticRoutes`` do.
        self.shared = {}
        self.added = []

    def _target(self, spec, priority, pick, fresh: bool):
        if pick is not None and self.added:
            entry = self.added[-1 - pick % len(self.added)]
            if fresh:
                return Match.decode(entry.match.encode()), entry.priority
            return entry.match, entry.priority
        if fresh:
            return _build(spec), priority
        if spec not in self.shared:
            self.shared[spec] = _build(spec)
        return self.shared[spec], priority

    def _mutate(self, expected, operation):
        """Run one table command; ``expected`` is what the model changed
        ([] nothing, None the whole table)."""
        version, self.heard = self.table.version, []
        result = operation()
        if expected == []:
            assert (self.table.version, self.heard) == (version, [])
        else:
            assert self.table.version == version + 1
            assert len(self.heard) == 1
            told = self.heard[0]
            assert told is None if expected is None else list(told) == expected
        return result

    @rule(spec=SPECS, priority=PRIORITIES, pick=PICKS, fresh=st.booleans(),
          ports=PORTS)
    def add(self, spec, priority, pick, fresh, ports):
        match, priority = self._target(spec, priority, pick, fresh)
        entry = FlowEntry(match, [OutputAction(port) for port in ports],
                          priority=priority)
        self.added.append(entry)
        self._mutate(self.model.add(entry),
                     lambda: self.table.add(entry))

    @rule(spec=SELECTIONS, priority=PRIORITIES, pick=PICKS,
          fresh=st.booleans(), ports=PORTS, strict=st.booleans())
    def modify(self, spec, priority, pick, fresh, ports, strict):
        match, priority = self._target(spec, priority, pick, fresh)
        actions = [OutputAction(port) for port in ports]
        touched = self.model.modify(match, actions, strict, priority)
        assert self._mutate(touched, lambda: self.table.modify(
            match, actions, strict, priority)) == len(touched)

    @rule(spec=SELECTIONS, priority=PRIORITIES, pick=PICKS,
          fresh=st.booleans(), strict=st.booleans(),
          out_port=st.sampled_from((OFPPort.NONE, 1, 2)))
    def delete(self, spec, priority, pick, fresh, strict, out_port):
        match, priority = self._target(spec, priority, pick, fresh)
        removed = self.model.delete(match, strict, priority, out_port)
        assert self._mutate(removed, lambda: self.table.delete(
            match, strict, priority, out_port)) == removed

    @rule()
    def clear(self):
        expected = None if self.model.actions else []
        self.model.actions.clear()
        self._mutate(expected, self.table.clear)

    @invariant()
    def agrees_with_the_model(self):
        table, model = self.table, self.model
        assert table.entries == model.ordered()
        assert len(table) == len(model.actions)
        for entry, actions in model.actions.items():
            assert entry.actions == actions
        for dst, dl_type in PACKETS:
            fields = _packet(dst, dl_type)
            expected = model.lookup(fields)
            assert table.lookup(fields) is expected
            # The by-destination probe sees the packet with nothing else set.
            bare = model.lookup(_packet(dst, dl_type, in_port=0, source=0))
            assert table.lookup_destination(dl_type, dst) is bare
            self.lookups += 2
            self.matched += (expected is not None) + (bare is not None)
        assert (table.lookup_count, table.matched_count) == (
            self.lookups, self.matched)


MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=30,
                            derandomize=True, deadline=None)

TestFlowTableMachine = FlowTableMachine.TestCase
TestFlowTableMachine.settings = MACHINE_SETTINGS


class TestSeededMutants:
    """The machine must fail on a table with a planted defect in any one of
    its three indexes.  A corrupt index may also crash the table itself,
    which counts as caught."""

    #: No shrinking: the first counterexample is proof enough.
    SETTINGS = settings(MACHINE_SETTINGS, phases=(Phase.generate,),
                        report_multiple_bugs=False)
    CAUGHT = (AssertionError, LookupError, ValueError)

    def _kills(self):
        with pytest.raises(self.CAUGHT):
            run_state_machine_as_test(FlowTableMachine, settings=self.SETTINGS)

    def test_kills_an_identity_left_behind_by_delete(self, monkeypatch):
        genuine = FlowTable.delete

        def mutant(table, *args, **kwargs):
            kept, table._by_key = table._by_key, dict(table._by_key)
            try:
                return genuine(table, *args, **kwargs)
            finally:
                table._by_key = kept

        monkeypatch.setattr(FlowTable, "delete", mutant)
        self._kills()

    def test_kills_a_destination_cell_left_behind_by_unindex(
            self, monkeypatch):
        genuine = FlowTable._unindex

        def mutant(table, entry):
            kept, table._dst_levels = table._dst_levels, {}
            try:
                genuine(table, entry)
            finally:
                table._dst_levels = kept

        monkeypatch.setattr(FlowTable, "_unindex", mutant)
        self._kills()

    def test_kills_a_lookup_that_skips_the_residue(self, monkeypatch):
        genuine = FlowTable.lookup_destination

        def mutant(table, *args, **kwargs):
            kept, table._other = table._other, {}
            try:
                return genuine(table, *args, **kwargs)
            finally:
                table._other = kept

        monkeypatch.setattr(FlowTable, "lookup_destination", mutant)
        self._kills()
