"""The flow table of an OpenFlow 1.0 switch.

Lookup follows the 1.0 semantics: exact-match entries take precedence over
wildcarded entries; among wildcarded entries the highest priority wins.
Entries carry idle and hard timeouts which the switch expires against
simulated time, emitting FLOW_REMOVED when the entry asked for it.

RouteFlow installs one entry per route per switch, so an entry costs one
slotted object and one slot in each index; the keys come from the entry's
:class:`Match`, which caches them and may be shared by many entries.
``tests/test_flow_table_model.py`` holds the table to a list-scan model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.net.addresses import IPv4Address
from repro.openflow.actions import Action, OutputAction
from repro.openflow.constants import OFPFlowModFlags, OFPPort
from repro.openflow.match import Match, PacketFields


class FlowEntry:
    """One installed flow: match, priority, actions, timeouts, counters."""

    __slots__ = ("match", "actions", "priority", "idle_timeout",
                 "hard_timeout", "cookie", "flags", "install_time",
                 "last_used", "packet_count", "byte_count",
                 "effective_priority", "seq")

    def __init__(self, match: Match, actions: Sequence[Action],
                 priority: int = 0x8000, idle_timeout: int = 0,
                 hard_timeout: int = 0, cookie: int = 0, flags: int = 0,
                 install_time: float = 0.0) -> None:
        self.match = match
        #: An immutable tuple, so entries may share one chain (a tuple
        #: given is kept as is); ``FlowTable.modify`` swaps in a new one.
        self.actions: Tuple[Action, ...] = tuple(actions)
        self.priority = priority
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.flags = flags
        self.install_time = install_time
        self.last_used = install_time
        self.packet_count = 0
        self.byte_count = 0
        #: Exact-match entries always win over wildcarded ones.  Computed
        #: once: match and priority are fixed for the entry's lifetime, and
        #: the table sorts on this constantly.
        self.effective_priority = 0x10000 if match.is_exact else priority
        #: Install order within the owning table (assigned by add); breaks
        #: effective-priority ties the way a stable sorted list would.
        self.seq = 0

    @property
    def send_flow_removed(self) -> bool:
        return bool(self.flags & OFPFlowModFlags.SEND_FLOW_REM)

    def mark_used(self, now: float, packet_len: int) -> None:
        self.last_used = now
        self.packet_count += 1
        self.byte_count += packet_len

    def is_expired(self, now: float) -> Optional[str]:
        """Return 'idle' / 'hard' when the entry has timed out, else None."""
        if self.hard_timeout and now - self.install_time >= self.hard_timeout:
            return "hard"
        if self.idle_timeout and now - self.last_used >= self.idle_timeout:
            return "idle"
        return None

    def outputs_to(self, port: int) -> bool:
        """True if any OUTPUT action targets the given port (for deletes)."""
        if port == OFPPort.NONE:
            return True
        return any(isinstance(a, OutputAction) and a.port == port for a in self.actions)

    def __repr__(self) -> str:
        return (f"<FlowEntry prio={self.priority} {self.match!r} "
                f"actions={list(self.actions)} pkts={self.packet_count}>")


#: ``listener(table, changed)``; see :attr:`FlowTable._change_listeners`.
ChangeListener = Callable[["FlowTable", Optional[Sequence[FlowEntry]]], None]

#: A destination cell: its one entry, or a list when several share the
#: destination (a TE steer one priority above a route, say).
Cell = Union[FlowEntry, List[FlowEntry]]


def _table_order(entry: FlowEntry) -> tuple:
    return (-entry.effective_priority, entry.seq)


class FlowTable:
    """An ordered collection of :class:`FlowEntry` objects."""

    def __init__(self, table_id: int = 0, max_entries: int = 65536) -> None:
        self.table_id = table_id
        self.max_entries = max_entries
        self._entries: List[FlowEntry] = []
        self.lookup_count = 0
        self.matched_count = 0
        #: Monotonic mutation counter: bumped on every content change
        #: (add/modify/delete/expire/clear).  The fluid fast path keys its
        #: per-table lookup memo on it, so a stale cached resolution can
        #: never survive a flow-mod.
        self.version = 0
        #: Observers of content changes, called as ``listener(table,
        #: changed)`` after the mutation landed; ``changed`` holds the
        #: entries it added, removed or modified, or is None when the whole
        #: table went (``clear``).  Empty (and therefore free) unless a
        #: fluid engine is attached.
        self._change_listeners: List[ChangeListener] = []
        #: True while any installed entry carries a timeout; lets expire()
        #: return immediately for the common all-permanent-routes table.
        self._may_expire = False
        #: Match.identity() -> the one entry with that (priority, match), for
        #: identical-replace on add and the STRICT flow-mod commands.
        self._by_key: Dict[tuple, FlowEntry] = {}
        #: Destination-prefix entries: (prefix length, dl_type) -> masked
        #: network -> cell.  A lookup is one probe per level, and non-strict
        #: commands (destination-prefix shaped under RouteFlow) find what
        #: they cover by integer prefix compares, not a covers() scan.
        self._dst_levels: Dict[Tuple[int, int], Dict[int, Cell]] = {}
        #: Entries whose match is not destination-prefix shaped, id -> entry;
        #: the only ones a lookup or shaped command checks with the match.
        self._other: Dict[int, FlowEntry] = {}
        #: Next entry sequence number (see FlowEntry.seq).
        self._seq = 0

    # ------------------------------------------------------------- contents
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries))

    @property
    def entries(self) -> List[FlowEntry]:
        return list(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.max_entries

    def add_change_listener(self, listener: ChangeListener) -> None:
        """Subscribe to content changes (any add/modify/delete/expiry)."""
        self._change_listeners.append(listener)

    def _changed(self, changed: Optional[Sequence[FlowEntry]]) -> None:
        self.version += 1
        for listener in self._change_listeners:
            listener(self, changed)

    # --------------------------------------------------------------- mutate
    def add(self, entry: FlowEntry) -> None:
        """Install an entry, replacing an identical (match, priority) one.

        The list is kept permanently sorted by descending effective
        priority, so installation is a binary-search insert (placing the new
        entry after equal priorities, exactly where a stable sort after an
        append would put it) instead of a full re-sort per flow-mod.
        """
        entries = self._entries
        identity = entry.match.identity(entry.priority)
        stale = self._by_key.get(identity)
        changed = (entry,)
        if stale is not None:
            entries.remove(stale)
            self._unindex(stale)
            changed = (stale, entry)
        lo, hi = 0, len(entries)
        effective = entry.effective_priority
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid].effective_priority < effective:
                hi = mid
            else:
                lo = mid + 1
        entries.insert(lo, entry)
        entry.seq = self._seq
        self._seq += 1
        self._by_key[identity] = entry
        dst_key = entry.match.destination_prefix_key()
        if dst_key is None:
            self._other[id(entry)] = entry
        else:
            dl_type, network, plen = dst_key
            level = self._dst_levels.get((plen, dl_type))
            if level is None:
                level = self._dst_levels[(plen, dl_type)] = {}
            cell = level.get(network)
            if cell is None:
                level[network] = entry
            elif cell.__class__ is list:
                cell.append(entry)
            else:
                level[network] = [cell, entry]
        if entry.idle_timeout or entry.hard_timeout:
            self._may_expire = True
        self._changed(changed)

    def _unindex(self, entry: FlowEntry) -> None:
        """Drop an entry from the secondary indexes (not from _entries)."""
        match = entry.match
        identity = match.identity(entry.priority)
        if self._by_key.get(identity) is entry:
            del self._by_key[identity]
        dst_key = match.destination_prefix_key()
        if dst_key is None:
            self._other.pop(id(entry), None)
            return
        dl_type, network, plen = dst_key
        level = self._dst_levels.get((plen, dl_type))
        cell = level.get(network) if level is not None else None
        if cell is entry:
            del level[network]
            if not level:
                del self._dst_levels[(plen, dl_type)]
        elif cell.__class__ is list and entry in cell:
            cell.remove(entry)
            if len(cell) == 1:
                level[network] = cell[0]

    def modify(self, match: Match, actions: Sequence[Action], strict: bool,
               priority: int) -> int:
        """Apply MODIFY / MODIFY_STRICT semantics; returns entries touched."""
        touched = self._select(match, strict, priority, OFPPort.NONE)
        if touched:
            actions = tuple(actions)
            for entry in touched:
                entry.actions = actions
            self._changed(touched)
        return len(touched)

    def delete(self, match: Match, strict: bool, priority: int,
               out_port: int = OFPPort.NONE) -> List[FlowEntry]:
        """Apply DELETE / DELETE_STRICT semantics; returns removed entries."""
        removed = self._select(match, strict, priority, out_port)
        if not removed:
            return []
        for entry in removed:
            self._unindex(entry)
        dead = set(map(id, removed))
        self._entries = [e for e in self._entries if id(e) not in dead]
        self._changed(removed)
        return removed

    def _select(self, match: Match, strict: bool, priority: int,
                out_port: int) -> List[FlowEntry]:
        """The entries a flow-mod command selects, in table order."""
        if strict:
            entry = self._by_key.get(match.identity(priority))
            if entry is None or not entry.outputs_to(out_port):
                return []
            return [entry]
        dst_key = match.destination_prefix_key()
        if dst_key is None:
            return [e for e in self._entries
                    if match.covers(e.match) and e.outputs_to(out_port)]
        selected = self._dst_covered(dst_key)
        selected.extend(e for e in self._other.values() if match.covers(e.match))
        if out_port != OFPPort.NONE:
            selected = [e for e in selected if e.outputs_to(out_port)]
        selected.sort(key=_table_order)
        return selected

    def _dst_covered(self, dst_key: tuple) -> List[FlowEntry]:
        """Destination-prefix entries covered by a shaped command match."""
        dl_type, network, plen = dst_key
        shift = 32 - plen
        target = network >> shift
        covered: List[FlowEntry] = []
        for (entry_plen, entry_dl_type), level in self._dst_levels.items():
            if entry_plen < plen or entry_dl_type != dl_type:
                continue
            for entry_net, cell in level.items():
                if entry_net >> shift == target:
                    if cell.__class__ is list:
                        covered.extend(cell)
                    else:
                        covered.append(cell)
        return covered

    def expire(self, now: float) -> List[tuple]:
        """Remove timed-out entries; returns (entry, reason) pairs."""
        if not self._may_expire:
            return []
        expired = []
        remaining = []
        may_expire = False
        for entry in self._entries:
            reason = entry.is_expired(now)
            if reason is None:
                remaining.append(entry)
                if entry.idle_timeout or entry.hard_timeout:
                    may_expire = True
            else:
                expired.append((entry, reason))
                self._unindex(entry)
        self._entries = remaining
        self._may_expire = may_expire
        if expired:
            self._changed([entry for entry, _reason in expired])
        return expired

    # --------------------------------------------------------------- lookup
    def lookup(self, fields: PacketFields) -> Optional[FlowEntry]:
        """Find the highest-precedence entry matching the packet fields."""
        return self.lookup_destination(fields.dl_type, int(fields.nw_dst),
                                       fields)

    def lookup_destination(self, dl_type: int, dst: int,
                           fields: Optional[PacketFields] = None,
                           ) -> Optional[FlowEntry]:
        """Find the highest-precedence entry for a packet towards ``dst``.

        ``fields`` is the whole packet; without it the packet carries
        ``dl_type`` and ``dst`` and every other field at its default, and
        is only built if an entry of another shape needs it.
        Destination-prefix entries are resolved with one cell probe per
        (prefix length, dl_type) level present in the table; only the
        (normally empty) remainder is checked with the full match
        predicate.  Ties follow the sorted table order: highest effective
        priority, then earliest installation.
        """
        self.lookup_count += 1
        best: Optional[FlowEntry] = None
        best_rank: Optional[tuple] = None
        for (plen, level_dl_type), level in self._dst_levels.items():
            if level_dl_type != dl_type:
                continue
            shift = 32 - plen
            cell = level.get(dst >> shift << shift)
            if cell is None:
                continue
            for entry in (cell if cell.__class__ is list else (cell,)):
                rank = (-entry.effective_priority, entry.seq)
                if best_rank is None or rank < best_rank:
                    best, best_rank = entry, rank
        if self._other:
            if fields is None:
                fields = PacketFields()
                fields.dl_type = dl_type
                fields.nw_dst = IPv4Address(dst)
            for entry in self._other.values():
                rank = (-entry.effective_priority, entry.seq)
                if (best_rank is None or rank < best_rank) and entry.match.matches(fields):
                    best, best_rank = entry, rank
        if best is not None:
            self.matched_count += 1
        return best

    def find_overlapping(self, match: Match, priority: int) -> Optional[FlowEntry]:
        """Detect overlap for CHECK_OVERLAP flow-mods (same priority, both
        could match one packet).  A conservative containment check."""
        for entry in self._entries:
            if entry.priority != priority:
                continue
            if entry.match.covers(match) or match.covers(entry.match):
                return entry
        return None

    def clear(self) -> None:
        if self._entries:
            self._entries.clear()
            self._by_key.clear()
            self._dst_levels.clear()
            self._other.clear()
            self._changed(None)

    def __repr__(self) -> str:
        return f"<FlowTable {self.table_id} entries={len(self._entries)}>"
