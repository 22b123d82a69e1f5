"""The flow table of an OpenFlow 1.0 switch.

Lookup follows the 1.0 semantics: exact-match entries take precedence over
wildcarded entries; among wildcarded entries the highest priority wins.
Entries carry idle and hard timeouts which the switch expires against
simulated time, emitting FLOW_REMOVED when the entry asked for it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.openflow.actions import Action
from repro.openflow.constants import OFPFlowModFlags, OFPPort
from repro.openflow.match import Match, PacketFields


class FlowEntry:
    """One installed flow: match, priority, actions, timeouts, counters."""

    def __init__(self, match: Match, actions: List[Action], priority: int = 0x8000,
                 idle_timeout: int = 0, hard_timeout: int = 0, cookie: int = 0,
                 flags: int = 0, install_time: float = 0.0) -> None:
        self.match = match
        self.actions = list(actions)
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
        #: Index keys, fixed at construction under the same immutability
        #: assumption.  identity_key backs identical-replace and strict
        #: flow-mods; dst_key (None unless the match is destination-prefix
        #: shaped) backs the non-strict delete index.
        self.identity_key = (priority, match._key())
        self.dst_key = match.destination_prefix_key()
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
        from repro.openflow.actions import OutputAction

        return any(isinstance(a, OutputAction) and a.port == port for a in self.actions)

    def __repr__(self) -> str:
        return (f"<FlowEntry prio={self.priority} {self.match!r} "
                f"actions={self.actions} pkts={self.packet_count}>")


#: ``listener(table, changed)``; see :attr:`FlowTable._change_listeners`.
ChangeListener = Callable[["FlowTable", Optional[Sequence[FlowEntry]]], None]


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
        #: (priority, match key) -> entries with that exact identity, for
        #: identical-replace on add and the STRICT flow-mod commands.
        self._by_key: Dict[tuple, List[FlowEntry]] = {}
        #: Destination-prefix entries bucketed by their own prefix length:
        #: plen -> (dl_type, masked net) -> id(entry) -> entry.  Non-strict
        #: deletes are destination-prefix shaped under RouteFlow, so the
        #: covered set comes from integer prefix compares over these
        #: buckets instead of a covers() scan of the whole table.
        self._dst_levels: Dict[int, Dict[Tuple[int, int], Dict[int, FlowEntry]]] = {}
        #: Entries whose match is not destination-prefix shaped, id -> entry;
        #: the only ones a shaped non-strict delete still covers()-scans.
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
    def add(self, entry: FlowEntry, replace_identical: bool = True) -> None:
        """Install an entry, replacing an identical (match, priority) one.

        The list is kept permanently sorted by descending effective
        priority, so installation is a binary-search insert (placing the new
        entry after equal priorities, exactly where a stable sort after an
        append would put it) instead of a full re-sort per flow-mod.
        """
        entries = self._entries
        changed = (entry,)
        if replace_identical:
            identical = self._by_key.get(entry.identity_key)
            if identical:
                # add() always deduplicates, so at most one can exist.
                stale = identical[0]
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
        self._by_key.setdefault(entry.identity_key, []).append(entry)
        dst_key = entry.dst_key
        if dst_key is None:
            self._other[id(entry)] = entry
        else:
            dl_type, network, plen = dst_key
            level = self._dst_levels.setdefault(plen, {})
            level.setdefault((dl_type, network), {})[id(entry)] = entry
        if entry.idle_timeout or entry.hard_timeout:
            self._may_expire = True
        self._changed(changed)

    def _unindex(self, entry: FlowEntry) -> None:
        """Drop an entry from the secondary indexes (not from _entries)."""
        identical = self._by_key.get(entry.identity_key)
        if identical is not None:
            try:
                identical.remove(entry)
            except ValueError:
                pass
            if not identical:
                del self._by_key[entry.identity_key]
        dst_key = entry.dst_key
        if dst_key is None:
            self._other.pop(id(entry), None)
        else:
            dl_type, network, plen = dst_key
            level = self._dst_levels.get(plen)
            group = level.get((dl_type, network)) if level is not None else None
            if group is not None:
                group.pop(id(entry), None)
                if not group:
                    del level[(dl_type, network)]
                    if not level:
                        del self._dst_levels[plen]

    def modify(self, match: Match, actions: List[Action], strict: bool,
               priority: int) -> int:
        """Apply MODIFY / MODIFY_STRICT semantics; returns entries touched."""
        touched = [entry for entry in self._entries
                   if self._selected(entry, match, strict, priority,
                                     OFPPort.NONE)]
        for entry in touched:
            entry.actions = list(actions)
        if touched:
            self._changed(touched)
        return len(touched)

    def delete(self, match: Match, strict: bool, priority: int,
               out_port: int = OFPPort.NONE) -> List[FlowEntry]:
        """Apply DELETE / DELETE_STRICT semantics; returns removed entries."""
        if strict:
            identical = self._by_key.get((priority, match._key()), ())
            selected = [e for e in identical if e.outputs_to(out_port)]
        else:
            dst_key = match.destination_prefix_key()
            if dst_key is not None:
                selected = self._dst_covered(dst_key, out_port)
                if self._other:
                    selected.extend(
                        e for e in self._other.values()
                        if self._selected(e, match, False, priority, out_port))
            else:
                selected = [e for e in self._entries
                            if self._selected(e, match, False, priority, out_port)]
        if not selected:
            return []
        for entry in selected:
            self._unindex(entry)
        dead = set(map(id, selected))
        removed: List[FlowEntry] = []
        remaining: List[FlowEntry] = []
        for entry in self._entries:
            (removed if id(entry) in dead else remaining).append(entry)
        self._entries = remaining
        self._changed(removed)
        return removed

    def _dst_covered(self, dst_key: tuple, out_port: int) -> List[FlowEntry]:
        """Destination-prefix entries covered by a shaped delete match."""
        dl_type, network, plen = dst_key
        covered: List[FlowEntry] = []
        if plen:
            shift = 32 - plen
            target = network >> shift
            for entry_plen, level in self._dst_levels.items():
                if entry_plen < plen:
                    continue
                for (entry_dl_type, entry_net), group in level.items():
                    if entry_dl_type == dl_type and (entry_net >> shift) == target:
                        covered.extend(group.values())
        else:
            for level in self._dst_levels.values():
                for (entry_dl_type, _net), group in level.items():
                    if entry_dl_type == dl_type:
                        covered.extend(group.values())
        if out_port != OFPPort.NONE:
            covered = [e for e in covered if e.outputs_to(out_port)]
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

    @staticmethod
    def _selected(entry: FlowEntry, match: Match, strict: bool, priority: int,
                  out_port: int) -> bool:
        if not entry.outputs_to(out_port):
            return False
        if strict:
            return entry.match == match and entry.priority == priority
        return match.covers(entry.match)

    # --------------------------------------------------------------- lookup
    def lookup(self, fields: PacketFields) -> Optional[FlowEntry]:
        """Find the highest-precedence entry matching the packet fields.

        Destination-prefix entries are resolved with one bucket probe per
        prefix length present in the table; only the (normally empty)
        non-shaped remainder is scanned with the full match predicate.
        Ties follow the sorted table order: highest effective priority,
        then earliest installation.
        """
        self.lookup_count += 1
        best: Optional[FlowEntry] = None
        best_rank: Optional[tuple] = None
        dl_type = fields.dl_type
        dst = int(fields.nw_dst)
        for plen, level in self._dst_levels.items():
            shift = 32 - plen
            group = level.get((dl_type, (dst >> shift) << shift if plen else 0))
            if group:
                for entry in group.values():
                    rank = (-entry.effective_priority, entry.seq)
                    if best_rank is None or rank < best_rank:
                        best, best_rank = entry, rank
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
