"""The link-state database (LSDB) of an OSPF daemon.

Besides the LSAs themselves the database keeps what the SPF module needs
to share work across routers (see :mod:`repro.quagga.ospf.spf`):

* the wire bytes of every stored LSA, and an order-free 64-bit digest of
  them (CRC-32 and Adler-32 side by side, summed per LSA), kept up to
  date through install, remove and flush.  No ``hash()`` enters, so the
  digest is the same under every hash seed and in every process;
* :attr:`LSDB.spf_base`, a strong reference to the SPF base built for the
  current content.  The process-wide base map holds bases weakly, so the
  live LSDBs alone bound its memory; any mutation drops the reference;
* :meth:`LSDB.arrival_rank`, the position of each LSA in this database's
  iteration order.  Routers holding the same content may have received it
  in different orders, and SPF's equal-cost tie-break between stub
  advertisers follows this order, so it is per LSDB and not part of the
  shared base.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Address
from repro.quagga.ospf.constants import MAX_AGE
from repro.quagga.ospf.packets import LSAHeader, RouterLSA

#: The digest is kept modulo 2**64.
_DIGEST_MASK = (1 << 64) - 1


def lsa_digest(wire: bytes) -> int:
    """64-bit content digest of one LSA's wire bytes."""
    return (zlib.crc32(wire) << 32) | zlib.adler32(wire)


class LSDB:
    """Router LSAs indexed by (type, link-state id, advertising router).

    The database carries a monotonically increasing :attr:`version` that
    bumps on every mutation.  A secondary index by advertising router
    keeps :meth:`router_lsa` O(1) in the database size instead of
    scanning every LSA.

    LSA aging follows the RFC 2328 MaxAge rules in two forms:

    * an incoming LSA carrying ``age >= MAX_AGE`` is a *flush* — it removes
      the stored copy it supersedes instead of being installed (premature
      aging, used by a daemon withdrawing its own LSA on shutdown);
    * :meth:`expire_aged` retires LSAs whose age — origination age plus
      time spent in this database — has crossed ``MAX_AGE``.  It scans the
      database only once ``now`` reaches the earliest deadline.
    """

    def __init__(self) -> None:
        self._lsas: Dict[Tuple[int, int, int], RouterLSA] = {}
        #: advertising-router int -> {key -> RouterLSA}, insertion-ordered.
        self._by_adv: Dict[int, Dict[Tuple[int, int, int], RouterLSA]] = {}
        #: key -> simulated time the LSA entered this database (None when
        #: the caller gave no clock: the LSA then never accrues residence
        #: age and only its origination age counts towards MaxAge).
        self._installed_at: Dict[Tuple[int, int, int], Optional[float]] = {}
        #: key -> wire bytes of every stored LSA the digest covers.
        self._wires: Dict[Tuple[int, int, int], bytes] = {}
        #: Keys of stored LSAs the digest does not cover yet.  Their bytes
        #: are taken when the digest is next read, so an LSA superseded
        #: before any SPF run is never encoded.
        self._unsettled: Set[Tuple[int, int, int]] = set()
        self._version = 0
        self._digest = 0
        #: No LSA reaches MaxAge before this time (a lower bound: removals
        #: leave it in place, the next scan recomputes it).
        self._expiry_due = math.inf
        self._rank: Optional[Dict[Tuple[int, int, int], int]] = None
        #: The SPF base of the current content; None until SPF builds or
        #: finds one, and again after every mutation.
        self.spf_base = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter; equal versions mean identical content."""
        return self._version

    @property
    def digest(self) -> int:
        """Order-free digest of the stored LSAs' wire bytes."""
        self._settle()
        return self._digest

    @property
    def wires(self) -> Dict[Tuple[int, int, int], bytes]:
        """key -> wire bytes of every stored LSA (read-only)."""
        self._settle()
        return self._wires

    def _settle(self) -> None:
        """Bring the digest and the wires up to date with the LSAs."""
        if self._unsettled:
            digest = self._digest
            for key in self._unsettled:
                wire = self._wires[key] = self._lsas[key].encode()
                digest += lsa_digest(wire)
            self._digest = digest & _DIGEST_MASK
            self._unsettled.clear()

    def _unsettle(self, key: Tuple[int, int, int]) -> None:
        """Take a key's wire bytes out of the digest."""
        wire = self._wires.pop(key, None)
        if wire is not None:
            self._digest = (self._digest - lsa_digest(wire)) & _DIGEST_MASK

    def __len__(self) -> int:
        return len(self._lsas)

    def get(self, key: Tuple[int, int, int]) -> Optional[RouterLSA]:
        return self._lsas.get(key)

    def router_lsa(self, router_id: IPv4Address) -> Optional[RouterLSA]:
        """Find the router LSA originated by a given router id."""
        bucket = self._by_adv.get(int(IPv4Address(router_id)))
        if not bucket:
            return None
        return next(iter(bucket.values()))

    @property
    def lsas(self) -> List[RouterLSA]:
        return list(self._lsas.values())

    @property
    def headers(self) -> List[LSAHeader]:
        return [lsa.header for lsa in self._lsas.values()]

    def arrival_rank(self) -> Dict[Tuple[int, int, int], int]:
        """key -> position in this database's iteration order.

        A replaced LSA keeps the position of the copy it replaced; a removed
        and re-installed one moves to the end.  Built on demand and kept
        until the next mutation.
        """
        if self._rank is None:
            self._rank = {key: position
                          for position, key in enumerate(self._lsas)}
        return self._rank

    def _mutated(self) -> None:
        self._version += 1
        self._rank = None
        self.spf_base = None

    def install(self, lsa: RouterLSA, now: Optional[float] = None) -> bool:
        """Install an LSA if it is newer than what we hold.

        An LSA at ``MAX_AGE`` acts as a flush: a fresher MaxAge copy removes
        the stored instance (so the change propagates — the caller refloods
        it) and is not itself retained; with no stored copy to supersede it
        is simply discarded.

        ``now`` is the installation timestamp used by :meth:`expire_aged`;
        callers that track no clock may omit it, in which case the LSA
        accrues no residence age (it can still expire on origination age).

        Returns True when the database changed (new, fresher, or flushed).
        """
        key = lsa.key
        existing = self._lsas.get(key)
        header = lsa.header
        if header.age >= MAX_AGE:
            if existing is None or not header.is_newer_than(existing.header):
                return False
            return self.remove(key)
        if existing is not None and not header.is_newer_than(existing.header):
            return False
        self._unsettle(key)
        self._unsettled.add(key)
        self._lsas[key] = lsa
        self._by_adv.setdefault(key[2], {})[key] = lsa
        self._installed_at[key] = now
        if now is not None:
            deadline = now + (MAX_AGE - header.age)
            if deadline < self._expiry_due:
                self._expiry_due = deadline
        self._mutated()
        return True

    def _forget(self, key: Tuple[int, int, int]) -> None:
        """Drop a key from the per-key maps and the digest."""
        self._installed_at.pop(key, None)
        self._unsettled.discard(key)
        self._unsettle(key)

    def remove(self, key: Tuple[int, int, int]) -> bool:
        lsa = self._lsas.pop(key, None)
        if lsa is None:
            return False
        bucket = self._by_adv.get(key[2])
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._by_adv[key[2]]
        self._forget(key)
        self._mutated()
        return True

    def age_of(self, key: Tuple[int, int, int], now: float) -> Optional[float]:
        """Effective age of a stored LSA: origination age + residence time."""
        lsa = self._lsas.get(key)
        if lsa is None:
            return None
        installed_at = self._installed_at.get(key)
        if installed_at is None:  # installed without a clock
            return float(lsa.header.age)
        return lsa.header.age + (now - installed_at)

    def expire_aged(self, now: float) -> List[Tuple[int, int, int]]:
        """Retire every LSA whose effective age reached ``MAX_AGE``.

        Returns the removed keys (callers re-originate their own LSA and
        re-run SPF when anything expired).  Before the earliest deadline
        nothing can expire and nothing is scanned; the gate opens a second
        early, so a float rounding difference between the deadline and the
        exact :meth:`age_of` test below can never skip an expiry.
        """
        if now < self._expiry_due - 1.0:
            return []
        expired = [key for key in self._lsas
                   if self.age_of(key, now) >= MAX_AGE]
        for key in expired:
            self.remove(key)
        self._expiry_due = min(
            (installed_at + (MAX_AGE - self._lsas[key].header.age)
             for key, installed_at in self._installed_at.items()
             if installed_at is not None), default=math.inf)
        return expired

    def missing_or_older_than(self, headers: List[LSAHeader]) -> List[LSAHeader]:
        """Which of the advertised LSAs do we need to request?"""
        needed = []
        for header in headers:
            existing = self._lsas.get(header.key)
            if existing is None or header.is_newer_than(existing.header):
                needed.append(header)
        return needed

    def __repr__(self) -> str:
        return f"<LSDB lsas={len(self._lsas)} v={self._version}>"
