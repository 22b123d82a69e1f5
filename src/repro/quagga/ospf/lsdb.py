"""The link-state database (LSDB) of an OSPF daemon."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import IPv4Address
from repro.quagga.ospf.constants import MAX_AGE
from repro.quagga.ospf.packets import LSAHeader, RouterLSA


class LSDB:
    """Router LSAs indexed by (type, link-state id, advertising router).

    The database carries a monotonically increasing :attr:`version` that
    bumps on every mutation.  Consumers (the SPF module) key derived data —
    the router graph, the stub-prefix list — on it, so an unchanged database
    never triggers a recomputation.  A secondary index by advertising router
    keeps :meth:`router_lsa` and :meth:`remove_from` O(1) in the database
    size instead of scanning every LSA.

    LSA aging follows the RFC 2328 MaxAge rules in two forms:

    * an incoming LSA carrying ``age >= MAX_AGE`` is a *flush* — it removes
      the stored copy it supersedes instead of being installed (premature
      aging, used by a daemon withdrawing its own LSA on shutdown);
    * :meth:`expire_aged` retires LSAs whose age — origination age plus
      time spent in this database — has crossed ``MAX_AGE``.
    """

    def __init__(self) -> None:
        self._lsas: Dict[Tuple[int, int, int], RouterLSA] = {}
        #: advertising-router int -> {key -> RouterLSA}, insertion-ordered.
        self._by_adv: Dict[int, Dict[Tuple[int, int, int], RouterLSA]] = {}
        #: key -> simulated time the LSA entered this database (None when
        #: the caller gave no clock: the LSA then never accrues residence
        #: age and only its origination age counts towards MaxAge).
        self._installed_at: Dict[Tuple[int, int, int], Optional[float]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic mutation counter; equal versions mean identical content."""
        return self._version

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
        existing = self._lsas.get(lsa.key)
        if lsa.header.age >= MAX_AGE:
            if existing is None or not lsa.header.is_newer_than(existing.header):
                return False
            return self.remove(lsa.key)
        if existing is not None and not lsa.header.is_newer_than(existing.header):
            return False
        self._lsas[lsa.key] = lsa
        self._by_adv.setdefault(int(lsa.header.advertising_router), {})[lsa.key] = lsa
        self._installed_at[lsa.key] = now
        self._version += 1
        return True

    def remove(self, key: Tuple[int, int, int]) -> bool:
        lsa = self._lsas.pop(key, None)
        if lsa is None:
            return False
        bucket = self._by_adv.get(int(lsa.header.advertising_router))
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._by_adv[int(lsa.header.advertising_router)]
        self._installed_at.pop(key, None)
        self._version += 1
        return True

    def remove_from(self, advertising_router: IPv4Address) -> int:
        """Drop every LSA originated by a router (used when it goes away)."""
        router = int(IPv4Address(advertising_router))
        bucket = self._by_adv.pop(router, None)
        if not bucket:
            return 0
        for key in bucket:
            del self._lsas[key]
            self._installed_at.pop(key, None)
        self._version += 1
        return len(bucket)

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
        re-run SPF when anything expired).
        """
        expired = [key for key in self._lsas
                   if self.age_of(key, now) >= MAX_AGE]
        for key in expired:
            self.remove(key)
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
