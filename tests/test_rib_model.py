"""``RIB`` against a list-scan reference of its reconciliation.

The RIB keeps a per-source index (prefix -> the source's sole candidate,
or a many-marker) so that ``replace_routes`` diffs a snapshot with one
identity check per unchanged prefix and sorts only the changed ones.  The
reference keeps no index: it is the RIB before that change, whose
``replace_routes`` scans every prefix's candidates.

A Hypothesis state machine drives both through ``add_route``,
``remove_route``, ``remove_all_from`` and ``replace_routes`` over the OSPF,
BGP, STATIC and TE sources, with shared prefixes and next hops.  Routes
come from a fixed pool, so the identical object recurs the way the OSPF
daemon re-hands its installed routes, and sometimes as an equal copy.
After every step the two must agree on ``selected_routes``,
``candidates``, ``candidates_from`` and the ordered listener log, object
for object.  A seeded mutant (the index not updated by ``remove_route``)
shows the machine has teeth.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (RuleBasedStateMachine, invariant,  # noqa: E402
                                 rule, run_state_machine_as_test)

from repro.net.addresses import IPv4Address, IPv4Network  # noqa: E402
from repro.quagga.rib import RIB, Route, RouteSource  # noqa: E402

SOURCES = (RouteSource.OSPF, RouteSource.BGP, RouteSource.STATIC,
           RouteSource.TE)
PREFIXES = (IPv4Network("10.0.0.0/24"), IPv4Network("10.0.0.0/16"),
            IPv4Network("10.1.0.0/24"))
HOPS = ((IPv4Address("172.16.0.1"), "eth0"),
        (IPv4Address("172.16.0.5"), "eth1"))
#: Every (prefix, source, next hop, metric) once, as one shared object.
POOL = tuple(Route(prefix=prefix, next_hop=hop, interface=interface,
                   source=source, metric=metric)
             for prefix in PREFIXES for source in SOURCES
             for hop, interface in HOPS for metric in (0, 1))
BY_SOURCE = {source: tuple(r for r in POOL if r.source == source)
             for source in SOURCES}
SOURCE = st.sampled_from(SOURCES)
#: A pooled route as is, or an equal copy that is not the same object.
ROUTE = st.tuples(st.integers(min_value=0, max_value=len(POOL) - 1),
                  st.booleans())
#: The same, among one source's routes.
OWN_ROUTE = st.tuples(st.integers(min_value=0,
                                  max_value=len(BY_SOURCE[SOURCES[0]]) - 1),
                      st.booleans())


def _route(pick, pool=POOL) -> Route:
    index, copy = pick
    route = pool[index]
    return dataclasses.replace(route) if copy else route


def _order(prefix: IPv4Network):
    return (int(prefix.network), prefix.prefix_len)


class ReferenceRIB:
    """The RIB before the per-source index: list scans throughout."""

    def __init__(self) -> None:
        self._routes: Dict[IPv4Network, List[Route]] = {}
        self._selected: Dict[IPv4Network, Route] = {}
        self.heard = []

    def add_route(self, route: Route) -> bool:
        candidates = self._routes.setdefault(route.prefix, [])
        candidates[:] = [r for r in candidates
                         if not (r.source == route.source
                                 and r.next_hop == route.next_hop
                                 and r.interface == route.interface)]
        candidates.append(route)
        return self._reselect(route.prefix)

    def remove_route(self, prefix: IPv4Network, source: str,
                     next_hop: Optional[IPv4Address] = None) -> bool:
        candidates = self._routes.get(prefix)
        if not candidates:
            return False
        remaining = [r for r in candidates
                     if not (r.source == source
                             and (next_hop is None or r.next_hop == next_hop))]
        if len(remaining) == len(candidates):
            return False
        if remaining:
            self._routes[prefix] = remaining
        else:
            del self._routes[prefix]
        return self._reselect(prefix)

    def remove_all_from(self, source: str) -> List[IPv4Network]:
        return [prefix for prefix in list(self._routes)
                if self.remove_route(prefix, source)]

    def replace_routes(self, source: str, routes) -> List[IPv4Network]:
        new_by_prefix: Dict[IPv4Network, Route] = {}
        for route in routes:
            if route.source != source:
                raise ValueError(route)
            new_by_prefix[route.prefix] = route
        affected = set(new_by_prefix)
        for prefix, candidates in self._routes.items():
            if any(r.source == source for r in candidates):
                affected.add(prefix)
        changed = []
        for prefix in sorted(affected, key=_order):
            candidates = self._routes.get(prefix)
            new = new_by_prefix.get(prefix)
            if candidates:
                existing = [r for r in candidates if r.source == source]
                if new is not None and len(existing) == 1 \
                        and existing[0] == new:
                    continue
                remaining = [r for r in candidates if r.source != source]
            else:
                remaining = []
            if new is not None:
                remaining.append(new)
            if remaining:
                self._routes[prefix] = remaining
            else:
                self._routes.pop(prefix, None)
            if self._reselect(prefix):
                changed.append(prefix)
        return changed

    def _reselect(self, prefix: IPv4Network) -> bool:
        best = min(self._routes.get(prefix, []),
                   key=lambda r: (r.admin_distance, r.metric), default=None)
        previous = self._selected.get(prefix)
        if best == previous:
            return False
        if best is None:
            del self._selected[prefix]
        else:
            self._selected[prefix] = best
        self.heard.append((prefix, best, previous))
        return True

    @property
    def selected_routes(self) -> List[Route]:
        return sorted(self._selected.values(),
                      key=lambda r: _order(r.prefix))

    def candidates(self, prefix: IPv4Network) -> List[Route]:
        return list(self._routes.get(prefix, ()))

    def candidates_from(self, source: str) -> Dict[IPv4Network, List[Route]]:
        result = {}
        for prefix, candidates in self._routes.items():
            mine = [r for r in candidates if r.source == source]
            if mine:
                result[prefix] = mine
        return result


def _same_objects(left, right) -> bool:
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right))


class RIBMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.rib = RIB()
        self.model = ReferenceRIB()
        self.heard = []
        self.rib.add_listener(
            lambda prefix, new, old: self.heard.append((prefix, new, old)))

    def _both(self, operation, *args):
        expected = getattr(self.model, operation)(*args)
        assert getattr(self.rib, operation)(*args) == expected

    @rule(pick=ROUTE)
    def add_route(self, pick):
        self._both("add_route", _route(pick))

    @rule(prefix=st.sampled_from(PREFIXES), source=SOURCE,
          hop=st.sampled_from((None,) + tuple(hop for hop, _ in HOPS)))
    def remove_route(self, prefix, source, hop):
        self._both("remove_route", prefix, source, hop)

    @rule(source=SOURCE)
    def remove_all_from(self, source):
        self._both("remove_all_from", source)

    @rule(source=SOURCE, picks=st.lists(OWN_ROUTE, max_size=4))
    def replace_routes(self, source, picks):
        self._both("replace_routes", source,
                   [_route(pick, BY_SOURCE[source]) for pick in picks])

    @rule(source=SOURCE, pick=ROUTE)
    def replace_with_a_foreign_route(self, source, pick):
        """A route of another source is refused before anything changes."""
        route = _route(pick)
        if route.source != source:
            with pytest.raises(ValueError):
                self.rib.replace_routes(source, [route])

    @invariant()
    def agrees_with_the_reference(self):
        assert _same_objects(self.rib.selected_routes,
                             self.model.selected_routes)
        for prefix in PREFIXES:
            assert _same_objects(self.rib.candidates(prefix),
                                 self.model.candidates(prefix))
        for source in SOURCES:
            mine = self.rib.candidates_from(source)
            theirs = self.model.candidates_from(source)
            assert list(mine) == list(theirs)
            assert all(_same_objects(mine[p], theirs[p]) for p in mine)
        assert len(self.heard) == len(self.model.heard)
        assert all(_same_objects(a, b)
                   for a, b in zip(self.heard, self.model.heard))


MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=30,
                            derandomize=True, deadline=None)

TestRIBMachine = RIBMachine.TestCase
TestRIBMachine.settings = MACHINE_SETTINGS


class TestSeededMutants:
    #: No shrinking: the first counterexample is proof enough.
    SETTINGS = settings(MACHINE_SETTINGS, phases=(Phase.generate,),
                        report_multiple_bugs=False)

    def test_kills_an_index_not_updated_by_remove_route(self, monkeypatch):
        genuine = RIB.remove_route

        def mutant(rib, *args, **kwargs):
            kept = {source: dict(index)
                    for source, index in rib._by_source.items()}
            try:
                return genuine(rib, *args, **kwargs)
            finally:
                rib._by_source = kept

        monkeypatch.setattr(RIB, "remove_route", mutant)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(RIBMachine, settings=self.SETTINGS)
