"""The BGP policy core against reference models.

``best_path`` is checked against a list-scan model of the decision order,
written as successive elimination the way the order is usually stated.
``export_route`` is checked on every (route, session) pair of a generated
speaker against a model of who may hear a route, whose Gao-Rexford gate
reads the relationship a route was really learned over rather than its
LOCAL_PREF; every route it exports over eBGP must also pass the
valley-free rule of ``tests/test_scale_free_properties.py``.  Each model
kills one seeded mutant of the function it checks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.net import IPv4Address, IPv4Network  # noqa: E402
from repro.quagga import BGPNeighbor  # noqa: E402
from repro.quagga.bgp import policy  # noqa: E402
from repro.quagga.bgp.policy import (  # noqa: E402
    VALLEY_FREE_EXPORT_MIN,
    best_path,
    export_route,
)
from repro.quagga.bgp.session import (  # noqa: E402
    DEFAULT_LOCAL_PREF,
    BGPAnnouncement,
    BGPPeerSession,
    BGPSessionState,
)
from repro.quagga.configfile import BGPConfig  # noqa: E402
from test_scale_free_properties import _valley_free  # noqa: E402

LOCAL_AS = 100
ROUTER_ID = IPv4Address("10.255.0.1")
PREFIX = IPv4Network("192.0.2.0/24")
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)
#: No shrinking for a mutant: the first counterexample is proof enough.
MUTANT_SETTINGS = settings(SETTINGS, phases=(Phase.generate,),
                           report_multiple_bugs=False)


def _session(slot: int, remote_as: int, established: bool = True):
    return BGPPeerSession(
        local_address=IPv4Address(f"10.0.{slot}.1"),
        peer_address=IPv4Address(f"10.0.{slot}.2"),
        remote_as=remote_as, local_as=LOCAL_AS,
        state=BGPSessionState.ESTABLISHED if established
        else BGPSessionState.IDLE)


# ---------------------------------------------------------------------------
# the decision
# ---------------------------------------------------------------------------
#: (iBGP, established, LOCAL_PREF, AS-path length, MED): few values, so
#: every step of the order meets ties.
HOLDER = st.tuples(st.booleans(), st.sampled_from((True, True, True, False)),
                   st.sampled_from((50, 100, 200)), st.integers(0, 2),
                   st.sampled_from((0, 10)))


@st.composite
def adj_rib_in(draw):
    """A prefix's Adj-RIB-In holders, peer addresses in no particular
    order."""
    specs = draw(st.lists(HOLDER, max_size=6))
    slots = draw(st.permutations(range(1, 7)))
    holders = []
    for (ibgp, established, local_pref, length, med), slot in zip(specs, slots):
        session = _session(slot, LOCAL_AS if ibgp else 200 + slot,
                           established)
        holders.append((session, BGPAnnouncement(
            prefix=PREFIX, next_hop=session.peer_address,
            as_path=tuple(range(300, 300 + length)), local_pref=local_pref,
            med=med)))
    return holders


def model_best(holders):
    """The decision order as successive elimination over a list."""
    left = [path for path in holders if path[0].established]
    if not left:
        return None
    top = max(route.local_pref for _, route in left)
    left = [path for path in left if path[1].local_pref == top]
    shortest = min(len(route.as_path) for _, route in left)
    left = [path for path in left if len(path[1].as_path) == shortest]
    lowest = min(route.med for _, route in left)  # across neighbour ASes
    left = [path for path in left if path[1].med == lowest]
    if any(not session.is_ibgp for session, _ in left):
        left = [path for path in left if not path[0].is_ibgp]
    return min(left, key=lambda path: int(path[0].peer_address))


def _decision_property(chosen_settings):
    @chosen_settings
    @given(holders=adj_rib_in())
    def check(holders):
        assert best_path(holders) is model_best(holders)
    return check


test_decision_matches_the_list_scan_model = _decision_property(SETTINGS)


# ---------------------------------------------------------------------------
# the export
# ---------------------------------------------------------------------------
#: Ingress LOCAL_PREF by the relationship a route was learned over, as the
#: RPC server stamps it: customer routes clear the export bar, sometimes
#: exactly.
INGRESS = {"customer": (VALLEY_FREE_EXPORT_MIN, 200), "peer": (100,),
           "provider": (50,)}
INVERSE = {"customer": "provider", "peer": "peer", "provider": "customer"}

#: (iBGP, route-reflector client, relationship, MED, prefix list denies).
NEIGHBOR = st.tuples(st.booleans(), st.booleans(),
                     st.sampled_from((None, "customer", "peer", "provider")),
                     st.sampled_from((None, 7)),
                     st.sampled_from((False, False, True)))


@st.composite
def speakers(draw):
    """A speaker's neighbours and the routes it holds for PREFIX: each a
    local origination or a path received over one of the sessions, with
    the relationship it was really learned over (None: unknown)."""
    specs = draw(st.lists(NEIGHBOR, min_size=1, max_size=5))
    config = BGPConfig(local_as=LOCAL_AS, router_id=ROUTER_ID,
                       prefix_lists={"deny": [("deny", PREFIX)]})
    sessions = []
    for slot, (ibgp, client, relationship, med, denied) in enumerate(specs, 1):
        session = _session(slot, LOCAL_AS if ibgp else 200 + slot)
        sessions.append(session)
        config.neighbors.append(BGPNeighbor(
            address=session.peer_address, remote_as=session.remote_as,
            relationship=None if ibgp else relationship,
            route_reflector_client=ibgp and client,
            med=med, export_prefix_list="deny" if denied else None))
    routes = []
    for _ in range(draw(st.integers(1, 4))):
        source = draw(st.sampled_from([None] + sessions))
        if source is None:
            routes.append((None, BGPAnnouncement(
                prefix=PREFIX, next_hop=ROUTER_ID, as_path=()), None))
            continue
        if source.is_ibgp:
            # Relayed by another border: its ingress stamp travels along;
            # an empty path is a route from inside our own AS.
            truth = draw(st.sampled_from((None, "customer", "peer",
                                          "provider")))
            path = (301, 302) if truth else ()
            local_pref = draw(st.sampled_from(
                INGRESS[truth] if truth else (100,)))
        else:
            truth = config.neighbor(source.peer_address).relationship
            path = (source.remote_as, 302)
            local_pref = draw(st.sampled_from(INGRESS[truth])) if truth \
                else DEFAULT_LOCAL_PREF
        routes.append((source, BGPAnnouncement(
            prefix=PREFIX, next_hop=source.peer_address, as_path=path,
            local_pref=local_pref), truth))
    return config, sessions, routes


def model_export(config, source, route, truth, session):
    """Who may hear a route, rule by rule."""
    neighbor = config.neighbor(session.peer_address)
    if source is session:
        return None  # split horizon
    if source is not None and source.is_ibgp and session.is_ibgp and not (
            config.neighbor(source.peer_address).route_reflector_client
            or neighbor.route_reflector_client):
        return None  # no iBGP transit unless one side is a reflector client
    if source is not None and not session.is_ibgp and route.as_path \
            and neighbor.relationship in ("peer", "provider") \
            and truth != "customer":
        return None  # Gao-Rexford: up and sideways only customer routes
    if neighbor.export_prefix_list:
        return None
    if session.is_ibgp:
        return replace(route, next_hop=ROUTER_ID)
    return BGPAnnouncement(prefix=PREFIX, next_hop=session.local_address,
                           as_path=(LOCAL_AS,) + route.as_path,
                           local_pref=DEFAULT_LOCAL_PREF,
                           med=neighbor.med or 0)


def _export_property(chosen_settings):
    @chosen_settings
    @given(speaker=speakers())
    def check(speaker):
        config, sessions, routes = speaker
        for source, route, truth in routes:
            best = None if source is None else (source, route)
            local = route if source is None else None
            for session in sessions:
                exported = export_route(config, ROUTER_ID, session, PREFIX,
                                        best, local)
                assert exported == model_export(config, source, route,
                                                truth, session)
                relationship = config.neighbor(session.peer_address) \
                    .relationship
                if exported is None or session.is_ibgp or not relationship \
                        or not route.as_path or truth is None:
                    continue
                hops = [route.as_path[0], LOCAL_AS, session.remote_as]
                assert _valley_free(hops, {
                    (hops[0], LOCAL_AS): INVERSE[truth],
                    (LOCAL_AS, hops[2]): relationship})
    return check


test_export_matches_the_model_and_is_valley_free = _export_property(SETTINGS)


# ---------------------------------------------------------------------------
# seeded mutants
# ---------------------------------------------------------------------------
class TestSeededMutants:
    def test_decision_model_kills_ibgp_preferred_over_ebgp(self, monkeypatch):
        def reversed_preference(path):
            session, announcement = path
            return (-announcement.local_pref, len(announcement.as_path),
                    announcement.med, 0 if session.is_ibgp else 1,
                    int(session.peer_address))

        monkeypatch.setattr(policy, "_preference", reversed_preference)
        with pytest.raises(AssertionError):
            _decision_property(MUTANT_SETTINGS)()

    def test_export_model_kills_the_threshold_compared_with_le(
            self, monkeypatch):
        # LOCAL_PREFs are integers: ``< MIN + 1`` is exactly ``<= MIN``.
        monkeypatch.setattr(policy, "VALLEY_FREE_EXPORT_MIN",
                            VALLEY_FREE_EXPORT_MIN + 1)
        with pytest.raises(AssertionError):
            _export_property(MUTANT_SETTINGS)()
