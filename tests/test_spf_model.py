"""SPF over shared bases against a from-scratch reference.

:mod:`repro.quagga.ospf.spf` shares one base (router graph, grouped stub
candidates) between every LSDB holding the same content, finds it by an
integer digest of the LSAs' wire bytes, confirms a hit byte for byte, and
breaks equal-cost stub ties by each LSDB's own arrival order.  The
reference below keeps none of that: it is the uncached SPF the module
replaced, rebuilding the graph and the stub list from ``lsdb.lsas`` on
every call.

A Hypothesis state machine drives three LSDBs through the ways content
changes in an area: an LSA delivered (as the originated object or as the
interned decoded copy), a whole database offered to another in either
order, a newer sequence, the same (advertising router,
sequence) with different links (a restarted router), a MaxAge flush and
``remove`` (how MaxAge retirement drops an LSA).  After every step every LSDB and every root must give the
reference's routes, first hops and advertising routers included.  Metrics
of 1 and 2 over five routers make equal-cost ties common.  The machine
runs once more with a digest that collides on everything, and two seeded
mutants show it has teeth.
"""

from __future__ import annotations

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (RuleBasedStateMachine, invariant,  # noqa: E402
                                 rule, run_state_machine_as_test)

from repro.net.addresses import IPv4Address, IPv4Network  # noqa: E402
from repro.quagga.ospf import lsdb as lsdb_module  # noqa: E402
from repro.quagga.ospf import spf  # noqa: E402
from repro.quagga.ospf.constants import MAX_AGE, RouterLinkType  # noqa: E402
from repro.quagga.ospf.lsdb import LSDB, lsa_digest  # noqa: E402
from repro.quagga.ospf.packets import RouterLink, RouterLSA  # noqa: E402
from repro.quagga.ospf.spf import (SPFRoute, compute_routes,  # noqa: E402
                                   shortest_paths, spf_base)

ROUTERS = tuple(IPv4Address(0x0A000000 + index) for index in range(1, 6))
#: Every router plus one that never advertises anything.
ROOTS = ROUTERS + (IPv4Address(0x0A000009),)
PREFIXES = (IPv4Network("192.168.0.0/24"), IPv4Network("192.168.1.0/24"),
            IPv4Network("172.16.0.0/30"), IPv4Network("172.16.0.4/30"))
METRICS = st.sampled_from((1, 2))
ROUTER = st.integers(min_value=0, max_value=len(ROUTERS) - 1)
DB = st.integers(min_value=0, max_value=2)
#: Neighbors drawn as a set, so two routers often list each other and
#: the bidirectional check lets the edge through.
P2P = st.lists(st.tuples(ROUTER, METRICS), min_size=1, max_size=5,
               unique_by=lambda link: link[0])
STUBS = st.lists(st.tuples(st.integers(min_value=0, max_value=3), METRICS,
                           st.booleans()), max_size=3)
#: Counted back from the newest LSA of the pool.
PICK = st.integers(min_value=0, max_value=15)


def _links(router: int, p2p, stubs):
    links = [RouterLink.point_to_point(
        ROUTERS[neighbor], IPv4Address(0xAC100000 + 16 * router + position),
        metric) for position, (neighbor, metric) in enumerate(p2p)]
    for prefix_index, metric, external in stubs:
        prefix = PREFIXES[prefix_index]
        make = RouterLink.external if external else RouterLink.stub
        links.append(make(prefix.network, prefix.netmask, metric))
    return links


# ---------------------------------------------------------------------------
# The reference: uncached SPF over ``lsdb.lsas``.
# ---------------------------------------------------------------------------
def reference_graph(lsdb: LSDB):
    advertised = {}
    for lsa in lsdb.lsas:
        edges = advertised.setdefault(int(lsa.header.advertising_router), {})
        for link in lsa.links:
            if link.link_type == RouterLinkType.POINT_TO_POINT:
                neighbor = int(link.link_id)
                if neighbor not in edges or link.metric < edges[neighbor]:
                    edges[neighbor] = link.metric
    return {router: {neighbor: edges[neighbor] for neighbor in sorted(edges)
                     if neighbor in advertised
                     and router in advertised[neighbor]}
            for router, edges in advertised.items()}


def reference_paths(lsdb: LSDB, root: int):
    """router -> (distance, first-hop router or None)."""
    graph = reference_graph(lsdb)
    nodes = {root: (0, None)}
    if root not in graph:
        return nodes
    heap = [(0, root, None)]
    visited = set()
    while heap:
        distance, router, first_hop = heapq.heappop(heap)
        if router in visited:
            continue
        visited.add(router)
        for neighbor, cost in graph[router].items():
            if neighbor in visited:
                continue
            candidate = distance + cost
            hop = neighbor if router == root else first_hop
            if neighbor not in nodes or candidate < nodes[neighbor][0]:
                nodes[neighbor] = (candidate, hop)
                heapq.heappush(heap, (candidate, neighbor, hop))
    return nodes


def reference_routes(lsdb: LSDB, root: IPv4Address):
    root_id = int(root)
    nodes = reference_paths(lsdb, root_id)
    best = {}
    # LSDB order, then link order: the first of equal (external, cost) wins.
    for lsa in lsdb.lsas:
        adv = int(lsa.header.advertising_router)
        for link in lsa.links:
            if link.link_type not in (RouterLinkType.STUB,
                                      RouterLinkType.EXTERNAL):
                continue
            node = nodes.get(adv)
            if node is None:
                continue
            prefix = IPv4Network((link.link_id,
                                  bin(int(link.link_data)).count("1")))
            external = link.link_type == RouterLinkType.EXTERNAL
            cost = node[0] + link.metric
            key = (int(prefix.network), prefix.prefix_len)
            existing = best.get(key)
            if existing is None or (external, cost) < (existing.external,
                                                       existing.cost):
                first_hop = node[1] if adv != root_id else None
                best[key] = SPFRoute(
                    prefix, cost,
                    None if first_hop is None else IPv4Address(first_hop),
                    IPv4Address(adv), external)
    return [best[key] for key in sorted(best)]


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------
class SPFMachine(RuleBasedStateMachine):
    #: False while the digest is patched to collide: equal content then
    #: need not share one base (a colliding content may have displaced it).
    check_sharing = True

    def __init__(self) -> None:
        super().__init__()
        # Bases left alive by an earlier example (until the collector
        # runs) must not decide this one, or a failure would not replay.
        spf._BASES.clear()
        self.dbs = (LSDB(), LSDB(), LSDB())
        #: Newest sequence number originated per router.
        self.sequence = {router: 0x80000000 for router in range(len(ROUTERS))}
        #: Every LSA originated so far, oldest first.
        self.pool = []
        self.now = 0.0

    def _install(self, db: int, lsa: RouterLSA, decoded: bool) -> None:
        if decoded:
            lsa = RouterLSA.decode(lsa.encode())
        self.now += 1.0
        self.dbs[db].install(lsa, now=self.now)

    def _originate(self, router: int, links, age: int = 0) -> RouterLSA:
        lsa = RouterLSA.originate(router_id=ROUTERS[router],
                                  sequence=self.sequence[router],
                                  links=links, age=age)
        self.pool.append(lsa)
        return lsa

    @rule(router=ROUTER, p2p=P2P, stubs=STUBS, db=DB)
    def install_newer(self, router, p2p, stubs, db):
        """The router originates its next sequence."""
        self.sequence[router] += 1
        self._install(db, self._originate(router, _links(router, p2p, stubs)),
                      decoded=False)

    @rule(pick=PICK, db=DB, decoded=st.booleans())
    def install_fresh(self, pick, db, decoded):
        """Flooding delivers a pooled LSA to an LSDB."""
        if self.pool:
            self._install(db, self.pool[-1 - pick % len(self.pool)], decoded)

    @rule(source=DB, db=DB, reverse=st.booleans(), decoded=st.booleans())
    def install_database(self, source, db, reverse, decoded):
        """A database exchange: every LSA of one LSDB offered to another,
        maybe in reverse, so equal content arrives in another order."""
        lsas = self.dbs[source].lsas
        for lsa in reversed(lsas) if reverse else lsas:
            self._install(db, lsa, decoded)

    @rule(router=ROUTER, p2p=P2P, stubs=STUBS, db=DB, decoded=st.booleans())
    def install_restarted(self, router, p2p, stubs, db, decoded):
        """A restarted router reuses its last (router, sequence) with other
        links; LSDBs that lack that key accept it."""
        lsa = self._originate(router, _links(router, p2p, stubs))
        self._install(db, lsa, decoded)

    @rule(router=ROUTER, db=DB, decoded=st.booleans())
    def flush(self, router, db, decoded):
        """A MaxAge copy at the next sequence removes the stored LSA."""
        self.sequence[router] += 1
        self._install(db, self._originate(router, [], age=MAX_AGE), decoded)

    @rule(router=ROUTER, db=DB)
    def remove(self, router, db):
        lsa = self.dbs[db].router_lsa(ROUTERS[router])
        if lsa is not None:
            self.dbs[db].remove(lsa.key)

    @invariant()
    def routes_match_the_reference(self):
        for db in self.dbs:
            for root in ROOTS:
                assert compute_routes(db, root) == reference_routes(db, root)
                assert {router: (node.distance, node.first_hop)
                        for router, node in shortest_paths(db, root).items()
                        } == {router: (distance, None if hop is None
                                       else IPv4Address(hop))
                              for router, (distance, hop)
                              in reference_paths(db, int(root)).items()}

    @invariant()
    def equal_content_shares_one_base(self):
        if not self.check_sharing:
            return
        for db in self.dbs:
            assert db.digest == sum(
                lsa_digest(wire) for wire in db.wires.values()) % (1 << 64)
            for other in self.dbs:
                if other.wires == db.wires:
                    assert spf_base(other) is spf_base(db)


MACHINE_SETTINGS = settings(max_examples=50, stateful_step_count=25,
                            derandomize=True, deadline=None)

TestSPFMachine = SPFMachine.TestCase
TestSPFMachine.settings = MACHINE_SETTINGS


def _colliding_digest(wire: bytes) -> int:
    """Every LSA digests alike, so every LSDB of one size collides."""
    return 1


class TestDigestCollisions:
    def test_machine_passes_when_every_digest_collides(self, monkeypatch):
        monkeypatch.setattr(lsdb_module, "lsa_digest", _colliding_digest)
        monkeypatch.setattr(SPFMachine, "check_sharing", False)
        run_state_machine_as_test(SPFMachine, settings=MACHINE_SETTINGS)


class TestSeededMutants:
    """The machine must fail on either planted defect."""

    #: No shrinking: the first counterexample is proof enough.
    SETTINGS = settings(MACHINE_SETTINGS, phases=(Phase.generate,),
                        report_multiple_bugs=False)

    def _kills(self):
        with pytest.raises(AssertionError):
            run_state_machine_as_test(SPFMachine, settings=self.SETTINGS)

    def test_kills_a_tie_break_by_router_id(self, monkeypatch):
        # Equal-cost advertisers ranked by LSA key (router id) instead of
        # by this LSDB's arrival order.
        monkeypatch.setattr(LSDB, "arrival_rank",
                            lambda db: {key: key for key in db.wires})
        self._kills()

    def test_kills_a_hit_confirmed_by_digest_alone(self, monkeypatch):
        monkeypatch.setattr(lsdb_module, "lsa_digest", _colliding_digest)
        monkeypatch.setattr(SPFMachine, "check_sharing", False)
        monkeypatch.setattr(spf, "_same_content", lambda base, db: True)
        self._kills()
