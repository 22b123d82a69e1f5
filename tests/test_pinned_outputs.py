"""The determinism gate: exact simulated outputs of fixed cases.

Each case runs once and asserts, as literals, the outputs a change may
not move without meaning to: simulated seconds, switch / link / flow /
route counts, TE re-routes and steers.  A different value means
behaviour changed, not speed; host time is the ledger's business
(``python3 bench/run.py``, see ``bench/README.md``).

These are the cheap cases (about a second together).  The costly ones —
the 8x8 torus, the 50- and 100-AS graphs, the 1M-demand fluid cases —
are in ``pinned_outputs_full.py``, which the tier-1 command does not
collect; run it by name:

    PYTHONPATH=src python -m pytest tests/pinned_outputs_full.py -q
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.ctlscale import run_ctlscale, run_ctlscale_churn
from repro.experiments.interdomain import run_interdomain
from repro.experiments.te import DEFAULT_SETTLE, _run_policy_synthetic
from repro.net.addresses import IPv4Address
from repro.quagga.ospf.lsdb import LSDB
from repro.quagga.ospf.packets import RouterLink, RouterLSA
from repro.quagga.ospf.spf import compute_routes
from repro.scenarios import ScenarioSpec, get

#: Router id of the SPF root of the ring cases.
ROOT = IPv4Address(0x0A000001)


def ring_lsdb(count: int) -> LSDB:
    """The LSDB of a ring of ``count`` routers, each with a /24 stub."""
    lsdb = LSDB()
    for index in range(count):
        rid = IPv4Address(0x0A000000 + index + 1)
        left = IPv4Address(0x0A000000 + (index - 1) % count + 1)
        right = IPv4Address(0x0A000000 + (index + 1) % count + 1)
        links = [
            RouterLink.point_to_point(left, IPv4Address(0xAC100001 + index * 4), 10),
            RouterLink.point_to_point(right, IPv4Address(0xAC100002 + index * 4), 10),
            RouterLink.stub(IPv4Address(0xC0A80000 + index * 256),
                            IPv4Address("255.255.255.0"), 10),
        ]
        lsdb.install(RouterLSA.originate(router_id=rid, sequence=0x80000001,
                                         links=links))
    return lsdb


def test_spf_cold_64():
    """50 SPF runs on a 64-ring, each after the root's LSA was refreshed
    (every run rebuilds the graph and stub caches): 64 routes each."""
    lsdb = ring_lsdb(64)
    routes = 0
    for sequence in range(0x80000003, 0x80000003 + 50):
        old = lsdb.router_lsa(ROOT)
        lsdb.install(RouterLSA.originate(router_id=ROOT, sequence=sequence,
                                         links=old.links))
        routes += len(compute_routes(lsdb, ROOT))
    assert routes == 3_200


def test_spf_warm_64():
    """200 SPF runs over an unchanged 64-ring LSDB (cache hits)."""
    lsdb = ring_lsdb(64)
    assert sum(len(compute_routes(lsdb, ROOT)) for _ in range(200)) == 12_800


def test_sharded_convergence_16():
    """A 16-ring under 2 controller shards; the flow count equals the
    single-controller steady state."""
    spec = ScenarioSpec("pinned-ring-16-c2", "ring", {"num_switches": 16},
                        controllers=2)
    result = run_ctlscale(spec, controller_counts=(2,))[0]
    assert (result.configured_seconds, result.num_switches,
            result.num_links, result.total_flows) == (53.0, 16, 16, 224)


def test_sharded_churn_16():
    """The same ring through the default churn schedule (a shard
    failover with standby takeover, a live reshard, two link bounces):
    healthy, no flow lost, reconverged at the pinned instant."""
    spec = ScenarioSpec("pinned-ring-16-c2-churn", "ring",
                        {"num_switches": 16}, controllers=2)
    result = run_ctlscale_churn(spec)
    assert result.healthy, (result.invariant_violations
                            + result.ownership_violations
                            + result.orphaned_route_mods)
    assert result.reconvergence_seconds == 11.001810704000064
    assert (result.num_switches, result.num_links,
            result.final_flows) == (16, 16, 224)


def test_interdomain_convergence_3as():
    """3 ASes of 4-router rings under eBGP / iBGP, no flap."""
    result = run_interdomain("interdomain-3as", flap=False)
    assert (result.configured_seconds, result.num_switches,
            result.num_links, result.steady_flows) == (73.0, 12, 15, 282)


def test_te_reroute_torus64():
    """Greedy TE on the 8x8 torus while the 5<->6 link flaps, synthetic
    engine."""
    spec = get("te-torus-8x8")
    te_spec = replace(spec.te, engine="synthetic")
    result = _run_policy_synthetic(spec, te_spec, "greedy", spec.demands,
                                   DEFAULT_SETTLE, 30.0)
    assert (result.demands, result.delivered_commodities,
            result.reroutes, result.steers) == (200, 198, 23, 8)
