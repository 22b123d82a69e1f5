"""Golden-trace regression tests for the simulation hot paths.

These tests pin the *observable output* of the simulator: the exact
sequence of executed events (time + event name), the OSPF route table a
converged VM ends up with, and the sweep CSV rows.  The golden files under
``tests/data/`` were captured from the unoptimized seed implementation, so
any hot-path optimization (tuple event heap, LSDB graph caching, address
interning, encode memoization) must leave every byte of this output
unchanged or these tests fail.

The trace file holds the whole event list, so a mismatch names the first
line that differs.  A change may shrink the trace, and only that way:
regenerate with::

    PYTHONPATH=src python tests/test_golden_trace.py regen

which writes the new trace only if it obeys the *subsequence rule* against
the committed one — every new line (time and name) appears in the old
trace in the same order, so each remaining event keeps its time — and
``configured_at``, the route table and the sweep CSV are unchanged.  It
prints the removed events by name with their counts.  CI applies the same
rule to a pull request against its base commit with::

    PYTHONPATH=src python tests/test_golden_trace.py check BASE_TREE

where ``BASE_TREE`` is an extracted copy of the base commit.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_TRACE = DATA_DIR / "golden_ring4_trace.json"
GOLDEN_SWEEP = DATA_DIR / "golden_sweep.csv"

#: Scenarios pinned by the sweep golden file.  Both families are fully
#: deterministic (no random generator parameters beyond the fixed seed).
SWEEP_SCENARIOS = ("ring-4", "grid-3x4", "fat-tree-k4")


def run_traced_ring4():
    """Configure a 4-switch ring, recording every executed event.

    Returns (trace_lines, configured_at, route_table_text).  This mirrors
    :func:`repro.experiments.config_time.run_single_configuration` but keeps
    hold of the simulator so a trace hook can be attached.
    """
    from repro.core import AutoConfigFramework, FrameworkConfig, IPAddressManager
    from repro.sim import Simulator
    from repro.topology.emulator import EmulatedNetwork
    from repro.topology.generators import ring_topology

    sim = Simulator()
    trace = []
    sim.add_trace_hook(lambda event: trace.append(f"{event.time!r} {event.name}"))
    ipam = IPAddressManager()
    framework = AutoConfigFramework(
        sim, config=FrameworkConfig(detect_edge_ports=False), ipam=ipam)
    network = EmulatedNetwork(sim, ring_topology(4), ipam=ipam)
    framework.attach(network)
    configured_at = framework.run_until_configured(max_time=3600.0)
    route_table = framework.rfserver.vm(1).zebra.show_ip_route()
    return trace, configured_at, route_table


def sweep_csv_text():
    """Run the pinned sweep serially and return the CSV file contents."""
    import csv

    from repro.experiments.sweep import run_sweep

    results = run_sweep(list(SWEEP_SCENARIOS), workers=1)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["scenario", "family", "seed", "switches", "links",
                     "auto_seconds", "manual_seconds", "speedup"])
    for result in results:
        writer.writerow([result.scenario, result.family, result.seed,
                         result.num_switches, result.num_links,
                         result.auto_seconds, result.manual_seconds,
                         result.speedup])
    return buffer.getvalue()


def trace_digest(trace_lines):
    return hashlib.sha256("\n".join(trace_lines).encode()).hexdigest()


def build_golden_payload():
    trace, configured_at, route_table = run_traced_ring4()
    return {
        "scenario": "ring-4 autoconfiguration",
        "num_events": len(trace),
        "configured_at": configured_at,
        "trace_sha256": trace_digest(trace),
        "route_table": route_table,
        "trace": trace,
    }


def first_difference(expected: List[str], actual: List[str]) -> Optional[str]:
    """Describe the first line where two traces part, or None if equal."""
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return f"line {index}: expected {want!r}, got {got!r}"
    if len(expected) != len(actual):
        index = min(len(expected), len(actual))
        extra = (expected if len(expected) > index else actual)[index]
        side = "missing" if len(expected) > index else "unexpected"
        return f"line {index}: {side} {extra!r} ({len(expected)} vs {len(actual)} lines)"
    return None


def removed_events(old: List[str], new: List[str]) -> Optional[Counter]:
    """The event names ``new`` drops from ``old``, counted, if ``new`` is an
    order-preserving subsequence of ``old``; None if it is not.

    Each line carries its time, so a kept event keeps its time too.
    """
    removed: Counter = Counter()
    position = 0
    for line in new:
        while position < len(old) and old[position] != line:
            removed[old[position].split(" ", 1)[1]] += 1
            position += 1
        if position == len(old):
            return None
        position += 1
    for line in old[position:]:
        removed[line.split(" ", 1)[1]] += 1
    return removed


def rule_violations(old: dict, new: dict) -> List[str]:
    """Why ``new`` may not replace ``old`` under the subsequence rule."""
    problems = []
    for key in ("configured_at", "route_table"):
        if old[key] != new[key]:
            problems.append(f"{key} changed: {old[key]!r} -> {new[key]!r}")
    for payload, name in ((old, "old"), (new, "new")):
        trace = payload["trace"]
        if (payload["num_events"], payload["trace_sha256"]) != (
                len(trace), trace_digest(trace)):
            problems.append(f"{name} num_events / trace_sha256 disagree "
                            "with its trace")
    if removed_events(old["trace"], new["trace"]) is None:
        problems.append("the new trace is not an order-preserving "
                        "subsequence of the old one")
    return problems


def report_removed(old: dict, new: dict) -> None:
    removed = removed_events(old["trace"], new["trace"])
    print(f"{old['num_events']} -> {new['num_events']} events; "
          f"removed by name:")
    for name, count in sorted(removed.items()):
        print(f"  {count:6d}  {name}")


def assert_matches_golden(trace, configured_at, route_table):
    """Hold one ring-4 run to the golden file, naming the first difference."""
    golden = json.loads(GOLDEN_TRACE.read_text())
    assert configured_at == golden["configured_at"]
    assert route_table == golden["route_table"]
    difference = first_difference(golden["trace"], trace)
    assert difference is None, difference
    assert len(trace) == golden["num_events"]
    assert trace_digest(trace) == golden["trace_sha256"]


class TestGoldenEventTrace:
    def test_ring4_event_trace_is_byte_identical(self):
        assert_matches_golden(*run_traced_ring4())

    def test_sweep_csv_is_byte_identical(self):
        assert sweep_csv_text() == GOLDEN_SWEEP.read_text()


class TestSubsequenceRule:
    OLD = ["0.0 a", "1.0 b", "1.0 c", "2.0 b"]

    def _payload(self, trace, configured_at=33.0):
        return {"configured_at": configured_at, "route_table": "r",
                "num_events": len(trace), "trace_sha256": trace_digest(trace),
                "trace": trace}

    def test_dropping_events_is_allowed_and_counted(self):
        assert removed_events(self.OLD, ["0.0 a", "2.0 b"]) == Counter(
            {"b": 1, "c": 1})
        assert rule_violations(self._payload(self.OLD),
                               self._payload(["1.0 c"])) == []

    def test_reordered_retimed_or_new_events_are_refused(self):
        for new in (["1.0 c", "1.0 b"], ["0.0 a", "1.5 b"], ["0.0 z"]):
            assert removed_events(self.OLD, new) is None
            assert rule_violations(self._payload(self.OLD),
                                   self._payload(new))

    def test_outputs_must_not_move(self):
        problems = rule_violations(self._payload(self.OLD),
                                   self._payload(self.OLD, 34.0))
        assert problems == ["configured_at changed: 33.0 -> 34.0"]

    def test_first_difference_names_the_line(self):
        assert first_difference(self.OLD, self.OLD) is None
        assert first_difference(self.OLD, ["0.0 a", "1.0 c"]) == (
            "line 1: expected '1.0 b', got '1.0 c'")
        assert first_difference(self.OLD, self.OLD[:3]).startswith(
            "line 3: missing '2.0 b'")


def regen():
    """Rewrite the trace file if the new run obeys the subsequence rule."""
    old = json.loads(GOLDEN_TRACE.read_text())
    new = build_golden_payload()
    problems = rule_violations(old, new)
    if sweep_csv_text() != GOLDEN_SWEEP.read_text():
        problems.append("the sweep CSV changed")
    if problems:
        print("refusing to regenerate:", *problems, sep="\n  ")
        return 1
    report_removed(old, new)
    GOLDEN_TRACE.write_text(json.dumps(new, indent=2) + "\n")
    print(f"wrote {GOLDEN_TRACE}")
    return 0


def check(base_tree: str):
    """Apply the rule to the committed files against a base commit's copy.

    A base whose trace file predates the full event list is recorded by
    running its own source.
    """
    base = Path(base_tree)
    old = json.loads((base / "tests/data/golden_ring4_trace.json").read_text())
    if "trace" not in old:
        env = dict(os.environ, PYTHONPATH=str(base / "src"))
        recorded = subprocess.run([sys.executable, __file__, "record"],
                                  env=env, check=True, capture_output=True,
                                  text=True).stdout
        old = json.loads(recorded)
    new = json.loads(GOLDEN_TRACE.read_text())
    problems = rule_violations(old, new)
    if (base / "tests/data/golden_sweep.csv").read_text() != GOLDEN_SWEEP.read_text():
        problems.append("the sweep CSV changed")
    if problems:
        print("golden trace breaks the subsequence rule:", *problems, sep="\n  ")
        return 1
    report_removed(old, new)
    return 0


if __name__ == "__main__":
    command = sys.argv[1] if len(sys.argv) > 1 else ""
    if command == "regen":
        sys.exit(regen())
    elif command == "check" and len(sys.argv) == 3:
        sys.exit(check(sys.argv[2]))
    elif command == "record":
        print(json.dumps(build_golden_payload()))
    else:
        print(__doc__)
