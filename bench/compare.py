#!/usr/bin/env python3
"""Compare two sets of runs: ``python3 bench/compare.py A.json B.json``.

A set is the ``runs.json`` that ``bench/run.py --runs N --out DIR``
writes: N untraced runs of every workload, each with another seed.  One
row is printed per workload x metric — the end-to-end metrics declared in
``BENCHMARK.json``, then the workload's measured phases (the ROADMAP's
own units), judged by the bound of ``wall_s`` — with both medians, the
ratio B / A, the bound and a verdict:

* ``better`` / ``worse`` — B's median moved past the bound;
* ``same`` — within the bound;
* ``unresolved`` — no verdict can be trusted: a side has fewer than
  three runs left once those marked noisy are set aside, or the spread
  of a side's values (interquartile range over median, as the benchmark
  driver computes it) exceeds the bound.

Simulated outputs are compared exactly, seed by seed, and reported as
``identical`` or ``changed``.  Exits non-zero on any ``worse`` or
``changed`` row, and refuses smoke-scale, traced or failed records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Fewer runs per side than this cannot show their own spread.
MIN_RUNS = 3


def load(path: str) -> Dict[str, List[dict]]:
    """workload -> its records, refusing what must not be compared.

    A run marked noisy (its calibration loop drifted: the box was
    disturbed) stays in the list; :func:`compare` sets it aside."""
    by_workload: Dict[str, List[dict]] = {}
    for record in json.loads(Path(path).read_text()):
        label = f"{path}: {record['workload']} seed {record['seed']}"
        if record["scale"] != "full":
            raise SystemExit(f"{label}: {record['scale']}-scale records "
                             f"are not measurements")
        if record["trace"]:
            raise SystemExit(f"{label}: end-to-end numbers come from "
                             f"untraced runs only")
        if not record["correct"]:
            raise SystemExit(f"{label}: failed its checks: "
                             + "; ".join(record["failures"]))
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    first, _second, third = quantiles(values, n=4)
    return (third - first) / median(values)


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> Tuple[str, float]:
    """(verdict, ratio of the medians B / A)."""
    ratio = median(b) / median(a)
    if min(len(a), len(b)) < MIN_RUNS or max(spread(a), spread(b)) > bound:
        return "unresolved", ratio
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return "worse", ratio
    return ("better" if worsening < -bound else "same"), ratio


def compare(a: Dict[str, List[dict]], b: Dict[str, List[dict]],
            declared: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    """The report's rows and whether any of them fails the comparison."""
    rows = [f"{'workload':<22} {'metric':<20} {'A median':>11} "
            f"{'B median':>11} {'B/A':>7} {'bound':>6}  verdict"]
    failed = False
    wall_bound = next(m["bound"] for m in declared if m["name"] == "wall_s")
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            rows.append(f"{workload:<22} present on one side only")
            failed = True
            continue
        side_a = [r for r in a[workload] if not r["noisy"]]
        side_b = [r for r in b[workload] if not r["noisy"]]
        noisy = len(a[workload]) + len(b[workload]) - len(side_a) - len(side_b)
        if not side_a or not side_b:
            rows.append(f"{workload:<22} unresolved: every run of a side "
                        f"was noisy")
            continue
        metrics = [(m["name"], m["bound"], m["better"], "metrics")
                   for m in declared]
        metrics += [(phase, wall_bound, "lower", "phases")
                    for phase in sorted(side_a[0]["phases"])]
        for name, bound, better, section in metrics:
            values_a = [r[section][name]["value"] for r in side_a]
            values_b = [r[section][name]["value"] for r in side_b]
            outcome, ratio = verdict(values_a, values_b, bound, better)
            failed |= outcome == "worse"
            rows.append(f"{workload:<22} {name:<20} {median(values_a):>11.4f} "
                        f"{median(values_b):>11.4f} {ratio:>7.3f} "
                        f"{bound:>6.2f}  {outcome}"
                        f" (n={len(values_a)}/{len(values_b)})"
                        + (f" ({noisy} noisy set aside)" if noisy else ""))
        outputs_a = {r["seed"]: r["outputs"] for r in side_a}
        pairs = [(outputs_a[r["seed"]], r["outputs"]) for r in side_b
                 if r["seed"] in outputs_a]
        changed = sorted({name for before, after in pairs
                          for name in set(before) | set(after)
                          if before.get(name) != after.get(name)})
        failed |= bool(changed)
        rows.append(f"{workload:<22} simulated outputs "
                    + (f"changed: {', '.join(changed)}" if changed else
                       f"identical on {len(pairs)} shared seeds"))
    return rows, failed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows, failed = compare(load(argv[0]), load(argv[1]), declared)
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
