#!/usr/bin/env python3
"""The repo's benchmark: ``python3 bench/run.py``.

Without ``--workload`` it runs all four workloads, each in a fresh
subprocess, prints every metric by name with its unit and exits non-zero
if any check failed.  With ``--workload`` it runs that one in this
process (after re-executing itself under ``PYTHONHASHSEED=0`` — sub-stream
seeds hash a string) and prints, as the last line of standard output, the
one-line JSON result the benchmark driver reads:

    python3 bench/run.py --workload fluid_te_1m --seed 7 --seconds 15 --trace 0

``--trace 1`` makes it a traced run (per-layer metrics instead of the
end-to-end ones); ``--out DIR`` also writes the full record, and for a
traced run ``DIR/trace-<workload>.json`` with the span aggregates and the
raw spans.  See ``bench/README.md``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ospf_torus64", "bgp_scalefree50", "sharded_lossy_torus64",
                  "fluid_te_1m")
DEFAULT_SEED = 7


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process "
                             "(default: all four, one subprocess each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds every input generator (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the contract test; its "
                             "records are stamped and compare.py refuses them")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload, with "
                             "seeds --seed, --seed+1, ...")
    parser.add_argument("--out", type=Path,
                        help="directory for records (and traces)")
    return parser.parse_args()


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(record: dict) -> str:
    """Every metric of one record by name, with its unit."""
    lines = [f"== {record['workload']} seed={record['seed']} "
             f"scale={record['scale']} trace={record['trace']} "
             f"({record['seed_note']})"
             + ("  [NOISY: calibration drifted]" if record["noisy"] else "")]
    for name, entry in record["metrics"].items():
        lines.append(f"  {name:<40} {_format(entry['value']):>14} "
                     f"{entry['unit']}")
    for name, entry in sorted(record["phases"].items()):
        lines.append(f"  {name:<40} {_format(entry['value']):>14} s"
                     f"   max {entry['max']:.4g}  n={entry['n']}")
    for name, value in sorted(record["harness"].items()):
        if name not in record["metrics"]:
            lines.append(f"  {name:<40} {_format(value):>14}")
    if record["trace"]:
        lines.append(f"  traced wall {record['traced_wall_s']:.3f} s; "
                     f"top unattributed:")
        lines += [f"    {row['self_s']:9.4f} s {row['calls']:8d}  "
                  f"{row['label']}" for row in record["unattributed"]]
    else:
        shown = ("sim.config_s", "sim.reconverge_s", "sim.events",
                 "routeflow.flows_current", "traffic.affected_demands",
                 "te.reroutes", "te.steer_changes", "te.delivered_share")
        lines.append("  outputs: " + ", ".join(
            f"{name}={_format(record['outputs'][name])}" for name in shown
            if name in record["outputs"]))
    failed_share = record["failed"] / record["attempted"]
    lines.append(f"  failed_share {failed_share:.3g} "
                 f"({record['failed']} of {record['attempted']})")
    lines += [f"  FAILED: {message}" for message in record["failures"]]
    return "\n".join(lines)


def _record_path(out: Path, workload: str, seed: int, trace: int) -> Path:
    return out / f"run-{workload}-s{seed}-t{trace}.json"


def run_one(args: argparse.Namespace) -> int:
    """Run ``args.workload`` here; the last stdout line is the result."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from bench.harness import run_workload
    except ModuleNotFoundError as missing:
        sys.exit(f"bench/run.py: {missing}: no program to measure under "
                 f"{ROOT / 'src'}")

    import_s = time.perf_counter() - _PROCESS_START
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record, tracer = run_workload(args.workload, args.seed, seconds,
                                  bool(args.trace), args.scale, import_s)
    record["process_s"] = time.perf_counter() - _PROCESS_START
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = _record_path(args.out, args.workload, args.seed, args.trace)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        if tracer is not None:
            (args.out / f"trace-{args.workload}.json").write_text(
                json.dumps(dict(tracer.dump(), workload=args.workload,
                                seed=args.seed)) + "\n")
    print(render(record))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, ``--runs`` times, each in a fresh subprocess."""
    status = 0
    records = []
    for offset in range(args.runs):
        for workload in WORKLOAD_NAMES:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed",
                       str(args.seed + offset), "--trace", str(args.trace),
                       "--scale", args.scale]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.out is not None:
                command += ["--out", str(args.out)]
            finished = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True, check=False)
            # Everything but the driver's result line, which --out repeats.
            print("\n".join(finished.stdout.splitlines()[:-1]), flush=True)
            status = status or finished.returncode
            written = args.out and _record_path(
                args.out, workload, args.seed + offset, args.trace)
            if written and written.exists():
                records.append(json.loads(written.read_text()))
    if args.out is not None:
        (args.out / "runs.json").write_text(
            json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out / 'runs.json'}")
    return status


if __name__ == "__main__":
    arguments = _arguments()
    sys.exit(run_one(arguments) if arguments.workload else run_all(arguments))
