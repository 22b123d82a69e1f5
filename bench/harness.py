"""Runs one workload in this process and turns it into a record.

Load model: closed batch, one process, one thread, no arrival process.
``gc.collect()`` runs before every unit and the collector stays on.

An untraced run repeats each unit kind until it has the workload's
minimum number of samples *and* its share of ``--seconds`` of measured
time; the end-to-end metrics are medians over those samples.  A traced
run does three units of each kind: cold and warm with the tracer idle,
then one with spans recorded, so the per-layer table comes with its own
overhead figure (traced against warm).  End-to-end numbers are never
taken from a traced run.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import contextmanager
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.experiments.bench import calibrate

from bench.layers import (END_TO_END, PER_LAYER, layer_of_event, patch_layers,
                          per_layer_values, unattributed_rows)
from bench.tracer import Tracer
from bench.workloads import WORKLOADS

#: A record is marked noisy when the calibration loop drifted this much
#: between the start and the end of the workload.
NOISY_DRIFT = 0.10

_now = time.perf_counter


class Recorder:
    """What a workload reports into; one per run."""

    def __init__(self, workload: str, tracer: Optional[Tracer]) -> None:
        self.workload = workload
        self.tracer = tracer
        self.setup_samples: List[float] = []
        #: What is reported outside any unit (a shared fixture), unit-shaped.
        self.fixture: Dict[str, Any] = {"counts": {}, "timings": {},
                                        "failures": []}
        self.units: List[Dict[str, Any]] = []
        self._unit: Optional[Dict[str, Any]] = None

    # ------------------------------------------------- called by workloads
    def attach(self, sim) -> None:
        """Register the tracer's event hook on a workload's simulator."""
        if self.tracer is not None:
            sim.add_trace_hook(self.tracer.on_event)

    def setup(self, seconds: float) -> None:
        self.setup_samples.append(seconds)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A measured region: one wall sample, one root span if traced."""
        unit = self._unit
        started = _now()
        if unit["traced"]:
            trace_id = f"{self.workload}/{unit['kind']}{unit['index']}/{name}"
            with self.tracer.root(name, trace_id):
                yield
        else:
            yield
        unit["walls"].setdefault(name, []).append(_now() - started)

    def count(self, name: str, value: float) -> None:
        """A simulated output or counter: must repeat across units."""
        (self._unit or self.fixture)["counts"][name] = value

    def timing(self, name: str, seconds: float) -> None:
        (self._unit or self.fixture)["timings"][name] = seconds

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            (self._unit or self.fixture)["failures"].append(message)
        return bool(ok)

    # --------------------------------------------------- called by the run
    def run_unit(self, workload, kind: str, traced: bool) -> Dict[str, Any]:
        gc.collect()
        unit = self._unit = {
            "kind": kind, "index": len(self.units), "traced": traced,
            "walls": {}, "counts": {}, "timings": {}, "failures": []}
        self.units.append(unit)
        try:
            getattr(workload, kind)(self)
        finally:
            self._unit = None
        return unit

    def of_kind(self, kind: str, traced: bool = False) -> List[Dict[str, Any]]:
        return [unit for unit in self.units
                if unit["kind"] == kind and unit["traced"] == traced]


def _unit_wall(unit: Dict[str, Any]) -> float:
    return sum(sum(samples) for samples in unit["walls"].values())


def _add(into: Dict[str, float], counts: Dict[str, float]) -> None:
    """Counts of different unit kinds are deltas of one fixture: they add."""
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


def _check_repeatable(recorder: Recorder) -> None:
    """Within one run every unit of a kind reports identical counts."""
    first: Dict[str, Dict[str, float]] = {}
    for unit in recorder.units:
        reference = first.setdefault(unit["kind"], unit["counts"])
        if unit["failures"] or reference is unit["counts"]:
            continue
        moved = sorted(name for name in set(reference) | set(unit["counts"])
                       if reference.get(name) != unit["counts"].get(name))
        if moved:
            unit["failures"].append(
                f"{unit['kind']} {unit['index']} differs from the first in "
                + ", ".join(moved[:5]))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str, import_s: float
                 ) -> Tuple[Dict[str, Any], Optional[Tracer]]:
    """Run one workload; returns its record (see ``bench/README.md``) and,
    for a traced run, the tracer holding the spans."""
    tracer = Tracer(layer_of_event) if trace else None
    if tracer is not None:
        patch_layers(tracer)
    try:
        recorder, calibration = _measure(WORKLOADS[name], seed, seconds,
                                         tracer, scale == "smoke")
    finally:
        if tracer is not None:
            tracer.unpatch()
    record = _record(WORKLOADS[name], recorder, calibration, tracer, import_s)
    record.update(seed=seed, scale=scale)
    return record, tracer


def _calibration(smoke: bool) -> float:
    """The noise guard's reading: best of two fixed calibration loops.

    The smoke scale exists for the contract test, which has no use for a
    guard that alone would cost 1.6 s per run."""
    return 0.0 if smoke else min(calibrate(), calibrate())


def _measure(workload_class, seed: int, seconds: float,
             tracer: Optional[Tracer], smoke: bool
             ) -> Tuple[Recorder, List[float]]:
    """Build the workload, run its units; calibration before and after."""
    recorder = Recorder(workload_class.name, tracer)
    calibration = [_calibration(smoke)]
    workload = workload_class(seed, "smoke" if smoke else "full")
    if hasattr(workload, "prepare"):
        workload.prepare(recorder)
    for kind in workload.kinds:
        if tracer is not None:
            for traced in (False, False, True):  # cold, warm, traced
                recorder.run_unit(workload, kind, traced)
            continue
        minimum = 1 if smoke else workload.minimum[kind]
        budget = seconds / len(workload.kinds)
        measured = 0.0
        while len(recorder.of_kind(kind)) < minimum or measured < budget:
            measured += _unit_wall(recorder.run_unit(workload, kind, False))
    # A live fixture slows the calibration loop itself (the collector
    # walks a bigger heap), so drop it before the closing reading.
    del workload
    gc.collect()
    calibration.append(_calibration(smoke))
    _check_repeatable(recorder)
    return recorder, calibration


def _record(workload_class, recorder: Recorder, calibration: List[float],
            tracer: Optional[Tracer], import_s: float) -> Dict[str, Any]:
    kinds = workload_class.kinds
    drift = abs(calibration[1] - calibration[0]) / calibration[0] \
        if calibration[0] else 0.0
    first_kind = [_unit_wall(unit) for unit in recorder.of_kind(kinds[0])]
    harness = {
        "harness.calibration_s": sum(calibration) / 2.0,
        "harness.calibration_drift": drift,
        "harness.first_rep_ratio": first_kind[0] / median(first_kind),
    }
    phases: Dict[str, Dict[str, Any]] = {}
    for unit in recorder.units:
        if not unit["traced"]:
            for phase, samples in unit["walls"].items():
                phases.setdefault(phase, {"samples": []})["samples"] += samples
    for entry in phases.values():
        entry.update(value=median(entry["samples"]), unit="s",
                     max=max(entry["samples"]), n=len(entry["samples"]))
    outputs = dict(recorder.fixture["counts"])
    for kind in kinds:
        _add(outputs,
             recorder.of_kind(kind, traced=tracer is not None)[0]["counts"])
    reporters = [recorder.fixture] + recorder.units
    failures = [message for reporter in reporters
                for message in reporter["failures"]]
    failed = sum(1 for reporter in reporters if reporter["failures"])
    record: Dict[str, Any] = {
        "workload": workload_class.name, "trace": int(tracer is not None),
        "seed_note": workload_class.seed_note, "noisy": drift > NOISY_DRIFT,
        "correct": not failures, "failed": failed, "failures": failures,
        "attempted": len(recorder.units) + bool(recorder.fixture["failures"]),
        "phases": phases, "outputs": outputs, "harness": harness,
    }
    if tracer is None:
        declared = END_TO_END
        values = {
            "setup_s": import_s + median(recorder.setup_samples),
            "wall_s": sum(phases[phase]["value"]
                          for phase in workload_class.phases
                          if phase in phases),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        declared = PER_LAYER
        counts = dict(outputs, **recorder.fixture["timings"], **harness)
        for kind in kinds:
            counts.update(recorder.of_kind(kind, traced=True)[0]["timings"])
        warm = sum(_unit_wall(recorder.of_kind(kind)[-1]) for kind in kinds)
        values = per_layer_values(tracer, counts, warm)
        record["traced_wall_s"] = tracer.wall()
        record["unattributed"] = [
            {"label": label, "self_s": self_s, "calls": calls}
            for label, self_s, calls in unattributed_rows(tracer)]
    record["metrics"] = {metric: {"value": values[metric], "unit": unit}
                         for metric, unit, _better in declared}
    return record
