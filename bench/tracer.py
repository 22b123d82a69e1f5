"""In-memory span tracer for the benchmark's traced runs.

Everything is recorded from here, around calls into each layer's public
surface; nothing under ``src/`` knows it is being traced.  Two kinds of
spans nest inside the harness's root span for a measured region:

* **event spans** — one per kernel event, via ``Simulator.add_trace_hook``.
  The hook fires before the callback and the kernel offers no after-hook,
  so the hook re-points the dequeued event at :meth:`Tracer._run_event`,
  which times the original callback exactly.  The kernel's own loop time
  therefore stays in the enclosing ``Simulator.run`` span (``sim.self_s``).
* **function spans** — wrappers patched over public entry points at the
  class attribute (or at every importing module's binding for module
  functions), removed again by :meth:`Tracer.unpatch`.

A span's self time is its duration minus the part covered by its
children, so the self times of all spans under a root add up to the
root's wall exactly.  Aggregates per (layer, name) are always kept; raw
spans (id, parent id, layer, name, start, end, trace id) are kept up to
:data:`SPAN_CAP`.  Outside a root span the wrappers are a flag test and
a call-through, so fixtures built while patched run at near-native speed.
"""

from __future__ import annotations

import itertools
import re
import sys
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

#: Raw spans kept in memory per run; the rest only feed the aggregates.
SPAN_CAP = 100_000

#: Layer of the root spans (the harness's own loop code) and of kernel
#: events whose label no rule maps to a layer.
HARNESS = "harness"
UNATTRIBUTED = "unattributed"

#: Collapses the instance ids inside kernel event labels ("VM-1a",
#: "dpid3f", "s2-7") so one row aggregates every instance of an event.
_INSTANCE_ID = re.compile(r"(?:(?<=VM-)|(?<=dpid))[0-9a-f]+|\d+")

Key = Tuple[str, str]
_perf_counter = time.perf_counter


class SpanTotals(NamedTuple):
    """Aggregate of every span with one (layer, name)."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Calls whose outcome the wrapper's ``useful`` predicate accepted.
    useful: int = 0


class Tracer:
    """Records nested spans and aggregates them per (layer, name)."""

    def __init__(self, layer_of_event: Callable[[str], str]) -> None:
        #: True only inside a root span: a measured region of a traced unit.
        self.active = False
        #: (layer, name) -> [calls, total seconds, self seconds, useful calls]
        self.totals: Dict[Key, List[float]] = {}
        self.spans: List[tuple] = []
        self.dropped = 0
        self._trace_id = ""
        self._layer_of_event = layer_of_event
        #: Open spans, innermost last: [start, seconds under children, id].
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._event_keys: Dict[str, Key] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # --------------------------------------------------------------- spans
    def _close(self, key: Key, frame: list, useful: bool) -> None:
        end = _perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        totals = self.totals.get(key)
        if totals is None:
            totals = self.totals[key] = [0, 0.0, 0.0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[1]
        if useful:
            totals[3] += 1
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[2], parent, key[0], key[1], frame[0],
                               end, self._trace_id))
        else:
            self.dropped += 1

    @contextmanager
    def root(self, name: str, trace_id: str) -> Iterator[None]:
        """One measured region; spans are recorded only inside it."""
        self._trace_id = trace_id
        frame = [_perf_counter(), 0.0, next(self._ids)]
        self._stack.append(frame)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._close((HARNESS, name), frame, False)

    def wrap(self, function: Callable, layer: str, name: str,
             useful: Optional[Callable[[Any], bool]] = None) -> Callable:
        """``function`` with a span around each call made inside a root.

        ``useful(result)`` marks calls whose outcome was not wasted work
        (the fourth aggregate column)."""
        key = (layer, name)
        stack = self._stack
        ids = self._ids
        close = self._close

        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            frame = [_perf_counter(), 0.0, next(ids)]
            stack.append(frame)
            hit = False
            try:
                result = function(*args, **kwargs)
                hit = useful is not None and useful(result)
                return result
            finally:
                close(key, frame, hit)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------- kernel events
    def on_event(self, event) -> None:
        """``Simulator`` trace hook: time the event's callback as a span."""
        if self.active:
            event.args = (event.callback, event.name) + event.args
            event.callback = self._run_event

    def _run_event(self, callback: Callable, label: str, *args, **kwargs):
        key = self._event_keys.get(label)
        if key is None:
            key = self._event_keys[label] = (
                self._layer_of_event(label), _INSTANCE_ID.sub("#", label))
        frame = [_perf_counter(), 0.0, next(self._ids)]
        self._stack.append(frame)
        try:
            return callback(*args, **kwargs)
        finally:
            self._close(key, frame, False)

    # ------------------------------------------------------------- patches
    def patch_method(self, owner: type, attribute: str, layer: str,
                     useful: Optional[Callable[[Any], bool]] = None) -> None:
        """Wrap ``owner.attribute`` in place, at the class attribute."""
        original = owner.__dict__[attribute]
        name = f"{owner.__name__}.{attribute}"
        if isinstance(original, (classmethod, staticmethod)):
            patched = type(original)(
                self.wrap(original.__func__, layer, name, useful))
        else:
            patched = self.wrap(original, layer, name, useful)
        setattr(owner, attribute, patched)
        self._patches.append((owner, attribute, original))

    def patch_function(self, function: Callable, layer: str) -> None:
        """Wrap a module-level function at every ``repro`` module that
        bound it (``from x import f`` copies the binding)."""
        name = function.__name__
        wrapped = self.wrap(function, layer, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is function):
                setattr(module, name, wrapped)
                self._patches.append((module, name, function))

    def unpatch(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ---------------------------------------------------------- aggregates
    def row(self, layer: str, name: str) -> SpanTotals:
        """Totals of one span name; zeros when it never ran."""
        return SpanTotals(*self.totals.get((layer, name), ()))

    def wall(self) -> float:
        """Traced wall: the summed duration of the root spans."""
        return sum(totals[1] for (layer, _name), totals in self.totals.items()
                   if layer == HARNESS)

    def by_layer(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self seconds, calls)."""
        rows: Dict[str, List[float]] = {}
        for (layer, _name), totals in self.totals.items():
            row = rows.setdefault(layer, [0.0, 0])
            row[0] += totals[2]
            row[1] += totals[0]
        return {layer: (row[0], int(row[1])) for layer, row in rows.items()}

    def top(self, layer: str, limit: int = 5) -> List[Tuple[str, float, int]]:
        """The ``limit`` span names of one layer with the most self time."""
        rows = [(name, totals[2], int(totals[0]))
                for (row_layer, name), totals in self.totals.items()
                if row_layer == layer]
        rows.sort(key=lambda row: -row[1])
        return rows[:limit]

    def dump(self) -> Dict[str, Any]:
        """JSON-ready aggregates plus the raw spans that were kept."""
        return {
            "aggregates": [
                {"layer": layer, "name": name, "calls": int(totals[0]),
                 "total_s": totals[1], "self_s": totals[2],
                 "useful": int(totals[3])}
                for (layer, name), totals in sorted(self.totals.items())],
            "span_fields": ["id", "parent", "layer", "name", "start", "end",
                            "trace_id"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }
