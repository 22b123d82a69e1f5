"""Discrete-event simulation kernel.

Every component of the reproduction (switches, controllers, VMs, routing
daemons, applications) runs on top of this kernel.  The kernel keeps a
priority queue of timestamped events and executes their callbacks in
simulated-time order.  Time is a float number of seconds.

The kernel is intentionally small and deterministic:

* events scheduled for the same time fire in insertion order (a
  monotonically increasing sequence number breaks ties), so a run with a
  fixed seed is exactly reproducible;
* callbacks may schedule further events, cancel events, or stop the
  simulation;
* the kernel never sleeps — it jumps straight to the next event time.

The event queue is a heap of plain ``(time, seq, event)`` tuples: tuple
comparison happens in C, which matters because scheduling is the single
most frequent operation in a large simulation.  Cancelled events stay in
the heap and are discarded lazily when they reach the front; a running
count of them keeps :meth:`Simulator.pending` O(1).
"""

from __future__ import annotations

import heapq
import logging
from typing import Any, Callable, Dict, List, Optional, Tuple

LOG = logging.getLogger(__name__)


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be used to
    cancel the callback before it fires.
    """

    __slots__ = ("time", "callback", "args", "kwargs", "cancelled", "name", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: str = "",
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.name = name or getattr(callback, "__qualname__", repr(callback))
        #: Owning simulator while the event sits in the queue (cleared when
        #: the event is dequeued) — lets cancel() keep the lazy cancelled
        #: count accurate without scanning the heap.
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event {self.name} @ {self.time:.6f} ({state})>"


class Simulator:
    """The discrete-event scheduler.

    A single :class:`Simulator` instance is shared by every simulated
    component in an experiment.  Components schedule work with
    :meth:`schedule` / :meth:`schedule_at` and read the clock with
    :attr:`now`.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._processed = 0
        self._cancelled = 0  # cancelled events still sitting in the queue
        self._trace_hooks: List[Callable[[Event], None]] = []

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    # -------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` ``delay`` seconds from now.

        ``label`` names the event for traces and debugging; every other
        keyword argument — including ``name`` — is passed through to the
        callback untouched.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at: this is the hottest kernel entry point, and a
        # non-negative delay can never land in the past.
        when = self._now + delay
        event = Event(when, callback, args, kwargs, name=label)
        event._sim = self
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, event))
        return event

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``.

        Like :meth:`schedule`, only ``label`` is reserved for the kernel's
        bookkeeping; arbitrary keyword arguments reach the callback.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now})"
            )
        event = Event(when, callback, args, kwargs, name=label)
        event._sim = self
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback`` at the current time (after pending events)."""
        return self.schedule(0.0, callback, *args, **kwargs)

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled at
            exactly ``until`` still execute.  ``None`` runs to queue
            exhaustion.
        max_events:
            Safety valve — abort after this many events.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                if self._stopped:
                    break
                when = queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                event = heappop(queue)[2]
                event._sim = None
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = when
                self._processed += 1
                executed += 1
                if self._trace_hooks:
                    for hook in self._trace_hooks:
                        hook(event)
                event.callback(*event.args, **event.kwargs)
                if max_events is not None and executed >= max_events:
                    LOG.warning("simulation aborted after %d events", executed)
                    break
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return len(self._queue) - self._cancelled

    # ----------------------------------------------------------------- hooks
    def add_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook invoked before each executed event (debug/metrics)."""
        self._trace_hooks.append(hook)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f} pending={len(self._queue)}>"


class PeriodicTask:
    """A repeating callback bound to a :class:`Simulator`.

    Used for protocol timers (LLDP probes, OSPF hellos, stream frames).  The
    first invocation happens ``interval`` seconds after :meth:`start` unless
    ``fire_immediately`` is set.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        name: str = "",
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.name = name or getattr(callback, "__qualname__", "periodic")
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, fire_immediately: bool = False) -> None:
        if self._running:
            return
        self._running = True
        if fire_immediately:
            self._event = self.sim.call_soon(self._fire)
        else:
            self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        self._event = self.sim.schedule(self.interval, self._fire, label=self.name)

    def _fire(self) -> None:
        if not self._running:
            return
        self.callback()
        if self._running:
            self._schedule_next()


class EventLog:
    """A timestamped record of notable simulation events.

    Components append ``(time, category, message, data)`` tuples; experiments
    read them back to build timelines (for example the red→green GUI
    transitions of the demo).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.entries: List[Dict[str, Any]] = []

    def record(self, category: str, message: str, **data: Any) -> Dict[str, Any]:
        entry = {
            "time": self.sim.now,
            "category": category,
            "message": message,
            "data": dict(data),
        }
        self.entries.append(entry)
        return entry

    def filter(self, category: str) -> List[Dict[str, Any]]:
        return [e for e in self.entries if e["category"] == category]

    def last(self, category: Optional[str] = None) -> Optional[Dict[str, Any]]:
        if category is None:
            return self.entries[-1] if self.entries else None
        matches = self.filter(category)
        return matches[-1] if matches else None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
