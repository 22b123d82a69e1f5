"""The TE measurement loop: periodic per-link utilization snapshots.

A :class:`UtilizationMonitor` rides a sim-kernel
:class:`~repro.sim.PeriodicTask`.  Each tick it reads the cumulative
``tx_busy_seconds`` both interface ends of every link have accrued (the
accounting shared by the packet path and the fluid fast path), takes the
delta since the previous tick, and normalizes by the elapsed interval —
the utilization of the busier direction over the last window, exactly
what ``Link.stats()['busy_seconds']`` exposes cumulatively.

When the traffic is fluid, busy seconds only accrue at allocation events,
so callers pass the engine's ``reallocate`` as ``pre_sample`` to flush
accrual up to the tick time first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim import PeriodicTask, Simulator

LinkKey = Tuple[int, int]

#: Listener signature: called after each snapshot with the monitor itself.
SampleListener = Callable[["UtilizationMonitor"], None]


class UtilizationMonitor:
    """Snapshots per-link utilization on a kernel timer."""

    def __init__(self, sim: Simulator, network, interval: float = 5.0,
                 pre_sample: Optional[Callable[[], None]] = None) -> None:
        self.sim = sim
        self.network = network
        self.interval = interval
        self._pre_sample = pre_sample
        #: canonical (a, b) -> the physical link object.
        self._links: List[Tuple[LinkKey, object]] = []
        for key in sorted(network.link_ports):
            node_a, _node_b = key
            port_a, _port_b = network.link_ports[key]
            link = network.switches[node_a].port(port_a).interface.link
            if link is not None:
                self._links.append((key, link))
        self._previous: Dict[LinkKey, Tuple[float, float]] = {}
        #: canonical (a, b) -> utilization fraction over the last interval.
        self.utilization: Dict[LinkKey, float] = {}
        #: canonical (a, b) -> peak transmit rate seen so far (either end).
        self.peak_bps: Dict[LinkKey, float] = {}
        self.samples = 0
        self._last_sample_at: Optional[float] = None
        self._listeners: List[SampleListener] = []
        self._task = PeriodicTask(sim, interval, self._sample,
                                  name="te:measure")

    # ------------------------------------------------------------- lifecycle
    def add_listener(self, listener: SampleListener) -> None:
        self._listeners.append(listener)

    def start(self) -> None:
        """Arm the timer; the first snapshot lands one interval from now."""
        self._previous = {
            key: (link.iface_a.tx_busy_seconds, link.iface_b.tx_busy_seconds)
            for key, link in self._links}
        self._last_sample_at = self.sim.now
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    @property
    def running(self) -> bool:
        return self._task.running

    # ------------------------------------------------------------- sampling
    def _sample(self) -> None:
        if self._pre_sample is not None:
            self._pre_sample()
        now = self.sim.now
        last = self._last_sample_at if self._last_sample_at is not None else now
        elapsed = now - last
        if elapsed <= 0.0:
            return
        for key, link in self._links:
            busy_a = link.iface_a.tx_busy_seconds
            busy_b = link.iface_b.tx_busy_seconds
            prev_a, prev_b = self._previous.get(key, (busy_a, busy_b))
            busier = max(busy_a - prev_a, busy_b - prev_b)
            self.utilization[key] = min(1.0, busier / elapsed)
            self.peak_bps[key] = max(link.iface_a.peak_tx_bps,
                                     link.iface_b.peak_tx_bps)
            self._previous[key] = (busy_a, busy_b)
        self.samples += 1
        self._last_sample_at = now
        for listener in self._listeners:
            listener(self)

    # -------------------------------------------------------------- queries
    def utilization_of(self, node_a: int, node_b: int) -> float:
        key = (min(node_a, node_b), max(node_a, node_b))
        return self.utilization.get(key, 0.0)

    def hottest(self, count: int = 1) -> List[Tuple[float, LinkKey]]:
        """The ``count`` hottest links, hot first."""
        ranked = sorted(((value, key)
                         for key, value in self.utilization.items()),
                        key=lambda item: (-item[0], item[1]))
        return ranked[:count]
