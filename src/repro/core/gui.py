"""The demonstration GUI model.

The paper's demo shows "switches with red and green colors in a GUI.  The
color of a switch remains red until it is configured by the RPC server."
This module keeps that state machine — per-switch colour plus the time of
every transition — and renders it as plain text, which is what the
examples and ``repro demo`` print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim import Simulator


class SwitchColor:
    RED = "red"
    GREEN = "green"


@dataclass
class SwitchView:
    """Display state of one switch in the GUI."""

    datapath_id: int
    label: str
    color: str = SwitchColor.RED
    configured_at: Optional[float] = None


class ConfigurationGUI:
    """Red/green switch view driven by RPC-server configuration events."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.switches: Dict[int, SwitchView] = {}
        #: (time, datapath_id, new_color) transitions, in order of occurrence.
        self.transitions: List[Tuple[float, int, str]] = []

    # ----------------------------------------------------------------- inputs
    def add_switch(self, datapath_id: int, label: str = "") -> SwitchView:
        """Register a switch; it starts red (not yet configured)."""
        view = self.switches.get(datapath_id)
        if view is not None:
            return view
        view = SwitchView(datapath_id=datapath_id,
                          label=label or f"s{datapath_id}")
        self.switches[datapath_id] = view
        self.transitions.append((self.sim.now, datapath_id, SwitchColor.RED))
        return view

    def mark_configured(self, datapath_id: int) -> None:
        """Turn a switch green (the RPC server created its VM)."""
        view = self.switches.get(datapath_id)
        if view is None:
            view = self.add_switch(datapath_id)
        if view.color == SwitchColor.GREEN:
            return
        view.color = SwitchColor.GREEN
        view.configured_at = self.sim.now
        self.transitions.append((self.sim.now, datapath_id, SwitchColor.GREEN))

    # ----------------------------------------------------------------- queries
    @property
    def green_switches(self) -> List[int]:
        return sorted(d for d, v in self.switches.items() if v.color == SwitchColor.GREEN)

    @property
    def red_switches(self) -> List[int]:
        return sorted(d for d, v in self.switches.items() if v.color == SwitchColor.RED)

    @property
    def all_green(self) -> bool:
        return bool(self.switches) and not self.red_switches

    def configuration_timeline(self) -> List[Tuple[float, int]]:
        """(time, datapath_id) pairs in the order switches turned green."""
        return [(t, dpid) for t, dpid, color in self.transitions
                if color == SwitchColor.GREEN]

    # --------------------------------------------------------------- rendering
    def render_text(self) -> str:
        """ASCII rendering, seven switches a row: [label*] green, [label ] red."""
        cells = []
        for dpid in sorted(self.switches):
            view = self.switches[dpid]
            marker = "*" if view.color == SwitchColor.GREEN else " "
            cells.append(f"[{view.label:>4}{marker}]")
        rows = [" ".join(cells[i:i + 7]) for i in range(0, len(cells), 7)]
        header = (f"t={self.sim.now:8.1f}s  configured "
                  f"{len(self.green_switches)}/{len(self.switches)} switches")
        return "\n".join([header] + rows)
