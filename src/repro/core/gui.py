"""The demonstration GUI model.

The paper's demo shows "switches with red and green colors in a GUI.  The
color of a switch remains red until it is configured by the RPC server."
This module keeps that state machine — per-switch colour plus the time of
every transition — and renders it as plain text, Graphviz DOT or JSON so
the examples and ``repro demo`` can show exactly what the demo showed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
        self.links: List[Tuple[int, int]] = []

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

    def add_link(self, dpid_a: int, dpid_b: int) -> None:
        pair = (min(dpid_a, dpid_b), max(dpid_a, dpid_b))
        if pair not in self.links:
            self.links.append(pair)

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

    @property
    def last_transition_time(self) -> Optional[float]:
        greens = [v.configured_at for v in self.switches.values()
                  if v.configured_at is not None]
        return max(greens) if greens else None

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

    def to_dot(self) -> str:
        """Graphviz rendering with red/green node fill colours."""
        lines = ["graph routeflow_config {", "  node [style=filled];"]
        for dpid in sorted(self.switches):
            view = self.switches[dpid]
            lines.append(f'  "{view.label}" [fillcolor={view.color}];')
        for dpid_a, dpid_b in self.links:
            label_a = self.switches.get(dpid_a, SwitchView(dpid_a, f"s{dpid_a}")).label
            label_b = self.switches.get(dpid_b, SwitchView(dpid_b, f"s{dpid_b}")).label
            lines.append(f'  "{label_a}" -- "{label_b}";')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "time": self.sim.now,
            "switches": [
                {
                    "datapath_id": view.datapath_id,
                    "label": view.label,
                    "color": view.color,
                    "configured_at": view.configured_at,
                }
                for view in sorted(self.switches.values(), key=lambda v: v.datapath_id)
            ],
            "links": [list(pair) for pair in self.links],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
