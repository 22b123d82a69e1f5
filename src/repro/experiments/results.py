"""Result containers and table rendering shared by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table (the benchmark harness prints these)."""
    columns = [[str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_seconds(seconds: Optional[float]) -> str:
    """Human-friendly rendering of a duration."""
    if seconds is None:
        return "n/a"
    if seconds < 90:
        return f"{seconds:.1f} s"
    minutes = seconds / 60.0
    if minutes < 90:
        return f"{minutes:.1f} min"
    return f"{minutes / 60.0:.1f} h"


def format_bits(bits: float) -> str:
    """Human-friendly rendering of a bit volume."""
    for unit, scale in (("Gbit", 1e9), ("Mbit", 1e6), ("kbit", 1e3)):
        if bits >= scale:
            return f"{bits / scale:.2f} {unit}"
    return f"{bits:.0f} bit"


@dataclass
class ConfigTimeResult:
    """One point of the Figure 3 sweep."""

    num_switches: int
    num_links: int
    auto_seconds: Optional[float]
    manual_seconds: float
    milestones: Dict[str, float] = field(default_factory=dict)
    #: Aggregate physical delivery/drop counters at the end of the run
    #: (see :meth:`EmulatedNetwork.stats`).
    link_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def auto_minutes(self) -> Optional[float]:
        return self.auto_seconds / 60.0 if self.auto_seconds is not None else None

    @property
    def manual_minutes(self) -> float:
        return self.manual_seconds / 60.0

    @property
    def speedup(self) -> Optional[float]:
        if not self.auto_seconds:
            return None
        return self.manual_seconds / self.auto_seconds


@dataclass
class DemoResult:
    """The outcome of the 28-node pan-European demonstration."""

    topology_name: str
    num_switches: int
    num_links: int
    video_start_seconds: Optional[float]
    configuration_seconds: Optional[float]
    manual_seconds: float
    frames_received: int
    frames_sent: int
    green_timeline: List[tuple] = field(default_factory=list)
    milestones: Dict[str, float] = field(default_factory=dict)
    gui_text: str = ""

    @property
    def video_started(self) -> bool:
        return self.video_start_seconds is not None


@dataclass
class AblationResult:
    """One configuration-time measurement under a varied design parameter."""

    label: str
    parameter: object
    auto_seconds: Optional[float]
    milestones: Dict[str, float] = field(default_factory=dict)
