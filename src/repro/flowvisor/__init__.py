"""FlowVisor: the flowspace-based slicing proxy between switches and controllers."""

from repro.flowvisor.flowspace import (
    FlowSpace,
    FlowSpaceRule,
    Permission,
    build_flowspace,
)
from repro.flowvisor.proxy import FlowVisor, Slice

__all__ = [
    "FlowSpace",
    "FlowSpaceRule",
    "FlowVisor",
    "Permission",
    "Slice",
    "build_flowspace",
]
