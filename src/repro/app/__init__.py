"""End-host applications: the demo's video stream and ping.

Aggregate traffic is not modelled packet by packet: ``repro traffic`` and
``repro te`` drive the fluid engine in :mod:`repro.traffic`.
"""

from repro.app.ping import PingApp, PingStats
from repro.app.streaming import (
    REPORT_PORT,
    STREAM_PORT,
    StreamStats,
    VideoStreamClient,
    VideoStreamServer,
)

__all__ = [
    "PingApp",
    "PingStats",
    "REPORT_PORT",
    "STREAM_PORT",
    "StreamStats",
    "VideoStreamClient",
    "VideoStreamServer",
]
