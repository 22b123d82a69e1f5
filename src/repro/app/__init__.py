"""End-host applications: video streaming, ping, traffic generators."""

from repro.app.ping import PingApp, PingStats
from repro.app.streaming import (
    REPORT_PORT,
    STREAM_PORT,
    StreamStats,
    VideoStreamClient,
    VideoStreamServer,
)
from repro.app.traffic import ConstantBitRateSource, PoissonSource, SinkStats, UDPSink

__all__ = [
    "ConstantBitRateSource",
    "PingApp",
    "PingStats",
    "PoissonSource",
    "REPORT_PORT",
    "STREAM_PORT",
    "SinkStats",
    "StreamStats",
    "UDPSink",
    "VideoStreamClient",
    "VideoStreamServer",
]
