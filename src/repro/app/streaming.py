"""The video-streaming application of the paper's demonstration.

"At the start of the experiment, we stream a video clip from a server to a
remote client. … the video clip reaches (after around 4 minutes) at the
remote client."  The server here is a constant-bit-rate UDP streamer; the
client records the arrival time of the first frame (the demo's headline
metric), counts frames and sequence gaps, and periodically sends small
receiver reports back towards the server — which is also what makes the
edge switches learn where the client lives.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.addresses import IPv4Address
from repro.net.host import Host
from repro.sim import PeriodicTask, Simulator

LOG = logging.getLogger(__name__)

#: RTP-ish port the stream is sent to.
STREAM_PORT = 5004
#: Port used for the client's receiver reports.
REPORT_PORT = 5005

_FRAME_HEADER = struct.Struct("!IdI")  # sequence, send time, payload length


@dataclass
class StreamStats:
    """What the client observed."""

    frames_received: int = 0
    bytes_received: int = 0
    first_frame_time: Optional[float] = None
    last_frame_time: Optional[float] = None
    first_sequence: Optional[int] = None
    highest_sequence: int = -1
    out_of_order: int = 0
    latencies: List[float] = field(default_factory=list)

    @property
    def lost_frames(self) -> int:
        """Frames skipped between the first and the highest sequence seen."""
        if self.first_sequence is None:
            return 0
        expected = self.highest_sequence - self.first_sequence + 1
        return max(0, expected - self.frames_received)


class VideoStreamServer:
    """Constant-bit-rate UDP video source."""

    def __init__(self, sim: Simulator, host: Host, client_ip: IPv4Address,
                 frame_rate: float = 25.0, frame_size: int = 1200) -> None:
        self.sim = sim
        self.host = host
        self.client_ip = IPv4Address(client_ip)
        self.frame_size = frame_size
        self.frames_sent = 0
        self._task = PeriodicTask(sim, 1.0 / frame_rate, self._send_frame,
                                  name=f"stream:{host.name}")

    def start(self) -> None:
        """Start streaming immediately (t=0 of the demo)."""
        self._task.start(fire_immediately=True)

    def stop(self) -> None:
        self._task.stop()

    def _send_frame(self) -> None:
        payload_len = max(0, self.frame_size - _FRAME_HEADER.size)
        header = _FRAME_HEADER.pack(self.frames_sent, self.sim.now, payload_len)
        frame = header + bytes(payload_len)
        self.host.send_udp(self.client_ip, STREAM_PORT, frame,
                           src_port=STREAM_PORT)
        self.frames_sent += 1

    def __repr__(self) -> str:
        return f"<VideoStreamServer {self.host.name} -> {self.client_ip} sent={self.frames_sent}>"


class VideoStreamClient:
    """Receives the stream, measures when the video "reaches" the client."""

    def __init__(self, sim: Simulator, host: Host, server_ip: IPv4Address,
                 report_interval: float = 2.0) -> None:
        self.sim = sim
        self.host = host
        self.server_ip = IPv4Address(server_ip)
        self.stats = StreamStats()
        host.bind_udp(STREAM_PORT, self._on_frame)
        self._report_task = PeriodicTask(sim, report_interval, self._send_report,
                                         name=f"stream-client:{host.name}")

    def start(self) -> None:
        """Start watching for the stream and emitting receiver reports."""
        self._report_task.start(fire_immediately=True)

    def _on_frame(self, src_ip: IPv4Address, _src_port: int, payload: bytes) -> None:
        if src_ip != self.server_ip or len(payload) < _FRAME_HEADER.size:
            return
        sequence, sent_at, _length = _FRAME_HEADER.unpack(payload[:_FRAME_HEADER.size])
        now = self.sim.now
        stats = self.stats
        stats.frames_received += 1
        stats.bytes_received += len(payload)
        stats.last_frame_time = now
        stats.latencies.append(now - sent_at)
        if stats.first_frame_time is None:
            stats.first_frame_time = now
            stats.first_sequence = sequence
            LOG.info("stream-client %s: first frame (seq %d) at t=%.1fs",
                     self.host.name, sequence, now)
        if sequence < stats.highest_sequence:
            stats.out_of_order += 1
        stats.highest_sequence = max(stats.highest_sequence, sequence)

    def _send_report(self) -> None:
        report = struct.pack("!IdI", self.stats.frames_received, self.sim.now,
                             self.stats.lost_frames)
        self.host.send_udp(self.server_ip, REPORT_PORT, report,
                           src_port=REPORT_PORT)

    @property
    def video_started(self) -> bool:
        return self.stats.first_frame_time is not None

    @property
    def time_to_first_frame(self) -> Optional[float]:
        """Seconds from t=0 until the first frame arrived (the demo metric)."""
        return self.stats.first_frame_time

    def __repr__(self) -> str:
        return (f"<VideoStreamClient {self.host.name} frames="
                f"{self.stats.frames_received}>")
