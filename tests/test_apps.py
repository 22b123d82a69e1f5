"""Tests for the end-host applications (streaming, ping)."""

from __future__ import annotations

import pytest

from repro.app import PingApp, VideoStreamClient, VideoStreamServer
from repro.net import Host, IPv4Address, MACAddress, connect


@pytest.fixture
def host_pair(sim):
    """Two hosts on the same subnet wired back-to-back."""
    server = Host(sim, "server", MACAddress.from_local_id(1), IPv4Address("10.0.0.1"),
                  prefix_len=24)
    client = Host(sim, "client", MACAddress.from_local_id(2), IPv4Address("10.0.0.2"),
                  prefix_len=24)
    connect(sim, server.interface, client.interface)
    return server, client


class TestVideoStreaming:
    def test_stream_reaches_client(self, sim, host_pair):
        server_host, client_host = host_pair
        server = VideoStreamServer(sim, server_host, client_ip=client_host.ip,
                                   frame_rate=10.0, frame_size=400)
        client = VideoStreamClient(sim, client_host, server_ip=server_host.ip)
        server.start()
        client.start()
        sim.run(until=5.0)
        assert server.frames_sent >= 40
        assert client.stats.frames_received > 0
        assert client.video_started
        # Back-to-back hosts: the first frame arrives almost immediately.
        assert client.time_to_first_frame < 1.0
        assert client.stats.mean_latency < 0.1

    def test_receiver_reports_reach_server(self, sim, host_pair):
        server_host, client_host = host_pair
        server = VideoStreamServer(sim, server_host, client_ip=client_host.ip)
        client = VideoStreamClient(sim, client_host, server_ip=server_host.ip,
                                   report_interval=1.0)
        server.start()
        client.start()
        sim.run(until=5.0)
        assert client.reports_sent >= 4
        assert server.reports_received > 0

    def test_loss_accounting_when_path_comes_up_late(self, sim, host_pair):
        server_host, client_host = host_pair
        link = server_host.interface.link
        link.set_down()
        server = VideoStreamServer(sim, server_host, client_ip=client_host.ip,
                                   frame_rate=10.0)
        client = VideoStreamClient(sim, client_host, server_ip=server_host.ip)
        server.start()
        client.start()
        sim.schedule(3.0, link.set_up)
        sim.run(until=6.0)
        assert client.video_started
        assert client.time_to_first_frame >= 3.0
        # Everything sent while the link was down never arrived.
        assert client.stats.frames_received < server.frames_sent

    def test_frames_from_unexpected_source_ignored(self, sim, host_pair):
        server_host, client_host = host_pair
        client = VideoStreamClient(sim, client_host,
                                   server_ip=IPv4Address("10.0.0.99"))
        server = VideoStreamServer(sim, server_host, client_ip=client_host.ip)
        server.start()
        client.start()
        sim.run(until=2.0)
        assert not client.video_started

    def test_stop_halts_stream(self, sim, host_pair):
        server_host, client_host = host_pair
        server = VideoStreamServer(sim, server_host, client_ip=client_host.ip,
                                   frame_rate=10.0)
        server.start()
        sim.run(until=1.0)
        server.stop()
        sent = server.frames_sent
        sim.run(until=3.0)
        assert server.frames_sent == sent


class TestPing:
    def test_ping_measures_rtt(self, sim, host_pair):
        source, target = host_pair
        app = PingApp(sim, source, target.ip, interval=0.5)
        app.start()
        sim.run(until=5.0)
        stats = app.finish()
        assert stats.sent >= 9
        assert stats.received >= stats.sent - 1
        assert stats.loss_ratio < 0.2
        assert 0 < stats.mean_rtt < 0.1
        assert stats.first_reply_time is not None

    def test_ping_to_unreachable_target_records_loss(self, sim, host_pair):
        source, _ = host_pair
        app = PingApp(sim, source, IPv4Address("10.0.0.200"), interval=0.5)
        app.start()
        sim.run(until=3.0)
        stats = app.finish()
        assert stats.sent > 0
        assert stats.received == 0
        assert stats.loss_ratio == 1.0
