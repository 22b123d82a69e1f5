"""The paper's demonstration (§3): video over the 28-node pan-European network.

Two hosts — a streaming server and a remote client — are attached to edge
switches of the pan-European topology.  The stream starts at t = 0, when
the RF-controller holds no configuration at all.  The automatic framework
then discovers the network, creates the VMs, writes the Quagga
configurations, waits for OSPF to converge and pushes the resulting routes
down as flow entries; the moment the first video frame reaches the client
is the demo's headline number (around 4 minutes in the paper, against
roughly 7 hours of manual configuration for 28 switches).
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.app.streaming import VideoStreamClient, VideoStreamServer
from repro.core.autoconfig import FrameworkConfig
from repro.core.manual_model import ManualConfigurationModel
from repro.experiments.results import DemoResult
from repro.experiments.run import ScenarioRun
from repro.topology.graph import Topology
from repro.topology.pan_european import pan_european_topology

LOG = logging.getLogger(__name__)

#: Default attachment points: the server sits in Stockholm, the remote
#: client in Madrid — opposite corners of the pan-European topology.
DEFAULT_SERVER_CITY = "Stockholm"
DEFAULT_CLIENT_CITY = "Madrid"


def run_demo(topology: Optional[Topology] = None,
             server_node: Optional[int] = None,
             client_node: Optional[int] = None,
             config: Optional[FrameworkConfig] = None,
             max_time: float = 1800.0,
             extra_run_time: float = 30.0) -> DemoResult:
    """Run the demonstration and report when the video reached the client."""
    topo = topology if topology is not None else pan_european_topology()
    if server_node is None:
        server_node = topo.node_by_name(DEFAULT_SERVER_CITY).node_id if topology is None \
            else topo.nodes[0].node_id
    if client_node is None:
        client_node = topo.node_by_name(DEFAULT_CLIENT_CITY).node_id if topology is None \
            else topo.nodes[-1].node_id
    topo.attach_host("video-server", server_node)
    topo.attach_host("video-client", client_node)

    run = ScenarioRun(topo, config if config is not None else FrameworkConfig())
    sim, framework = run.sim, run.framework
    server_host = run.network.host("video-server")
    client_host = run.network.host("video-client")
    server = VideoStreamServer(sim, server_host, client_ip=client_host.ip)
    client = VideoStreamClient(sim, client_host, server_ip=server_host.ip)
    # The demo starts the stream immediately, before anything is configured.
    server.start()
    client.start()

    configuration_seconds = run.configure(max_time)
    # Keep running until the video arrives (or the deadline passes).
    deadline = min(max_time, sim.now + max_time)
    while sim.now < deadline and not client.video_started:
        sim.run(until=min(sim.now + 5.0, deadline))
    if client.video_started:
        sim.run(until=sim.now + extra_run_time)

    manual = ManualConfigurationModel()
    result = DemoResult(
        topology_name=topo.name,
        num_switches=topo.num_nodes,
        num_links=topo.num_links,
        video_start_seconds=client.time_to_first_frame,
        configuration_seconds=configuration_seconds,
        manual_seconds=manual.seconds_for(topo.num_nodes),
        frames_received=client.stats.frames_received,
        frames_sent=server.frames_sent,
        green_timeline=framework.gui.configuration_timeline(),
        milestones=dict(framework.milestones),
        gui_text=framework.gui.render_text(),
    )
    LOG.info("demo: video started after %s, configuration finished after %s",
             result.video_start_seconds, result.configuration_seconds)
    return result


def render_demo_report(result: DemoResult) -> str:
    """A textual report mirroring what the demo's GUI and narration showed."""
    lines = [
        f"Demonstration on {result.topology_name} "
        f"({result.num_switches} switches, {result.num_links} links)",
        "",
        result.gui_text,
        "",
        f"Milestones:",
    ]
    for name, when in sorted(result.milestones.items(), key=lambda item: item[1]):
        lines.append(f"  {when:8.1f} s  {name}")
    if result.video_start_seconds is not None:
        lines.append(f"  {result.video_start_seconds:8.1f} s  first video frame at client")
        lines.append("")
        lines.append(f"Video reached the client after "
                     f"{result.video_start_seconds / 60.0:.1f} minutes "
                     f"(paper: around 4 minutes).")
    else:
        lines.append("  video did not reach the client within the deadline")
    lines.append(f"Manual configuration for {result.num_switches} switches "
                 f"(paper model): {result.manual_seconds / 3600.0:.1f} hours.")
    return "\n".join(lines)
