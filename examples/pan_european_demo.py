#!/usr/bin/env python3
"""The paper's demonstration: video over the auto-configured pan-European network.

A video server (Stockholm) streams towards a remote client (Madrid) starting
at t = 0, when the RF-controller holds no configuration at all.  The
framework discovers the 28-switch topology, creates the VMs, writes the
Quagga configurations, waits for OSPF and pushes the routes down as flows;
the script reports when the first video frame reached the client and writes
the GUI's text rendering to ``pan_european_gui.json``.

Run with:  python examples/pan_european_demo.py
"""

from __future__ import annotations

import pathlib

from repro.experiments import render_demo_report, run_demo


def main() -> None:
    result = run_demo(max_time=1800.0)
    print(render_demo_report(result))

    # The per-switch red→green timeline the demo GUI animates.
    print()
    print("Green-transition timeline (first ten switches):")
    for when, dpid in result.green_timeline[:10]:
        print(f"  {when:7.1f} s  switch {dpid}")

    output = pathlib.Path("pan_european_gui.json")
    output.write_text(result.gui_text + "\n")
    print(f"\nGUI snapshot written to {output}")


if __name__ == "__main__":
    main()
