"""Every link's delay and bandwidth, pinned per topology.

The generators hand most links :meth:`Topology.add_link`'s own delay and
bandwidth and pass other values only where a link is physically
different (fibre length, a dumbbell trunk, an eBGP border link).  This
test records ``(node_a, node_b, delay, bandwidth_bps)`` for the topology
of every registered scenario and for each generator family at a small
size, so a refactor of how those values reach ``add_link`` cannot move
one of them.  Record the file afresh only for a change meant to move a
link::

    PYTHONPATH=src python tests/test_link_attributes.py record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.scenarios import all_scenarios
from repro.topology.generators import (
    dumbbell_topology,
    fat_tree_topology,
    full_mesh_topology,
    linear_topology,
    multi_as_topology,
    random_topology,
    ring_topology,
    scale_free_as_topology,
    star_topology,
    torus_topology,
    transit_stub_topology,
    tree_topology,
    waxman_topology,
)
from repro.topology.graph import Topology
from repro.topology.pan_european import pan_european_topology

PINNED = Path(__file__).resolve().parent / "data" / "link_attributes.json"

#: One small instance of each generator family, by label.
FAMILIES = {
    "ring": lambda: ring_topology(4),
    "linear": lambda: linear_topology(3),
    "star": lambda: star_topology(3),
    "tree": lambda: tree_topology(2, 2),
    "full-mesh": lambda: full_mesh_topology(4),
    "random": lambda: random_topology(6, seed=1),
    "fat-tree": lambda: fat_tree_topology(2),
    "torus": lambda: torus_topology(3, 3),
    "grid": lambda: torus_topology(2, 3, wrap=False),
    "waxman": lambda: waxman_topology(8, seed=2),
    "dumbbell": lambda: dumbbell_topology(2, 1, trunk_switches=1),
    "pan-european": pan_european_topology,
    "multi-as": lambda: multi_as_topology(3, as_size=2),
    "multi-as-torus": lambda: multi_as_topology(2, shape="torus",
                                                as_rows=2, as_cols=2),
    "transit-stub": lambda: transit_stub_topology(2),
    "scale-free-as": lambda: scale_free_as_topology(5, seed=1),
}


def link_rows(topology: Topology) -> List[list]:
    return [[link.node_a, link.node_b, link.delay, link.bandwidth_bps]
            for link in topology.links]


def current() -> Dict[str, List[list]]:
    rows = {f"family/{label}": link_rows(build())
            for label, build in FAMILIES.items()}
    rows.update((f"scenario/{spec.name}", link_rows(spec.build_topology()))
                for spec in all_scenarios())
    return rows


def test_link_attributes_are_unchanged():
    pinned = json.loads(PINNED.read_text())
    built = current()
    changed = sorted(name for name in pinned.keys() | built.keys()
                     if pinned.get(name) != built.get(name))
    assert not changed, f"links moved or topologies added/removed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["record"]:
        PINNED.write_text("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(rows)}"
            for name, rows in sorted(current().items())) + "\n}\n")
    else:
        print(__doc__)
