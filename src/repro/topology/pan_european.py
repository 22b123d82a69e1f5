"""The 28-node pan-European reference topology.

The paper's demonstration emulates "a pan European topology [5] consisting
of 28 nodes" — the COST 266 / De Maesschalck et al. basic reference
topology of 28 European cities and 42 bidirectional links.  Link delays are
derived from the great-circle distance between the cities at the speed of
light in fibre, which is what an emulated testbed would configure.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.topology.graph import Topology

#: (city, latitude, longitude) — the 28 cities of the COST 266 basic topology.
PAN_EUROPEAN_CITIES: List[Tuple[str, float, float]] = [
    ("Amsterdam", 52.37, 4.90),
    ("Athens", 37.98, 23.73),
    ("Barcelona", 41.39, 2.17),
    ("Belgrade", 44.79, 20.45),
    ("Berlin", 52.52, 13.40),
    ("Birmingham", 52.48, -1.90),
    ("Bordeaux", 44.84, -0.58),
    ("Brussels", 50.85, 4.35),
    ("Budapest", 47.50, 19.04),
    ("Copenhagen", 55.68, 12.57),
    ("Dublin", 53.35, -6.26),
    ("Frankfurt", 50.11, 8.68),
    ("Glasgow", 55.86, -4.25),
    ("Hamburg", 53.55, 9.99),
    ("Krakow", 50.06, 19.94),
    ("London", 51.51, -0.13),
    ("Lyon", 45.76, 4.84),
    ("Madrid", 40.42, -3.70),
    ("Milan", 45.46, 9.19),
    ("Munich", 48.14, 11.58),
    ("Paris", 48.86, 2.35),
    ("Prague", 50.08, 14.44),
    ("Rome", 41.90, 12.50),
    ("Stockholm", 59.33, 18.07),
    ("Strasbourg", 48.57, 7.75),
    ("Vienna", 48.21, 16.37),
    ("Warsaw", 52.23, 21.01),
    ("Zurich", 47.37, 8.54),
]

#: The 42 links of the COST 266-style reference topology (city names).
PAN_EUROPEAN_LINKS: List[Tuple[str, str]] = [
    ("Amsterdam", "Brussels"),
    ("Amsterdam", "Hamburg"),
    ("Amsterdam", "London"),
    ("Athens", "Belgrade"),
    ("Athens", "Rome"),
    ("Barcelona", "Madrid"),
    ("Barcelona", "Lyon"),
    ("Belgrade", "Budapest"),
    ("Belgrade", "Rome"),
    ("Berlin", "Hamburg"),
    ("Berlin", "Prague"),
    ("Berlin", "Warsaw"),
    ("Berlin", "Munich"),
    ("Birmingham", "Glasgow"),
    ("Birmingham", "London"),
    ("Bordeaux", "Madrid"),
    ("Bordeaux", "Paris"),
    ("Bordeaux", "Lyon"),
    ("Brussels", "Frankfurt"),
    ("Brussels", "Paris"),
    ("Budapest", "Krakow"),
    ("Budapest", "Vienna"),
    ("Copenhagen", "Hamburg"),
    ("Copenhagen", "Stockholm"),
    ("Copenhagen", "Berlin"),
    ("Stockholm", "Warsaw"),
    ("Dublin", "Glasgow"),
    ("Dublin", "London"),
    ("Frankfurt", "Hamburg"),
    ("Frankfurt", "Munich"),
    ("Frankfurt", "Strasbourg"),
    ("Krakow", "Warsaw"),
    ("London", "Paris"),
    ("Lyon", "Paris"),
    ("Lyon", "Zurich"),
    ("Madrid", "Paris"),
    ("Milan", "Munich"),
    ("Milan", "Rome"),
    ("Milan", "Zurich"),
    ("Munich", "Vienna"),
    ("Prague", "Vienna"),
    ("Strasbourg", "Zurich"),
]

#: Propagation speed of light in fibre (m/s).
FIBRE_SPEED = 2.0e8
#: Fibre routes are longer than the great-circle distance; standard factor.
FIBRE_DETOUR_FACTOR = 1.3


def great_circle_km(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """Great-circle distance between two coordinates in kilometres."""
    radius_km = 6371.0
    phi_a, phi_b = math.radians(lat_a), math.radians(lat_b)
    d_phi = math.radians(lat_b - lat_a)
    d_lambda = math.radians(lon_b - lon_a)
    a = (math.sin(d_phi / 2) ** 2
         + math.cos(phi_a) * math.cos(phi_b) * math.sin(d_lambda / 2) ** 2)
    return 2 * radius_km * math.asin(math.sqrt(a))


def link_delay_seconds(distance_km: float) -> float:
    """One-way propagation delay over a fibre of the given length."""
    return (distance_km * FIBRE_DETOUR_FACTOR * 1000.0) / FIBRE_SPEED


def pan_european_topology() -> Topology:
    """Build the 28-node pan-European topology used by the paper's demo."""
    topology = Topology("pan-european-28")
    index: Dict[str, int] = {}
    for node_id, (city, latitude, longitude) in enumerate(PAN_EUROPEAN_CITIES, start=1):
        topology.add_node(node_id, name=city, latitude=latitude, longitude=longitude)
        index[city] = node_id
    for city_a, city_b in PAN_EUROPEAN_LINKS:
        node_a, node_b = index[city_a], index[city_b]
        info_a = PAN_EUROPEAN_CITIES[node_a - 1]
        info_b = PAN_EUROPEAN_CITIES[node_b - 1]
        distance = great_circle_km(info_a[1], info_a[2], info_b[1], info_b[2])
        topology.add_link(node_a, node_b, delay=link_delay_seconds(distance))
    return topology
