"""Discrete-event simulation kernel used by every substrate in the repo."""

from repro.sim.kernel import Event, PeriodicTask, SimulationError, Simulator
from repro.sim.rng import SeededRandom

__all__ = [
    "Event",
    "PeriodicTask",
    "SimulationError",
    "Simulator",
    "SeededRandom",
]
