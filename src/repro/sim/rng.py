"""Seeded randomness helpers.

All stochastic behaviour in the reproduction (timer jitter, traffic
generation, random topologies) draws from a :class:`SeededRandom` so that
experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class SeededRandom:
    """A thin wrapper over :class:`random.Random`.

    A component that needs a stream of its own seeds a second instance
    from integers it derives itself (``bus/faults.py`` and
    ``scenarios/events.py`` do): nothing here hashes a string, so no
    result depends on ``PYTHONHASHSEED``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    # Delegations -----------------------------------------------------------
    def uniform(self, a: float, b: float) -> float:
        return self._random.uniform(a, b)

    def random(self) -> float:
        return self._random.random()

    def randint(self, a: int, b: int) -> int:
        return self._random.randint(a, b)

    def expovariate(self, lambd: float) -> float:
        return self._random.expovariate(lambd)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return self._random.sample(population, k)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def jitter(self, base: float, fraction: float = 0.1) -> float:
        """Return ``base`` perturbed by up to ±``fraction``·base."""
        if base == 0:
            return 0.0
        return base * (1.0 + self._random.uniform(-fraction, fraction))
