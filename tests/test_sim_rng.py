"""Unit tests for the seeded randomness helpers."""

from __future__ import annotations

from repro.sim import SeededRandom


class TestSeededRandom:
    def test_same_seed_same_sequence(self):
        a = SeededRandom(7)
        b = SeededRandom(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = SeededRandom(1)
        b = SeededRandom(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_uniform_respects_bounds(self):
        rng = SeededRandom(3)
        for _ in range(100):
            value = rng.uniform(2.0, 4.0)
            assert 2.0 <= value <= 4.0

    def test_choice_and_sample(self):
        rng = SeededRandom(3)
        population = list(range(10))
        assert rng.choice(population) in population
        sample = rng.sample(population, 4)
        assert len(sample) == 4
        assert len(set(sample)) == 4
