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

    def test_shuffle_preserves_elements(self):
        rng = SeededRandom(3)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_jitter_zero_base(self):
        rng = SeededRandom(3)
        assert rng.jitter(0.0) == 0.0

    def test_jitter_stays_within_fraction(self):
        rng = SeededRandom(3)
        for _ in range(100):
            value = rng.jitter(10.0, fraction=0.2)
            assert 8.0 <= value <= 12.0
