"""Tests for stream generation and arrival processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import GenerationError
from repro.datagen.base import DataType
from repro.datagen.stream import (
    BurstyArrivals,
    EmpiricalArrivals,
    EventKind,
    PoissonArrivals,
    StreamGenerator,
    UniformArrivals,
)

RNG = np.random.default_rng(0)


def _rate(events) -> float:
    """Events per second implied by a stream's timestamps."""
    stamps = [event.timestamp for event in events]
    return (len(stamps) - 1) / (max(stamps) - min(stamps))


class TestArrivalProcesses:
    def test_poisson_rate_roughly_matches(self):
        gaps = PoissonArrivals(rate=100.0).gaps(np.random.default_rng(1), 5000)
        assert 1.0 / gaps.mean() == pytest.approx(100.0, rel=0.1)

    def test_poisson_invalid_rate(self):
        with pytest.raises(GenerationError):
            PoissonArrivals(rate=0.0)

    def test_uniform_gaps_constant(self):
        gaps = UniformArrivals(rate=50.0).gaps(RNG, 10)
        assert all(gap == pytest.approx(0.02) for gap in gaps)

    def test_bursty_has_higher_variance_than_poisson(self):
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        poisson = PoissonArrivals(rate=100.0).gaps(rng_a, 3000)
        bursty = BurstyArrivals(
            low_rate=20.0, high_rate=500.0, switch_probability=0.02
        ).gaps(rng_b, 3000)
        cv_poisson = poisson.std() / poisson.mean()
        cv_bursty = bursty.std() / bursty.mean()
        assert cv_bursty > cv_poisson

    def test_bursty_validation(self):
        with pytest.raises(GenerationError):
            BurstyArrivals(low_rate=0.0, high_rate=10.0)
        with pytest.raises(GenerationError):
            BurstyArrivals(low_rate=1.0, high_rate=10.0, switch_probability=0.0)

    def test_empirical_resamples_real_gaps(self):
        real = [0.0, 1.0, 3.0, 6.0]  # gaps 1, 2, 3
        arrivals = EmpiricalArrivals(real)
        gaps = arrivals.gaps(RNG, 100)
        assert set(np.round(gaps, 6)) <= {1.0, 2.0, 3.0}

    def test_empirical_requires_two_timestamps(self):
        with pytest.raises(GenerationError):
            EmpiricalArrivals([1.0])

    def test_timestamps_are_monotone(self):
        timestamps = PoissonArrivals(10.0).timestamps(RNG, 100)
        assert all(b >= a for a, b in zip(timestamps, timestamps[1:]))


class TestStreamGenerator:
    def test_volume_respected(self):
        dataset = StreamGenerator(seed=1).generate(123)
        assert dataset.num_records == 123
        assert dataset.data_type is DataType.STREAM

    def test_update_and_delete_fractions(self):
        generator = StreamGenerator(
            update_fraction=0.5, delete_fraction=0.2, seed=2
        )
        events = generator.generate(2000).records
        kinds = [event.kind for event in events]
        assert kinds.count(EventKind.UPDATE) / len(kinds) == pytest.approx(0.5, abs=0.05)
        assert kinds.count(EventKind.DELETE) / len(kinds) == pytest.approx(0.2, abs=0.04)

    def test_fraction_validation(self):
        with pytest.raises(GenerationError):
            StreamGenerator(update_fraction=0.8, delete_fraction=0.3)
        with pytest.raises(GenerationError):
            StreamGenerator(update_fraction=-0.1)
        with pytest.raises(GenerationError):
            StreamGenerator(key_space=0)

    def test_measured_rate_tracks_arrival_process(self):
        generator = StreamGenerator(arrivals=PoissonArrivals(500.0), seed=3)
        events = generator.generate(3000).records
        assert _rate(events) == pytest.approx(500.0, rel=0.1)

    def test_keys_respect_key_space(self):
        events = StreamGenerator(key_space=10, seed=4).generate(500).records
        assert all(0 <= event.key < 10 for event in events)

    def test_zipf_skew_makes_hot_keys(self):
        events = StreamGenerator(key_space=100, key_skew=1.5, seed=5).generate(
            2000
        ).records
        from collections import Counter

        counts = Counter(event.key for event in events)
        assert counts[0] > counts.get(50, 0)

    def test_fit_learns_update_mix(self):
        source = StreamGenerator(update_fraction=0.4, seed=6)
        real = source.generate(1000)
        learner = StreamGenerator(seed=7).fit(real)
        assert learner.update_fraction == pytest.approx(0.4, abs=0.05)

    def test_fit_learns_arrival_rate(self):
        source = StreamGenerator(arrivals=PoissonArrivals(200.0), seed=8)
        real = source.generate(2000)
        learner = StreamGenerator(seed=9).fit(real)
        synthetic = learner.generate(2000)
        assert _rate(synthetic.records) == pytest.approx(
            200.0, rel=0.15
        )

    def test_fit_requires_two_events(self):
        source = StreamGenerator(seed=1)
        tiny = source.generate(1)
        with pytest.raises(GenerationError):
            StreamGenerator().fit(tiny)
