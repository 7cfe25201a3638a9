"""E8 — fully controllable data velocity (Sections 2.1 and 5.1).

Section 2.1 gives velocity three meanings and Section 5.1 two control
mechanisms; each is measured here on the class a ``repro`` verb reaches:

1. **generation rate, mechanism 1 (parallel generators)** — every
   generator's partitions are independently seeded
   (``DataGenerator.generate_partition``), so the rate N machines would
   reach is ``volume / max(partition seconds)`` (expected: ~×N);
2. **update frequency** — a ``StreamGenerator`` update mix at a chosen
   arrival rate, observed by the ``rolling-update-rate`` workload
   through the ``realtime-update-rate`` prescription (the facet Table 1
   says no surveyed suite controls);
3. **generation rate, mechanism 2 (algorithm efficiency)** — trading
   memory for speed (alias-method vs naive inverse-CDF sampling) changes
   the generation rate without any added parallelism.  No generator
   samples this way (LDA draws by ``searchsorted``), so both samplers
   live here, beside their only caller;
4. **processing speed** — ``api.load`` delivers requests at a target
   rate on its virtual clock.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
from conftest import print_banner

from repro import api
from repro.core import registry
from repro.core.prescription import builtin_repository
from repro.datagen.stream import PoissonArrivals, StreamGenerator
from repro.datagen.text import RandomTextGenerator
from repro.execution.report import ascii_table


def test_parallel_generator_speedup(benchmark):
    volume = 600

    def sweep():
        rows = []
        for partitions in (1, 2, 4, 8):
            generator = RandomTextGenerator(document_length=120, seed=1)
            seconds = []
            for partition in range(partitions):
                started = time.perf_counter()
                generator.generate_partition(volume, partition, partitions)
                seconds.append(time.perf_counter() - started)
            # N independent machines finish with their slowest partition.
            rows.append(
                {
                    "generators": partitions,
                    "simulated rate (doc/s)": volume / max(seconds),
                    "speedup": sum(seconds) / max(seconds),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    print_banner("E8", "velocity mechanism 1 — parallel data generators")
    print(ascii_table(rows))
    # Expected shape: speedup grows with generator count, ~×N.
    assert rows[-1]["speedup"] > rows[0]["speedup"] * 3
    assert rows[2]["speedup"] > rows[1]["speedup"]


#: Share of events that are updates in the streams E8 generates.
UPDATE_FRACTION = 0.5


def test_update_frequency_control(benchmark):
    """Requested update frequency in, observed update frequency out.

    The first row is ``repro run realtime-update-rate`` as shipped
    (``poisson-stream``: 1000 events/s, one update in five).  The others
    swap the prescription's generator for one whose arrival rate puts
    the update frequency where the row asks.
    """
    repository = builtin_repository()
    builtin = repository.get("realtime-update-rate")
    requested = {builtin.name: 1000.0 * 0.2}
    for frequency in (50.0, 200.0, 800.0):
        name = f"e8-update-rate-{frequency:g}"
        if name not in registry.generators:
            registry.generators.register(
                name,
                lambda frequency=frequency: StreamGenerator(
                    arrivals=PoissonArrivals(frequency / UPDATE_FRACTION),
                    update_fraction=UPDATE_FRACTION,
                    delete_fraction=0.1,
                    seed=2,
                ),
            )
        repository.add(
            replace(
                builtin, name=name, data=replace(builtin.data, generator=name)
            )
        )
        requested[name] = frequency

    def drive():
        rows = []
        for name, frequency in requested.items():
            report = api.run(name, repository=repository, volume=20_000)
            extra = report.results[0].extra
            rows.append(
                {
                    "prescription": name,
                    "requested (upd/s)": frequency,
                    "observed (upd/s)": extra["update_rate"],
                    "keeps up": extra["keeps_up"],
                }
            )
        return rows

    rows = benchmark.pedantic(drive, rounds=1, iterations=1)
    print_banner("E8", "velocity meaning 2 — data updating frequency")
    print(ascii_table(rows))
    for row in rows:
        assert abs(row["observed (upd/s)"] / row["requested (upd/s)"] - 1) < 0.1


class AliasSampler:
    """O(1) discrete sampling via Walker's alias method (O(V) memory)."""

    def __init__(self, probabilities: Sequence[float]) -> None:
        weights = np.asarray(probabilities, dtype=np.float64)
        size = len(weights)
        scaled = weights * (size / weights.sum())
        self._probability = np.zeros(size)
        self._alias = np.zeros(size, dtype=np.int64)
        small = [i for i, w in enumerate(scaled) if w < 1.0]
        large = [i for i, w in enumerate(scaled) if w >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            self._probability[lo] = scaled[lo]
            self._alias[lo] = hi
            scaled[hi] = scaled[hi] - (1.0 - scaled[lo])
            if scaled[hi] < 1.0:
                small.append(hi)
            else:
                large.append(hi)
        for remaining in large + small:
            self._probability[remaining] = 1.0
            self._alias[remaining] = remaining

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` indexes distributed per the constructor weights."""
        columns = rng.integers(0, len(self._probability), size=count)
        coins = rng.random(count)
        keep = coins < self._probability[columns]
        return np.where(keep, columns, self._alias[columns])


def naive_sample(
    rng: np.random.Generator, cumulative: np.ndarray, count: int
) -> np.ndarray:
    """O(V)-per-draw linear inverse-CDF sampling (the slow baseline).

    Deliberately a Python-level loop with a linear scan: this is the
    inefficient algorithm whose replacement demonstrates the knob.
    """
    draws = np.empty(count, dtype=np.int64)
    for index in range(count):
        needle = rng.random()
        position = 0
        while position < len(cumulative) - 1 and cumulative[position] < needle:
            position += 1
        draws[index] = position
    return draws


def test_algorithm_efficiency_knob(benchmark):
    """Mechanism 2 (§5.1): a faster sampling algorithm (more memory)
    raises the generation rate with no extra parallelism."""
    weights = np.random.default_rng(3).random(2000)
    cumulative = np.cumsum(weights / weights.sum())
    sampler = AliasSampler(weights)
    draws = 3000

    def naive():
        return naive_sample(np.random.default_rng(4), cumulative, draws)

    def alias():
        return sampler.sample(np.random.default_rng(4), draws)

    started = time.perf_counter()
    naive()
    naive_seconds = time.perf_counter() - started

    alias_result = benchmark(alias)
    started = time.perf_counter()
    alias()
    alias_seconds = time.perf_counter() - started

    print_banner("E8", "velocity mechanism 2 — generation algorithm efficiency")
    print(
        ascii_table(
            [
                {"sampler": "naive inverse-CDF (O(V)/draw)",
                 "seconds": naive_seconds,
                 "rate (draws/s)": draws / naive_seconds},
                {"sampler": "alias table (O(1)/draw, O(V) memory)",
                 "seconds": alias_seconds,
                 "rate (draws/s)": draws / alias_seconds},
            ]
        )
    )
    assert len(alias_result) == draws
    assert alias_seconds < naive_seconds


def test_alias_sampler_draws_the_distribution_it_was_given():
    """The fast sampler is only a knob if it samples the same thing."""
    weights = [0.7, 0.2, 0.1]
    cumulative = np.cumsum(weights)
    alias_draws = AliasSampler(weights).sample(
        np.random.default_rng(3), 40_000
    )
    naive_draws = naive_sample(np.random.default_rng(4), cumulative, 10_000)
    for index, weight in enumerate(weights):
        assert abs(np.mean(alias_draws == index) - weight) < 0.01
        assert abs(np.mean(naive_draws == index) - weight) < 0.02
    assert set(AliasSampler([1.0]).sample(np.random.default_rng(0), 10)) == {0}


def test_processing_speed_pacing(benchmark):
    """Velocity meaning 3 (Section 2.1): requests delivered at a target
    processing speed, on the load generator's virtual clock."""

    def paced_rates():
        rows = []
        for target in (500.0, 2000.0, 8000.0):
            report = api.load(
                arrival="constant", rate=target, duration=2.0, seed=5,
                mean_service=0.0001, concurrency=8, queue_capacity=1024,
            )
            rows.append(
                {
                    "target (req/s)": target,
                    "delivered (req/s)": report.achieved_rate,
                    "shed": report.shed,
                }
            )
        return rows

    rows = benchmark(paced_rates)
    print_banner("E8", "processing-speed control via pacing")
    print(ascii_table(rows))
    for row in rows:
        assert row["shed"] == 0
        assert abs(row["delivered (req/s)"] / row["target (req/s)"] - 1) < 0.01
