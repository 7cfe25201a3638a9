"""Tests for the MapReduce engine (phases, counters, cluster model)."""

from __future__ import annotations

import pytest

from repro._util import chunked
from repro.core.errors import EngineError
from repro.engines.base import SimulatedClusterSpec, schedule_heterogeneous
from repro.engines.mapreduce import (
    CounterGroup,
    JobConf,
    MapReduceEngine,
    MapReduceJob,
    default_partitioner,
    identity_mapper,
    identity_reducer,
)


def word_count_job(**conf_kwargs) -> MapReduceJob:
    def wc_map(key, value):
        for word in value.split():
            yield word, 1

    def wc_reduce(key, values):
        yield key, sum(values)

    return MapReduceJob(
        "wordcount", wc_map, wc_reduce, combiner=wc_reduce,
        conf=JobConf(**conf_kwargs),
    )


PAIRS = [(0, "a b a"), (1, "b c"), (2, "a c c d")]
EXPECTED = {"a": 3, "b": 2, "c": 3, "d": 1}


class TestEngineBasics:
    def test_wordcount_is_correct(self):
        result = MapReduceEngine().run(word_count_job(), PAIRS)
        assert dict(result.output) == EXPECTED

    def test_result_matches_sequential_reference(self):
        """MapReduce must equal the obvious single-threaded computation."""
        from collections import Counter

        reference = Counter()
        for _, line in PAIRS:
            reference.update(line.split())
        result = MapReduceEngine().run(word_count_job(), PAIRS)
        assert dict(result.output) == dict(reference)

    def test_task_counts_do_not_change_output(self):
        baseline = dict(MapReduceEngine().run(word_count_job(), PAIRS).output)
        for maps, reduces in ((1, 1), (2, 3), (8, 5)):
            result = MapReduceEngine().run(
                word_count_job(num_map_tasks=maps, num_reduce_tasks=reduces),
                PAIRS,
            )
            assert dict(result.output) == baseline

    def test_combiner_reduces_shuffle_volume(self):
        with_combiner = MapReduceEngine().run(word_count_job(), PAIRS)
        job = word_count_job()
        job.combiner = None
        without_combiner = MapReduceEngine().run(job, PAIRS)
        assert (
            with_combiner.counters.get("shuffle", "records")
            < without_combiner.counters.get("shuffle", "records")
        )
        assert dict(with_combiner.output) == dict(without_combiner.output)

    def test_empty_input(self):
        result = MapReduceEngine().run(word_count_job(), [])
        assert result.output == []

    def test_identity_job(self):
        job = MapReduceJob("identity", identity_mapper, identity_reducer)
        result = MapReduceEngine().run(job, [(1, "x"), (2, "y")])
        assert sorted(result.output) == [(1, "x"), (2, "y")]

    def test_sorted_keys_in_each_partition(self):
        job = MapReduceJob(
            "sort",
            lambda k, v: [(v, None)],
            conf=JobConf(num_reduce_tasks=1, sort_keys=True),
        )
        result = MapReduceEngine().run(job, [(0, "pear"), (1, "apple"), (2, "fig")])
        keys = [key for key, _ in result.output]
        assert keys == sorted(keys)

    def test_mapper_must_yield_pairs(self):
        job = MapReduceJob("bad", lambda k, v: ["not-a-pair"])
        with pytest.raises(EngineError):
            MapReduceEngine().run(job, PAIRS)

    def test_reducer_must_yield_pairs(self):
        job = MapReduceJob(
            "bad", identity_mapper, lambda k, vs: ["oops"]
        )
        with pytest.raises(EngineError):
            MapReduceEngine().run(job, PAIRS)

    def test_bad_partitioner_detected(self):
        job = word_count_job()
        job.conf.partitioner = lambda key, n: n + 5
        with pytest.raises(EngineError):
            MapReduceEngine().run(job, PAIRS)


class TestCounters:
    def test_map_input_records(self):
        result = MapReduceEngine().run(word_count_job(), PAIRS)
        assert result.counters.get("map", "input_records") == 3

    def test_reduce_groups(self):
        result = MapReduceEngine().run(word_count_job(), PAIRS)
        assert result.counters.get("reduce", "input_groups") == len(EXPECTED)

    def test_counter_group_merge(self):
        a = CounterGroup()
        a.increment("g", "c", 2)
        b = CounterGroup()
        b.increment("g", "c", 3)
        b.increment("h", "x")
        a.merge(b)
        assert a.get("g", "c") == 5
        assert a.get("h", "x") == 1

    def test_engine_accumulates_cost(self):
        engine = MapReduceEngine()
        engine.run(word_count_job(), PAIRS)
        first = engine.counters.compute_ops
        engine.run(word_count_job(), PAIRS)
        assert engine.counters.compute_ops == 2 * first

    def test_snapshot_is_a_copy(self):
        counters = CounterGroup()
        counters.increment("g", "c")
        snapshot = counters.snapshot()
        snapshot["g"]["c"] = 99
        assert counters.get("g", "c") == 1


class TestMapPhaseSpan:
    def test_records_per_split_are_the_real_split_sizes(self):
        """The span used to report the cluster model's task weight
        (input + output) under this name: 200 records printed as
        ``[70, 70, 70, 70]`` beside ``input_records=200``."""
        from repro.observability import Tracer

        pairs = [(index, "a b a c") for index in range(200)]
        tracer = Tracer()
        with tracer.activate():
            MapReduceEngine().run(word_count_job(num_map_tasks=4), pairs)
        (map_phase,) = [
            span for span in tracer.roots()[0].children
            if span.name == "map-phase"
        ]
        per_split = map_phase.attrs["records_per_split"]
        assert per_split == [50, 50, 50, 50]
        assert sum(per_split) == map_phase.counters["input_records"] == 200


class TestClusterModel:
    def test_simulated_time_decreases_with_more_nodes(self):
        small = MapReduceEngine(SimulatedClusterSpec(num_nodes=1))
        large = MapReduceEngine(SimulatedClusterSpec(num_nodes=8))
        pairs = [(i, "word " * 50) for i in range(64)]
        job = word_count_job(num_map_tasks=16, num_reduce_tasks=8)
        slow = small.run(job, pairs).simulated_seconds
        fast = large.run(job, pairs).simulated_seconds
        assert fast < slow

    def test_three_phases_reported(self):
        result = MapReduceEngine().run(word_count_job(), PAIRS)
        assert [phase.name for phase in result.cluster_report.phases] == [
            "map", "shuffle", "reduce",
        ]

    def test_single_node_has_no_network_cost(self):
        engine = MapReduceEngine(SimulatedClusterSpec(num_nodes=1))
        result = engine.run(word_count_job(), PAIRS)
        shuffle = result.cluster_report.phases[1]
        assert shuffle.seconds == 0.0


def schedule_lpt(task_costs: list[float], num_slots: int) -> float:
    """The homogeneous cluster's makespan: unit speeds, no speculation."""
    return schedule_heterogeneous(task_costs, [1.0] * num_slots)


class TestSchedulingPrimitives:
    def test_lpt_single_slot_sums(self):
        assert schedule_lpt([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_lpt_many_slots_takes_max(self):
        assert schedule_lpt([1.0, 2.0, 3.0], 10) == pytest.approx(3.0)

    def test_lpt_balances_within_known_bound(self):
        # LPT is a 4/3-approximation: optimal here is 6 ({3,3} vs {2,2,2});
        # greedy LPT lands on 7, within the bound.
        makespan = schedule_lpt([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert makespan == pytest.approx(7.0)
        assert makespan <= 6.0 * (4 / 3)

    def test_lpt_empty(self):
        assert schedule_lpt([], 4) == 0.0

    def test_lpt_invalid_slots(self):
        with pytest.raises(ValueError):
            schedule_lpt([1.0], 0)

    def test_chunked_covers_all_items(self):
        chunks = chunked(list(range(10)), 3)
        assert sum(len(chunk) for chunk in chunks) == 10
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_default_partitioner_is_stable_and_bounded(self):
        for key in ("alpha", 42, (1, "x")):
            first = default_partitioner(key, 7)
            assert 0 <= first < 7
            assert default_partitioner(key, 7) == first


class TestJobConfValidation:
    def test_invalid_task_counts(self):
        with pytest.raises(EngineError):
            JobConf(num_map_tasks=0)
        with pytest.raises(EngineError):
            JobConf(num_reduce_tasks=-1)

    def test_secondary_sort(self):
        job = MapReduceJob(
            "values",
            lambda k, v: [("key", v)],
            identity_reducer,
            conf=JobConf(sort_values=True, num_reduce_tasks=1),
        )
        result = MapReduceEngine().run(job, [(0, 3), (1, 1), (2, 2)])
        assert [value for _, value in result.output] == [1, 2, 3]
