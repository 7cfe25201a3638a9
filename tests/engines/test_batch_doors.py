"""The batch doors against the per-record loops they replaced.

Five seams took one record at a time: the stream generator built one
event per iteration, the streaming engine pushed one event through every
operator, the NoSQL workloads loaded one row per ``insert``, word
count's map task emitted one word at a time, and the MapReduce shuffle
hashed one key at a time.  Each now has a door for a whole run, and what
comes out is reported (events, window results, latencies, counters, the
latency model's draws, job output and partitions), so every door is held
to *equality* with its loop (``_accounting_reference`` keeps the loops,
or the engine keeps them as the path a job without a door takes), never
to a tolerance.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro._util import stable_hashes
from repro.core.errors import EngineError
from repro.datagen.base import DataType
from repro.datagen.stream import (
    EventKind,
    PoissonArrivals,
    StreamEvent,
    StreamGenerator,
    UniformArrivals,
)
from repro.engines.base import CostCounters
from repro.engines.mapreduce import job as job_module
from repro.engines.mapreduce.counters import CounterGroup
from repro.engines.mapreduce.job import (
    JobConf,
    MapReduceJob,
    default_partitioner,
    identity_mapper,
    identity_reducer,
)
from repro.engines.mapreduce.runtime import JobResult, MapReduceEngine
from repro.engines.nosql import store as store_module
from repro.engines.nosql.store import ConsistencyLevel, LatencyModel, NoSqlStore
from repro.engines.streaming import engine as streaming_engine
from repro.engines.streaming.engine import (
    FilterOperator,
    SlidingWindowAggregate,
    StreamingEngine,
    StreamOperator,
    Topology,
    TumblingWindowAggregate,
    count,
)
from repro.observability import Tracer
from repro.workloads import micro
from repro.workloads.micro import WordCountWorkload

from tests._datasets import as_dataset

from _accounting_reference import (
    ReferenceTumblingWindow,
    reference_generate_partition,
    reference_stream_run,
)

# -- the streaming operators ---------------------------------------------------

#: Unsorted on purpose: an operator fed directly sees late events, which
#: reopen windows the watermark already closed.  Few distinct values, so
#: equal timestamps and window boundaries are common.
timestamps = st.one_of(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.999]),
)
stream_events = st.builds(
    StreamEvent,
    timestamp=timestamps,
    key=st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"])),
    value=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    kind=st.sampled_from(list(EventKind)),
)
runs = st.lists(stream_events, max_size=40)


def _is_update(event: StreamEvent) -> bool:
    return event.kind is EventKind.UPDATE


def _sum(accumulator, value):
    return accumulator + value


OPERATORS = {
    "filter": lambda: FilterOperator(_is_update),
    "tumbling": lambda: TumblingWindowAggregate(0.5, _sum),
    "sliding": lambda: SlidingWindowAggregate(1.0, 0.25, _sum),
}


def _state(operator: StreamOperator) -> dict:
    """Everything an operator remembers, emitted results included."""
    return copy.deepcopy(
        {
            name: value
            for name, value in vars(operator).items()
            if name not in ("predicate", "reducer", "initial")
        }
    )


class TestProcessMany:
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    @given(runs, st.integers(0, 40))
    def test_a_run_equals_its_events_one_by_one(self, name, events, cut):
        looped, batched = OPERATORS[name](), OPERATORS[name]()
        out = [item for event in events for item in looped.process(event)]
        # In two runs, so what the first leaves behind (watermark, open
        # windows) is what the second starts from.
        assert (
            batched.process_many(events[:cut])
            + batched.process_many(events[cut:])
        ) == out
        assert _state(batched) == _state(looped)
        assert list(batched.flush()) == list(looped.flush())
        assert _state(batched) == _state(looped)

    def test_a_late_event_reopens_a_closed_window(self):
        events = [
            StreamEvent(0.1, "k", 1.0),
            StreamEvent(1.1, "k", 1.0),   # closes [0, 0.5)
            StreamEvent(0.2, "k", 5.0),   # late: reopens it
            StreamEvent(1.2, "k", 1.0),   # same window as the watermark
            StreamEvent(1.6, "k", 1.0),   # closes the reopened one again
        ]
        window = OPERATORS["tumbling"]()
        assert window.process_many(events) == []
        assert [
            (result.window_start, result.value)
            for result in window.take_emitted()
        ] == [(0.0, 1.0), (0.0, 5.0), (1.0, 2.0)]

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_an_empty_run_changes_nothing(self, name):
        operator = OPERATORS[name]()
        before = _state(operator)
        assert operator.process_many([]) == []
        assert _state(operator) == before

    def test_an_operator_that_only_defines_process_still_works(self):
        class Twice(StreamOperator):
            def process(self, event):
                yield event
                yield event

        events = [StreamEvent(0.1, 1, 1.0), StreamEvent(0.2, 2, 1.0)]
        assert Twice().process_many(events) == [
            events[0], events[0], events[1], events[1],
        ]
        report = StreamingEngine().run(
            Topology("t").then(Twice()).then(OPERATORS["tumbling"]()), events
        )
        assert [result.value for result in report.results] == [2.0, 2.0]

    def test_a_subclass_that_redefines_process_is_not_bypassed(self):
        class Clamped(TumblingWindowAggregate):
            """Negative values count as zero; inherits the batch door."""

            def process(self, event):
                clamped = StreamEvent(
                    event.timestamp, event.key, max(event.value, 0.0)
                )
                return super().process(clamped)

        events = [StreamEvent(0.1, 1, -3.0), StreamEvent(0.2, 1, 2.0)]
        operator = Clamped(1.0, _sum)
        assert operator.process_many(events) == []
        assert [result.value for result in operator.flush()] == [2.0]


class TestTumblingFold:
    """The fold that fetches a window's key table once per run of
    same-window events, against the one that fetched it per event."""

    @given(
        runs,
        st.booleans(),
        st.lists(st.integers(0, 40), max_size=4),
        st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_the_fold_equals_the_per_event_oracle(
        self, events, in_order, cuts, size
    ):
        if in_order:
            events = sorted(events, key=lambda event: event.timestamp)
        folded = TumblingWindowAggregate(size, _sum)
        oracle = ReferenceTumblingWindow(size, _sum)
        bounds = [0, *sorted(cuts), len(events)]
        for low, high in zip(bounds, bounds[1:]):
            assert folded.process_many(events[low:high]) == []
            oracle.process_many(events[low:high])
            assert _state(folded) == _state(oracle)
        assert repr(folded.take_emitted()) == repr(oracle.take_emitted())
        assert repr(folded.flush()) == repr(oracle.flush())
        assert _state(folded) == _state(oracle)


#: Times on and off window boundaries, negative ones and repeats.
counted_times = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 2.75]),
)
#: Mostly int keys (the door's); now and then keys the fold tells apart
#: by ``str`` but not by ``==`` (``True``/``1``, ``1.0``) or the other
#: way round (``1``/``"1"``), an int past int64, and a numpy int.
counted_keys = st.one_of(
    st.integers(-2, 12),
    st.integers(-2, 12),
    st.sampled_from([True, False, "1", 1.0, 2**70, np.int64(3), "a"]),
)
counted_events = st.builds(
    StreamEvent,
    timestamp=counted_times,
    key=st.integers(0, 12),
    value=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
#: What a call may meet: an event the fold cannot place (a NaN or
#: infinite time, a float32 time) or a key other than an int.
odd_events = st.one_of(
    st.builds(
        StreamEvent,
        timestamp=st.sampled_from(
            [math.nan, math.inf, -math.inf, np.float32(0.3), 1, True]
        ),
        key=st.integers(0, 3),
        value=st.just(1.0),
    ),
    st.builds(
        StreamEvent, timestamp=counted_times, key=counted_keys, value=st.just(1.0)
    ),
)
counted_runs = st.tuples(
    st.lists(counted_events, max_size=40),
    st.one_of(
        st.just([]),
        st.just([]),
        st.lists(st.tuples(st.integers(0, 40), odd_events), min_size=1, max_size=2),
    ),
    st.sampled_from([True, True, True, False]),
).map(lambda drawn: _spliced(*drawn))


def _spliced(events, odd, in_order):
    if in_order:
        events = sorted(events, key=lambda event: event.timestamp)
    for position, event in odd:
        events.insert(position, event)
    return events


def _outcome(call) -> tuple:
    """What a call returned, or the exception it raised."""
    try:
        return ("returned", call())
    except Exception as error:  # the fold's own: ValueError, OverflowError
        return (type(error), str(error))


def _exact_state(operator: StreamOperator) -> str:
    """``_state`` told apart by type and sign too (``True``/``1``,
    ``-0.0``/``0.0``, ``2``/``2.0``), and dicts by key order."""
    return repr(_state(operator))


class TestCountingFold:
    """The counting door (``count``, the default ``initial``) against the
    per-event fold, call by call, with the window's other doors between."""

    @given(
        st.lists(
            st.tuples(counted_runs, st.sampled_from(["", "take", "flush"])),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0.25, 0.5, 1.0, 3.0]),
        st.sampled_from([2048, 1, 2, 3, 5]),
        st.sampled_from([1 << 15, 6, 24]),
    )
    @settings(max_examples=300)
    def test_the_door_equals_the_per_event_fold(
        self, calls, size, slice_events, table_entries
    ):
        """Small slices and tables too: runs cut into many slices, a
        window that fills a slice, and a refusal after slices passed."""
        counted = TumblingWindowAggregate(size, count)
        oracle = ReferenceTumblingWindow(size, count)
        for events, then in calls:
            with (
                mock.patch.object(streaming_engine, "_COUNT_SLICE", slice_events),
                mock.patch.object(streaming_engine, "_COUNT_TABLE", table_entries),
            ):
                outcome = _outcome(lambda: counted.process_many(events))
            assert outcome == _outcome(lambda: oracle.process_many(events))
            assert _exact_state(counted) == _exact_state(oracle)
            if then == "take":
                assert repr(counted.take_emitted()) == repr(oracle.take_emitted())
            elif then == "flush":
                assert repr(counted.flush()) == repr(oracle.flush())
            assert _exact_state(counted) == _exact_state(oracle)
        assert repr(counted.flush()) == repr(oracle.flush())
        assert _exact_state(counted) == _exact_state(oracle)

    @staticmethod
    def _stream(partitions: int) -> list[StreamEvent]:
        return sorted(
            StreamGenerator(update_fraction=0.2, seed=7)
            .generate_parallel(10_000, partitions)
            .records,
            key=lambda event: event.timestamp,
        )

    @pytest.mark.parametrize(
        "size", [0.05, 0.1, 0.7, 5.0, 1000.0], ids=lambda size: f"w{size}"
    )
    @pytest.mark.parametrize("partitions", [1, 2])
    def test_generated_streams_past_one_slice(self, size, partitions):
        """Windows that straddle a slice's end, and (at 5 and 1000 s) one
        window longer than a slice, all through the door."""
        events = self._stream(partitions)
        counted = TumblingWindowAggregate(size, count)
        oracle = ReferenceTumblingWindow(size, count)
        counted._fold = None  # the door, or a TypeError
        counted.process_many(events)
        del counted._fold
        oracle.process_many(events)
        assert _exact_state(counted) == _exact_state(oracle)
        assert repr(counted.flush()) == repr(oracle.flush())

    @pytest.mark.parametrize("size", [1e-6, 0.001], ids=lambda size: f"w{size}")
    def test_sparse_windows_go_through_the_fold(self, size):
        """About one event a window: a slice's cell table (windows x
        keys) would pass ``_COUNT_TABLE`` entries, so the door refuses."""
        events = self._stream(1)
        counted = TumblingWindowAggregate(size, count)
        assert not counted._count_run(events)
        oracle = ReferenceTumblingWindow(size, count)
        counted.process_many(events)
        oracle.process_many(events)
        assert _exact_state(counted) == _exact_state(oracle)
        assert repr(counted.flush()) == repr(oracle.flush())

    def test_a_workload_run_takes_the_door(self, monkeypatch):
        def no_fold(self, events):
            raise AssertionError("the counting run went through the fold")

        monkeypatch.setattr(TumblingWindowAggregate, "_fold", no_fold)
        report = api.run("realtime-windowed-aggregation", volume=5000)
        assert report.results[0].ok

    @pytest.mark.parametrize(
        "events",
        [
            [StreamEvent(0.1, 1, 1.0), StreamEvent(0.05, 1, 1.0)],
            [StreamEvent(0.1, 1, 1.0), StreamEvent(0.2, True, 1.0)],
            [StreamEvent(0.1, 1, 1.0), StreamEvent(0.2, "1", 1.0)],
            [StreamEvent(0.1, 2**70, 1.0)],
            [StreamEvent(0.1, np.int64(1), 1.0)],
            [StreamEvent(np.float32(0.1), 1, 1.0)],
            [StreamEvent(1, 1, 1.0)],
            [StreamEvent(math.inf, 1, 1.0)],
        ],
        ids=[
            "unsorted", "bool-key", "str-key", "past-int64", "numpy-key",
            "float32-time", "int-time", "infinite-time",
        ],
    )
    def test_a_run_the_door_refuses_changes_nothing(self, events):
        operator = TumblingWindowAggregate(0.5, count)
        before = _exact_state(operator)
        assert not operator._count_run(events)
        assert _exact_state(operator) == before

    def test_a_late_refusal_changes_nothing(self):
        """A NaN in the last slice: the earlier slices were counted, and
        still nothing is left behind."""
        events = [StreamEvent(index * 1e-3, index % 7, 1.0) for index in range(9000)]
        events.append(StreamEvent(math.nan, 1, 1.0))
        counted = TumblingWindowAggregate(0.1, count)
        counted.process_many(events[:10])
        counted.flush()
        before = _exact_state(counted)
        assert not counted._count_run(events)
        assert _exact_state(counted) == before
        oracle = ReferenceTumblingWindow(0.1, count)
        oracle.process_many(events[:10])
        oracle.flush()
        for operator in (counted, oracle):
            with pytest.raises(ValueError, match="NaN"):
                operator.process_many(events)
        assert _exact_state(counted) == _exact_state(oracle)

    def test_the_watermark_is_the_first_event_at_the_latest_time(self):
        """``-0.0 == 0.0``: the fold keeps the one that got there first."""
        events = [StreamEvent(-1.0, 1, 1.0), StreamEvent(-0.0, 2, 1.0),
                  StreamEvent(0.0, 3, 1.0)]
        counted = TumblingWindowAggregate(0.5, count)
        oracle = ReferenceTumblingWindow(0.5, count)
        assert counted._count_run(events)
        oracle.process_many(events)
        assert repr(counted._watermark) == repr(oracle._watermark) == "-0.0"
        assert _exact_state(counted) == _exact_state(oracle)

    def test_an_open_window_goes_through_the_fold(self):
        operator = TumblingWindowAggregate(0.5, count)
        operator.process_many([StreamEvent(0.1, 1, 1.0)])
        assert not operator._count_run([StreamEvent(0.2, 1, 1.0)])


CHAINS = {
    "filter-sliding": lambda: Topology("rate")
    .then(OPERATORS["filter"]())
    .then(OPERATORS["sliding"]()),
    "tumbling": lambda: Topology("count").then(OPERATORS["tumbling"]()),
    "empty": lambda: Topology("nothing"),
}


class TestStreamingRun:
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @given(runs, st.sampled_from([50e-6, 0.3]))
    def test_operator_major_equals_event_major(self, chain, events, service):
        engine = StreamingEngine(service_seconds_per_event=service)
        report = engine.run(CHAINS[chain](), events)
        results, latencies, compute_ops = reference_stream_run(
            CHAINS[chain](), events, service
        )
        assert report.results == results
        assert report.latencies == latencies
        assert report.events_in == len(events)
        assert engine.counters.compute_ops == compute_ops
        assert engine.counters.records_read == len(events)
        assert engine.counters.records_written == len(results)

    def test_a_generated_stream_through_both_workload_topologies(self):
        events = StreamGenerator(update_fraction=0.3, seed=4).generate(3000).records
        for chain in ("filter-sliding", "tumbling"):
            engine = StreamingEngine()
            report = engine.run(CHAINS[chain](), events)
            results, latencies, compute_ops = reference_stream_run(
                CHAINS[chain](), events, engine.service_seconds_per_event
            )
            assert (report.results, report.latencies) == (results, latencies)
            assert engine.counters.compute_ops == compute_ops


# -- the MapReduce map task and shuffle ----------------------------------------


def _word_count_job() -> MapReduceJob:
    """The job ``WordCountWorkload`` runs, caught on its way to the engine."""
    caught: list[MapReduceJob] = []

    class Catching(MapReduceEngine):
        def run(self, job, pairs):
            caught.append(job)
            return super().run(job, pairs)

    WordCountWorkload().run_mapreduce(
        Catching(), as_dataset(["a"], DataType.TEXT)
    )
    (job,) = caught
    return job


#: Every kind of whitespace ``str.split()`` cuts at, so lines may be
#: empty, whitespace only, or words run into each other.
line_tokens = st.sampled_from(
    ["a", "b", "ab", "é", "w1", " ", "\t", "\n", "　", "\x1c", "\x85"]
)
lines = st.lists(line_tokens, max_size=8).map("".join)


def _same_job_run(one: JobResult, other: JobResult) -> None:
    assert one.output == other.output
    assert one.counters.snapshot() == other.counters.snapshot()
    assert one.cost == other.cost
    assert one.simulated_seconds == other.simulated_seconds


def _reported(report) -> list[dict]:
    """A run's results as recorded, less the one wall-clock metric."""
    results = [result.as_dict() for result in report.results]
    for result in results:
        del result["metrics"]["duration"]
    return results


def _spread(key, line):
    """A mapper whose keys repeat within and across lines and splits:
    words, an ``int``, a tuple, and a key whose text is a number's."""
    for word in line.split():
        yield word, key
    yield key % 3, line
    yield (key % 2, "side"), key
    yield str(key % 3), len(line)


def _grouping_door(mapper):
    """The door the contract describes: ``mapper``'s pairs over a split,
    grouped by key in first-emission order."""

    def group_split(split):
        grouped: dict = {}
        for key, value in split:
            for out_key, out_value in mapper(key, value):
                grouped.setdefault(out_key, []).append(out_value)
        return grouped

    return group_split


def _by_length(key, partitions):
    return len(str(key)) % partitions


class TestGroupSplit:
    @given(st.lists(lines, max_size=40), st.integers(1, 5))
    @settings(max_examples=60)
    def test_the_door_equals_the_mapper_loop(self, texts, map_tasks):
        job = _word_count_job()
        job.conf = JobConf(num_map_tasks=map_tasks)
        pairs = list(enumerate(texts))
        grouped: dict = {}
        for key, value in pairs:
            for word, one in job.mapper(key, value):
                grouped.setdefault(word, []).append(one)
        # Keys in first-emission order, not only equal as dicts.
        assert list(job.group_split(pairs).items()) == list(grouped.items())
        _same_job_run(
            MapReduceEngine().run(job, pairs),
            MapReduceEngine().run(
                dataclasses.replace(job, group_split=None), pairs
            ),
        )

    def test_a_split_longer_than_one_count(self):
        texts = [f"w{index % 7} x{index % 50}\tw{index}" for index in range(300)]
        job = _word_count_job()
        job.conf = JobConf(num_map_tasks=1)
        pairs = list(enumerate(texts))
        _same_job_run(
            MapReduceEngine().run(job, pairs),
            MapReduceEngine().run(
                dataclasses.replace(job, group_split=None), pairs
            ),
        )

    @pytest.mark.parametrize(
        "options",
        [{}, {"chunk_size": 1024}, {"layout": "columnar"}],
        ids=["default", "chunked", "columnar"],
    )
    def test_a_run_reports_what_the_mapper_loop_reports(
        self, monkeypatch, options
    ):
        with_door = api.run("micro-wordcount", volume=2500, **options)
        monkeypatch.setattr(micro, "_count_words", None)
        without = api.run("micro-wordcount", volume=2500, **options)
        assert _reported(with_door) == _reported(without)

    @given(
        st.lists(lines, max_size=30),
        st.integers(1, 5),
        st.integers(1, 3),
        st.booleans(),
        st.sampled_from([None, 1, 4]),
        st.sampled_from([default_partitioner, _by_length]),
    )
    @settings(max_examples=80)
    def test_a_door_without_a_combiner_equals_the_mapper_loop(
        self, texts, map_tasks, reduce_tasks, sort_keys, split_records,
        partitioner,
    ):
        job = MapReduceJob(
            "spread", _spread, identity_reducer,
            conf=JobConf(
                num_map_tasks=map_tasks, num_reduce_tasks=reduce_tasks,
                sort_keys=sort_keys, split_records=split_records,
                partitioner=partitioner,
            ),
            group_split=_grouping_door(_spread),
        )
        pairs = list(enumerate(texts))
        runs, doors = [], []
        for candidate in (job, dataclasses.replace(job, group_split=None)):
            tracer = Tracer()
            with tracer.activate():
                runs.append(MapReduceEngine().run(candidate, pairs))
            (phase,) = [
                span for root in tracer.roots() for span in root.walk()
                if span.name == "map-phase"
            ]
            doors.append(phase.attrs["door"])
        _same_job_run(*runs)
        assert doors == [True, False]

    @pytest.mark.parametrize(
        "returned", [[("a", [1])], {"a": (1,)}, {"a": [1], "b": 1}],
        ids=["not-a-dict", "tuple-value", "int-value"],
    )
    def test_the_door_must_return_a_dict_of_lists(self, returned):
        job = MapReduceJob(
            "wc", identity_mapper, identity_reducer,
            combiner=identity_reducer, group_split=lambda split: returned,
        )
        with pytest.raises(EngineError, match="dict of lists"):
            MapReduceEngine().run(job, [(0, "a")])

    @pytest.mark.parametrize(
        "prescription, door", [("micro-wordcount", True), ("micro-sort", False)]
    )
    def test_the_map_phase_says_whether_the_door_ran(self, prescription, door):
        tracer = Tracer()
        with tracer.activate():
            api.run(prescription, volume=300, repeats=2)
        phases = [
            span for root in tracer.roots() for span in root.walk()
            if span.name == "map-phase"
        ]
        assert len(phases) == 2
        assert [span.attrs["door"] for span in phases] == [door, door]


#: Keys that are equal as dict keys and differ as strings, keys whose
#: string form is past the power table (512), and short text.
route_keys = st.one_of(
    st.sampled_from([1, 1.0, True, "1", None, "None", (1, 2), 0, False, 2.5]),
    st.text("abé", max_size=3),
    st.builds(
        lambda unit, repeats: unit * repeats,
        st.text("xyz", min_size=1, max_size=3),
        st.integers(180, 300),
    ),
)


def _routed_pair_by_pair(map_outputs, num_partitions: int) -> list[list]:
    """What the shuffle did before the route table, as comparable lists."""
    partitions = [defaultdict(list) for _ in range(num_partitions)]
    for task_output in map_outputs:
        for key, value in task_output:
            partitions[default_partitioner(key, num_partitions)][key].append(value)
    return _contents(partitions)


def _contents(partitions) -> list[list]:
    # The key's type too: 1 == 1.0 == True, and the first one seen stays.
    return [
        [(type(key), key, values) for key, values in partition.items()]
        for partition in partitions
    ]


def _shuffled(map_outputs, num_partitions: int, partitioner=default_partitioner):
    job = MapReduceJob(
        "route", identity_mapper,
        conf=JobConf(num_reduce_tasks=num_partitions, partitioner=partitioner),
    )
    return MapReduceEngine()._shuffle_phase(
        job, map_outputs, 0, CounterGroup(), CostCounters()
    )


class TestShuffleRoute:
    @given(
        st.lists(
            st.lists(st.tuples(route_keys, st.integers(0, 9)), max_size=30),
            max_size=4,
        ),
        st.integers(1, 7),
    )
    @settings(max_examples=80)
    def test_the_route_equals_the_partitioner_pair_by_pair(
        self, map_outputs, partitions
    ):
        assert _contents(_shuffled(map_outputs, partitions)) == (
            _routed_pair_by_pair(map_outputs, partitions)
        )

    @pytest.mark.parametrize("distinct", [3, 15, 16, 128, 129, 300])
    def test_one_block_and_more(self, distinct):
        keys = [
            f"w{index}" * (1 + 200 * (index % 37 == 5)) if index % 3 else index
            for index in range(distinct)
        ]
        map_outputs = [
            [(keys[(index * 7) % distinct], index) for index in range(500)],
            [(1.0, 1), (True, 2), ("1", 3), (None, 4), ((1, 2), 5)],
            [(keys[index % distinct], -index) for index in range(200)],
        ]
        for partitions in (2, 5):
            assert _contents(_shuffled(map_outputs, partitions)) == (
                _routed_pair_by_pair(map_outputs, partitions)
            )

    def test_each_distinct_string_form_is_hashed_once(self, monkeypatch):
        hashed: list[str] = []

        def counting_hashes(texts, multiplier):
            hashed.extend(texts)
            return stable_hashes(texts, multiplier)

        monkeypatch.setattr(job_module, "stable_hashes", counting_hashes)
        words = [f"w{index % 300}" for index in range(3000)]
        _shuffled([[(word, 1) for word in words], [(1, 0), (True, 0)]], 3)
        assert hashed == [*dict.fromkeys(words), "1", "True"]

    def test_a_user_partitioner_is_called_once_per_pair(self):
        calls = []

        def by_length(key, partitions):
            calls.append(key)
            return len(key) % partitions

        map_outputs = [[("a", 1), ("bb", 2)], [("a", 3), ("ccc", 4)]]
        partitions = _shuffled(map_outputs, 2, by_length)
        assert calls == ["a", "bb", "a", "ccc"]
        assert _contents(partitions) == [
            [(str, "bb", [2])], [(str, "a", [1, 3]), (str, "ccc", [4])],
        ]

    def test_an_index_out_of_range_raises(self):
        with pytest.raises(EngineError, match="outside"):
            _shuffled([[("a", 1)]], 2, lambda key, partitions: partitions)


# -- the stream generator ------------------------------------------------------

fractions = st.sampled_from([0.0, 0.2, 0.5, 1.0])


def _same_events(built: list[StreamEvent], reference: list[StreamEvent]) -> None:
    assert built == reference
    for event, expected in zip(built, reference):
        # Equal is not enough: 1 == 1.0 == True, and a numpy scalar
        # would pickle, repr and size differently.
        assert type(event.timestamp) is type(expected.timestamp) is float
        assert type(event.key) is type(expected.key) is int
        assert type(event.value) is type(expected.value) is float
        assert event.kind is expected.kind


class TestBuiltEvents:
    @given(
        update=fractions,
        delete=fractions,
        skew=st.sampled_from([1.3, 1.0, 0.5, 2.5]),
        key_space=st.sampled_from([1, 7, 1000]),
        volume=st.sampled_from([0, 1, 2, 7, 100, 101]),
        partitions=st.integers(1, 3),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=60)
    def test_every_partition_equals_the_loop(
        self, update, delete, skew, key_space, volume, partitions, seed
    ):
        if update + delete > 1.0:
            delete = 1.0 - update
        generator = StreamGenerator(
            key_space=key_space, key_skew=skew, update_fraction=update,
            delete_fraction=delete, seed=seed,
        )
        for partition in range(partitions):
            _same_events(
                generator.generate_partition(volume, partition, partitions),
                reference_generate_partition(
                    generator, volume, partition, partitions
                ),
            )

    @pytest.mark.parametrize(
        "update, delete, kinds",
        [
            (0.0, 0.0, {EventKind.INSERT}),
            (1.0, 0.0, {EventKind.UPDATE}),
            (0.0, 1.0, {EventKind.DELETE}),
            (0.3, 0.3, set(EventKind)),
        ],
    )
    def test_the_mix_is_the_fractions(self, update, delete, kinds):
        generator = StreamGenerator(update_fraction=update, delete_fraction=delete)
        events = generator.generate(500).records
        assert {event.kind for event in events} == kinds
        _same_events(events, reference_generate_partition(generator, 500, 0, 1))

    def test_a_fitted_generator_and_a_paced_one(self):
        seed_stream = StreamGenerator(update_fraction=0.4, seed=9).generate(200)
        fitted = StreamGenerator(seed=2).fit(seed_stream)
        paced = StreamGenerator(arrivals=UniformArrivals(rate=10.0), seed=2)
        for generator in (fitted, paced):
            _same_events(
                generator.generate_partition(301, 1, 2),
                reference_generate_partition(generator, 301, 1, 2),
            )

    def test_the_partitions_of_a_parallel_generation(self):
        generator = StreamGenerator(
            arrivals=PoissonArrivals(rate=1000.0), update_fraction=0.2
        )
        records = generator.generate_parallel(1000, 3).records
        expected = [
            event
            for partition in range(3)
            for event in reference_generate_partition(generator, 1000, partition, 3)
        ]
        _same_events(records, expected)
        assert [len(generator.generate_partition(1000, p, 3)) for p in range(3)] == [
            334, 333, 333,
        ]


# -- the NoSQL store's load door -----------------------------------------------

row_keys = st.one_of(
    st.text("abc", min_size=1, max_size=3),
    st.sampled_from(["user1", "user2", "order:0000000001"]),
)
#: 1 and True are one row and one index entry; neither is a ``str``.
number_keys = st.one_of(st.integers(0, 3), st.booleans())
fields = st.dictionaries(
    st.sampled_from(["field0", "field1"]),
    st.one_of(st.integers(0, 99), st.text("xy", max_size=4)),
    min_size=1,
)


def _observable(store: NoSqlStore) -> dict:
    """Everything a later operation, a report or a scan can tell apart."""
    return {
        "partitions": store._partitions,
        "versions": store._versions,
        "sorted_keys": store._sorted_keys,
        "pending": store._pending_sync,
        "load": store._partition_load,
        "clock": store._write_clock,
        "total_latency": store.total_latency_seconds,
        "counters": store.counters.snapshot(),
        "rng": store._rng.bit_generator.state,
    }


def _loaded_both_ways(
    rows, preload=(), consistency=ConsistencyLevel.ALL, source=iter, **options
):
    looped, batched = NoSqlStore(**options), NoSqlStore(**options)
    for store in (looped, batched):
        for key, row in preload:
            store.insert(key, row)
    expected = [
        looped.insert(key, row, consistency).latency_seconds for key, row in rows
    ]
    assert batched.bulk_load(source(rows), consistency) == expected
    assert _observable(batched) == _observable(looped)
    # And the next operations see one store, not two.
    probe = rows[0][0] if rows else "user1"
    assert batched.delete(probe) == looped.delete(probe)
    assert batched.scan(probe, 50) == looped.scan(probe, 50)
    assert batched.read(probe) == looped.read(probe)
    assert _observable(batched) == _observable(looped)
    return batched


class TestBulkLoad:
    @given(
        st.lists(st.tuples(row_keys, fields), max_size=30, unique_by=lambda r: r[0]),
        st.lists(st.tuples(row_keys, fields), max_size=5),
    )
    def test_distinct_text_keys_load_as_the_inserts_would(self, rows, preload):
        _loaded_both_ways(rows, preload, num_partitions=4, seed=3)

    @given(
        st.one_of(
            st.lists(st.tuples(row_keys, fields), max_size=12),
            st.lists(st.tuples(number_keys, fields), max_size=12),
        )
    )
    def test_repeated_and_non_text_keys_fall_back(self, rows):
        _loaded_both_ways(rows, num_partitions=4)

    @pytest.mark.parametrize(
        "options, consistency",
        [
            ({"replication": 2}, ConsistencyLevel.ALL),
            ({"replication": 3}, ConsistencyLevel.ONE),
            ({"replication": 1}, ConsistencyLevel.ONE),
            ({"replication": 1}, ConsistencyLevel.QUORUM),
            ({"latency": LatencyModel(jitter_sigma=0.0)}, ConsistencyLevel.ALL),
            ({"latency": LatencyModel(contention_factor=0.5)}, ConsistencyLevel.ALL),
        ],
        ids=["rf2", "rf3-one", "rf1-one", "rf1-quorum", "no-jitter", "contention"],
    )
    def test_every_configuration_loads_as_the_inserts_would(
        self, options, consistency
    ):
        rows = [(f"user{index}", {"field0": "x" * index}) for index in range(40)]
        store = _loaded_both_ways(
            rows, consistency=consistency, num_partitions=4, **options
        )
        assert len(store) == 39  # one deleted by the comparison

    @pytest.mark.parametrize(
        "source",
        [iter, list, lambda rows: as_dataset(rows, DataType.KEY_VALUE)],
        ids=["iterator", "list", "dataset-source"],
    )
    def test_more_than_one_batch(self, source):
        # Descending, so every batch lands in front of the index so far.
        rows = [(f"key{index:05d}", {"n": index}) for index in range(2500, 0, -1)]
        store = _loaded_both_ways(rows, source=source, num_partitions=8)
        assert len(store) == 2499  # one deleted by the comparison

    def test_the_vector_draw_is_the_scalar_draws(self):
        """The fast path's premise, pinned: one ``lognormal(size=n)`` is
        ``n`` scalar draws, bit for bit, and leaves the same state."""
        scalar, vector = np.random.default_rng(7), np.random.default_rng(7)
        for sigma in (0.1, 0.5):
            drawn = [scalar.lognormal(0.0, sigma) for _ in range(10_000)]
            assert vector.lognormal(0.0, sigma, size=10_000).tolist() == drawn
        assert scalar.bit_generator.state == vector.bit_generator.state

    def test_a_key_is_hashed_once_per_store(self, monkeypatch):
        """Through either door: a batch of keys or one key at a time."""
        hashed = []

        def counting_hash(text, multiplier):
            hashed.append(text)
            return stable_hash(text, multiplier)

        def counting_hashes(texts, multiplier):
            hashed.extend(texts)
            return stable_hashes(texts, multiplier)

        stable_hash = store_module.stable_hash
        stable_hashes = store_module.stable_hashes
        monkeypatch.setattr(store_module, "stable_hash", counting_hash)
        monkeypatch.setattr(store_module, "stable_hashes", counting_hashes)
        store = NoSqlStore()
        rows = [(f"user{index}", {"field0": index}) for index in range(20)]
        store.bulk_load(rows)
        assert sorted(hashed) == sorted(key for key, _ in rows)
        for key, _ in rows:
            store.read(key)
            store.update(key, {"field0": 0})
        assert len(store.scan("user0", 20).rows) == 20
        assert len(hashed) == 20
        # Not by equality: 1, True and "1" are three placements.
        for key in (1, True, "1"):
            store._partition_of(key)
        assert hashed[20:] == ["1", "True", "1"]
