"""The batch doors against the per-record loops they replaced.

Three seams took one record at a time: the stream generator built one
event per iteration, the streaming engine pushed one event through every
operator, the NoSQL workloads loaded one row per ``insert``.  Each now
has a door for a whole run, and what comes out is reported (events,
window results, latencies, counters, the latency model's draws), so
every door is held to *equality* with its loop (``_accounting_reference``
keeps the loops), never to a tolerance.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.base import DataType, as_dataset
from repro.datagen.stream import (
    EventKind,
    PoissonArrivals,
    StreamEvent,
    StreamGenerator,
    UniformArrivals,
)
from repro.engines.nosql import store as store_module
from repro.engines.nosql.store import ConsistencyLevel, LatencyModel, NoSqlStore
from repro.engines.streaming.engine import (
    FilterOperator,
    MapOperator,
    SlidingWindowAggregate,
    StreamingEngine,
    StreamOperator,
    Topology,
    TumblingWindowAggregate,
)

from _accounting_reference import (
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


def _double(event: StreamEvent) -> StreamEvent:
    return StreamEvent(event.timestamp, event.key, event.value * 2, event.kind)


def _is_update(event: StreamEvent) -> bool:
    return event.kind is EventKind.UPDATE


def _sum(accumulator, value):
    return accumulator + value


OPERATORS = {
    "map": lambda: MapOperator(_double),
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
            if name not in ("function", "predicate", "reducer", "initial")
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


CHAINS = {
    "filter-sliding": lambda: Topology("rate")
    .then(OPERATORS["filter"]())
    .then(OPERATORS["sliding"]()),
    "map-tumbling": lambda: Topology("sum")
    .then(OPERATORS["map"]())
    .then(OPERATORS["tumbling"]()),
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
    @settings(max_examples=60, deadline=None)
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
