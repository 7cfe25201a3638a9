"""The streaming engine over a stream's columns against the same run over
the list of its events.

``StreamingEngine.run`` orders an :class:`EventColumns` by its timestamp
column, queues it by that column and hands the first operator the
columns, which the tumbling window's counting door reads directly.
Whatever the path, a run over ``seq`` must report exactly what the run
over ``list(seq)`` reports, and leave an operator exactly as that run
leaves it.  Seeded: every case is drawn from a fixed seed.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.datagen.stream import EventColumns, EventKind, StreamGenerator
from repro.engines.streaming.engine import (
    FilterOperator,
    SlidingWindowAggregate,
    StreamingEngine,
    Topology,
    TumblingWindowAggregate,
    count,
)

from _accounting_reference import ReferenceTumblingWindow


def _columns(stamps, keys, seed: int = 0) -> EventColumns:
    rng = np.random.default_rng(seed)
    stamps = np.asarray(stamps)
    return EventColumns(
        stamps, np.asarray(keys), rng.normal(size=len(stamps)),
        rng.integers(0, 3, size=len(stamps)),
    )


def _edge_ties(seed: int) -> EventColumns:
    """Times on window edges (0.1 and 0.25 windows), with ``-0.0``."""
    rng = np.random.default_rng(seed)
    grid = np.array([-0.0, 0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0])
    stamps = np.sort(rng.choice(grid, size=300), kind="stable")
    return _columns(stamps, rng.integers(0, 5, size=300), seed)


def _generated(volume: int, partitions: int, seed: int) -> EventColumns:
    generator = StreamGenerator(update_fraction=0.3, seed=seed)
    if partitions == 1:
        return generator.generate(volume).records
    return generator.generate_parallel(volume, partitions).records


STREAMS = {
    "sorted": lambda seed: _generated(5000, 1, seed),
    "sorted-small": lambda seed: _generated(40, 1, seed),
    "two-partitions": lambda seed: _generated(5000, 2, seed),
    "three-partitions": lambda seed: _generated(999, 3, seed),
    "edge-ties": _edge_ties,
    "edge-ties-unsorted": lambda seed: _edge_ties(seed).take(
        np.random.default_rng(seed).permutation(300)
    ),
    "empty": lambda seed: _generated(0, 1, seed),
    "empty-partitions": lambda seed: _generated(1, 3, seed),
    "one-event": lambda seed: _generated(1, 1, seed),
    "float-keys": lambda seed: _columns(np.arange(50) * 0.01, np.arange(50) % 4 * 1.0),
    "bool-keys": lambda seed: _columns(np.arange(50) * 0.01, np.arange(50) % 2 == 0),
    "keys-past-int64": lambda seed: _columns(
        np.arange(20) * 0.1, np.full(20, 2**63 + 5, dtype=np.uint64)
    ),
    "small-uint-keys": lambda seed: _columns(
        np.arange(20) * 0.1, np.arange(20, dtype=np.uint64)
    ),
    "float32-times": lambda seed: _columns(
        (np.arange(60) * 0.01).astype(np.float32), np.arange(60) % 3
    ),
    "int-times": lambda seed: _columns(np.arange(30), np.arange(30) % 3),
    "infinite-time": lambda seed: _columns(
        [0.1, 0.2, math.inf], [1, 2, 3]
    ),
    "zero-tail": lambda seed: _columns([-1.0, -0.0, 0.0], [1, 2, 3]),
    "nan-time-sorted-tail": lambda seed: _columns([0.1, 0.2, math.nan], [1, 2, 3]),
    "nan-time-unsorted": lambda seed: _columns([0.3, math.nan, 0.1, 0.2], [1, 2, 3, 4]),
}

TOPOLOGIES = {
    "count": lambda: Topology("count").then(TumblingWindowAggregate(0.1, count)),
    "count-wide": lambda: Topology("count").then(TumblingWindowAggregate(0.25, count)),
    "sum": lambda: Topology("sum").then(
        TumblingWindowAggregate(0.1, lambda total, value: total + value)
    ),
    "rate": lambda: Topology("rate")
    .then(FilterOperator(lambda event: event.kind is EventKind.UPDATE))
    .then(SlidingWindowAggregate(0.3, 0.1, lambda total, value: total + 1)),
}


def _outcome(call):
    try:
        return ("returned", call())
    except Exception as error:
        return (type(error), str(error))


def _report(topology_name: str, events) -> tuple:
    engine = StreamingEngine()
    outcome = _outcome(lambda: engine.run(TOPOLOGIES[topology_name](), events))
    if outcome[0] != "returned":
        return outcome
    report = outcome[1]
    return (
        repr(report.results),
        repr(report.latencies),
        repr(report.arrival_rate),
        repr(report.final_backlog_seconds),
        report.events_in,
        report.keeps_up,
        engine.counters.snapshot(),
    )


def _state(operator: TumblingWindowAggregate) -> str:
    """Open windows, watermark and emitted results, told apart by type,
    sign and key order."""
    return repr(
        copy.deepcopy(
            {
                name: value
                for name, value in vars(operator).items()
                if name not in ("reducer", "initial")
            }
        )
    )


class TestColumnRun:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_a_run_over_columns_equals_the_run_over_the_list(
        self, stream, topology, seed
    ):
        seq = STREAMS[stream](seed)
        events = list(seq)
        assert _report(topology, seq) == _report(topology, events)

    @pytest.mark.parametrize("size", [0.1, 0.25, 1.0])
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_the_window_is_left_as_the_list_leaves_it(self, stream, size):
        """``process_many`` straight on the window, twice in a row (the
        second run meets the first's open window), then ``flush``; and
        the per-event fold over the list (no door) as the oracle."""
        seq = STREAMS[stream](7)
        events = list(seq)
        columns, listed = (TumblingWindowAggregate(size, count) for _ in range(2))
        oracle = ReferenceTumblingWindow(size, count)
        runs = ((columns, seq), (listed, events), (oracle, events))
        for _ in range(2):
            outcomes = [_outcome(lambda: window.process_many(run)) for window, run in runs]
            assert outcomes[0] == outcomes[1] == outcomes[2]
            assert _state(columns) == _state(listed) == _state(oracle)
        assert repr(columns.flush()) == repr(listed.flush()) == repr(oracle.flush())
        assert _state(columns) == _state(listed) == _state(oracle)

    def test_a_sorted_stream_reaches_the_window_as_columns(self, monkeypatch):
        seen = []
        original = TumblingWindowAggregate._count_run

        def spy(self, events):
            seen.append(type(events))
            return original(self, events)

        monkeypatch.setattr(TumblingWindowAggregate, "_count_run", spy)
        for partitions in (1, 2):
            seq = _generated(3000, partitions, 1)
            StreamingEngine().run(TOPOLOGIES["count"](), seq)
            assert seq._events is None  # nothing read an event
        assert seen == [EventColumns, EventColumns]

    def test_the_door_reads_the_columns_it_may_and_the_events_otherwise(self):
        door = TumblingWindowAggregate(0.1, count)
        seq = _generated(3000, 1, 2)
        assert door._count_run(seq) and seq._events is None
        for name in ("float-keys", "keys-past-int64", "infinite-time", "two-partitions"):
            assert not TumblingWindowAggregate(0.1, count)._count_run(STREAMS[name](0))
        for name in ("small-uint-keys", "float32-times"):
            seq = STREAMS[name](0)
            assert TumblingWindowAggregate(0.1, count)._count_run(seq)
            assert seq._events is not None  # the exact-type checks read events

    def test_an_ordered_stream_is_not_copied(self):
        seq = _generated(500, 1, 3)
        engine = StreamingEngine()
        seen = []

        class Spy(TumblingWindowAggregate):
            def process_many(self, events):
                seen.append(events)
                return super().process_many(events)

        engine.run(Topology("spy").then(Spy(0.1, count)), seq)
        assert seen[0] is seq
