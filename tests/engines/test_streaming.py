"""Tests for the streaming engine: windows, topologies, queueing model."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import EngineError
from repro.datagen.stream import (
    EventKind,
    PoissonArrivals,
    StreamEvent,
    StreamGenerator,
)
from repro.engines.streaming import (
    FilterOperator,
    SlidingWindowAggregate,
    StreamingEngine,
    Topology,
    TumblingWindowAggregate,
)


def make_events(timestamps, keys=None, values=None):
    keys = keys or [0] * len(timestamps)
    values = values or [1.0] * len(timestamps)
    return [
        StreamEvent(timestamp=t, key=k, value=v)
        for t, k, v in zip(timestamps, keys, values)
    ]


class TestTumblingWindows:
    def test_counts_per_window(self):
        events = make_events([0.1, 0.2, 1.1, 1.2, 1.3, 2.5])
        window = TumblingWindowAggregate(1.0, lambda acc, v: acc + 1)
        topology = Topology("count").then(window)
        report = StreamingEngine().run(topology, events)
        counts = {
            (result.window_start, result.key): result.value
            for result in report.results
        }
        assert counts[(0.0, 0)] == 2
        assert counts[(1.0, 0)] == 3
        assert counts[(2.0, 0)] == 1

    def test_per_key_aggregation(self):
        events = make_events([0.1, 0.2, 0.3], keys=[1, 2, 1])
        window = TumblingWindowAggregate(1.0, lambda acc, v: acc + 1)
        report = StreamingEngine().run(Topology("t").then(window), events)
        by_key = {result.key: result.value for result in report.results}
        assert by_key == {1: 2, 2: 1}

    def test_sum_aggregation(self):
        events = make_events([0.1, 0.2], values=[3.0, 4.0])
        window = TumblingWindowAggregate(1.0, lambda acc, v: acc + v)
        report = StreamingEngine().run(Topology("t").then(window), events)
        assert report.results[0].value == pytest.approx(7.0)

    def test_watermark_emits_closed_windows_early(self):
        window = TumblingWindowAggregate(1.0, lambda acc, v: acc + 1)
        window.process(StreamEvent(0.5, 0, 1.0))
        window.process(StreamEvent(2.5, 0, 1.0))  # closes window [0, 1)
        emitted = window.take_emitted()
        assert len(emitted) == 1
        assert emitted[0].window_start == 0.0

    def test_invalid_window(self):
        with pytest.raises(EngineError):
            TumblingWindowAggregate(0.0, lambda acc, v: acc)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_window_is_refused_at_construction(self, size):
        with pytest.raises(EngineError, match="must be positive and finite"):
            TumblingWindowAggregate(size, lambda acc, v: acc)

    def test_every_event_lands_in_exactly_one_window(self):
        events = make_events([i * 0.113 for i in range(100)])
        window = TumblingWindowAggregate(0.25, lambda acc, v: acc + 1)
        report = StreamingEngine().run(Topology("t").then(window), events)
        assert sum(result.value for result in report.results) == 100


class TestSlidingWindows:
    def test_event_lands_in_overlapping_windows(self):
        events = make_events([0.55])
        window = SlidingWindowAggregate(1.0, 0.5, lambda acc, v: acc + 1)
        report = StreamingEngine().run(Topology("t").then(window), events)
        starts = sorted(result.window_start for result in report.results)
        assert starts == [0.0, 0.5]

    def test_coverage_ratio(self):
        """With size = 2x slide, each event contributes to two windows."""
        events = make_events([0.1 + i * 0.2 for i in range(50)])
        window = SlidingWindowAggregate(0.4, 0.2, lambda acc, v: acc + 1)
        report = StreamingEngine().run(Topology("t").then(window), events)
        total = sum(result.value for result in report.results)
        # Events near t=0 fall in one window only; everything else in two.
        assert 90 <= total <= 100

    def test_validation(self):
        with pytest.raises(EngineError):
            SlidingWindowAggregate(1.0, 2.0, lambda acc, v: acc)
        with pytest.raises(EngineError):
            SlidingWindowAggregate(0.0, 0.0, lambda acc, v: acc)

    @pytest.mark.parametrize(
        "window, slide, name",
        [
            (math.nan, 0.5, "window_seconds"),
            (math.inf, 0.5, "window_seconds"),
            (1.0, math.nan, "slide_seconds"),
            (1.0, -math.inf, "slide_seconds"),
        ],
    )
    def test_a_non_finite_size_is_refused_at_construction(
        self, window, slide, name
    ):
        """A NaN slide used to pass and fail at the first event."""
        with pytest.raises(EngineError, match=f"{name} must be positive and finite"):
            SlidingWindowAggregate(window, slide, lambda acc, v: acc)


class TestSlidingOracle:
    """Every window the definition puts an event in: windows start at
    ``i * slide`` for ``0 <= i <= t // slide`` (the latest is the one
    ``t // slide`` names, as a tumbling window's is ``t // size``) and
    hold the events with ``t < start + size``."""

    @staticmethod
    def _oracle(events, size, slide):
        cells = {}
        for event in events:
            for index in range(int(event.timestamp // slide) + 1):
                start = index * slide
                if event.timestamp < start + size:
                    cell = (start, start + size, event.key)
                    cells[cell] = cells.get(cell, 0) + 1
        return cells

    @pytest.mark.parametrize(
        "size, slide",
        [(0.3, 0.1), (1.0, 0.3), (0.1, 0.04), (0.7, 0.2), (0.5, 0.15),
         (0.2, 0.05), (0.4, 0.4)],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_windows_are_the_brute_force_ones(self, size, slide, seed):
        generator = StreamGenerator(
            arrivals=PoissonArrivals(rate=100.0), key_space=3, seed=seed
        )
        events = list(generator.generate(300).records)
        # And events exactly on window starts.
        events += make_events([index * slide for index in range(12)], [1] * 12)
        window = SlidingWindowAggregate(size, slide, lambda acc, v: acc + 1)
        window.process_many(sorted(events, key=lambda event: event.timestamp))
        found = {
            (result.window_start, result.window_end, result.key): result.value
            for result in window.flush()
        }
        assert found == self._oracle(events, size, slide)

    def test_a_size_the_slide_does_not_divide(self):
        """``0.3 // 0.1 == 2.0``: the third window used to be skipped."""
        window = SlidingWindowAggregate(0.3, 0.1, lambda acc, v: acc + 1)
        window.process_many(make_events([0.25]))
        starts = [result.window_start for result in window.flush()]
        assert starts == [0.0, 0.1, 0.2]


class TestOperators:
    def test_filter_drops_events(self):
        events = [
            StreamEvent(0.1, 0, 1.0, EventKind.INSERT),
            StreamEvent(0.2, 0, 1.0, EventKind.UPDATE),
        ]
        topology = (
            Topology("updates")
            .then(FilterOperator(lambda e: e.kind is EventKind.UPDATE))
            .then(TumblingWindowAggregate(1.0, lambda acc, v: acc + 1))
        )
        report = StreamingEngine().run(topology, events)
        assert sum(result.value for result in report.results) == 1


class TestQueueingModel:
    def _uniform_events(self, rate: float, count: int):
        return make_events([i / rate for i in range(count)])

    def test_keeps_up_when_service_exceeds_arrival(self):
        engine = StreamingEngine(service_seconds_per_event=1e-4)  # 10k/s
        report = engine.run(
            Topology("t"), self._uniform_events(rate=1000.0, count=500)
        )
        assert report.keeps_up
        assert report.final_backlog_seconds < 0.01

    def test_overload_builds_backlog(self):
        engine = StreamingEngine(service_seconds_per_event=2e-3)  # 500/s
        report = engine.run(
            Topology("t"), self._uniform_events(rate=1000.0, count=500)
        )
        assert not report.keeps_up
        assert report.final_backlog_seconds > 0.1
        # Latency grows towards the end of the stream (queue builds).
        assert report.latencies[-1] > report.latencies[0]

    def test_latency_floor_is_service_time(self):
        engine = StreamingEngine(service_seconds_per_event=1e-3)
        report = engine.run(Topology("t"), self._uniform_events(10.0, 20))
        assert min(report.latencies) >= 1e-3 - 1e-12

    def test_out_of_order_events_are_sorted(self):
        events = [StreamEvent(0.3, 0, 1.0), StreamEvent(0.1, 0, 1.0)]
        window = TumblingWindowAggregate(1.0, lambda acc, v: acc + 1)
        report = StreamingEngine().run(Topology("t").then(window), events)
        assert sum(result.value for result in report.results) == 2

    def test_empty_stream(self):
        report = StreamingEngine().run(Topology("t"), [])
        assert report.events_in == 0
        assert report.results == []

    @pytest.mark.parametrize(
        ("timestamps", "keeps_up"),
        [([], True), ([0.4], True), ([0.4, 0.4], False), ([0.4] * 5, False)],
    )
    def test_a_stream_without_extent_has_no_arrival_rate(
        self, timestamps, keeps_up
    ):
        report = StreamingEngine().run(Topology("t"), make_events(timestamps))
        assert report.arrival_rate is None
        assert report.keeps_up is keeps_up

    def test_two_distinct_timestamps_give_a_rate(self):
        report = StreamingEngine().run(
            Topology("t"), make_events([0.4, 0.4, 0.5])
        )
        assert report.arrival_rate == pytest.approx(20.0)
        assert report.keeps_up

    def test_invalid_service_time(self):
        with pytest.raises(EngineError):
            StreamingEngine(service_seconds_per_event=0.0)

    def test_counters(self):
        engine = StreamingEngine()
        engine.run(Topology("t"), self._uniform_events(100.0, 10))
        assert engine.counters.records_read == 10
