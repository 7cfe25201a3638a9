"""Tests for OLTP (YCSB), streaming, and hybrid workloads."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.errors import ExecutionError
from repro.datagen.kv import KeyValueGenerator
from repro.datagen.stream import PoissonArrivals, StreamGenerator
from repro.datagen.weblog import WebLogGenerator
from repro.engines.dbms import DbmsEngine
from repro.engines.nosql import LatencyModel, NoSqlStore
from repro.engines.streaming import StreamingEngine
from repro.workloads import (
    ArrivalPattern,
    HybridWorkload,
    RollingUpdateRateWorkload,
    WindowedAggregationWorkload,
    YcsbWorkload,
    profile_arrival_pattern,
)
from repro.workloads import oltp
from repro.workloads.oltp import (
    STANDARD_WORKLOADS,
    OpType,
    RequestDistribution,
    YcsbWorkloadSpec,
)


@pytest.fixture()
def kv_data():
    return KeyValueGenerator(field_count=3, field_length=10, seed=1).generate(80)


class TestYcsbWorkload:
    def test_runs_on_nosql(self, kv_data):
        result = YcsbWorkload().run(
            NoSqlStore(seed=2), kv_data, workload_mix="A", operation_count=200
        )
        assert result.records_out == 200
        assert len(result.latencies) == 200
        assert result.simulated_seconds > 0

    def test_runs_on_dbms(self, kv_data):
        result = YcsbWorkload().run(
            DbmsEngine(), kv_data, workload_mix="A", operation_count=100
        )
        assert result.records_out == 100
        assert len(result.latencies) == 100

    def test_all_standard_mixes_run(self, kv_data):
        for mix in ("A", "B", "C", "D", "E", "F"):
            result = YcsbWorkload().run(
                NoSqlStore(seed=3), kv_data,
                workload_mix=mix, operation_count=60,
            )
            assert result.extra["mix"] == mix

    def test_unknown_mix_rejected(self, kv_data):
        with pytest.raises(ExecutionError):
            YcsbWorkload().run(
                NoSqlStore(seed=4), kv_data, workload_mix="Z"
            )

    def test_deterministic_per_seed(self, kv_data):
        results = [
            YcsbWorkload().run(
                NoSqlStore(seed=5), kv_data,
                workload_mix="B", operation_count=100, seed=6,
            ).latencies
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_supports_both_engines(self):
        assert YcsbWorkload().supported_engines() == ("dbms", "nosql")

    def test_zipfian_skews_requests(self, kv_data):
        store = NoSqlStore(
            num_partitions=4, latency=LatencyModel(jitter_sigma=0.0), seed=8
        )
        counts: dict[str, int] = {}
        original_read = store.read

        def counting_read(key, field_names=None):
            counts[key] = counts.get(key, 0) + 1
            return original_read(key, field_names)

        store.read = counting_read  # type: ignore[method-assign]
        YcsbWorkload().run(
            store, kv_data, workload_mix="C", operation_count=500, seed=9
        )
        assert sum(counts.values()) == 500
        # Far above the uniform share of the 80 loaded keys.
        assert max(counts.values()) > 500 / 80 * 5


#: A mix with a zero-weight operation between two drawn ones, uniform keys.
_GAPPED = YcsbWorkloadSpec(
    "gapped", read_proportion=0.3, update_proportion=0.0,
    insert_proportion=0.2, scan_proportion=0.25,
    read_modify_write_proportion=0.25,
    request_distribution=RequestDistribution.UNIFORM, max_scan_length=7,
)


class TestMixSampler:
    """``next_op`` draws what ``rng.choice`` over the mix drew, from the
    same place in the stream, so every later key and scan length is the
    same too."""

    @pytest.mark.parametrize(
        "spec",
        [STANDARD_WORKLOADS[name]() for name in "ABCDEF"] + [_GAPPED],
        ids=lambda spec: spec.name,
    )
    def test_equals_a_choice_oracle(self, spec):
        sampler = oltp._MixSampler(spec, 1000, seed=21)
        oracle = oltp._MixSampler(spec, 1000, seed=21)
        mix = spec.operation_mix()
        weights = np.array([weight for _, weight in mix])
        probabilities = weights / weights.sum()
        drawn = set()
        for _ in range(10_000):
            op_type = sampler.next_op()
            index = int(oracle.rng.choice(len(mix), p=probabilities))
            assert op_type is mix[index][0]
            assert sampler.next_key_index() == oracle.next_key_index()
            if op_type is OpType.SCAN:
                assert sampler.scan_length() == oracle.scan_length()
            drawn.add(op_type)
        assert drawn == {op for op, weight in mix if weight > 0}
        assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state


class TestYcsbDbmsLatency:
    """A DBMS operation's latency times the query or update only: the
    workload draws op, key and scan length before the clock starts, in
    the order the store's run draws them."""

    @staticmethod
    def _recording(draws, events):
        class Recording(oltp._MixSampler):
            def next_op(self):
                op_type = super().next_op()
                draws.append([op_type])
                events.append("draw")
                return op_type

            def next_key_index(self):
                index = super().next_key_index()
                draws[-1].append(index)
                events.append("draw")
                return index

            def scan_length(self):
                length = super().scan_length()
                draws[-1].append(length)
                events.append("draw")
                return length

        return Recording

    @pytest.mark.parametrize("mix", ["A", "D", "E", "F", "gapped"])
    def test_draws_precede_the_clock_in_the_stores_order(
        self, kv_data, monkeypatch, mix
    ):
        workload_mix = _GAPPED if mix == "gapped" else mix
        sequences = {}
        for engine in (DbmsEngine(), NoSqlStore(seed=2)):
            draws, events = [], []
            monkeypatch.setattr(
                oltp, "_MixSampler", self._recording(draws, events)
            )
            monkeypatch.setattr(oltp, "time", SimpleNamespace(
                perf_counter=lambda: events.append("clock") or 0.0
            ))
            YcsbWorkload().run(
                engine, kv_data, workload_mix=workload_mix,
                operation_count=300, seed=8,
            )
            sequences[engine.name] = [tuple(draw) for draw in draws]
            if engine.name == "dbms":
                clocks = [at for at, event in enumerate(events) if event == "clock"]
                assert len(clocks) == 2 * 300
                # Every start is followed by its stop: nothing drawn between.
                assert clocks[1::2] == [at + 1 for at in clocks[0::2]]
        assert sequences["dbms"] == sequences["nosql"]
        replay = oltp._MixSampler(oltp._spec_for(workload_mix), len(kv_data.records), 8)
        expected = []
        for _ in range(300):
            draw = [replay.next_op()]
            if draw[0] is not OpType.INSERT:
                draw.append(replay.next_key_index())
            if draw[0] is OpType.SCAN:
                draw.append(replay.scan_length())
            expected.append(tuple(draw))
        assert sequences["dbms"] == expected


class TestWindowedAggregation:
    def test_window_counts_cover_all_events(self):
        stream = StreamGenerator(
            arrivals=PoissonArrivals(1000.0), key_space=4, seed=7
        ).generate(500)
        result = WindowedAggregationWorkload().run(
            StreamingEngine(), stream, window_seconds=0.1
        )
        assert sum(window.value for window in result.output) == 500

    def test_keeps_up_flag_tracks_rates(self):
        stream = StreamGenerator(
            arrivals=PoissonArrivals(100_000.0), seed=8
        ).generate(400)
        slow_engine = StreamingEngine(service_seconds_per_event=1e-3)
        result = WindowedAggregationWorkload().run(slow_engine, stream)
        assert not result.extra["keeps_up"]
        fast_engine = StreamingEngine(service_seconds_per_event=1e-6)
        result2 = WindowedAggregationWorkload().run(fast_engine, stream)
        assert result2.extra["keeps_up"]

    def test_latencies_recorded_per_event(self):
        stream = StreamGenerator(seed=9).generate(100)
        result = WindowedAggregationWorkload().run(StreamingEngine(), stream)
        assert len(result.latencies) == 100


class TestRollingUpdateRate:
    def test_counts_only_updates(self):
        stream = StreamGenerator(
            arrivals=PoissonArrivals(1000.0), update_fraction=0.5, seed=10
        ).generate(600)
        result = RollingUpdateRateWorkload().run(
            StreamingEngine(), stream,
            window_seconds=0.2, slide_seconds=0.1,
        )
        from repro.datagen.stream import EventKind

        updates = sum(
            1 for event in stream.records if event.kind is EventKind.UPDATE
        )
        # Size = 2x slide → each update lands in ≤2 windows.
        total = sum(window.value for window in result.output)
        assert updates <= total <= 2 * updates


class TestArrivalProfiling:
    def test_profile_from_weblog(self, retail_tables):
        weblog = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=11
        ).generate(300)
        pattern = profile_arrival_pattern(weblog)
        assert pattern.total_rate > 0
        assert "read" in pattern.rates  # GETs dominate the embedded mix
        assert len(pattern.sequence) == 300

    def test_mix_probabilities_sum_to_one(self, retail_tables):
        weblog = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=12
        ).generate(100)
        pattern = profile_arrival_pattern(weblog)
        assert sum(pattern.mix_probabilities().values()) == pytest.approx(1.0)

    def test_requires_weblog_type(self, text_corpus):
        with pytest.raises(ExecutionError):
            profile_arrival_pattern(text_corpus)

    def test_zero_rate_pattern_rejected(self):
        with pytest.raises(ExecutionError):
            ArrivalPattern(rates={}).mix_probabilities()


class TestHybridWorkload:
    def test_runs_with_default_pattern(self, kv_data):
        result = HybridWorkload().run(
            NoSqlStore(seed=13), kv_data, operation_count=200
        )
        counts = result.extra["per_class_counts"]
        assert counts["read"] > counts["insert"]
        assert counts["scan"] > 0  # analytics interleaved

    def test_profiled_pattern_drives_mix(self, kv_data, retail_tables):
        weblog = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=14
        ).generate(300)
        pattern = profile_arrival_pattern(weblog)
        result = HybridWorkload().run(
            NoSqlStore(seed=15), kv_data,
            arrival_pattern=pattern, operation_count=300,
        )
        counts = result.extra["per_class_counts"]
        # GET-dominated logs → read-dominated store traffic.
        assert counts["read"] == max(
            v for k, v in counts.items() if k != "scan"
        )

    def test_scans_interfere_with_serving_latency(self, kv_data):
        """The E12 rationale: hybrid scans make serving ops slower than
        an isolated serving-only run."""
        serving_only = HybridWorkload().run(
            NoSqlStore(seed=16), kv_data,
            operation_count=300, analytics_every=0,
        )
        hybrid = HybridWorkload().run(
            NoSqlStore(seed=16), kv_data,
            operation_count=300, analytics_every=20,
            analytics_scan_length=500,
        )
        assert hybrid.simulated_seconds > serving_only.simulated_seconds

    def test_empty_dataset_rejected(self):
        from repro.datagen.base import DataType
        from tests._datasets import as_dataset

        empty = as_dataset([], DataType.KEY_VALUE)
        with pytest.raises(ExecutionError):
            HybridWorkload().run(NoSqlStore(seed=17), empty)

    def test_sequence_replay_follows_profiled_order(self, kv_data, retail_tables):
        """§5.2: arrival patterns include the operation *sequence*."""
        weblog = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=18
        ).generate(200)
        pattern = profile_arrival_pattern(weblog)
        result = HybridWorkload().run(
            NoSqlStore(seed=19), kv_data,
            arrival_pattern=pattern, operation_count=150,
            analytics_every=0, replay_sequence=True,
        )
        counts = result.extra["per_class_counts"]
        # The executed counts must match the profiled sequence's first
        # 150 operations exactly (deterministic replay, no sampling).
        from collections import Counter

        expected = Counter(pattern.sequence[:150])
        for name, count in expected.items():
            assert counts[name] == count

    def test_sequence_replay_requires_a_sequence(self, kv_data):
        pattern = ArrivalPattern(rates={"read": 1.0})
        with pytest.raises(ExecutionError):
            HybridWorkload().run(
                NoSqlStore(seed=20), kv_data,
                arrival_pattern=pattern, replay_sequence=True,
            )
