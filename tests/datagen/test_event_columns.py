"""A generated stream's records are columns until read: the sequence
stands for the list of its events to everything that reads it.

Each test holds an :class:`EventColumns` to ``list(seq)``, the list of
events it stands for (and the list the generator returned before the
events were built lazily).
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro import api
from repro.core import prescription
from repro.datagen.base import DataSet, DataType
from repro.datagen.models import ModelCache, content_digest
from repro.datagen.stream import (
    EventColumns,
    EventKind,
    StreamEvent,
    StreamGenerator,
)


def _stream(volume: int = 500, partitions: int = 1, seed: int = 3) -> EventColumns:
    generator = StreamGenerator(update_fraction=0.2, delete_fraction=0.1, seed=seed)
    if partitions == 1:
        return generator.generate(volume).records
    return generator.generate_parallel(volume, partitions).records


def _as_list(dataset: DataSet) -> DataSet:
    return DataSet(
        dataset.name, dataset.data_type, list(dataset.records), dict(dataset.metadata)
    )


def _same_events(built, expected) -> None:
    assert built == expected
    for event, other in zip(built, expected):
        assert type(event.timestamp) is type(other.timestamp) is float
        assert type(event.key) is type(other.key) is int
        assert type(event.value) is type(other.value) is float
        assert event.kind is other.kind


class TestEventColumns:
    @pytest.mark.parametrize("partitions", [1, 2, 3])
    def test_a_generated_stream_is_columns_until_read(self, partitions):
        seq = _stream(partitions=partitions)
        assert type(seq) is EventColumns
        assert seq._events is None
        assert len(seq) == 500
        assert seq._events is None  # ``len`` reads no event
        events = list(seq)
        assert seq._events is not None
        assert list(seq) == events and seq.events() is seq.events()

    def test_the_parallel_columns_are_the_partitions_one_after_another(self):
        generator = StreamGenerator(update_fraction=0.3, seed=5)
        merged = generator.generate_parallel(1001, 3).records
        parts = [generator.generate_partition(1001, p, 3) for p in range(3)]
        _same_events(list(merged), [event for part in parts for event in part])

    def test_len_equality_and_hash_are_the_lists(self):
        seq = _stream()
        events = list(seq)
        assert len(seq) == len(events)
        assert seq == events and events == seq
        assert not (seq != events)
        assert seq == _stream() and seq != _stream(seed=4)
        assert seq != events[:-1] and events[:-1] != seq
        assert seq != tuple(events)
        assert _stream(volume=0) == []
        with pytest.raises(TypeError):
            hash(seq)
        assert repr(seq) == repr(events)

    def test_indexing_and_slicing_give_what_the_list_gives(self):
        seq = _stream()
        events = list(seq)
        for index in (0, 1, -1, 250):
            assert seq[index] is events[index]
        for cut in (slice(2, 9), slice(None, 5), slice(-3, None), slice(None, None, 7)):
            assert type(seq[cut]) is list
            assert seq[cut] == events[cut]
        with pytest.raises(IndexError):
            seq[500]
        assert seq.index(events[7]) == 7
        assert events[3] in seq
        assert list(reversed(seq)) == events[::-1]

    def test_head_and_batches(self):
        dataset = StreamGenerator(seed=1).generate(103)
        listed = _as_list(dataset)
        assert dataset.head(4) == listed.head(4) and type(dataset.head(4)) is list
        for chunk_size in (1, 10, 103, 500):
            batches = list(dataset.batches(chunk_size))
            expected = list(listed.batches(chunk_size))
            assert [(b.index, b.offset) for b in batches] == [
                (b.index, b.offset) for b in expected
            ]
            for batch, other in zip(batches, expected):
                assert type(batch.records) is list
                _same_events(batch.records, other.records)
                assert batch.estimated_bytes() == other.estimated_bytes()

    def test_pickling_and_copies_carry_the_columns(self):
        seq = _stream(partitions=2)
        payload = pickle.dumps(seq)
        assert seq._events is None  # pickled without building the events
        restored = pickle.loads(payload)
        assert type(restored) is EventColumns and restored._events is None
        _same_events(list(restored), list(seq))
        for copied in (copy.copy(seq), copy.deepcopy(seq)):
            assert type(copied) is EventColumns
            _same_events(list(copied), list(seq))
        dataset = StreamGenerator(seed=2).generate(50)
        again = pickle.loads(pickle.dumps(dataset))
        _same_events(list(again.records), list(dataset.records))

    def test_the_columns_are_read_only(self):
        seq = _stream()
        for column in (seq.timestamps, seq.keys, seq.values, seq.kinds):
            with pytest.raises(ValueError):
                column[0] = 0
        restored = pickle.loads(pickle.dumps(seq))
        with pytest.raises(ValueError):
            restored.keys[0] = 0

    def test_columns_of_other_lengths_or_shapes_are_refused(self):
        from repro.core.errors import GenerationError

        with pytest.raises(GenerationError):
            EventColumns(np.zeros(3), np.zeros(2, np.int64), np.zeros(3), np.zeros(3, np.int64))
        with pytest.raises(GenerationError):
            EventColumns(np.zeros((2, 2)), np.zeros(2, np.int64), np.zeros(2), np.zeros(2, np.int64))

    @pytest.mark.parametrize("volume, partitions", [(0, 1), (1, 1), (777, 1), (777, 3)])
    def test_the_size_is_the_walk_without_building_the_events(self, volume, partitions):
        generator = StreamGenerator(update_fraction=0.2, delete_fraction=0.2, seed=8)
        dataset = (
            generator.generate(volume)
            if partitions == 1
            else generator.generate_parallel(volume, partitions)
        )
        nbytes = dataset.estimated_bytes()
        assert dataset.records._events is None
        assert nbytes == _as_list(dataset).estimated_bytes()

    def test_the_size_of_columns_with_every_kind_and_odd_values(self):
        seq = EventColumns(
            np.array([-0.0, 1e-300, 1e300, 0.5]),
            np.array([-7, 0, 2**62, 12345], dtype=np.int64),
            np.array([np.inf, -1.5, np.nan, 2.0]),
            np.array([0, 1, 2, 2]),
        )
        assert {event.kind for event in seq} == set(EventKind)
        expected = DataSet("s", DataType.STREAM, list(seq)).estimated_bytes()
        assert DataSet("s", DataType.STREAM, seq).estimated_bytes() == expected
        assert expected == sum(len(str(event)) for event in seq)

    def test_the_content_address_is_the_lists(self):
        for seq in (_stream(), _stream(partitions=2), _stream(volume=0)):
            assert content_digest(seq) == content_digest(list(seq))
        dataset = StreamGenerator(seed=6).generate(40)
        assert content_digest(dataset) == content_digest(_as_list(dataset))

    def test_a_stream_fit_seed_keeps_its_content_address(self, monkeypatch):
        generated = StreamGenerator(update_fraction=0.4, seed=9).generate(300)
        addresses, fitted = [], []
        for loader in (lambda: generated, lambda: _as_list(generated)):
            monkeypatch.setitem(prescription.SEED_SOURCES, "stream-seed", loader)
            cache = ModelCache()
            addresses.append(cache.address(StreamGenerator(seed=1), "stream-seed"))
            fitted.append(
                cache.fitted(StreamGenerator(seed=1), "stream-seed").generate(50)
            )
        assert addresses[0] == addresses[1] is not None
        _same_events(list(fitted[0].records), list(fitted[1].records))

    def test_the_process_executor_hands_workers_the_same_stream(self):
        fields = dict(volume=3000, data_partitions=2)
        serial = api.run("realtime-windowed-aggregation", executor="serial", **fields)
        pooled = api.run(
            "realtime-windowed-aggregation", executor="process", max_workers=1, **fields
        )
        deterministic = ("throughput", "mean_latency", "latency_p95", "latency_p99")
        for report in (serial, pooled):
            assert report.results[0].ok
        assert {name: pooled.results[0].mean(name) for name in deterministic} == {
            name: serial.results[0].mean(name) for name in deterministic
        }
        assert pooled.results[0].extra == serial.results[0].extra
        assert (
            pooled.step("data-generation").detail["bytes"]
            == serial.step("data-generation").detail["bytes"]
        )

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_a_cold_window_run_builds_no_event(self, monkeypatch, partitions):
        """Generation, sizing, the queue and the counting door all read
        the columns."""

        def no_events(self):
            raise AssertionError("a window run built the stream's events")

        monkeypatch.setattr(EventColumns, "events", no_events)
        report = api.run(
            "realtime-windowed-aggregation", volume=4000, data_partitions=partitions
        )
        assert report.results[0].ok
        assert report.step("data-generation").detail["sizing"] == "measured"

    def test_a_fit_on_columns_equals_a_fit_on_the_list(self):
        dataset = StreamGenerator(update_fraction=0.3, delete_fraction=0.1, seed=4).generate(400)
        on_columns = StreamGenerator(seed=2).fit(dataset)
        on_list = StreamGenerator(seed=2).fit(_as_list(dataset))
        _same_events(
            list(on_columns.generate(100).records), list(on_list.generate(100).records)
        )

    def test_events_read_from_a_stream_are_stream_events(self):
        assert all(type(event) is StreamEvent for event in _stream(volume=20))
