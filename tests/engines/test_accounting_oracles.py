"""The hoisted book-keeping in ``src/`` against the loops it replaced.

Partition assignments, byte counters and data-set sizes are reported
values (DESIGN.md, "Accounting contract"): making them cheaper must not
move one of them on any input, so each fast path is held to *equality*
with its oracle in ``_accounting_reference.py``.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict, defaultdict, namedtuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import _util
from repro._util import stable_hash
from repro.datagen.base import _record_size
from repro.datagen.stream import EventKind, StreamEvent
from repro.engines.base import estimate_pair_bytes
from repro.engines.mapreduce.job import (
    JobConf,
    default_partitioner,
    shuffle_partitioner,
)
from repro.engines.nosql.store import NoSqlStore

from _accounting_reference import (
    reference_default_partitioner,
    reference_estimate_bytes,
    reference_partition_of,
    reference_record_size,
)

#: Every code point, lone surrogates included: ``ord()`` sees them all.
any_char = st.characters(exclude_categories=())
short_text = st.text(any_char, max_size=80)
#: Past the vector threshold (32), the block size (512) and 1 000 characters.
long_text = st.builds(
    lambda unit, repeats: unit * repeats,
    st.text(any_char, min_size=3, max_size=9),
    st.integers(4, 400),
)
text = st.one_of(short_text, long_text)

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, float("inf"), float("nan"), 2.5]),
)
scalars = st.one_of(
    text, st.integers(), floats, st.booleans(), st.none(),
    st.binary(max_size=20),
)
#: Hashable values of any shape a job may use as a key.
keys = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner) | st.tuples(inner),
    max_leaves=6,
)


class Text(str):
    """A ``str`` whose ``str()`` is not itself."""

    def __str__(self) -> str:
        return "<" + str.__str__(self) + ">"


class Count(int):
    def __repr__(self) -> str:
        return f"Count({int(self)})"


Point = namedtuple("Point", "x y")


class TestStableHash:
    @given(text, st.integers(1, 97))
    @example("", 1)
    @example("\U0001f600" * 40, 7)
    @example("\ud800" * 33, 5)
    @example("\x00" * 700, 3)
    @example("k" * 512, 8)
    @example("k" * 513, 8)
    def test_text_keys_partition_as_the_loops_did(self, key, partitions):
        assert stable_hash(key, 31) % partitions == (
            reference_default_partitioner(key, partitions)
        )
        assert stable_hash(key, 131) % partitions == (
            reference_partition_of(key, partitions)
        )

    @given(keys, st.integers(1, 97))
    def test_any_key_partitions_by_its_string_form(self, key, partitions):
        expected = reference_default_partitioner(key, partitions)
        assert default_partitioner(key, partitions) == expected
        assert shuffle_partitioner(JobConf())(key, partitions) == expected
        store = NoSqlStore(num_partitions=partitions)
        assert store._partition_of(key) == (
            reference_partition_of(key, partitions)
        )

    @given(st.lists(keys, max_size=30), st.integers(1, 11))
    def test_one_shuffle_memo_never_confuses_equal_keys(self, seen, partitions):
        # 1 == True == 1.0 as dict keys, but not as strings.
        partition = shuffle_partitioner(JobConf())
        for key in [1, True, 1.0, "1", *seen, *seen]:
            assert partition(key, partitions) == (
                reference_default_partitioner(key, partitions)
            )

    def test_a_user_partitioner_is_returned_as_it_is(self):
        def by_length(key, partitions):
            return len(key) % partitions

        assert shuffle_partitioner(JobConf(partitioner=by_length)) is by_length

    def test_the_memo_belongs_to_one_shuffle(self):
        conf = JobConf()
        assert shuffle_partitioner(conf) is not shuffle_partitioner(conf)

    def test_threads_building_the_power_table_agree(self):
        """More threads than cores race to build and use the table."""
        keys = [chr(65 + index % 50) * (40 + 37 * index) for index in range(24)]
        expected = [reference_default_partitioner(key, 1 << 31) for key in keys]
        _util._hash_powers.cache_clear()
        results: list[list[int]] = [[] for _ in range(8)]
        start = threading.Barrier(len(results))

        def hash_all(slot: int) -> None:
            start.wait(timeout=30)
            for _ in range(20):
                results[slot] = [stable_hash(key, 31) for key in keys]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hash_all, args=(slot,))
                for slot in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)
        with pytest.raises(ValueError):
            _util._hash_powers(31)[0] = 0  # shared, so read-only


values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(text, st.integers()), inner, max_size=3),
    ),
    max_leaves=8,
)


class TestPairBytes:
    @given(st.lists(st.tuples(values, values), max_size=12))
    def test_pairs_are_sized_by_their_string_forms(self, pairs):
        assert estimate_pair_bytes(pairs) == sum(
            reference_estimate_bytes(pair) for pair in pairs
        )

    def test_a_str_subclass_is_sized_by_its_str(self):
        pairs = [(Text("ab"), Text("")), (Count(7), Point(1, 2.0))]
        assert estimate_pair_bytes(pairs) == sum(
            reference_estimate_bytes(pair) for pair in pairs
        )
        assert estimate_pair_bytes(pairs[:1]) == len("<ab>") + len("<>")

    def test_dict_items_are_pairs(self):
        fields = {"field0": "x" * 100, "n": 12, 3: None}
        assert estimate_pair_bytes(fields.items()) == sum(
            len(str(k)) + len(str(v)) for k, v in fields.items()
        )


events = st.builds(
    StreamEvent,
    timestamp=floats,
    key=st.one_of(st.integers(), st.booleans(), text),
    value=st.one_of(floats, st.none(), st.lists(st.integers(), max_size=3)),
    kind=st.one_of(st.sampled_from(list(EventKind)), st.text(max_size=5)),
)
records = st.recursive(
    st.one_of(scalars, events),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner, inner),
        st.dictionaries(text, inner, max_size=3),
    ),
    max_leaves=10,
)


class LabelledEvent(StreamEvent):
    """A subclass: another name in its repr, so not the fast path's."""


class TestRecordSize:
    @given(records)
    def test_records_are_sized_as_the_isinstance_chain_did(self, record):
        assert _record_size(record) == reference_record_size(record)

    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize(
        "number", [-0.0, 1e-300, float("inf"), float("nan"), 12345.678, 3]
    )
    def test_an_event_is_as_long_as_its_repr(self, kind, number):
        event = StreamEvent(timestamp=number, key=7, value=number, kind=kind)
        assert _record_size(event) == len(repr(event))
        assert _record_size([event, event]) == 2 * len(repr(event))

    def test_numpy_scalars_in_an_event(self):
        event = StreamEvent(np.float64(0.5), np.int64(3), np.float32(1.5))
        assert _record_size(event) == len(repr(event))

    @pytest.mark.parametrize(
        "record",
        [
            Text("abc"),
            Count(5),
            True,
            Point(1, "xy"),
            LabelledEvent(0.5, 1, 2.0),
            defaultdict(int, {"a": 1}),
            OrderedDict([("k", (1, 2.0, "v"))]),
            b"bytes",
            bytearray(b"abc"),
            None,
            {1, 2},
            np.zeros((3, 4), dtype=np.float32),
            [np.arange(5), ("x", np.int64(4))],
            np.float64(1.0),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_everything_but_exact_builtins_keeps_its_size(self, record):
        assert _record_size(record) == reference_record_size(record)
