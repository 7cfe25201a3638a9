"""The hoisted book-keeping in ``src/`` against the loops it replaced.

Partition assignments, byte counters and data-set sizes are reported
values (DESIGN.md, "Accounting contract"): making them cheaper must not
move one of them on any input, so each fast path is held to *equality*
with its oracle in ``_accounting_reference.py``.  The size of an engine
pair is the one that did move, once and under a version number
(``ACCOUNTING_VERSION = 2``): it is held to its definition and to the
properties the execution paths rely on.
"""

from __future__ import annotations

import dataclasses
import enum
import marshal
import pickle
import sys
import threading
from collections import OrderedDict, defaultdict, namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import _util
from repro._util import stable_hash, stable_hashes
from repro.datagen.base import _record_size
from repro.datagen.stream import EventKind, StreamEvent
from repro.engines import base as engines_base
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

    @pytest.mark.parametrize("multiplier", [31, 131])
    def test_a_batch_hashes_as_its_strings_do(self, multiplier):
        """One matrix product per batch equals the hash of each string:
        empty strings, NULs the padding could be taken for, non-BMP code
        points, lone surrogates, every length around both thresholds."""
        alphabet = "k\x00\U0001f600\ud800\u00e9z"
        ragged = [
            "".join(alphabet[(length + index) % len(alphabet)]
                    for index in range(length))
            for length in range(601)
        ]
        batches = [
            [],
            [""] * 20,
            ["\x00" * 5, "\x00k"] * 10,
            ragged[:513],  # as wide as the power table
            ragged,  # one string too long for it: hashed one by one
            ragged[:15],  # a short batch: hashed one by one
            [f"order:{index:010d}" for index in range(1024)],
        ]
        for batch in batches:
            assert stable_hashes(batch, multiplier) == [
                stable_hash(text, multiplier) for text in batch
            ]

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


wide_ints = st.one_of(
    st.integers(2**31, 2**70), st.integers(-(2**70), -(2**31) - 1),
    st.sampled_from([2**31 - 1, -(2**31), 2**31, 2**63, -(2**63) - 1]),
)
numpy_values = st.one_of(
    st.builds(np.float64, floats),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.lists(st.floats(width=32), max_size=5).map(
        lambda items: np.array(items, dtype=np.float32)
    ),
    st.lists(st.integers(-9, 9), max_size=6).map(np.array),
)
hashables = st.one_of(scalars, wide_ints)
#: Every shape a mapper may emit that marshal takes as it is.
values = st.recursive(
    st.one_of(hashables, numpy_values),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(hashables, inner, max_size=3),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=3),
    ),
    max_leaves=8,
)
pair_lists = st.lists(st.tuples(values, values), max_size=12)


class Colour(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Reading:
    sensor: str
    level: float


#: What marshal rejects: charged by ``str()``, in their own pair only.
UNMARSHALLABLE = [
    Colour.RED, Reading("s1", 0.5), Text("ab"), Count(7), Point(1, 2.0),
    EventKind.UPDATE, np.arange(10)[::2], range(3), defaultdict(int, {"a": 1}),
]
unmarshallable = st.sampled_from(UNMARSHALLABLE)


def wire_bytes(value) -> int:
    """The definition, spelled out: marshal format 2."""
    return len(marshal.dumps(value, 2))


def string_bytes(value) -> int:
    """What the fallback charges: ``str(value)`` as a marshal string."""
    return 5 + len(str(value).encode("utf-8", "surrogatepass"))


#: The same examples on every run: a failure is a diff, not a draw.
seeded = settings(derandomize=True, deadline=None)


class TestPairBytes:
    """Accounting version 2 (DESIGN.md, "Accounting contract").

    The chunked, partitioned, pooled and materialized paths report equal
    bytes because of these properties, not because they size the same
    lists: a counter may be summed over any cut of the pairs, in any
    process, whatever objects the values happen to be.
    """

    @pytest.mark.parametrize(
        "pair,expected",
        [
            ((7, 0.5), 5 + 5 + 9),
            ((2**31 - 1, -(2**31)), 5 + 5 + 5),
            ((2**31, True), 5 + (5 + 3 * 2) + 1),
            (("key", None), 5 + (5 + 3) + 1),
            (("cl\u00e9", "\ud800"), 5 + (5 + 4) + (5 + 3)),
            ((b"abc", ()), 5 + (5 + 3) + 5),
            ((3, ("mass", 0.25)), 5 + 5 + (5 + (5 + 4) + 9)),
            ((1, [0.1, 0.2, 0.3]), 5 + 5 + (5 + 3 * 9)),
            ((1, {"a": 2}), 5 + 5 + (1 + (5 + 1) + 5 + 1)),
            ((np.float64(1.5), np.zeros(3, dtype=np.float32)), 5 + 13 + 17),
            ((Colour.RED, 1), 5 + (5 + len("Colour.RED")) + 5),
        ],
        ids=lambda value: None if isinstance(value, int) else repr(value)[:24],
    )
    def test_what_a_pair_costs(self, pair, expected):
        assert estimate_pair_bytes([pair]) == expected
        assert estimate_pair_bytes([]) == 0

    @seeded
    @given(pair_lists, st.integers(0, 12))
    def test_pairs_are_sized_by_their_wire_forms(self, pairs, cut):
        total = estimate_pair_bytes(pairs)
        assert total == sum(wire_bytes(pair) for pair in pairs)
        # Additive over any cut: chunk_size, split_records and the slice
        # width of the sizer itself cannot change a counter.
        assert total == (
            estimate_pair_bytes(pairs[:cut]) + estimate_pair_bytes(pairs[cut:])
        )
        assert total == sum(estimate_pair_bytes([pair]) for pair in pairs)

    @seeded
    @given(pair_lists)
    def test_a_copy_costs_what_the_original_costs(self, pairs):
        # What the process executor hands a worker.
        assert estimate_pair_bytes(pickle.loads(pickle.dumps(pairs))) == (
            estimate_pair_bytes(pairs)
        )

    @seeded
    @given(st.lists(st.tuples(short_text, short_text), max_size=8))
    def test_interning_and_sharing_do_not_show(self, pairs):
        interned = [(sys.intern(key), sys.intern(value)) for key, value in pairs]
        fresh = [
            ("".join(list(key)), "".join(list(value))) for key, value in pairs
        ]
        assert estimate_pair_bytes(interned) == estimate_pair_bytes(fresh)
        assert estimate_pair_bytes(interned + interned) == (
            2 * estimate_pair_bytes(fresh)
        )

    @seeded
    @given(
        st.lists(
            st.tuples(hashables, values), max_size=6,
            unique_by=lambda item: item[0],
        )
    )
    def test_iteration_order_does_not_show(self, items):
        forward, backward = dict(items), dict(reversed(items))
        assert estimate_pair_bytes([(0, forward)]) == (
            estimate_pair_bytes([(0, backward)])
        )
        members = [key for key, _ in items]
        assert estimate_pair_bytes([(0, set(members))]) == (
            estimate_pair_bytes([(0, set(reversed(members)))])
        )
        assert wire_bytes(set(members)) == 5 + sum(
            wire_bytes(member) for member in set(members)
        )

    @seeded
    @given(pair_lists.filter(len), st.data(), unmarshallable, st.booleans())
    def test_a_rejected_value_is_charged_by_str_in_its_own_pair(
        self, pairs, data, rejected, as_key
    ):
        index = data.draw(st.integers(0, len(pairs) - 1))
        key, value = pairs[index]
        changed = list(pairs)
        changed[index] = (rejected, value) if as_key else (key, rejected)
        kept = value if as_key else key
        own = 5 + string_bytes(rejected) + wire_bytes(kept)
        assert estimate_pair_bytes([changed[index]]) == own
        assert estimate_pair_bytes(changed) - estimate_pair_bytes(pairs) == (
            own - wire_bytes(pairs[index])
        )

    @seeded
    @given(pair_lists, st.lists(unmarshallable, max_size=2))
    def test_any_iterable_of_pairs_costs_what_its_list_costs(self, pairs, odd):
        pairs = pairs + [(index, value) for index, value in enumerate(odd)]
        expected = estimate_pair_bytes(pairs)
        assert estimate_pair_bytes(iter(pairs)) == expected
        assert estimate_pair_bytes(pair for pair in pairs) == expected
        assert estimate_pair_bytes(tuple(pairs)) == expected
        assert estimate_pair_bytes([list(pair) for pair in pairs]) == expected
        fields = {f"field{index}": value for index, (_, value) in enumerate(pairs)}
        assert estimate_pair_bytes(fields.items()) == (
            estimate_pair_bytes(list(fields.items()))
        )

    @pytest.mark.parametrize("width", [1, 2, 7, 1024])
    def test_the_slice_width_changes_nothing(self, monkeypatch, width):
        pairs = [
            (index, ("mass", index / 7) if index % 3 else Point(index, "p"))
            for index in range(50)
        ]
        expected = sum(
            wire_bytes(pair) if pair[0] % 3
            else 5 + wire_bytes(pair[0]) + string_bytes(pair[1])
            for pair in pairs
        )
        monkeypatch.setattr(engines_base, "_SLICE_PAIRS", width)
        assert estimate_pair_bytes(pairs) == expected
        many = [(index, 0.5) for index in range(10_000)]
        assert estimate_pair_bytes(many) == 10_000 * (5 + 5 + 9)

    def test_a_str_subclass_is_sized_by_its_str(self):
        # Not exact builtins, so marshal rejects all four: each is charged
        # a string header plus what version 1 charged it (the string form).
        pairs = [(Text("ab"), Text("")), (Count(7), Point(1, 2.0))]
        assert estimate_pair_bytes(pairs) == sum(
            5 + 5 + 5 + reference_estimate_bytes(pair) for pair in pairs
        )
        assert estimate_pair_bytes(pairs[:1]) == 15 + len("<ab>") + len("<>")

    def test_dict_items_are_pairs(self):
        fields = {"field0": "x" * 100, "n": 12, 3: None}
        assert estimate_pair_bytes(fields.items()) == sum(
            wire_bytes((key, value)) for key, value in fields.items()
        ) == (5 + 11 + 105) + (5 + 6 + 5) + (5 + 5 + 1)


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
