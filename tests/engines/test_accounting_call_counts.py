"""Call-count guards: the meter's work grows with tasks, not with records.

Not timing tests.  Each wraps one book-keeping callable in a counting
shim and pins *how often* a run calls it, which is what keeps the
hoisting (DESIGN.md, "Accounting contract": accumulate locally, publish
once per task / window / data set) from eroding one convenience call at
a time.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.datagen import base as datagen_base
from repro.datagen.stream import EventColumns, StreamEvent
from repro.engines.dbms import DbmsEngine, PlannerConfig, col, lit
from repro.engines.dbms.expressions import Comparison
from repro.engines.mapreduce.counters import CounterGroup
from repro.engines.streaming import engine as streaming_engine
from repro.engines.streaming.engine import (
    StreamingEngine,
    Topology,
    TumblingWindowAggregate,
)


def _count_calls(monkeypatch, owner, name) -> list[tuple]:
    """Replace ``owner.name`` by a shim that logs its arguments."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def shim(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, shim)
    return calls


def test_counter_increments_do_not_grow_with_the_input(monkeypatch):
    increments = _count_calls(monkeypatch, CounterGroup, "increment")
    per_volume = {}
    for volume in (200, 2000):
        increments.clear()
        report = api.run("micro-wordcount", volume=volume)
        assert report.results[0].ok
        per_volume[volume] = len(increments)
    assert per_volume[200] == per_volume[2000]
    # 4 map tasks x (2 map + 2 combine) + shuffle 2 + 2 reduce tasks x 3.
    assert per_volume[2000] == 24


def test_one_run_sizes_each_record_of_its_data_set_once(monkeypatch):
    sized = _count_calls(monkeypatch, datagen_base, "_record_size")
    report = api.run("micro-wordcount", volume=300, repeats=2)
    generation = next(
        step.detail for step in report.steps if step.step == "data-generation"
    )
    assert generation["records"] == 300
    assert len(sized) == 300  # text records are flat: one call each
    assert generation["bytes"] == sum(len(args[0]) for args in sized)


@pytest.mark.parametrize(
    "prescription",
    ["micro-wordcount", "database-aggregate-join", "realtime-windowed-aggregation"],
)
def test_a_second_run_of_one_spec_sizes_nothing(monkeypatch, prescription):
    """One pass per *first* run: the size is a product of the content
    address, and the process has seen that address.  A record is sized
    by ``_record_size`` or, in a stream's columns, by their own sizer,
    which sizes all of them in one call."""
    sized = _count_calls(monkeypatch, datagen_base, "_record_size")
    sized_columns: list[int] = []
    column_sizer = datagen_base._EXACT_SIZERS[EventColumns]

    def count_columns(records):
        sized_columns.append(len(records))
        return column_sizer(records)

    monkeypatch.setitem(datagen_base._EXACT_SIZERS, EventColumns, count_columns)
    first = api.run(prescription, volume=200)
    assert len(sized) + sum(sized_columns) == first.step(
        "data-generation"
    ).detail["records"]
    sized.clear()
    sized_columns.clear()
    second = api.run(prescription, volume=200)
    assert len(sized) == sum(sized_columns) == 0
    details = [
        report.step("data-generation").detail for report in (first, second)
    ]
    assert [detail["sizing"] for detail in details] == ["measured", "known"]
    assert details[0]["bytes"] == details[1]["bytes"] > 0


@pytest.fixture
def keyed_rows():
    return [(f"user{index:04d}", index % 7) for index in range(400)]


def _ycsb_table(rows, use_indexes: bool) -> DbmsEngine:
    engine = DbmsEngine(PlannerConfig(use_indexes=use_indexes))
    engine.create_table("usertable", ("key", "field"))
    engine.insert("usertable", rows)
    engine.create_index("usertable", "key")
    return engine


def test_an_indexed_update_evaluates_the_predicate_per_match(
    monkeypatch, keyed_rows
):
    indexed = _ycsb_table(keyed_rows, use_indexes=True)
    scanning = _ycsb_table(keyed_rows, use_indexes=False)
    evaluations = _count_calls(monkeypatch, Comparison, "evaluate")
    predicate = col("key") == lit("user0123")

    assert indexed.update("usertable", predicate, {"field": -1}) == 1
    assert len(evaluations) == 1  # O(matches)
    evaluations.clear()
    assert indexed.delete("usertable", predicate) == 1
    assert len(evaluations) == 1

    evaluations.clear()
    assert scanning.update("usertable", predicate, {"field": -1}) == 1
    assert len(evaluations) == len(keyed_rows)  # O(rows): the ablation path
    evaluations.clear()
    assert scanning.delete("usertable", predicate) == 1
    assert len(evaluations) == len(keyed_rows)


def test_the_window_table_is_sorted_per_window_not_per_event(monkeypatch):
    operator = TumblingWindowAggregate(1.0, reducer=lambda a, v: a + v)
    table_sorts = []

    def counting_sorted(iterable, **kwargs):
        if iterable is operator._windows:
            table_sorts.append(len(iterable))
        return sorted(iterable, **kwargs)

    monkeypatch.setattr(
        streaming_engine, "sorted", counting_sorted, raising=False
    )
    events = [
        StreamEvent(timestamp=index * 0.01, key=index % 3, value=1.0)
        for index in range(1000)
    ]
    report = StreamingEngine().run(Topology("t").then(operator), events)
    assert {w.window_start for w in report.results} == set(map(float, range(10)))
    # Nine window changes and the final flush (an eleventh would be fine).
    assert len(table_sorts) == 10
    assert max(table_sorts) <= 2
