"""Nothing a run reports, apart from time, moves unless a version says so.

``tests/fixtures/accounting_v2.json`` is ``_accounting_capture.py``'s
output under accounting version 2: job outputs, ordered counter
snapshots, cost counters, cluster reports, partition sizes, window
results and generated bytes of every ``exec-default`` and ``gen-bound``
spec at a tenth of its volume, plus the corner cases of the MapReduce
task loops.  The same capture must come out of this tree, on the
runner's serial and thread backends.  ``accounting_parent.json`` is the
version-1 capture, taken before the engines' per-record book-keeping
was hoisted out of their inner loops: leaf by leaf, the two fixtures
differ in the pair-metered bytes and in nothing else, once the specs
that generate ``lda-text`` are compared on generation version 1's data.  The specs
that add seeded floats report the same under Python 3.12's compensated
``sum``, emulated.  Beside it: the conservation laws the counters obey
and the guarantee that a failed task attempt leaves nothing behind.
"""

from __future__ import annotations

import builtins
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro._util import sequential_sum
from repro.datagen.stream import StreamEvent
from repro.engines.faults import FaultInjector, FaultSpec, InjectedFault
from repro.engines.mapreduce import JobConf, MapReduceEngine, MapReduceJob
from repro.engines.streaming.engine import (
    StreamingEngine,
    Topology,
    TumblingWindowAggregate,
)

from _accounting_capture import (
    EDGE_JOBS,
    SPECS,
    capture,
    _total,
    _words,
    capture_edge,
    ordered_counters,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
FIXTURE = json.loads((FIXTURES / "accounting_v2.json").read_text())
#: The same capture under accounting version 1; never regenerated.
PARENT_FIXTURE = json.loads((FIXTURES / "accounting_parent.json").read_text())
#: ``FIXTURE`` with generation version 1's data: the entries of the specs
#: that generate ``lda-text`` as they were before generation version 2
#: (``tests/datagen/test_generation_version.py``), so the accounting
#: versions are compared on the same records.
GENERATION_V1_FIXTURE = {
    **FIXTURE,
    **json.loads((FIXTURES / "generation_v1.json").read_text())["accounting"],
}


def test_the_fixture_covers_every_spec_and_corner():
    expected = set(SPECS) | {f"edge:{name}" for name in EDGE_JOBS}
    assert set(FIXTURE) == set(PARENT_FIXTURE) == expected


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("name", list(SPECS))
def test_a_spec_reports_what_it_reported_before(name, executor):
    overrides = {} if executor == "serial" else {
        "executor": "thread", "max_workers": 2,
    }
    assert capture(name, **overrides) == FIXTURE[name]


@pytest.mark.parametrize("name", EDGE_JOBS)
def test_a_corner_case_job_reports_what_it_reported_before(name):
    assert capture_edge(name) == FIXTURE[f"edge:{name}"]


# ---------------------------------------------------------------------------
# A float total is what Python 3.11's ``sum`` gave, on every Python
# ---------------------------------------------------------------------------

_LONG = range(-(2**63), 2**63)


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it (``builtin_sum_impl``,
    gh-100425): ints added exactly while the total fits a C ``long``,
    then floats with Neumaier's compensation (ints that fit a ``long``
    added without it), anything else by ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int and total in _LONG:
        for item in items:
            if type(item) in (int, bool) and item in _LONG and (
                total + item in _LONG
            ):
                total += item
                continue
            total = total + item
            break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                added = total + item
                if abs(total) >= abs(item):
                    compensation += (total - added) + item
                else:
                    compensation += (item - added) + total
                total = added
            elif isinstance(item, int) and item in _LONG:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                total = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        total = total + item
    return total


def _summands(seed: int) -> list[list]:
    """2 000 lists of floats over many magnitudes, some with ints, an
    infinity or a NaN, some empty."""
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(2000):
        size = int(rng.integers(0, 600))
        values = (rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size))
        values = values.tolist()
        if rng.random() < 0.2 and values:
            values[int(rng.integers(len(values)))] = int(rng.integers(-99, 99))
        if rng.random() < 0.05 and values:
            values[int(rng.integers(len(values)))] = float(
                rng.choice([math.inf, -math.inf, math.nan])
            )
        lists.append(values)
    return lists


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="sum of floats compensates from 3.12"
)
def test_sequential_sum_is_this_pythons_sum():
    for values in _summands(311):
        assert repr(sequential_sum(values)) == repr(sum(values))


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="sum of floats compensates from 3.12"
)
def test_the_emulated_sum_is_this_pythons_sum():
    for values in _summands(312):
        assert repr(compensated_sum(values)) == repr(sum(values))


def test_the_emulated_sum_compensates():
    assert compensated_sum([0.1] * 10) == 1.0
    assert sequential_sum([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([1, 2, 2**70, 0.5]) == float(2**70 + 3) + 0.5
    assert compensated_sum([[1], [2]], []) == [1, 2]


#: The specs whose workloads add seeded floats: their captures moved
#: under a compensated ``sum`` until every such total added in order.
SUMMING = ("kmeans-mr", "pagerank-mr", "cfs-text", "relational-3eng")


@pytest.mark.parametrize("name", SUMMING)
def test_a_spec_reports_the_same_under_a_compensated_sum(monkeypatch, name):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert capture(name) == FIXTURE[name]


#: Prescriptions (and the engine each runs on) whose reported metrics
#: are means or totals of seeded floats: latencies, arrival rates.
AVERAGING = (
    ("oltp-read-write", "nosql"),
    ("micro-cfs", "dfs"),
    ("database-aggregate-join", "nosql"),
    ("realtime-windowed-aggregation", "streaming"),
    ("oltp-hybrid", "nosql"),
)


def _reported(prescription: str, engine: str) -> dict[str, str]:
    """Every metric a run reports, as ``repr`` of its samples, but
    ``duration``: the wall clock differs from run to run."""
    (result,) = api.run(prescription, engines=[engine]).results
    return {
        metric: repr(stats.samples)
        for metric, stats in result.metrics.items()
        if metric != "duration"
    }


@pytest.mark.parametrize(("prescription", "engine"), AVERAGING)
def test_a_run_reports_the_same_metrics_under_a_compensated_sum(
    monkeypatch, prescription, engine
):
    plain = _reported(prescription, engine)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert _reported(prescription, engine) == plain


# ---------------------------------------------------------------------------
# Version 1 -> version 2: only pair-metered bytes moved
# ---------------------------------------------------------------------------


def _by_name(observed):
    """Counter snapshots and cluster phases keyed by name (their order
    kept as a leaf of its own), so a path says which leaf it is."""
    if isinstance(observed, list):
        return [_by_name(item) for item in observed]
    if not isinstance(observed, dict):
        return observed
    named = {key: _by_name(value) for key, value in observed.items()}
    if "counters" in observed:
        named["counters"] = {
            "order": [[g, [n for n, _ in vs]] for g, vs in observed["counters"]],
            **{group: dict(values) for group, values in observed["counters"]},
        }
    if "phases" in observed:
        named["phases"] = {
            "order": [phase["name"] for phase in observed["phases"]],
            **{phase["name"]: phase for phase in observed["phases"]},
        }
    return named


def _moved(parent, change, path=()):
    """Paths of the leaves at which two captures differ."""
    if isinstance(parent, dict) and isinstance(change, dict):
        if parent.keys() != change.keys():
            yield path
            return
        for key in parent:
            yield from _moved(parent[key], change[key], (*path, key))
    elif isinstance(parent, list) and isinstance(change, list):
        if len(parent) != len(change):
            yield path
            return
        for index, pair in enumerate(zip(parent, change)):
            yield from _moved(*pair, (*path, index))
    elif parent != change or type(parent) is not type(change):
        yield path


#: Where ``estimate_pair_bytes`` reaches, as path suffixes; the engine a
#: suffix is allowed under.  Shuffle seconds are shuffle bytes over the
#: cluster's bandwidth, and a MapReduce ``simulated_seconds`` sums them.
PAIR_METERED = {
    ("cost", "bytes_read"): {"mapreduce"},
    ("cost", "bytes_written"): {"mapreduce", "nosql"},
    ("cost", "network_bytes"): {"mapreduce"},
    ("engine_counters", "bytes_read"): {"mapreduce"},
    ("engine_counters", "bytes_written"): {"mapreduce", "nosql"},
    ("engine_counters", "network_bytes"): {"mapreduce"},
    ("counters", "shuffle", "bytes"): {"mapreduce"},
    ("cluster", "phases", "shuffle", "seconds"): {"mapreduce"},
    ("cluster", "phases", "shuffle", "task_costs", 0): {"mapreduce"},
    ("simulated_seconds",): {"mapreduce"},
}


def _pair_metered_leaf(path):
    """``(engine, suffix)`` when ``path`` is a leaf version 2 may move."""
    name, *rest = path
    if name.startswith("edge:"):
        engine = "mapreduce"
    elif rest[0] == "engines":
        engine, rest = rest[1], rest[3:]  # engines / <engine> / <call index>
    else:
        return None
    suffix = tuple(rest)
    return (engine, suffix) if engine in PAIR_METERED.get(suffix, ()) else None


def test_version_2_moved_the_pair_metered_bytes_and_nothing_else():
    moved = list(
        _moved(_by_name(PARENT_FIXTURE), _by_name(GENERATION_V1_FIXTURE))
    )
    leaves = [_pair_metered_leaf(path) for path in moved]
    assert [path for path, leaf in zip(moved, leaves) if leaf is None] == []
    # Not vacuous: every kind of leaf the definition reaches did move.
    assert set(leaves) == {
        (engine, suffix)
        for suffix, engines in PAIR_METERED.items() for engine in engines
    }
    # ... in every spec that ran a pair-metered engine, and in no other.
    assert {path[0] for path in moved} == {
        name for name, observed in GENERATION_V1_FIXTURE.items()
        if name.startswith("edge:")
        or {"mapreduce", "nosql"} & set(observed["engines"])
    } - {"edge:empty-input"}  # no pair at all


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


def _job_observations():
    for name, observed in FIXTURE.items():
        if name.startswith("edge:"):
            yield name, observed
            continue
        for call in observed["engines"].get("mapreduce", []):
            if call["call"] == "job":
                yield f"{name}/{call['job']}", call


def test_map_output_is_shuffle_input_is_reduce_input():
    checked = 0
    for name, job in _job_observations():
        counters = {group: dict(values) for group, values in job["counters"]}
        emitted = counters.get("combine", counters.get("map", {})).get(
            "output_records", 0
        )
        shuffle = counters["shuffle"]
        assert shuffle.get("records", 0) == emitted, name
        assert counters.get("reduce", {}).get("input_records", 0) == emitted, name
        assert shuffle["bytes"] == job["cost"]["network_bytes"], name
        assert job["cost"]["records_written"] == job["records"], name
        checked += 1
    assert checked > 40  # every iteration of the iterative jobs included


def test_every_event_is_folded_into_an_emitted_window():
    events = [
        StreamEvent(timestamp=0.013 * index, key=index % 4, value=1.0)
        for index in range(500)
    ]
    counting = TumblingWindowAggregate(
        0.25, reducer=lambda count, value: count + value
    )
    engine = StreamingEngine()
    report = engine.run(Topology("count").then(counting), events)
    assert report.events_in == len(events)
    assert sum(window.value for window in report.results) == len(events)
    assert engine.counters.records_read == len(events)
    assert engine.counters.compute_ops == len(events)
    assert engine.counters.records_written == len(report.results)


# ---------------------------------------------------------------------------
# Window expiry: when the watermark changes window, not on every event
# ---------------------------------------------------------------------------


def _emitted_one_event_at_a_time(timestamps, window=1.0):
    """``(results taken after each event, results flushed)``."""
    operator = TumblingWindowAggregate(
        window, reducer=lambda values, value: values + [value],
        initial=list,
    )
    taken = []
    for index, timestamp in enumerate(timestamps):
        operator.process(StreamEvent(timestamp=timestamp, key="k", value=index))
        taken.append(
            [(w.window_start, w.value) for w in operator.take_emitted()]
        )
    flushed = [(w.window_start, w.value) for w in operator.flush()]
    return taken, flushed


class TestWindowExpiry:
    def test_a_window_closes_with_the_first_event_past_its_end(self):
        taken, flushed = _emitted_one_event_at_a_time([0.1, 0.9, 1.0, 1.5, 2.2])
        assert taken == [[], [], [(0.0, [0, 1])], [], [(1.0, [2, 3])]]
        assert flushed == [(2.0, [4])]

    def test_a_gap_of_empty_windows_emits_only_the_open_ones(self):
        taken, flushed = _emitted_one_event_at_a_time([0.5, 7.5, 7.6])
        assert taken == [[], [(0.0, [0])], []]
        assert flushed == [(7.0, [1, 2])]

    def test_late_events_reopen_and_reclose_their_window(self):
        # Watermark 5.2; 3.1 and 3.2 are late.  Each late window closes at
        # the next event that advances the watermark, even one that stays
        # in window 5, so the two late events emit window 3 twice.
        taken, flushed = _emitted_one_event_at_a_time(
            [5.2, 3.1, 5.3, 3.2, 5.25, 5.4, 6.0]
        )
        assert taken == [
            [], [], [(3.0, [1])], [], [], [(3.0, [3])], [(5.0, [0, 2, 4, 5])],
        ]
        assert flushed == [(6.0, [6])]

    def test_late_windows_close_oldest_first_before_the_current_one(self):
        taken, flushed = _emitted_one_event_at_a_time([9.0, 4.0, 2.0, 10.5])
        assert taken[-1] == [(2.0, [2]), (4.0, [1]), (9.0, [0])]
        assert flushed == [(10.0, [3])]

    def test_an_operator_can_be_reused_after_flush(self):
        operator = TumblingWindowAggregate(1.0, reducer=lambda a, v: a + v)
        operator.process(StreamEvent(timestamp=3.5, key=1, value=1.0))
        assert [w.window_start for w in operator.flush()] == [3.0]
        # Behind the watermark: stays open until the watermark advances.
        operator.process(StreamEvent(timestamp=1.5, key=1, value=1.0))
        assert operator.take_emitted() == []
        operator.process(StreamEvent(timestamp=3.6, key=1, value=1.0))
        assert [w.window_start for w in operator.take_emitted()] == [1.0]
        assert [w.window_start for w in operator.flush()] == [3.0]


# ---------------------------------------------------------------------------
# A failed attempt leaves no counts behind
# ---------------------------------------------------------------------------


def _word_count(mapper) -> MapReduceJob:
    return MapReduceJob(
        "wordcount", mapper, _total, combiner=_total,
        conf=JobConf(num_map_tasks=3, num_reduce_tasks=2),
    )


LINES = [(index, f"a b{index % 3} c{index % 5} a") for index in range(30)]


@pytest.mark.parametrize("failing_record", [0, 17, 29])
def test_a_mapper_that_raises_leaks_nothing_into_the_retry(failing_record):
    injector = FaultInjector(FaultSpec(fail_calls=(failing_record,)))

    def flaky(key, line):
        injector.inject(f"record {key}")
        yield from _words(key, line)

    engine = MapReduceEngine()
    with pytest.raises(InjectedFault):
        engine.run(_word_count(flaky), LINES)
    assert injector.injected_failures == 1
    assert not any(engine.counters.snapshot().values())

    retried = engine.run(_word_count(flaky), LINES)
    clean_engine = MapReduceEngine()
    clean = clean_engine.run(_word_count(_words), LINES)
    assert retried.output == clean.output
    assert ordered_counters(retried.counters) == ordered_counters(clean.counters)
    assert retried.cost == clean.cost
    assert retried.cluster_report == clean.cluster_report
    assert engine.counters == clean_engine.counters


def test_a_reducer_that_raises_leaks_nothing_either():
    calls = {"count": 0}

    def flaky_total(key, values):
        calls["count"] += 1
        if calls["count"] == 4:
            raise RuntimeError("reducer down")
        yield key, sum(values)

    engine = MapReduceEngine()
    job = MapReduceJob("flaky-reduce", _words, flaky_total)
    with pytest.raises(RuntimeError):
        engine.run(job, LINES)
    assert not any(engine.counters.snapshot().values())
