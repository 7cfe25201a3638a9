"""Span arithmetic and the sample statistics of the report."""

import threading

import pytest

import spans
from spans import Recorder, Span, self_time, totals_by_name


def _span(id, name, start, end, parent=None):
    return Span(id, name, start, parent, "cell", end)


def test_self_time_subtracts_nested_children_once():
    parent = _span(0, "run_many", 0.0, 10.0)
    child = _span(1, "workload", 2.0, 6.0, parent=0)
    grandchild = _span(2, "engine", 3.0, 5.0, parent=1)
    assert self_time(parent, [child]) == pytest.approx(6.0)
    assert self_time(child, [grandchild]) == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_as_their_union():
    # Two pool threads busy 1..5 and 3..8 cover 7 s of the parent, not 9.
    parent = _span(0, "run_many", 0.0, 10.0)
    children = [_span(1, "w", 1.0, 5.0, 0), _span(2, "w", 3.0, 8.0, 0)]
    assert self_time(parent, children) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent_interval():
    parent = _span(0, "p", 2.0, 6.0)
    straddling = [_span(1, "c", 0.0, 3.0, 0), _span(2, "c", 5.0, 9.0, 0)]
    assert self_time(parent, straddling) == pytest.approx(2.0)
    assert self_time(parent, [_span(3, "c", 7.0, 9.0, 0)]) == pytest.approx(4.0)


def test_totals_count_nested_same_name_calls_but_time_them_once():
    recorded = [
        _span(0, "dfs.io", 0.0, 4.0),            # append ...
        _span(1, "dfs.io", 1.0, 3.0, parent=0),  # ... calls write_file
        _span(2, "other", 1.5, 2.0, parent=1),
        _span(3, "dfs.io", 5.0, 6.0),
    ]
    totals = totals_by_name(recorded)
    assert totals["dfs.io"].count == 3
    assert totals["dfs.io"].busy == pytest.approx(5.0)
    assert totals["dfs.io"].self == pytest.approx(3.0)
    assert totals["other"].busy == pytest.approx(0.5)


def test_recorder_nests_per_thread_and_adopts_pool_threads():
    recorder = Recorder()
    recorder.begin_cell("cell-a")
    outer = recorder.start("run_many")
    inner = recorder.start("workload")
    recorder.finish(inner)
    adopted = []

    def pool_worker():
        span = recorder.start("workload")
        recorder.finish(span)
        adopted.append(span)

    worker = threading.Thread(target=pool_worker)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.finish(outer)
    after = recorder.start("orphan")
    recorder.finish(after)
    assert inner.parent == outer.id
    assert adopted[0].parent == outer.id
    assert after.parent is None and outer.parent is None
    assert {span.cell for span in recorder.spans} == {"cell-a"}
    assert all(span.end >= span.start for span in recorder.spans)


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert spans.percentile(values, 0) == 1.0
    assert spans.percentile(values, 50) == pytest.approx(2.5)
    assert spans.percentile(values, 100) == 4.0
    assert spans.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_quartiles_and_spread_match_the_gate_definition():
    values = [float(v) for v in range(1, 11)]
    first, median, third = spans.quartiles(values)
    assert (first, median, third) == (2.75, 5.5, 8.25)
    assert spans.spread(values) == pytest.approx(1.0)
    assert spans.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_supported_tail_needs_ten_samples_beyond():
    assert spans.supported_tail(240) == 95.0   # 12 beyond p95, 2.4 beyond p99
    assert spans.supported_tail(199) == 90.0
    assert spans.supported_tail(1000) == 99.0
    assert spans.supported_tail(20) == 50.0
    assert spans.supported_tail(19) is None
