"""Tests for the structured tracing subsystem."""

from __future__ import annotations

import json
import threading

import pytest

from repro.observability import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    summarize_spans,
    trace_span,
)


class TestSpan:
    def test_set_and_incr_chain(self):
        span = Span("s")
        assert span.set(a=1).incr("n").incr("n", 2) is span
        assert span.attrs == {"a": 1}
        assert span.counters == {"n": 3}

    def test_walk_is_depth_first(self):
        root = Span("a")
        left = Span("b")
        left.children.append(Span("c"))
        root.children.append(left)
        root.children.append(Span("d"))
        assert [span.name for span in root.walk()] == ["a", "b", "c", "d"]

    def test_dict_roundtrip(self):
        root = Span("a", attrs={"k": "v"}, counters={"n": 2}, duration_seconds=0.5)
        root.children.append(Span("b", duration_seconds=0.25))
        restored = Span.from_dict(root.to_dict())
        assert restored.name == "a"
        assert restored.attrs == {"k": "v"}
        assert restored.counters == {"n": 2}
        assert restored.duration_seconds == 0.5
        assert [child.name for child in restored.children] == ["b"]

    def test_to_dict_omits_empty_fields(self):
        payload = Span("bare", duration_seconds=0.1).to_dict()
        assert set(payload) == {"name", "duration_seconds"}


class TestTracerRecording:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                pass
        roots = tracer.roots()
        assert [root.name for root in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == [
            "inner-1", "inner-2",
        ]
        assert roots[0].duration_seconds >= sum(
            child.duration_seconds for child in roots[0].children
        )

    def test_span_attrs_and_annotations(self):
        tracer = Tracer()
        with tracer.span("s", engine="dbms") as span:
            span.set(volume=10)
            tracer.count("records", 5)
        (root,) = tracer.roots()
        assert root.attrs == {"engine": "dbms", "volume": 10}
        assert root.counters == {"records": 5}

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (root,) = tracer.roots()
        assert root.attrs["error"] == "ValueError"
        assert root.duration_seconds >= 0

    def test_current_tracks_the_innermost_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_clear_drops_roots(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.roots() == []

    def test_to_jsonl_one_object_per_root(self):
        tracer = Tracer()
        for name in ("first", "second"):
            with tracer.span(name):
                pass
        lines = tracer.to_jsonl().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            "first", "second",
        ]

    def test_threads_record_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def record(index: int) -> None:
            barrier.wait(timeout=5)
            with tracer.span("worker", index=index):
                with tracer.span("step"):
                    pass

        threads = [
            threading.Thread(target=record, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        roots = tracer.roots()
        assert len(roots) == 4
        assert {root.name for root in roots} == {"worker"}
        # No cross-thread interleaving: every worker kept its own child.
        for root in roots:
            assert [child.name for child in root.children] == ["step"]


class TestGraft:
    def _tree(self, name: str) -> Span:
        return Span.from_dict({"name": name, "duration_seconds": 0.1})

    def test_graft_under_the_open_span(self):
        tracer = Tracer()
        with tracer.span("parent"):
            tracer.graft([self._tree("worker-0"), self._tree("worker-1")])
        (root,) = tracer.roots()
        assert [child.name for child in root.children] == [
            "worker-0", "worker-1",
        ]

    def test_graft_without_open_span_files_roots(self):
        tracer = Tracer()
        tracer.graft([self._tree("orphan")])
        assert [root.name for root in tracer.roots()] == ["orphan"]

    def test_disabled_tracer_ignores_grafts(self):
        tracer = Tracer(enabled=False)
        tracer.graft([self._tree("ignored")])
        assert tracer.roots() == []


class TestDisabledTracer:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("invisible") as span:
            span.set(a=1).incr("n")
        assert NULL_TRACER.roots() == []
        assert NULL_TRACER.current() is None

    def test_null_span_is_falsy(self):
        assert not NULL_SPAN
        with NULL_TRACER.span("x") as span:
            assert span is NULL_SPAN

    def test_disabled_span_context_is_shared(self):
        # Zero allocation when off: the same context object every time.
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_count_is_a_noop(self):
        NULL_TRACER.count("n")
        assert NULL_TRACER.roots() == []


class TestActivation:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_activate_installs_and_restores(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with trace_span("via-helper"):
                pass
        assert current_tracer() is NULL_TRACER
        assert [root.name for root in tracer.roots()] == ["via-helper"]

    def test_nested_activation_restores_the_outer_tracer(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_activation_is_thread_local(self):
        tracer = Tracer()
        seen: list[Tracer] = []
        with tracer.activate():
            thread = threading.Thread(
                target=lambda: seen.append(current_tracer())
            )
            thread.start()
            thread.join(timeout=5)
        assert seen == [NULL_TRACER]

    def test_trace_span_without_activation_is_free(self):
        with trace_span("nowhere") as span:
            assert not span


class TestSummarize:
    def test_aggregates_by_name_across_the_forest(self):
        first = Span("run", duration_seconds=1.0)
        first.children.append(Span("repeat", duration_seconds=0.4))
        first.children.append(Span("repeat", duration_seconds=0.5))
        second = Span("repeat", duration_seconds=0.1)
        summary = summarize_spans([first, second])
        assert summary["run"] == {"count": 1, "total_seconds": 1.0}
        assert summary["repeat"]["count"] == 3
        assert summary["repeat"]["total_seconds"] == pytest.approx(1.0)

    def test_empty_forest(self):
        assert summarize_spans([]) == {}
