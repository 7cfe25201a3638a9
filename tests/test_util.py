"""Tests for the shared utilities in repro._util."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest

from repro._util import (
    batched,
    build_by_column,
    choice_cdf,
    chunked,
    percentile,
)
from repro.datagen.stream import EventKind, StreamEvent
from repro.engines.streaming.engine import WindowResult

_EVENT_COLUMNS = (
    [0.5, 0.25, 1e-300, 3.0],
    [7, -1, 0, 2**70],
    [1.25, float("inf"), -0.0, 2.5],
    [EventKind.UPDATE, EventKind.INSERT, EventKind.DELETE, EventKind.INSERT],
)
_RESULT_COLUMNS = (
    [0.0, 0.0, 0.1],
    [0.1, 0.1, 0.2],
    ["a", 3, ("k", 1)],
    [2, 5.5, None],
)


class TestBuildByColumn:
    @pytest.mark.parametrize(
        ("cls", "columns"),
        [(StreamEvent, _EVENT_COLUMNS), (WindowResult, _RESULT_COLUMNS)],
    )
    def test_records_equal_the_constructors_in_every_form(self, cls, columns):
        built = build_by_column(cls, *columns)
        constructed = list(map(cls, *columns))
        assert built == constructed
        for left, right in zip(built, constructed):
            assert type(left) is cls
            assert repr(left) == repr(right)
            # Within one process: an event's hash includes an enum's.
            assert hash(left) == hash(right)
            assert dataclasses.asdict(left) == dataclasses.asdict(right)
            assert dataclasses.replace(left) == right
            assert pickle.loads(pickle.dumps(left)) == right
            assert copy.deepcopy(left) == right
            assert not hasattr(left, "__dict__")
            field = dataclasses.fields(cls)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(left, field, 1.0)

    def test_no_rows_is_no_records(self):
        assert build_by_column(StreamEvent, [], [], [], []) == []

    def test_a_dataclass_with_a_dict_is_refused(self):
        @dataclasses.dataclass(frozen=True)
        class Unslotted:
            value: int

        with pytest.raises(TypeError, match="not slotted"):
            build_by_column(Unslotted, [1])

    def test_columns_must_match_the_fields(self):
        with pytest.raises(TypeError, match="4 fields"):
            build_by_column(StreamEvent, [0.5], [1], [1.0])
        with pytest.raises(ValueError, match="length"):
            build_by_column(StreamEvent, [0.5], [1], [1.0, 2.0], [None])


class TestChunked:
    def test_even_split(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_goes_to_early_chunks(self):
        chunks = chunked([1, 2, 3, 4, 5], 3)
        assert [len(c) for c in chunks] == [2, 2, 1]

    def test_more_chunks_than_items(self):
        chunks = chunked([1], 3)
        assert chunks == [[1], [], []]

    def test_empty_input_yields_all_empty_chunks(self):
        assert chunked([], 4) == [[], [], [], []]

    def test_single_chunk_is_whole_sequence(self):
        assert chunked([1, 2, 3], 1) == [[1, 2, 3]]

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestBatched:
    def test_batches(self):
        assert list(batched([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]

    def test_exact_multiple(self):
        assert list(batched([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_empty(self):
        assert list(batched([], 3)) == []

    def test_works_on_iterators(self):
        assert list(batched(iter(range(3)), 2)) == [[0, 1], [2]]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batched([1], 0))


class TestPercentileAndMean:
    def test_percentile_endpoints(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0

    def test_percentile_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestChoiceCdf:
    """``bisect_right(choice_cdf(p), rng.random())`` is ``rng.choice(len(p), p=p)``."""

    @pytest.mark.parametrize(
        "p",
        [
            [0.25, 0.25, 0.25, 0.25],
            [0.5, 0.35, 0.15],
            [0.1, 0.0, 0.6, 0.0, 0.3],  # zero weights are never drawn
            [0.0, 1.0],
            np.array([0.7, 0.2, 0.1]) / np.array([0.7, 0.2, 0.1]).sum(),
            np.array([0.2, 0.3, 0.5], dtype=np.float32),
            [1 / 3] * 3,
        ],
        ids=["even", "resume", "zeros", "certain", "normalised", "float32", "thirds"],
    )
    def test_draws_equal_choice_interleaved(self, p):
        cdf = choice_cdf(p)
        assert all(type(value) is float for value in cdf) and cdf[-1] == 1.0
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(20_000):
            assert bisect_right(cdf, ours.random()) == theirs.choice(len(p), p=p)
            assert ours.integers(0, 1000) == theirs.integers(0, 1000)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_boundaries_fall_where_choice_puts_them(self):
        """At and next to every step of the CDF, ``bisect_right`` gives
        what ``choice``'s ``searchsorted(side="right")`` gives on the CDF
        ``choice`` builds.  A CDF summed in Python (one ``w / total`` at a
        time) lands an ulp away on about a third of these mixes."""
        weights = np.random.default_rng(5).random((2000, 5))
        for p in weights / weights.sum(axis=1, keepdims=True):
            reference = p.cumsum()
            reference /= reference[-1]
            cdf = choice_cdf(p)
            for step in reference[:-1]:
                for uniform in (np.nextafter(step, 0), step, np.nextafter(step, 1)):
                    assert bisect_right(cdf, uniform) == reference.searchsorted(
                        uniform, side="right"
                    )

    @pytest.mark.parametrize(
        "p",
        [
            [0.5, -0.1, 0.6],
            [0.5, float("nan"), 0.5],
            [float("inf"), float("-inf")],
            [float("inf"), 0.0],
            [0.5, 0.4],
            [0.5, 0.5 + 2e-8],
            [[0.5, 0.5]],
        ],
        ids=["negative", "nan", "inf-inf", "inf", "short", "past-tolerance", "2-d"],
    )
    def test_refuses_what_choice_refuses(self, p):
        with pytest.raises(ValueError) as refused:
            np.random.default_rng(0).choice(len(p), p=p)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            choice_cdf(p)

    def test_accepts_what_choice_accepts(self):
        within = [0.5, 0.5 + 1e-8]
        float32 = np.array([0.5, 0.5000001], dtype=np.float32)
        for p in (within, float32):
            np.random.default_rng(0).choice(len(p), p=p)
            assert choice_cdf(p)[-1] == 1.0


class _Uniform(float):
    """A uniform that remembers the generator it came from and its state
    before the draw."""


class _ChoiceRng:
    """A generator whose ``random()`` can be rewound and asked again,
    through ``choice``, by :func:`_choose_by_choice`."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, *args, **kwargs):
        if args or kwargs:
            return self._rng.random(*args, **kwargs)
        state = self._rng.bit_generator.state
        uniform = _Uniform(self._rng.random())
        uniform.replay = (self._rng, state)
        return uniform


def _choose_by_choice(p, uniform: _Uniform) -> int:
    """``bisect_right`` patched back to ``rng.choice``: rewind the stream
    to before the uniform and let ``choice`` draw from there."""
    rng, state = uniform.replay
    rng.bit_generator.state = state
    return int(rng.choice(len(p), p=p))


class TestChoiceCdfCallSites:
    """Seeded outputs of the helper's call sites are what ``rng.choice``
    gave: the same runs with the draw patched back to ``choice`` (which
    must then leave the stream where the uniform left it)."""

    def test_resume_records(self, monkeypatch):
        from repro.datagen import resume

        def generate():
            return resume.ResumeGenerator(seed=3).generate_parallel(400, 3).records

        helper = generate()
        original = resume.ResumeGenerator.rng_for_partition
        monkeypatch.setattr(
            resume.ResumeGenerator, "rng_for_partition",
            lambda self, *args: _ChoiceRng(original(self, *args)),
        )
        monkeypatch.setattr(resume, "choice_cdf", lambda p: p)
        monkeypatch.setattr(resume, "bisect_right", _choose_by_choice)
        assert repr(generate()) == repr(helper)
        assert {record["education"] for record in helper} == set(
            resume.EDUCATION_LEVELS
        )

    def test_hybrid_run(self, monkeypatch):
        from repro.datagen.kv import KeyValueGenerator
        from repro.engines.nosql import NoSqlStore
        from repro.workloads import hybrid

        records = KeyValueGenerator(field_count=3, field_length=10, seed=1).generate(80)

        def run():
            result = hybrid.HybridWorkload().run(
                NoSqlStore(seed=13), records, operation_count=1500, seed=4
            )
            return repr((result.output, result.extra, result.latencies))

        helper = run()
        monkeypatch.setattr(hybrid, "choice_cdf", lambda p: p)
        monkeypatch.setattr(hybrid, "bisect_right", _choose_by_choice)
        monkeypatch.setattr(hybrid, "np", SimpleNamespace(random=SimpleNamespace(
            default_rng=lambda seed: _ChoiceRng(np.random.default_rng(seed))
        )))
        assert run() == helper
