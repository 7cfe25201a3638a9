"""Tests for the shared utilities in repro._util."""

from __future__ import annotations

import pytest

from repro._util import batched, chunked, percentile


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
