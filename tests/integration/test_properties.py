"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util import chunked, percentile
from repro.datagen.sampling import reservoir_sample
from repro.datagen.veracity import (
    jensen_shannon_divergence,
    kl_divergence,
    total_variation,
)
from repro.engines.base import schedule_heterogeneous
from repro.engines.mapreduce import JobConf, MapReduceEngine, MapReduceJob
from repro.engines.nosql import NoSqlStore

# Shared strategies -----------------------------------------------------------

distributions = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    st.floats(min_value=0.01, max_value=10.0),
    min_size=1,
    max_size=8,
)

documents = st.lists(
    st.text(alphabet="abc ", min_size=0, max_size=20), min_size=0, max_size=30
)


class TestDivergenceProperties:
    @given(distributions, distributions)
    def test_kl_is_nonnegative(self, p, q):
        assert kl_divergence(p, q) >= -1e-9

    @given(distributions)
    def test_kl_self_is_zero(self, p):
        assert kl_divergence(p, p) < 1e-9

    @given(distributions, distributions)
    def test_js_is_symmetric_and_bounded(self, p, q):
        forward = jensen_shannon_divergence(p, q)
        backward = jensen_shannon_divergence(q, p)
        assert math.isclose(forward, backward, abs_tol=1e-9)
        assert -1e-9 <= forward <= math.log(2) + 1e-9

    @given(distributions, distributions)
    def test_total_variation_in_unit_interval(self, p, q):
        assert -1e-9 <= total_variation(p, q) <= 1.0 + 1e-9

    @given(
        st.tuples(
            *[
                st.fixed_dictionaries(
                    {k: st.floats(min_value=0.01, max_value=10.0)
                     for k in "abcd"}
                )
                for _ in range(3)
            ]
        )
    )
    def test_total_variation_triangle_inequality(self, pqr):
        # Triangle inequality holds for distributions over a shared
        # support (pairwise alignment over differing supports would not
        # form a metric space).
        p, q, r = pqr
        assert total_variation(p, r) <= (
            total_variation(p, q) + total_variation(q, r) + 1e-9
        )


class TestSamplingProperties:
    @given(st.lists(st.integers(), max_size=200),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_reservoir_size_and_membership(self, items, size, seed):
        sample = reservoir_sample(items, size, seed=seed)
        assert len(sample) == min(size, len(items))
        counts = Counter(items)
        sample_counts = Counter(sample)
        assert all(sample_counts[k] <= counts[k] for k in sample_counts)


class TestSchedulingProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=40),
           st.integers(min_value=1, max_value=16))
    def test_lpt_bounds(self, costs, slots):
        makespan = schedule_heterogeneous(costs, [1.0] * slots)
        total = sum(costs)
        longest = max(costs) if costs else 0.0
        # Lower bounds: perfect split and the longest single task.
        assert makespan >= max(total / slots, longest) - 1e-9
        # Upper bound: never worse than serial.
        assert makespan <= total + 1e-9

    @given(st.lists(st.integers(), max_size=100),
           st.integers(min_value=1, max_value=10))
    def test_chunked_partition_properties(self, items, chunks):
        parts = chunked(items, chunks)
        assert len(parts) == chunks
        flattened = [item for part in parts for item in part]
        assert flattened == items


class TestPercentileProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=100),
           st.floats(min_value=0.0, max_value=1.0))
    def test_percentile_within_range(self, samples, fraction):
        ordered = sorted(samples)
        value = percentile(ordered, fraction)
        assert ordered[0] - 1e-9 <= value <= ordered[-1] + 1e-9

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=50))
    def test_percentile_monotone_in_fraction(self, samples):
        ordered = sorted(samples)
        values = [percentile(ordered, f / 10) for f in range(11)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestMapReduceProperties:
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(documents,
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    def test_wordcount_equals_sequential_reference(self, docs, maps, reduces):
        def wc_map(key, value):
            for word in value.split():
                yield word, 1

        def wc_reduce(key, values):
            yield key, sum(values)

        job = MapReduceJob(
            "wc", wc_map, wc_reduce, combiner=wc_reduce,
            conf=JobConf(num_map_tasks=maps, num_reduce_tasks=reduces),
        )
        result = MapReduceEngine().run(job, list(enumerate(docs)))
        reference = Counter()
        for doc in docs:
            reference.update(doc.split())
        assert dict(result.output) == dict(reference)

    @settings(max_examples=25)
    @given(documents)
    def test_sort_is_permutation_and_ordered(self, docs):
        def sort_map(key, value):
            yield value, 1

        def sort_reduce(key, values):
            for _ in values:
                yield key, None

        job = MapReduceJob(
            "sort", sort_map, sort_reduce,
            conf=JobConf(num_reduce_tasks=1, sort_keys=True),
        )
        result = MapReduceEngine().run(job, list(enumerate(docs)))
        keys = [key for key, _ in result.output]
        assert keys == sorted(keys)
        assert Counter(keys) == Counter(docs)


class TestKvStoreProperties:
    @settings(max_examples=30)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.text(alphabet="abcd", min_size=1, max_size=2),
            st.integers(),
        ),
        max_size=40,
    ))
    def test_store_matches_dict_model(self, operations):
        """The KV store must behave exactly like a dict (linearised)."""
        store = NoSqlStore(num_partitions=4, replication=2, seed=0)
        model: dict[str, int] = {}
        for action, key, value in operations:
            if action == "put":
                store.insert(key, {"v": value})
                model[key] = value
            else:
                store.delete(key)
                model.pop(key, None)
        for key, value in model.items():
            result = store.read(key)
            assert result.ok
            assert result.fields == {"v": value}
        assert len(store) == len(model)

    @settings(max_examples=20)
    @given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4),
                   max_size=20),
           st.integers(min_value=1, max_value=10))
    def test_scan_is_sorted_prefix_of_keys(self, keys, count):
        store = NoSqlStore(num_partitions=4, seed=0)
        for key in keys:
            store.insert(key, {})
        result = store.scan("", count)
        scanned = [key for key, _ in result.rows]
        assert scanned == sorted(keys)[:count]
