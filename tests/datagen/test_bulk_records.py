"""Generators that build records from whole arrays equal the per-element
loops they replaced (``tests/datagen/_reference_generators.py``).

Equal means equal records *and* the same Python type for every element:
``1 == 1.0 == np.int64(1)``, and each of them would fork a content
address, a ``repr`` digest or the bytes an engine meters.  The draws are
the seeded contract, so the same seed, volume and partitioning must give
the same records at every chunk size.  Row ``generators`` of
``tests/test_captures.py`` holds them to the parent commit's fixture.
"""

from __future__ import annotations

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro  # noqa: F401 — fills the registries
from repro._util import batched
from repro.core import registry
from repro.core.errors import GenerationError
from repro.core.prescription import load_seed
from repro.datagen.base import DataGenerator, DataType
from repro.datagen.graph import RmatGraphGenerator
from repro.datagen.mixture import GaussianMixtureGenerator
from repro.datagen.models import PROCESS_MODELS
from repro.datagen.table import (
    FittedTableGenerator,
    TableGenerator,
    retail_star_schema,
)
from repro.datagen.text import RandomTextGenerator

from _generator_capture import _float_table, _mixed_schema, _types
from _reference_generators import (
    reference_batched,
    reference_iter_batches,
    reference_records,
)

def assert_identical(actual: list, expected: list) -> None:
    assert actual == expected
    assert list(map(_types, actual)) == list(map(_types, expected))


def _fitted_table(seed: int, source: str) -> FittedTableGenerator:
    data = load_seed("retail-orders") if source == "retail" else _float_table()
    return FittedTableGenerator(seed=seed).fit(data)


#: Case name -> generator at a seed.
MAKERS = {
    "fitted-table": lambda seed: _fitted_table(seed, "retail"),
    "fitted-table.floats": lambda seed: _fitted_table(seed, "floats"),
    "random-text": lambda seed: RandomTextGenerator(seed=seed),
    "random-text.short": lambda seed: RandomTextGenerator(
        words=["a", "bb", "a"], document_length=3, seed=seed
    ),
    "rmat-graph": lambda seed: RmatGraphGenerator(seed=seed),
    "rmat-graph.fitted": lambda seed: RmatGraphGenerator(seed=seed).fit(
        load_seed("social-graph")
    ),
    "mixture-table": lambda seed: GaussianMixtureGenerator(seed=seed),
    "mixture-table.5d": lambda seed: GaussianMixtureGenerator(
        num_components=3, dimensions=5, seed=seed
    ),
    **{
        f"schema-table.{name}": (
            lambda seed, schema=schema: TableGenerator(schema, seed=seed)
        )
        for name, schema in {
            **retail_star_schema(num_customers=30, num_products=9),
            "mixed": _mixed_schema(),
        }.items()
    },
}

volumes = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.integers(1, 150).map(lambda n: 2 * n + 1),
    st.integers(0, 400),
)


class TestRecordsEqualTheLoops:
    @pytest.mark.parametrize("case", sorted(MAKERS))
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        volume=volumes,
        partitions=st.integers(1, 3),
        chunk_extra=st.integers(-3, 2),
    )
    def test_generate_and_batches(self, case, seed, volume, partitions, chunk_extra):
        generator = MAKERS[case](seed)
        expected = reference_records(generator, volume, partitions)
        if partitions == 1:
            assert_identical(generator.generate(volume).records, expected)
        assert_identical(
            generator.generate_parallel(volume, partitions).records, expected
        )
        chunk_size = max(1, volume + chunk_extra)
        streamed = [
            record
            for batch in generator.iter_batches(volume, chunk_size, partitions)
            for record in batch
        ]
        assert_identical(streamed, expected)

    def test_every_case_is_a_registered_generator_class(self):
        """The property covers each generator the bulk rewrite touched."""
        touched = {
            type(registry.generators.create(name))
            for name in ("fitted-table", "random-text", "rmat-graph", "mixture-table")
        }
        assert touched | {TableGenerator} == {
            type(make(0)) for make in MAKERS.values()
        }

    def test_huge_integral_quantiles_are_exact(self):
        """Integral columns beyond int64 (and beyond 2**53) stay exact."""
        generator = _fitted_table(3, "floats")
        records = generator.generate(500).records
        assert_identical(records, reference_records(generator, 500))
        big = [row[1] for row in records]
        assert all(type(value) is int for value in big)
        assert max(big) > 2**63


class TestChunkBoundaries:
    """``iter_batches`` fills each chunk with ``islice``; its batches are
    the old loop's, index, offset and records, across partitions too."""

    @pytest.mark.parametrize("case", ["fitted-table", "random-text", "rmat-graph"])
    @pytest.mark.parametrize("partitions", [1, 2, 3])
    @pytest.mark.parametrize("volume", [0, 1, 13, 40])
    def test_batches_equal_the_old_loop(self, case, partitions, volume):
        generator = MAKERS[case](11)
        for chunk_size in (1, 7, max(1, volume), volume + 1):
            actual = list(generator.iter_batches(volume, chunk_size, partitions))
            expected = list(
                reference_iter_batches(generator, volume, chunk_size, partitions)
            )
            assert [(b.index, b.offset, len(b)) for b in actual] == [
                (b.index, b.offset, len(b)) for b in expected
            ], chunk_size
            for got, want in zip(actual, expected):
                assert_identical(got.records, want.records)
                assert got.data_type is want.data_type

    def test_a_batch_crosses_partitions(self):
        generator = MAKERS["random-text"](2)
        sizes = [
            generator.partition_volume(13, partition, 3) for partition in range(3)
        ]
        batches = list(generator.iter_batches(13, 7, 3))
        assert sizes == [5, 4, 4]
        assert [(b.offset, len(b)) for b in batches] == [(0, 7), (7, 6)]

    def test_a_chunk_pulls_no_record_past_its_size(self):
        """Bounded memory: the first batch is yielded after exactly
        ``chunk_size`` records were made."""
        made = count()

        class Counting(DataGenerator):
            data_type = DataType.TEXT

            def iter_partition(self, volume, partition, num_partitions):
                for _ in range(self.partition_volume(volume, partition, num_partitions)):
                    yield str(next(made))

        batches = Counting().iter_batches(100, 8, num_partitions=3)
        first = next(batches)
        assert first.records == [str(i) for i in range(8)]
        assert next(made) == 8


class TestBatched:
    @settings(max_examples=60)
    @given(st.integers(0, 60), st.integers(1, 70), st.booleans())
    def test_equals_the_old_loop(self, length, batch_size, lazy):
        items = list(range(length))
        source = iter(items) if lazy else items
        assert list(batched(source, batch_size)) == list(
            reference_batched(items, batch_size)
        )

    def test_refusal_is_lazy_as_before(self):
        chunks = batched([1], 0)
        with pytest.raises(ValueError):
            next(chunks)


#: Seed data for the registered generators that cannot generate unfitted.
FIT_ON = {
    "fitted-table": "retail-orders",
    "lda-text": "text-corpus",
    "unigram-text": "text-corpus",
}


@pytest.fixture(scope="module")
def every_generator():
    generators = {}
    for name in sorted(registry.generators.names()):
        generators[name] = PROCESS_MODELS.fitted(
            registry.generators.create(name), FIT_ON.get(name)
        )
    return generators


class TestNegativeVolume:
    def test_every_unfitted_generator_has_seed_data(self):
        unfitted = {
            name for name in registry.generators.names()
            if not registry.generators.create(name).is_fitted
        }
        assert unfitted == set(FIT_ON)

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_every_generator_refuses_it_in_parallel(self, every_generator, partitions):
        for name, generator in every_generator.items():
            with pytest.raises(GenerationError, match="non-negative"):
                generator.generate_parallel(-5, partitions)
            with pytest.raises(GenerationError, match="non-negative"):
                generator.generate(-5)
            with pytest.raises(GenerationError, match="non-negative"):
                next(generator.iter_batches(-5, num_partitions=partitions))
