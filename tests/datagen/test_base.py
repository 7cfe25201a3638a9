"""Tests for the data set abstraction and generator base class."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core.errors import GenerationError, ModelNotFittedError
from repro.datagen.base import (
    DataType,
    StructureClass,
    mix_seed,
)
from repro.datagen.text import RandomTextGenerator, UnigramTextGenerator

from tests._datasets import as_dataset


class TestDataType:
    def test_every_type_has_a_structure_class(self):
        for data_type in DataType:
            assert isinstance(data_type.structure, StructureClass)

    def test_table_is_structured(self):
        assert DataType.TABLE.structure is StructureClass.STRUCTURED

    def test_text_is_unstructured(self):
        assert DataType.TEXT.structure is StructureClass.UNSTRUCTURED

    def test_weblog_is_semi_structured(self):
        assert DataType.WEB_LOG.structure is StructureClass.SEMI_STRUCTURED

    def test_labels_are_unique(self):
        labels = [data_type.label for data_type in DataType]
        assert len(labels) == len(set(labels))


class TestDataSet:
    def test_len_and_num_records_agree(self):
        dataset = as_dataset(["a", "b", "c"], DataType.TEXT)
        assert len(dataset) == dataset.num_records == 3

    def test_iteration_yields_records(self):
        dataset = as_dataset(["x", "y"], DataType.TEXT)
        assert list(dataset) == ["x", "y"]

    def test_head_limits_output(self):
        dataset = as_dataset(list(range(100)), DataType.TABLE)
        assert dataset.head(3) == [0, 1, 2]

    def test_estimated_bytes_counts_strings(self):
        dataset = as_dataset(["abcd", "ef"], DataType.TEXT)
        assert dataset.estimated_bytes() == 6

    def test_estimated_bytes_counts_numbers_as_eight(self):
        dataset = as_dataset([(1, 2.5)], DataType.TABLE)
        assert dataset.estimated_bytes() == 16

    def test_estimated_bytes_handles_dicts(self):
        dataset = as_dataset([{"k": "vv"}], DataType.WEB_LOG)
        assert dataset.estimated_bytes() == 3

    def test_structure_follows_data_type(self):
        dataset = as_dataset([(1,)], DataType.TABLE)
        assert dataset.structure is StructureClass.STRUCTURED

    def test_as_dataset_copies_metadata(self):
        dataset = as_dataset([1], DataType.TABLE, name="t", schema=("a",))
        assert dataset.metadata["schema"] == ("a",)
        assert dataset.name == "t"


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(42, 1, 2) == mix_seed(42, 1, 2)

    def test_streams_are_independent(self):
        assert mix_seed(42, 1) != mix_seed(42, 2)

    def test_base_seed_matters(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)


class TestGeneratorBase:
    def test_negative_volume_rejected(self):
        with pytest.raises(GenerationError):
            RandomTextGenerator(seed=1).generate(-1)

    def test_zero_volume_gives_empty_dataset(self):
        assert RandomTextGenerator(seed=1).generate(0).num_records == 0

    def test_generate_is_deterministic_per_seed(self):
        a = RandomTextGenerator(seed=5).generate(10)
        b = RandomTextGenerator(seed=5).generate(10)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        a = RandomTextGenerator(seed=5).generate(10)
        b = RandomTextGenerator(seed=6).generate(10)
        assert a.records != b.records

    def test_parallel_generation_totals_volume(self):
        dataset = RandomTextGenerator(seed=1).generate_parallel(103, 4)
        assert dataset.num_records == 103

    def test_parallel_partitions_are_order_independent(self):
        generator = RandomTextGenerator(seed=9)
        part2_first = generator.generate_partition(100, 2, 4)
        # Generating another partition in between must not change it.
        generator.generate_partition(100, 0, 4)
        part2_again = generator.generate_partition(100, 2, 4)
        assert part2_first == part2_again

    def test_partition_volume_is_balanced(self):
        generator = RandomTextGenerator(seed=1)
        sizes = [generator.partition_volume(10, p, 3) for p in range(3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_partition_count_rejected(self):
        with pytest.raises(GenerationError):
            RandomTextGenerator(seed=1).generate_parallel(10, 0)

    def test_unfitted_veracity_generator_refuses(self):
        with pytest.raises(ModelNotFittedError):
            UnigramTextGenerator(seed=1).generate(5)

    def test_metadata_records_generator_and_seed(self):
        dataset = RandomTextGenerator(seed=3).generate(2)
        assert dataset.metadata["generator"] == "RandomTextGenerator"
        assert dataset.metadata["seed"] == 3


class TestParallelGeneration:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_executor_fanout_is_bit_identical(self, backend):
        """The seam a controller fans out over: partitions are seeded
        independently, so generating them on any pool and merging in
        partition order is ``generate_parallel``."""
        generator = RandomTextGenerator(seed=11)
        pool = (
            ThreadPoolExecutor(max_workers=2)
            if backend == "thread"
            else ProcessPoolExecutor(
                max_workers=2, mp_context=multiprocessing.get_context("spawn")
            )
        )
        with pool:
            partitions = list(
                pool.map(generator.generate_partition, [60] * 4, range(4), [4] * 4)
            )
        serial = RandomTextGenerator(seed=11).generate_parallel(60, 4)
        assert [r for records in partitions for r in records] == serial.records
        assert serial.num_records == 60
