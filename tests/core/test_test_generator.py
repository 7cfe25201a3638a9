"""Tests for the five-step test generator (Figure 4)."""

from __future__ import annotations

import pytest

import repro  # noqa: F401 - triggers default registration
from repro.core.errors import TestGenerationError
from repro.core.operations import operations
from repro.core.patterns import SingleOperationPattern
from repro.core.prescription import DataRequirement
from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import TestGenerator
from repro.datagen.base import DataType


@pytest.fixture()
def generator():
    return TestGenerator()


class TestSelectData:
    def test_purely_synthetic(self, generator):
        requirement = DataRequirement("random-text", DataType.TEXT, volume=25)
        dataset = generator.select_data(requirement)
        assert dataset.num_records == 25

    def test_veracity_aware_fits_on_seed(self, generator):
        requirement = DataRequirement(
            "unigram-text", DataType.TEXT, volume=10, fit_on="text-corpus"
        )
        dataset = generator.select_data(requirement)
        assert dataset.num_records == 10

    def test_volume_override(self, generator):
        requirement = DataRequirement("random-text", DataType.TEXT, volume=25)
        assert generator.select_data(requirement, 7).num_records == 7

    def test_partitioned_generation(self, generator):
        requirement = DataRequirement(
            "kv-records", DataType.KEY_VALUE, volume=20, num_partitions=4
        )
        assert generator.select_data(requirement).num_records == 20

    def test_type_mismatch_rejected(self, generator):
        requirement = DataRequirement("random-text", DataType.GRAPH, volume=5)
        with pytest.raises(TestGenerationError):
            generator.select_data(requirement)

    @pytest.mark.parametrize(
        "overrides, volume, partitions",
        [((None, None), 20, 4), ((7, None), 7, 4), ((None, 2), 20, 2),
         ((7, 1), 7, 1)],
    )
    def test_dataset_key_is_where_select_data_caches(
        self, generator, overrides, volume, partitions
    ):
        """One cache-key rule: what ``dataset_key`` names (override
        beats prescription) is the entry ``select_data`` fills — the
        process backend ships this key instead of the records."""
        requirement = DataRequirement(
            "kv-records", DataType.KEY_VALUE, volume=20, num_partitions=4
        )
        key = generator.dataset_key(requirement, *overrides)
        assert key[:5] == ("kv-records", 0, volume, partitions, None)
        assert key not in generator.dataset_cache
        dataset = generator.select_data(requirement, *overrides)
        assert generator.dataset_cache.peek(key) is dataset
        assert dataset.num_records == volume


class TestGenerate:
    def test_binds_prescription_to_engine(self, generator):
        test = generator.generate("micro-wordcount", "mapreduce")
        assert test.name == "micro-wordcount@mapreduce"
        assert test.dataset.num_records == 200

    def test_run_executes_workload(self, generator):
        test = generator.generate("micro-wordcount", "mapreduce", 20)
        result = test.run()
        assert result.workload == "wordcount"
        assert result.records_in == 20

    def test_prescription_params_flow_to_workload(self, generator):
        test = generator.generate("micro-grep", "mapreduce", 30)
        result = test.run()
        # grep's prescription carries pattern_text="data".
        assert result.records_out <= 30

    def test_overrides_beat_prescription_params(self, generator):
        test = generator.generate("micro-grep", "mapreduce", 30)
        everything = test.run(pattern_text="")
        assert everything.records_out == 30

    def test_unsupported_engine_rejected(self, generator):
        with pytest.raises(TestGenerationError):
            generator.generate("micro-wordcount", "dbms")

    def test_unknown_prescription_rejected(self, generator):
        with pytest.raises(TestGenerationError):
            generator.generate("nonexistent", "mapreduce")


class TestGenerateForAllEngines:
    """One prescription bound to every engine a spec naming no engines
    runs on: ``BenchmarkSpec.resolved_engines``, the supported engines
    that are registered."""

    @staticmethod
    def _generate_for_all_engines(generator, prescription, volume):
        spec = BenchmarkSpec(prescription)
        return [
            generator.generate(prescription, engine, volume)
            for engine in spec.resolved_engines(generator.repository)
        ]

    def test_relational_query_binds_to_all_system_types(self, generator):
        tests = self._generate_for_all_engines(
            generator, "database-aggregate-join", 50
        )
        engines = sorted(test.engine.name for test in tests)
        assert engines == ["dbms", "mapreduce", "nosql"]

    def test_oltp_binds_to_both_stores(self, generator):
        tests = self._generate_for_all_engines(
            generator, "oltp-read-write", 30
        )
        engines = sorted(test.engine.name for test in tests)
        assert engines == ["dbms", "nosql"]

    def test_all_tests_share_one_dataset_volume(self, generator):
        tests = self._generate_for_all_engines(
            generator, "database-aggregate-join", 40
        )
        assert all(test.dataset.num_records == 40 for test in tests)


class TestMakePrescription:
    def test_custom_prescription_registered_and_runnable(self, generator):
        prescription = generator.make_prescription(
            name="custom-sort",
            domain="micro benchmarks",
            data=DataRequirement("random-text", DataType.TEXT, volume=15),
            operations=operations("sort"),
            pattern=SingleOperationPattern(operations("sort")[0]),
            workload="sort",
        )
        assert "custom-sort" in generator.repository
        test = generator.generate(prescription, "mapreduce")
        result = test.run()
        keys = [key for key, _ in result.output]
        assert keys == sorted(keys)

    def test_unknown_workload_rejected(self, generator):
        with pytest.raises(TestGenerationError):
            generator.make_prescription(
                name="bad",
                domain="micro benchmarks",
                data=DataRequirement("random-text", DataType.TEXT, volume=5),
                operations=operations("sort"),
                pattern=SingleOperationPattern(operations("sort")[0]),
                workload="quantum-sort",
            )
