"""Tests for the workload base class and dispatcher."""

from __future__ import annotations

import pytest

from repro.core.errors import ExecutionError
from repro.datagen.base import DataType
from repro.engines.mapreduce import MapReduceEngine
from repro.engines.nosql import NoSqlStore
from repro.bootstrap import WORKLOADS
from repro.core.registry import resolve_reference
from repro.workloads import SortWorkload
from repro.workloads.base import WorkloadResult

from tests._datasets import as_dataset

ALL_WORKLOADS = [resolve_reference(reference) for reference in WORKLOADS.values()]


class TestDispatcher:
    def test_unsupported_engine_raises(self, text_corpus):
        with pytest.raises(ExecutionError) as excinfo:
            SortWorkload().run(NoSqlStore(), text_corpus)
        assert "mapreduce" in str(excinfo.value)

    def test_wrong_data_type_raises(self, social_graph):
        with pytest.raises(ExecutionError):
            SortWorkload().run(MapReduceEngine(), social_graph)

    def test_supports_reflects_run_methods(self):
        workload = SortWorkload()
        assert workload.supports("mapreduce")
        assert not workload.supports("dbms")


class TestWorkloadCatalogue:
    def test_names_are_unique(self):
        names = [workload.name for workload in ALL_WORKLOADS]
        assert len(names) == len(set(names))

    def test_every_workload_supports_an_engine(self):
        for workload_class in ALL_WORKLOADS:
            assert workload_class().supported_engines()

    def test_every_workload_declares_operations_and_pattern(self):
        for workload_class in ALL_WORKLOADS:
            workload = workload_class()
            assert workload.abstract_operations
            assert workload.pattern is not None

    def test_describe_is_complete(self):
        for workload_class in ALL_WORKLOADS:
            description = workload_class().describe()
            for key in ("name", "domain", "category", "data_type",
                        "operations", "pattern", "engines"):
                assert description[key], f"{workload_class.name}: {key}"

    def test_all_three_table2_categories_covered(self):
        from repro.workloads.base import WorkloadCategory

        categories = {workload_class().category for workload_class in ALL_WORKLOADS}
        assert categories == set(WorkloadCategory)

    def test_all_paper_domains_covered(self):
        from repro.workloads.base import ApplicationDomain

        domains = {workload_class().domain for workload_class in ALL_WORKLOADS}
        assert domains == set(ApplicationDomain)


class TestWorkloadResult:
    def test_evidence_carries_everything(self):
        from repro.engines.base import CostCounters

        result = WorkloadResult(
            workload="w", engine="e", output=None,
            records_in=10, records_out=5,
            duration_seconds=1.0,
            cost=CostCounters(compute_ops=7),
            latencies=[0.1],
            simulated_seconds=0.5,
        )
        evidence = result.evidence()
        assert evidence.records_in == 10
        assert evidence.cost.compute_ops == 7
        assert evidence.simulated_seconds == 0.5
        assert evidence.effective_seconds == 0.5

    def test_duration_filled_by_dispatcher(self, text_corpus):
        small = as_dataset(text_corpus.records[:10], DataType.TEXT)
        result = SortWorkload().run(MapReduceEngine(), small)
        assert result.duration_seconds > 0
