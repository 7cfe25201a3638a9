"""Tests for registries, prescriptions, and the repository."""

from __future__ import annotations

import pytest

import repro  # noqa: F401 - triggers default registration
from repro.core import registry
from repro.core.errors import RegistryError, TestGenerationError
from repro.core.operations import operations
from repro.core.patterns import SingleOperationPattern
from repro.core.prescription import (
    DataRequirement,
    Prescription,
    PrescriptionRepository,
    builtin_repository,
    load_seed,
)
from repro.core.registry import Registry
from repro.datagen.base import DataType


class TestRegistry:
    def test_register_and_create(self):
        reg: Registry[list] = Registry("thing")
        reg.register("empty", list)
        assert reg.create("empty") == []

    def test_duplicate_rejected(self):
        reg: Registry[list] = Registry("thing")
        reg.register("x", list)
        with pytest.raises(RegistryError):
            reg.register("x", list)

    def test_unknown_name_rejected(self):
        reg: Registry[list] = Registry("thing")
        with pytest.raises(RegistryError):
            reg.create("missing")

    def test_contains_and_names(self):
        reg: Registry[list] = Registry("thing")
        reg.register("b", list)
        reg.register("a", list)
        assert "a" in reg
        assert reg.names() == ["a", "b"]
        assert len(reg) == 2


class TestDefaultRegistration:
    def test_generators_registered(self):
        for name in ("random-text", "lda-text", "rmat-graph", "fitted-table",
                     "poisson-stream", "kv-records", "mixture-table"):
            assert name in registry.generators

    def test_workloads_registered(self):
        for name in ("sort", "wordcount", "grep", "pagerank", "kmeans",
                     "connected-components", "collaborative-filtering",
                     "naive-bayes", "relational-query", "ycsb",
                     "windowed-aggregation", "hybrid"):
            assert name in registry.workloads

    def test_engines_registered(self):
        assert registry.engines.names() == ["dbms", "dfs", "mapreduce",
                                            "nosql", "streaming"]

    def test_registration_is_idempotent(self):
        from repro.bootstrap import register_default_components

        before = len(registry.workloads)
        register_default_components()
        assert len(registry.workloads) == before


class TestDataRequirement:
    def test_validation(self):
        with pytest.raises(TestGenerationError):
            DataRequirement("g", DataType.TEXT, volume=-1)
        with pytest.raises(TestGenerationError):
            DataRequirement("g", DataType.TEXT, volume=1, num_partitions=0)


class TestSeedSources:
    def test_all_seeds_load(self):
        for name in ("text-corpus", "social-graph", "retail-orders"):
            dataset = load_seed(name)
            assert dataset.num_records > 0

    def test_unknown_seed_rejected(self):
        with pytest.raises(TestGenerationError):
            load_seed("facebook-graph")


class TestPrescriptionRepository:
    def test_builtin_covers_paper_domains(self):
        repository = builtin_repository()
        domains = set(repository.domains())
        # The three internet-service domains plus micro/database/OLTP/stream.
        assert {"search engine", "social network", "e-commerce",
                "micro benchmarks", "basic database operations",
                "cloud OLTP", "streaming"} <= domains

    def test_every_builtin_references_registered_workload(self):
        repository = builtin_repository()
        for name in repository.names():
            prescription = repository.get(name)
            assert prescription.workload in registry.workloads

    def test_every_builtin_references_registered_generator(self):
        repository = builtin_repository()
        for name in repository.names():
            prescription = repository.get(name)
            assert prescription.data.generator in registry.generators

    def test_duplicate_name_rejected(self):
        repository = PrescriptionRepository()
        prescription = Prescription(
            name="p", domain="d",
            data=DataRequirement("random-text", DataType.TEXT, 10),
            operations=operations("sort"),
            pattern=SingleOperationPattern(operations("sort")[0]),
            workload="sort",
        )
        repository.add(prescription)
        with pytest.raises(TestGenerationError):
            repository.add(prescription)

    def test_unknown_prescription_rejected(self):
        with pytest.raises(TestGenerationError):
            PrescriptionRepository().get("nope")

    def test_describe(self):
        repository = builtin_repository()
        description = repository.get("micro-sort").describe()
        assert description["pattern"] == "single-operation"
        assert description["workload"] == "sort"
