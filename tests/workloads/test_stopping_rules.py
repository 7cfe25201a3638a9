"""One stopping rule per iterative workload: its prescription states the
rule its loop obeys (``repro.core.patterns``, the ``*_STOP`` rules)."""

from __future__ import annotations

import pytest

import repro  # noqa: F401 — fills the registries
from repro.core import patterns, registry
from repro.core.prescription import builtin_repository
from repro.core.serialization import pattern_to_dict
from repro.datagen.graph import RmatGraphGenerator
from repro.engines.mapreduce import MapReduceEngine
from repro.workloads import PageRankWorkload

REPOSITORY = builtin_repository()


@pytest.mark.parametrize("name", REPOSITORY.names())
def test_every_prescriptions_pattern_is_its_workloads(name):
    prescription = REPOSITORY.get(name)
    workload = registry.workloads.create(prescription.workload)
    assert pattern_to_dict(prescription.pattern) == pattern_to_dict(
        workload.pattern
    )


def test_the_iterative_ones_share_one_rule_object():
    iterative = {
        name: REPOSITORY.get(name).pattern.stopping_condition
        for name in REPOSITORY.names()
        if REPOSITORY.get(name).pattern.pattern_name == "iterative-operation"
    }
    rules = {
        id(rule) for rule in (
            patterns.PAGERANK_STOP, patterns.KMEANS_STOP,
            patterns.LABEL_PROPAGATION_STOP, patterns.MLP_STOP,
        )
    }
    assert iterative and {id(rule) for rule in iterative.values()} <= rules


def test_the_loop_reads_the_rule_when_it_runs(monkeypatch):
    graph = RmatGraphGenerator(seed=1).generate(64)
    monkeypatch.setattr(patterns.PAGERANK_STOP, "max_iterations", 2)
    monkeypatch.setattr(patterns.PAGERANK_STOP, "tolerance", 0.0)
    result = PageRankWorkload().run(MapReduceEngine(), graph)
    assert result.extra["iterations"] == 2
    # A spec param of the loop's own name still overrides the rule.
    result = PageRankWorkload().run(MapReduceEngine(), graph, max_iterations=3)
    assert result.extra["iterations"] == 3
