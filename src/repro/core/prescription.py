"""Prescriptions and the prescription repository (Section 3.3, Section 5.2).

A prescription "includes the information needed to produce a benchmarking
test, including data sets, a set of operations and workload patterns, a
method to generate workload, and the evaluation metrics."  Section 5.2
additionally calls for "a repository of reusable prescriptions to simplify
the generation of prescribed tests" — :class:`PrescriptionRepository`
below, pre-populated per application domain by
:func:`builtin_repository`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import TestGenerationError
from repro.core.operations import AbstractOperation, operations
from repro.core.patterns import (
    KMEANS_STOP,
    LABEL_PROPAGATION_STOP,
    MLP_STOP,
    PAGERANK_STOP,
    IterativeOperationPattern,
    MultiOperationPattern,
    SingleOperationPattern,
    WorkloadPattern,
)
from repro.core.registry import resolve_reference
from repro.datagen.base import DataSet, DataType


@dataclass(frozen=True)
class DataRequirement:
    """What data a prescription needs (Figure 4, step 1).

    ``generator`` names a registered data generator; ``fit_on`` names a
    seed ("real") data set for veracity-aware generators; ``volume`` is
    in the generator's native unit (documents, rows, vertices, events).
    """

    generator: str
    data_type: DataType
    volume: int
    num_partitions: int = 1
    fit_on: str | None = None

    def __post_init__(self) -> None:
        if self.volume < 0:
            raise TestGenerationError(
                f"volume must be non-negative, got {self.volume}"
            )
        if self.num_partitions <= 0:
            raise TestGenerationError(
                f"num_partitions must be positive, got {self.num_partitions}"
            )


@dataclass
class Prescription:
    """A complete recipe for one benchmarking test."""

    name: str
    domain: str
    data: DataRequirement
    operations: list[AbstractOperation]
    pattern: WorkloadPattern
    workload: str  # name of the registered workload implementing the test
    metric_names: list[str] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "domain": self.domain,
            "generator": self.data.generator,
            "volume": self.data.volume,
            "operations": [op.name for op in self.operations],
            "pattern": self.pattern.pattern_name,
            "workload": self.workload,
            "metrics": list(self.metric_names),
        }


class PrescriptionRepository:
    """A reusable library of prescriptions, browsable by domain."""

    def __init__(self) -> None:
        self._prescriptions: dict[str, Prescription] = {}

    def add(self, prescription: Prescription) -> None:
        if prescription.name in self._prescriptions:
            raise TestGenerationError(
                f"prescription {prescription.name!r} already exists"
            )
        self._prescriptions[prescription.name] = prescription

    def get(self, name: str) -> Prescription:
        try:
            return self._prescriptions[name]
        except KeyError:
            raise TestGenerationError(
                f"unknown prescription {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._prescriptions)

    def domains(self) -> list[str]:
        return sorted({p.domain for p in self._prescriptions.values()})

    def __len__(self) -> int:
        return len(self._prescriptions)

    def __contains__(self, name: str) -> bool:
        return name in self._prescriptions


# ---------------------------------------------------------------------------
# Seed ("real") data sources for veracity-aware generation.
# ---------------------------------------------------------------------------


#: name → loader of an embedded seed data set (DESIGN.md §2
#: substitutions): a callable or, like a registry entry, a
#: ``"module:attr"`` reference to one, imported (and with it the corpus
#: and numpy) at the first load, not when this module is imported.  The
#: fitted-model cache names a seed set by its loader, never by a digest
#: of the data, so a model on disk is found without loading its seed.
SEED_SOURCES: dict[str, Callable[[], DataSet] | str] = {
    "text-corpus": "repro.datagen.corpus:load_text_corpus",
    "social-graph": "repro.datagen.corpus:load_social_graph",
    "retail-orders": "repro.datagen.corpus:load_retail_orders",
}


#: name → (the loader that built it, the data set): seed sets are
#: constants, so each is built once per process.
_LOADED_SEEDS: dict[str, tuple[Callable[[], DataSet] | str, DataSet]] = {}


def load_seed(name: str) -> DataSet:
    """One embedded seed data set by name.

    Built on first use and shared by every later caller in the process:
    treat it as read-only.  A loader replaced in :data:`SEED_SOURCES` is
    loaded afresh.
    """
    loader = SEED_SOURCES.get(name)
    if loader is None:
        raise TestGenerationError(
            f"unknown seed data set {name!r}; available: {sorted(SEED_SOURCES)}"
        )
    loaded = _LOADED_SEEDS.get(name)
    if loaded is None or loaded[0] is not loader:
        load = resolve_reference(loader) if isinstance(loader, str) else loader
        loaded = _LOADED_SEEDS[name] = (loader, load())
    return loaded[1]


# ---------------------------------------------------------------------------
# Built-in prescriptions per application domain.
# ---------------------------------------------------------------------------

_USER_METRICS = ["duration", "throughput"]
_ONLINE_METRICS = ["throughput", "mean_latency", "latency_p99"]
_ALL_METRICS = _USER_METRICS + ["ops_per_second", "energy", "cost"]


def builtin_repository() -> PrescriptionRepository:
    """The framework's reusable prescription library (Section 5.2)."""
    repository = PrescriptionRepository()

    text = DataRequirement("random-text", DataType.TEXT, volume=200)
    lda_text = DataRequirement(
        "lda-text", DataType.TEXT, volume=200, fit_on="text-corpus"
    )
    graph = DataRequirement(
        "rmat-graph", DataType.GRAPH, volume=256, fit_on="social-graph"
    )
    table = DataRequirement(
        "fitted-table", DataType.TABLE, volume=500, fit_on="retail-orders"
    )
    kv = DataRequirement("kv-records", DataType.KEY_VALUE, volume=500)
    stream = DataRequirement("poisson-stream", DataType.STREAM, volume=2000)
    features = DataRequirement("mixture-table", DataType.TABLE, volume=400)

    repository.add(
        Prescription(
            name="micro-sort",
            domain="micro benchmarks",
            data=text,
            operations=operations("sort"),
            pattern=SingleOperationPattern(operations("sort")[0]),
            workload="sort",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="micro-wordcount",
            domain="micro benchmarks",
            data=text,
            operations=operations("transform", "aggregate"),
            pattern=MultiOperationPattern(operations("transform", "aggregate")),
            workload="wordcount",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="micro-grep",
            domain="micro benchmarks",
            data=lda_text,
            operations=operations("grep"),
            pattern=SingleOperationPattern(operations("grep")[0]),
            workload="grep",
            metric_names=_ALL_METRICS,
            params={"pattern_text": "data"},
        )
    )
    repository.add(
        Prescription(
            name="micro-cfs",
            domain="micro benchmarks",
            data=text,
            operations=operations("write", "read", "update", "delete"),
            pattern=MultiOperationPattern(
                operations("write", "read", "update", "delete")
            ),
            workload="cfs",
            metric_names=_ONLINE_METRICS + ["duration"],
        )
    )
    repository.add(
        Prescription(
            name="search-pagerank",
            domain="search engine",
            data=graph,
            operations=operations("rank"),
            pattern=IterativeOperationPattern(operations("rank"), PAGERANK_STOP),
            workload="pagerank",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="search-index",
            domain="search engine",
            data=lda_text,
            operations=operations("index"),
            pattern=SingleOperationPattern(operations("index")[0]),
            workload="inverted-index",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="social-kmeans",
            domain="social network",
            data=features,
            operations=operations("cluster"),
            pattern=IterativeOperationPattern(operations("cluster"), KMEANS_STOP),
            workload="kmeans",
            metric_names=_ALL_METRICS,
            params={"num_clusters": 4},
        )
    )
    repository.add(
        Prescription(
            name="social-connected-components",
            domain="social network",
            data=graph,
            operations=operations("cluster"),
            pattern=IterativeOperationPattern(
                operations("cluster"), LABEL_PROPAGATION_STOP
            ),
            workload="connected-components",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="ecommerce-recommend",
            domain="e-commerce",
            data=table,
            operations=operations("recommend"),
            pattern=SingleOperationPattern(operations("recommend")[0]),
            workload="collaborative-filtering",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="ecommerce-classify",
            domain="e-commerce",
            data=lda_text,
            operations=operations("classify"),
            pattern=MultiOperationPattern(operations("transform", "classify")),
            workload="naive-bayes",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="database-aggregate-join",
            domain="basic database operations",
            data=table,
            operations=operations("select", "join", "aggregate"),
            pattern=MultiOperationPattern(
                operations("select", "join", "aggregate")
            ),
            workload="relational-query",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="oltp-read-write",
            domain="cloud OLTP",
            data=kv,
            operations=operations("read", "write", "scan", "update"),
            pattern=MultiOperationPattern(
                operations("read", "write", "scan", "update")
            ),
            workload="ycsb",
            metric_names=_ONLINE_METRICS,
            params={"workload_mix": "A", "operation_count": 1000},
        )
    )
    hybrid_operations = operations("read", "update", "insert", "delete", "scan")
    repository.add(
        Prescription(
            name="oltp-hybrid",
            domain="cloud OLTP",
            data=kv,
            operations=hybrid_operations,
            pattern=MultiOperationPattern(hybrid_operations),
            workload="hybrid",
            metric_names=_ONLINE_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="multimedia-image-classification",
            domain="multimedia",
            data=DataRequirement("texture-images", DataType.IMAGE, volume=120),
            operations=operations("transform", "classify"),
            pattern=MultiOperationPattern(operations("transform", "classify")),
            workload="image-classification",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="learning-mlp",
            domain="large-scale learning",
            data=features,
            operations=operations("transform", "classify"),
            pattern=IterativeOperationPattern(
                operations("transform", "classify"), MLP_STOP
            ),
            workload="mlp-classification",
            metric_names=_ALL_METRICS,
        )
    )
    repository.add(
        Prescription(
            name="realtime-windowed-aggregation",
            domain="streaming",
            data=stream,
            operations=operations("window", "aggregate"),
            pattern=MultiOperationPattern(operations("window", "aggregate")),
            workload="windowed-aggregation",
            metric_names=_ONLINE_METRICS + ["duration"],
            params={"window_seconds": 0.1},
        )
    )
    repository.add(
        Prescription(
            name="realtime-update-rate",
            domain="streaming",
            data=stream,
            operations=operations("select", "window", "aggregate"),
            pattern=MultiOperationPattern(
                operations("select", "window", "aggregate")
            ),
            workload="rolling-update-rate",
            metric_names=_ONLINE_METRICS + ["duration"],
        )
    )
    return repository
