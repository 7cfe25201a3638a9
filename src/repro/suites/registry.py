"""Declarative models of the ten benchmark suites the paper surveys.

Each :class:`SuiteModel` records the suite's data-generation capabilities
(the raw facts Section 4.1 discusses) and its workload inventory (the raw
facts behind Table 2).  The Table 1 *classifications* — scalable vs
partially scalable, un- vs semi-controllable, the veracity levels — are
NOT stored here: they are derived from these capability facts by
:mod:`repro.suites.classify`, and the benchmark harness asserts that the
derivation reproduces the paper's table row for row.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GeneratorCapability:
    """Data-generation facts about one suite (inputs to Table 1)."""

    #: Data sources the suite's inputs cover, in the paper's order.
    data_sources: tuple[str, ...]
    #: Synthetic data volume can be scaled by a parameter.
    scalable_volume: bool
    #: The suite also ships (or depends on) fixed-size data sets.
    fixed_size_inputs: bool
    #: Multiple data generators can run in parallel (generation rate).
    parallel_generation: bool
    #: The data updating frequency can be controlled.
    update_frequency_control: bool
    #: Synthetic generation is independent of the benchmarked applications.
    generation_independent_of_apps: bool
    #: A small portion of data uses distributions derived from real data.
    partial_real_data_models: bool
    #: Per-type data models capture and preserve real-data characteristics.
    full_real_data_models: bool


@dataclass(frozen=True)
class WorkloadEntry:
    """One (category, examples) row of a suite's workload inventory."""

    category: str  # "Online services" | "Offline analytics" | "Real-time analytics"
    examples: str


@dataclass(frozen=True)
class SuiteModel:
    """One surveyed benchmark suite."""

    name: str
    reference: str  # the paper's citation key
    capability: GeneratorCapability
    workloads: tuple[WorkloadEntry, ...]
    software_stacks: str
    notes: str = ""


def _suite_models() -> tuple[SuiteModel, ...]:
    return (
        SuiteModel(
            name="HiBench",
            reference="[12]",
            capability=GeneratorCapability(
                data_sources=("Texts",),
                scalable_volume=True,
                fixed_size_inputs=True,
                parallel_generation=False,
                update_frequency_control=False,
                generation_independent_of_apps=True,
                partial_real_data_models=False,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry(
                    "Offline analytics",
                    "Sort, WordCount, TeraSort, PageRank, K-means, "
                    "Bayes classification",
                ),
                WorkloadEntry("Real-time analytics", "Nutch Indexing"),
            ),
            software_stacks="Hadoop and Hive",
        ),
        SuiteModel(
            name="GridMix",
            reference="[4]",
            capability=GeneratorCapability(
                data_sources=("Texts",),
                scalable_volume=True,
                fixed_size_inputs=False,
                parallel_generation=False,
                update_frequency_control=False,
                generation_independent_of_apps=True,
                partial_real_data_models=False,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry("Online services", "Sort, sampling a large dataset"),
            ),
            software_stacks="Hadoop",
        ),
        SuiteModel(
            name="PigMix",
            reference="[6]",
            capability=GeneratorCapability(
                data_sources=("Texts",),
                scalable_volume=True,
                fixed_size_inputs=False,
                parallel_generation=False,
                update_frequency_control=False,
                generation_independent_of_apps=True,
                partial_real_data_models=False,
                full_real_data_models=False,
            ),
            workloads=(WorkloadEntry("Online services", "12 data queries"),),
            software_stacks="Hadoop",
        ),
        SuiteModel(
            name="YCSB",
            reference="[9]",
            capability=GeneratorCapability(
                data_sources=("Tables",),
                scalable_volume=True,
                fixed_size_inputs=False,
                parallel_generation=False,
                update_frequency_control=False,
                generation_independent_of_apps=True,
                partial_real_data_models=False,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry("Online services", "OLTP (read, write, scan, update)"),
            ),
            software_stacks="NoSQL systems",
        ),
        SuiteModel(
            name="Performance benchmark",
            reference="[15]",
            capability=GeneratorCapability(
                data_sources=("Tables", "texts"),
                scalable_volume=True,
                fixed_size_inputs=False,
                parallel_generation=False,
                update_frequency_control=False,
                generation_independent_of_apps=True,
                partial_real_data_models=False,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry(
                    "Online services",
                    "Data loading, select, aggregate, join, count URL links",
                ),
            ),
            software_stacks="DBMS and Hadoop",
        ),
        SuiteModel(
            name="TPC-DS",
            reference="[11]",
            capability=GeneratorCapability(
                data_sources=("Tables",),
                scalable_volume=True,
                fixed_size_inputs=False,
                parallel_generation=True,
                update_frequency_control=False,
                generation_independent_of_apps=False,
                partial_real_data_models=True,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry(
                    "Online services", "Data loading, queries and maintenance"
                ),
            ),
            software_stacks="DBMS",
            notes="MUDD generates a small portion of crucial data sets from "
            "realistic distributions",
        ),
        SuiteModel(
            name="BigBench",
            reference="[11]",
            capability=GeneratorCapability(
                data_sources=("Texts", "web logs", "tables"),
                scalable_volume=True,
                fixed_size_inputs=False,
                parallel_generation=True,
                update_frequency_control=False,
                generation_independent_of_apps=False,
                partial_real_data_models=True,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry(
                    "Online services",
                    "Database operations (select, create and drop tables)",
                ),
                WorkloadEntry("Offline analytics", "K-means, classification"),
            ),
            software_stacks="DBMS and Hadoop",
            notes="web logs and reviews derive from the table data",
        ),
        SuiteModel(
            name="LinkBench",
            reference="[17]",
            capability=GeneratorCapability(
                data_sources=("Graphs",),
                scalable_volume=True,
                fixed_size_inputs=True,
                parallel_generation=True,
                update_frequency_control=False,
                generation_independent_of_apps=False,
                partial_real_data_models=True,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry(
                    "Online services",
                    "Simple operations such as select, insert, update, and "
                    "delete; and association range queries and count queries",
                ),
            ),
            software_stacks="DBMS",
        ),
        SuiteModel(
            name="CloudSuite",
            reference="[10]",
            capability=GeneratorCapability(
                data_sources=("Texts", "graphs", "videos", "tables"),
                scalable_volume=True,
                fixed_size_inputs=True,
                parallel_generation=True,
                update_frequency_control=False,
                generation_independent_of_apps=False,
                partial_real_data_models=True,
                full_real_data_models=False,
            ),
            workloads=(
                WorkloadEntry("Online services", "YCSB's workloads"),
                WorkloadEntry(
                    "Offline analytics", "Text classification, WordCount"
                ),
            ),
            software_stacks="NoSQL systems, Hadoop, GraphLab",
        ),
        SuiteModel(
            name="BigDataBench",
            reference="[19]",
            capability=GeneratorCapability(
                data_sources=("Texts", "resumes", "graphs", "tables"),
                scalable_volume=True,
                fixed_size_inputs=False,
                parallel_generation=True,
                update_frequency_control=False,
                generation_independent_of_apps=False,
                partial_real_data_models=False,
                full_real_data_models=True,
            ),
            workloads=(
                WorkloadEntry(
                    "Online services", "Database operations (read, write, scan)"
                ),
                WorkloadEntry(
                    "Offline analytics",
                    "Micro Benchmarks (sort, grep, WordCount, CFS); search "
                    "engine (index, PageRank); social network (K-means, "
                    "connected components (CC)); e-commerce (collaborative "
                    "filtering (CF), Naive Bayes)",
                ),
                WorkloadEntry(
                    "Real-time analytics",
                    "Relational database query (select, aggregate, join)",
                ),
            ),
            software_stacks=(
                "NoSQL systems, DBMS, real-time and offline analytics systems"
            ),
        ),
    )


#: The ten surveyed suites, in the paper's Table 1 order.
SUITES: tuple[SuiteModel, ...] = _suite_models()


def suite(name: str) -> SuiteModel:
    """Look a suite model up by name."""
    for model in SUITES:
        if model.name == name:
            return model
    raise KeyError(
        f"unknown suite {name!r}; known: {[model.name for model in SUITES]}"
    )
