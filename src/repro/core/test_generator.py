"""The test generator (Figure 4).

Implements the five-step test-generation process:

1. select a data set (through the generator registry, fitting
   veracity-aware generators on their seed data),
2. select abstract operations,
3. select a workload pattern,
4. assemble a prescription,
5. bind the prescription to a specific system via the system
   configuration tools, producing a :class:`PrescribedTest`.

Steps 1–4 are also available separately so callers can build custom
prescriptions; :meth:`TestGenerator.generate` performs step 5 for a
prescription from the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core import registry
from repro.core.errors import TestGenerationError
from repro.core.operations import AbstractOperation
from repro.core.patterns import WorkloadPattern
from repro.core.prescription import (
    DataRequirement,
    Prescription,
    PrescriptionRepository,
    builtin_repository,
)
from repro.datagen.base import DataGenerator, DataSet
from repro.datagen.cache import CacheKey, DatasetCache
from repro.datagen.models import PROCESS_MODELS, ModelCache
from repro.datagen.source import DatasetSource, GeneratorSource
from repro.engines.base import Engine
from repro.observability import trace_span


@dataclass
class PrescribedTest:
    """A prescription bound to a concrete engine and generated data.

    The final artifact of Figure 4: runnable on exactly one system, while
    the prescription it came from remains system-independent.
    """

    prescription: Prescription
    engine: Engine
    workload: Any  # repro.workloads.base.Workload (kept loose to avoid cycle)
    #: The records in memory, or a lazily streaming source when the test
    #: was generated with a chunk size (the workload dispatcher handles
    #: both shapes identically).
    dataset: DataSet | DatasetSource

    @property
    def name(self) -> str:
        return f"{self.prescription.name}@{self.engine.name}"

    def run(self, **overrides: Any):
        """Execute the prescribed test; returns a WorkloadResult."""
        params = {**self.prescription.params, **overrides}
        return self.workload.run(self.engine, self.dataset, **params)


class TestGenerator:
    """Generates prescribed tests from prescriptions (Figure 4)."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    def __init__(
        self,
        repository: PrescriptionRepository | None = None,
        generator_registry: registry.Registry | None = None,
        workload_registry: registry.Registry | None = None,
        engine_registry: registry.Registry | None = None,
        dataset_cache: DatasetCache | None = None,
        model_cache: ModelCache | None = None,
    ) -> None:
        self.repository = repository or builtin_repository()
        self.generators = generator_registry or registry.generators
        self.workloads = workload_registry or registry.workloads
        self.engines = engine_registry or registry.engines
        #: Deterministic generation means identical (generator, seed,
        #: volume, partitions, fit source) requests produce identical
        #: records, so they share one cached data set across engines,
        #: repeats, and sweep points.
        self.dataset_cache = (
            dataset_cache if dataset_cache is not None else DatasetCache()
        )
        #: Fitted generators, by content address (Figure 3, step 2): the
        #: process-wide cache unless a test hands in its own, so a model
        #: is trained once per process however many data sets it makes.
        self.model_cache = (
            model_cache if model_cache is not None else PROCESS_MODELS
        )

    # ------------------------------------------------------------------
    # Step 1: data selection
    # ------------------------------------------------------------------

    def select_data(
        self,
        requirement: DataRequirement,
        volume_override: int | None = None,
        partitions_override: int | None = None,
        chunk_size: int | None = None,
    ) -> DataSet | DatasetSource:
        """Instantiate, fit, and run the generator a prescription names.

        Identical requests are served from :attr:`dataset_cache`;
        generation is deterministic, so the cached data set is
        record-for-record what a fresh generation would produce.  The
        fit comes from :attr:`model_cache` on both paths below, so only
        the first request for a model in this process trains it.

        With ``chunk_size`` set, the returned value is a lazily streaming
        :class:`~repro.datagen.source.GeneratorSource` instead of a
        materialized data set — nothing is generated until a consumer
        pulls batches, and the cache is bypassed (there is no record
        list to hold).  Determinism makes both shapes interchangeable.
        """
        generator: DataGenerator = self.generators.create(requirement.generator)
        if generator.data_type is not requirement.data_type:
            raise TestGenerationError(
                f"generator {requirement.generator!r} produces "
                f"{generator.data_type.label}, but the prescription needs "
                f"{requirement.data_type.label}"
            )
        key = self.dataset_key(
            requirement, volume_override, partitions_override, generator
        )
        # The key is where override precedence is decided: generate
        # exactly the volume and partition count it names.
        volume, num_partitions = key[2:4]
        with trace_span(
            "select-data",
            generator=requirement.generator,
            volume=volume,
            partitions=num_partitions,
        ):
            if chunk_size is not None:
                return GeneratorSource(
                    self.model_cache.fitted(generator, requirement.fit_on),
                    volume,
                    chunk_size=chunk_size,
                    num_partitions=num_partitions,
                )
            return self.dataset_cache.get_or_generate(
                key,
                lambda: self._generate_data(
                    generator, requirement, volume, num_partitions
                ),
            )

    def dataset_key(
        self,
        requirement: DataRequirement,
        volume_override: int | None = None,
        partitions_override: int | None = None,
        generator: DataGenerator | None = None,
    ) -> CacheKey:
        """The dataset-cache key a data request lives under.

        The one rule for what :meth:`select_data` generates and caches:
        an override beats the prescription's own volume / partition
        count, and the seed is the named generator's (``generator``
        saves building one just to read it).  The process backend hands
        new workers the parent's data sets under this key, and a
        worker's own generation lands under the same one.
        """
        if generator is None:
            generator = self.generators.create(requirement.generator)
        return DatasetCache.make_key(
            requirement.generator,
            generator.seed,
            volume_override
            if volume_override is not None
            else requirement.volume,
            partitions_override
            if partitions_override is not None
            else requirement.num_partitions,
            requirement.fit_on,
        )

    def _generate_data(
        self,
        generator: DataGenerator,
        requirement: DataRequirement,
        volume: int,
        num_partitions: int,
    ) -> DataSet:
        """The data-set-uncached path (fitted model, generate, size).

        The data set leaves carrying its size: measured here the first
        time this process generates at this content address, read back
        from :attr:`model_cache` after that.
        """
        # Asked before the fit: the address is of the unfitted state.
        address = self.model_cache.address(generator, requirement.fit_on)
        generator = self.model_cache.fitted(generator, requirement.fit_on)
        with trace_span(
            "generate", volume=volume, partitions=num_partitions
        ) as span:
            if num_partitions > 1:
                dataset = generator.generate_parallel(volume, num_partitions)
            else:
                dataset = generator.generate(volume)
            if span:
                span.set(records=dataset.num_records)
        if address is not None:
            address = (*address, volume, num_partitions)
        dataset.known_bytes = self.model_cache.dataset_bytes(address, dataset)
        return dataset

    # ------------------------------------------------------------------
    # Steps 2-4: prescription assembly
    # ------------------------------------------------------------------

    def make_prescription(
        self,
        name: str,
        domain: str,
        data: DataRequirement,
        operations: list[AbstractOperation],
        pattern: WorkloadPattern,
        workload: str,
        metric_names: list[str] | None = None,
        params: dict[str, Any] | None = None,
    ) -> Prescription:
        """Assemble (and register) a new prescription."""
        if workload not in self.workloads:
            raise TestGenerationError(
                f"prescription references unknown workload {workload!r}; "
                f"registered: {self.workloads.names()}"
            )
        prescription = Prescription(
            name=name,
            domain=domain,
            data=data,
            operations=operations,
            pattern=pattern,
            workload=workload,
            metric_names=metric_names or [],
            params=params or {},
        )
        self.repository.add(prescription)
        return prescription

    # ------------------------------------------------------------------
    # Step 5: bind to a system
    # ------------------------------------------------------------------

    def build_engine(self, engine_name: str, configuration: Any = None) -> Engine:
        """The one engine recipe: ``configuration`` built, else the bare
        registry engine ``engine_name``.

        ``configuration`` is an optional
        :class:`~repro.execution.config.SystemConfiguration`.
        """
        if configuration is not None:
            return configuration.build()
        return self.engines.create(engine_name)

    def generate(
        self,
        prescription: Prescription | str,
        engine_name: str,
        volume_override: int | None = None,
        partitions_override: int | None = None,
        chunk_size: int | None = None,
        configuration: Any = None,
    ) -> PrescribedTest:
        """Produce a prescribed test for one engine (Figure 4, step 5).

        The engine is :meth:`build_engine`'s for ``engine_name`` and
        ``configuration``.
        """
        if isinstance(prescription, str):
            prescription = self.repository.get(prescription)
        workload = self.workloads.create(prescription.workload)
        if not workload.supports(engine_name):
            raise TestGenerationError(
                f"workload {prescription.workload!r} does not run on engine "
                f"{engine_name!r}; supported: {workload.supported_engines()}"
            )
        engine = self.build_engine(engine_name, configuration)
        dataset = self.select_data(
            prescription.data, volume_override, partitions_override, chunk_size
        )
        return PrescribedTest(
            prescription=prescription,
            engine=engine,
            workload=workload,
            dataset=dataset,
        )
