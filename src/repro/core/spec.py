"""Benchmark specifications (the User Interface Layer, Figure 2).

A :class:`BenchmarkSpec` is what a system owner writes: which
prescription (or domain), which engines, the preferred data volume and
velocity, which metrics, and how many repeats.  Validation happens
eagerly so misconfiguration fails at the Planning step, not mid-run.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import Any

from repro.core import registry
from repro.core.errors import ExecutionError, SpecError
from repro.core.prescription import PrescriptionRepository

#: The schema version :meth:`BenchmarkSpec.as_dict` stamps on every
#: serialized spec.  Version 1 is the historical, implicitly-versioned
#: schema (payloads with no ``spec_version`` field — e.g. specs embedded
#: in job logs or run-store sidecars written before versioning landed);
#: version 2 added the explicit field; version 3 added the ``tuning``
#: profile name (v2 payloads load as ``"normal"``); version 4 dropped
#: ``warm_pool`` (the process backend has one path).  Bump this when a
#: field is renamed or its meaning changes, and add a migration to
#: :data:`_SPEC_MIGRATIONS`.
SPEC_VERSION = 4


def _migrate_v1(payload: dict[str, Any]) -> dict[str, Any]:
    """Version 1 → 2: the pre-versioning schema.

    Early serializations (CLI-era job sketches) spelled the engine list
    as a single ``"engine"`` string; normalize it, and accept a bare
    string under ``"engines"`` too.
    """
    payload = dict(payload)
    engine = payload.pop("engine", None)
    if engine is not None and "engines" not in payload:
        payload["engines"] = [engine] if isinstance(engine, str) else engine
    if isinstance(payload.get("engines"), str):
        payload["engines"] = [payload["engines"]]
    return payload


def _migrate_v2(payload: dict[str, Any]) -> dict[str, Any]:
    """Version 2 → 3: the pre-tuning schema.

    Every spec serialized before tuning profiles existed ran bare
    engines — exactly what the ``normal`` profile means — so the
    migration just makes that explicit.
    """
    payload = dict(payload)
    payload.setdefault("tuning", "normal")
    return payload


def _migrate_v3(payload: dict[str, Any]) -> dict[str, Any]:
    """Version 3 → 4: ``warm_pool`` is gone.

    It selected between two process-backend paths that produced the
    same results; it never entered the spec fingerprint, so dropping it
    moves no series.
    """
    payload = dict(payload)
    payload.pop("warm_pool", None)
    return payload


#: ``version -> fn(payload) -> payload`` upgrading a serialized spec from
#: ``version`` to ``version + 1``; :meth:`BenchmarkSpec.from_dict` chains
#: them until the payload reaches :data:`SPEC_VERSION`.
_SPEC_MIGRATIONS: dict[int, Callable[[dict[str, Any]], dict[str, Any]]] = {
    1: _migrate_v1,
    2: _migrate_v2,
    3: _migrate_v3,
}


#: What a workload param may not be called: the named arguments of the
#: calls that receive the params as keywords, ``PrescribedTest.run`` and
#: ``Workload.run`` (a param named like one of them is a ``TypeError``
#: mid-run).  ``tests/core/test_spec_results.py`` derives the set from
#: those signatures.
_CALL_PATH_ARGUMENTS = frozenset({"dataset", "engine", "self"})


def _default_executor() -> str:
    # Imported here and below: core.spec must pull in neither the
    # execution nor the analysis package at import time.
    from repro.execution.parallel import default_backend

    return default_backend()


def _default_store_dir() -> str | None:
    from repro.analysis.store import env_store_dir

    return env_store_dir()


@dataclass
class BenchmarkSpec:
    """A user's benchmarking requirements."""

    #: Name of a prescription in the repository.
    prescription: str
    #: Engines to run on; empty means every engine the workload supports.
    engines: list[str] = field(default_factory=list)
    #: Override of the prescription's data volume (generator-native units).
    volume: int | None = None
    #: Parallel generator partitions (data velocity, mechanism 1).
    data_partitions: int = 1
    #: Record-batch size for the streaming data path.  When set, data
    #: flows from the generator to the workload as RecordBatch chunks of
    #: this many records (bounded memory); None keeps the historical
    #: materialize-then-run path.
    chunk_size: int | None = None
    #: Metric names to report; empty means the prescription's defaults.
    metric_names: list[str] = field(default_factory=list)
    repeats: int = 1
    #: Workload parameter overrides.
    params: dict = field(default_factory=dict)
    #: Fan-out backend for independent runs: "serial", "thread",
    #: "process" (the ``REPRO_EXECUTOR`` environment variable overrides
    #: the serial default; see ``repro.execution.parallel``).
    executor: str = field(default_factory=_default_executor)
    #: Worker count for the pooled executor backends; None = one per CPU.
    max_workers: int | None = None
    #: Failure policy: "abort" (fail-fast) or "continue" (capture
    #: per-task failures, keep completed results).
    on_error: str = "abort"
    #: Extra attempts per task after the first (0 = never retry).
    retries: int = 0
    #: Base backoff before the second attempt; grows exponentially with
    #: deterministic seeded jitter.
    retry_backoff: float = 0.0
    #: Wall-clock budget per task attempt, in seconds (None = unbounded).
    task_timeout: float | None = None
    #: Record this run's outcomes into the persistent run store (see
    #: :mod:`repro.analysis.store`).  Recording also turns on whenever
    #: ``store_dir`` (or ``REPRO_STORE_DIR``) names a store.
    record: bool = False
    #: Run-store directory; None defers to ``REPRO_STORE_DIR`` (whose
    #: presence alone enables recording), else ``.repro-runs``.
    store_dir: str | None = field(default_factory=_default_store_dir)
    #: Synthetic per-execution latency in seconds, injected through the
    #: seeded fault substrate (:mod:`repro.engines.faults`).  Simulates
    #: "the code got slower" without changing the spec fingerprint —
    #: the knob the regression-gate CI job uses to prove the gate trips.
    inject_latency: float | None = None
    #: Execution layout: "row" (the historical tuple-at-a-time path) or
    #: "columnar" (batch-at-a-time vectorized operators on the DBMS;
    #: the other engines ignore it).  The default is version-safe: old
    #: serialized specs simply get "row".
    layout: str = "row"
    #: Tuning profile name applied to every resolved engine: "normal"
    #: (bare engines — the historical behavior and what v2 payloads
    #: migrate to), "optimized", or a per-knob one-off spelled
    #: "normal+<knob>" (see :mod:`repro.tuning.profiles`).  Non-normal
    #: profiles fork the run-store series via the spec fingerprint.
    tuning: str = "normal"

    @property
    def should_record(self) -> bool:
        """Whether this run's outcomes land in the run store."""
        return self.record or self.store_dir is not None

    # -- serialization (versioned) ----------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly payload stamped with :data:`SPEC_VERSION`.

        Everything the spec carries, with containers copied so mutating
        the payload never aliases the live spec.  The inverse of
        :meth:`from_dict`, round-tripping exactly.
        """
        payload: dict[str, Any] = {"spec_version": SPEC_VERSION}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, (list, dict)):
                value = type(value)(value)
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BenchmarkSpec":
        """Rebuild a spec from a serialized payload of any known version.

        A payload without ``spec_version`` is the historical version-1
        schema; older versions are upgraded through the migration chain
        (:data:`_SPEC_MIGRATIONS`) before construction, so job logs and
        exported specs written by earlier releases keep loading.  Unknown
        keys that survive migration are rejected — a typo'd field
        silently ignored would mean a spec that runs the wrong benchmark.
        """
        payload = dict(payload)
        raw_version = payload.pop("spec_version", 1)
        try:
            version = int(raw_version)
        except (TypeError, ValueError):
            raise SpecError(
                f"spec_version must be an integer, got {raw_version!r}"
            ) from None
        if version > SPEC_VERSION:
            raise SpecError(
                f"spec_version {version} is newer than this release "
                f"understands (latest: {SPEC_VERSION})"
            )
        if version < 1:
            raise SpecError(f"spec_version must be at least 1, got {version}")
        for step in range(version, SPEC_VERSION):
            payload = dict(_SPEC_MIGRATIONS[step](payload))
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                f"spec payload has unknown field(s) {unknown} "
                f"after migration to version {SPEC_VERSION}"
            )
        if "prescription" not in payload:
            raise SpecError("spec payload is missing 'prescription'")
        return cls(**payload)

    def validate(self, repository: PrescriptionRepository) -> None:
        """Raise :class:`SpecError` on any inconsistency."""
        if self.prescription not in repository:
            raise SpecError(
                f"unknown prescription {self.prescription!r}; "
                f"available: {repository.names()}"
            )
        if self.volume is not None and self.volume < 0:
            raise SpecError(f"volume must be non-negative, got {self.volume}")
        reserved = sorted(_CALL_PATH_ARGUMENTS.intersection(self.params))
        if reserved:
            raise SpecError(
                f"param(s) {reserved} are argument names of the run path; "
                "a workload parameter cannot take them"
            )
        if self.data_partitions <= 0:
            raise SpecError(
                f"data_partitions must be positive, got {self.data_partitions}"
            )
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise SpecError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )
        # The runner-policy fields are checked by the options they
        # become.  Imported lazily: core.spec must not pull the
        # execution package in at import time.
        from repro.execution.plan import runner_options

        try:
            runner_options(self)
        except ExecutionError as error:
            raise SpecError(str(error)) from None
        latency = self.inject_latency
        if latency is not None and not 0 <= latency < math.inf:
            raise SpecError(
                f"inject_latency must be finite and non-negative, got {latency}"
            )
        if self.layout not in ("row", "columnar"):
            raise SpecError(
                f"layout must be 'row' or 'columnar', got {self.layout!r}"
            )
        prescription = repository.get(self.prescription)
        workload_name = prescription.workload
        if workload_name not in registry.workloads:
            raise SpecError(
                f"prescription {self.prescription!r} references unregistered "
                f"workload {workload_name!r}"
            )
        workload = registry.workloads.create(workload_name)
        for engine_name in self.engines:
            if engine_name not in registry.engines:
                raise SpecError(
                    f"unknown engine {engine_name!r}; "
                    f"available: {registry.engines.names()}"
                )
            if not workload.supports(engine_name):
                raise SpecError(
                    f"workload {workload_name!r} does not support engine "
                    f"{engine_name!r}; supported: {workload.supported_engines()}"
                )
        if self.tuning != "normal":
            # TuningError subclasses SpecError, so an unknown or
            # unbuildable profile fails spec validation like any other
            # bad field.  Imported lazily: core.spec must not pull the
            # tuning package in at import time.
            from repro.tuning.profiles import get_profile

            for engine_name in self.resolved_engines(repository):
                get_profile(engine_name, self.tuning)

    def resolved_engines(self, repository: PrescriptionRepository) -> list[str]:
        """The engines to run on, defaulting to all supported ones."""
        if self.engines:
            return list(self.engines)
        prescription = repository.get(self.prescription)
        workload = registry.workloads.create(prescription.workload)
        return [
            engine_name
            for engine_name in workload.supported_engines()
            if engine_name in registry.engines
        ]
