"""Load targets: what one request *does* (load generation, piece 2).

The :class:`~repro.loadgen.runner.LoadRunner` is target-agnostic — it
owns arrivals, queueing, and measurement, and delegates the request
body to a :class:`LoadTarget`:

* :class:`SyntheticTarget` — a seeded service-time model (constant,
  exponential, or lognormal).  Never executes anything, so a
  virtual-clock run is a pure deterministic simulation — the shape the
  SLO verdict contract and the benchmark trajectories use;
* :class:`WorkloadTarget` — one request = one execution of a prescribed
  workload on its engine (the dataset is generated once at setup, like
  a warmed server); service time is the measured wall clock;
* :class:`ServiceTarget` — one request = one job submitted to the
  benchmark service and awaited; the orchestrator's own admission
  control shows up as shed requests here, closing the loop PR 7 opened.

A target signals load shedding by raising
:class:`~repro.core.errors.RequestShed` (or the service layer's
:class:`~repro.service.queue.AdmissionError`); any other exception
counts as a request error.
"""

from __future__ import annotations

import math
from abc import ABC
from typing import Any

import numpy as np

from repro._util import collector_paused
from repro.core.errors import LoadGenError

#: Service-time models :class:`SyntheticTarget` understands.
SERVICE_DISTRIBUTIONS = ("constant", "exponential", "lognormal")


class LoadTarget(ABC):
    """One request's behaviour, pluggable under the runner."""

    #: Short name recorded into fingerprints and reports.
    name: str = "target"

    def setup(self) -> None:
        """Prepare shared state (datasets, engines) before the run."""

    def teardown(self) -> None:
        """Release whatever :meth:`setup` acquired."""

    def service_time(
        self, request_index: int, rng: np.random.Generator
    ) -> float | None:
        """Simulated service seconds, or None when the request must
        actually execute (the runner then measures :meth:`execute`)."""
        return None

    def execute(self, request_index: int) -> None:
        """Really serve one request; raise to signal an error."""
        raise NotImplementedError(
            f"target {self.name!r} models service times only"
        )


class SyntheticTarget(LoadTarget):
    """A seeded service-time distribution; nothing really runs."""

    name = "synthetic"

    def __init__(
        self,
        mean_service: float = 0.005,
        distribution: str = "lognormal",
        sigma: float = 0.5,
    ) -> None:
        if not 0 < mean_service < math.inf:
            raise LoadGenError(
                f"mean_service must be positive and finite, got {mean_service}"
            )
        if distribution not in SERVICE_DISTRIBUTIONS:
            raise LoadGenError(
                f"unknown service distribution {distribution!r}; "
                f"available: {', '.join(SERVICE_DISTRIBUTIONS)}"
            )
        if not 0 < sigma < math.inf:
            raise LoadGenError(f"sigma must be positive and finite, got {sigma}")
        self.mean_service = mean_service
        self.distribution = distribution
        self.sigma = sigma
        # Lognormal parameterized so the *mean* (not the median) equals
        # mean_service — budgets are set against means, so the knob must
        # mean what it says.
        self._mu = float(np.log(mean_service) - 0.5 * sigma * sigma)

    def service_time(
        self, request_index: int, rng: np.random.Generator
    ) -> float:
        if self.distribution == "constant":
            return self.mean_service
        if self.distribution == "exponential":
            return float(rng.exponential(self.mean_service))
        return float(rng.lognormal(self._mu, self.sigma))


class WorkloadTarget(LoadTarget):
    """One request = one prescribed-workload execution on one engine.

    ``spec`` is the :class:`~repro.core.spec.BenchmarkSpec` the request
    runs: its prescription, volume, params and layout, on its first
    resolved engine.  Setup runs the test-generation half of Figure 4
    once (dataset generated, engine built, workload bound), so
    per-request cost is the workload execution itself — the "serving"
    shape of an online workload, with the data already loaded.
    """

    name = "workload"

    def __init__(self, spec: Any, repository: Any = None) -> None:
        self.spec = spec
        self.repository = repository
        self._test = None

    def setup(self) -> None:
        from repro.core.test_generator import TestGenerator
        from repro.execution.plan import resolve

        generator = TestGenerator(self.repository)
        self.spec.validate(generator.repository)
        # The first resolved engine, built as api.run builds it.
        task = resolve(self.spec, generator.repository).tasks[0]
        self._test = generator.generate(
            task.prescription,
            task.engine_name,
            volume_override=task.volume_override,
            configuration=task.configuration,
        )
        self.name = f"workload:{self.spec.prescription}@{task.engine_name}"

    def teardown(self) -> None:
        self._test = None

    def execute(self, request_index: int) -> None:
        if self._test is None:
            raise LoadGenError(
                "WorkloadTarget.execute before setup(); the runner calls "
                "setup() — are you driving the target by hand?"
            )
        # Paused per request, as the runner pauses per batch (DESIGN
        # §3.21).
        with collector_paused():
            self._test.run(**self.spec.params)


class ServiceTarget(LoadTarget):
    """One request = one job through the benchmark service.

    Drives the :class:`~repro.service.orchestrator.Orchestrator` of a
    client it builds from ``service_options``: submit, then wait for the
    terminal state.  The service's admission queue pushing back —
    :class:`~repro.service.queue.AdmissionError` — is re-raised as is;
    the runner counts it as a shed request, so the queue-depth and
    shed-count tracing measures the orchestrator's own door.
    """

    name = "service"

    def __init__(self, spec: Any = None, **service_options: Any) -> None:
        self.spec = spec
        self._client = None
        self._service_options = service_options

    def setup(self) -> None:
        from repro.api import BenchmarkSpec, ServiceClient

        if self.spec is None:
            self.spec = BenchmarkSpec(
                "micro-wordcount", engines=["mapreduce"], volume=40
            )
        self._client = ServiceClient(**self._service_options)
        self.name = f"service:{self.spec.prescription}"

    def teardown(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def execute(self, request_index: int) -> None:
        from repro.core.errors import ServiceError

        if self._client is None:
            raise LoadGenError(
                "ServiceTarget.execute before setup(); the runner calls "
                "setup() — are you driving the target by hand?"
            )
        handle = self._client.submit(self.spec, client="loadgen")
        job = handle.wait()
        if job.state != "done":
            raise ServiceError(
                f"job {job.job_id} ended {job.state}: "
                f"{job.error_type}: {job.error_message}"
            )
