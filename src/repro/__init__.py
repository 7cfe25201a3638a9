"""repro — a reproduction of "On Big Data Benchmarking" (Han & Lu, 2014).

A complete, executable big-data-benchmarking framework:

* **4V data generators** (volume / velocity / variety / veracity):
  LDA text, MUDD-style tables, R-MAT graphs, event streams, web logs and
  reviews, plus veracity metrics, scale-down sampling, and format
  conversion (:mod:`repro.datagen`);
* **abstract test generation**: operations, workload patterns,
  prescriptions, and the five-step test generator (:mod:`repro.core`);
* **execution substrates**: from-scratch MapReduce, relational DBMS,
  NoSQL store, and stream processor (:mod:`repro.engines`);
* **workloads** spanning Table 2's categories and domains
  (:mod:`repro.workloads`);
* **execution layer**: configuration, runner, sweeps, reporting
  (:mod:`repro.execution`);
* **suite models** that regenerate the paper's Table 1 and Table 2
  (:mod:`repro.suites`).

The one blessed public surface is :mod:`repro.api` (re-exported here):
``BenchmarkSpec``, ``run``, ``sweep``, ``ServiceClient``, ``compare``,
``gate``.  Quickstart::

    from repro.api import run

    report = run("micro-wordcount", repeats=3)
    for result in report.results:
        print(result.engine, result.mean("throughput"))

or, as a service (async jobs, admission control, job log)::

    from repro.api import BenchmarkSpec, ServiceClient

    with ServiceClient() as client:
        handle = client.submit(BenchmarkSpec("micro-wordcount", volume=200))
        print(handle.wait().state, handle.result())
"""

from repro import _bytecode

_bytecode.install()  # before any other repro import, so those are cached too

from repro._lazy import lazy_exports  # noqa: E402
from repro.bootstrap import register_default_components  # noqa: E402

register_default_components()

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.baselines": ("BaselineManager",),
        "repro.analysis.compare": ("Comparison", "compare_records"),
        "repro.analysis.gate": ("GateReport", "check_regressions"),
        "repro.analysis.store": ("RunRecord", "RunStore"),
        "repro.api": (
            "ablate", "compare", "gate", "load", "run", "serve", "sweep",
        ),
        "repro.core.errors": ("ReproError",),
        "repro.core.layers": (
            "BigDataBenchmark", "ExecutionLayer", "FunctionLayer",
            "UserInterfaceLayer",
        ),
        "repro.core.metrics": ("MetricKind", "MetricSuite", "RunEvidence"),
        "repro.core.prescription": (
            "DataRequirement", "Prescription", "PrescriptionRepository",
            "builtin_repository",
        ),
        "repro.core.process": ("BenchmarkingProcess", "ProcessReport"),
        "repro.core.results": ("ResultAnalyzer", "RunResult", "TaskFailure"),
        "repro.core.spec": ("SPEC_VERSION", "BenchmarkSpec"),
        "repro.core.test_generator": ("PrescribedTest", "TestGenerator"),
        "repro.datagen.base": ("DataSet", "DataType"),
        "repro.observability.tracing": (
            "Span", "Tracer", "current_tracer", "trace_span",
        ),
        "repro.service.client": ("JobHandle", "ServiceClient"),
        "repro.service.jobs": ("Job",),
        "repro.service.orchestrator": ("Orchestrator",),
        "repro.service.queue": ("AdmissionError",),
    },
    submodules=("api",),
)
__all__ += ["__version__", "register_default_components"]
