"""Execution substrates: the systems the benchmark framework runs tests on.

Each sub-package is a from-scratch implementation of one system class the
paper's surveyed benchmarks target (DESIGN.md §2 documents the
substitutions):

* :mod:`repro.engines.mapreduce` — Hadoop-like MapReduce runtime,
* :mod:`repro.engines.dbms` — relational DBMS,
* :mod:`repro.engines.nosql` — partitioned key-value store (YCSB target),
* :mod:`repro.engines.streaming` — stream processor.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engines.base": (
            "CostCounters", "Engine", "EngineInfo", "SimulatedClusterSpec",
            "schedule_lpt",
        ),
        "repro.engines.faults": (
            "FaultSpec", "FaultyEngine", "FaultyWorkload", "InjectedFault",
            "with_faults",
        ),
    },
)
