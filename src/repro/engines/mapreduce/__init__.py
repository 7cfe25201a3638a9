"""A from-scratch MapReduce engine (the Hadoop substitute, DESIGN.md §2)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engines.mapreduce.cluster": (
            "ClusterModel", "ClusterReport", "PhaseTiming",
        ),
        "repro.engines.mapreduce.counters": ("CounterGroup",),
        "repro.engines.mapreduce.job": (
            "JobConf", "MapReduceJob", "default_partitioner",
            "identity_mapper", "identity_reducer",
        ),
        "repro.engines.mapreduce.runtime": (
            "JobResult", "MapReduceEngine",
        ),
    },
)
