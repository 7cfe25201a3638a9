"""A partitioned NoSQL store plus a YCSB-style client (the NoSQL substitute)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engines.nosql.client": (
            "STANDARD_WORKLOADS", "OpType", "RequestDistribution",
            "YcsbClient", "YcsbRunReport", "YcsbWorkloadSpec", "workload_a",
            "workload_b", "workload_c", "workload_d", "workload_e",
            "workload_f",
        ),
        "repro.engines.nosql.store": (
            "ConsistencyLevel", "LatencyModel", "NoSqlStore", "OpResult",
        ),
    },
)
