"""Concrete workloads: the executable side of the paper's Table 2.

Every workload declares its application domain, user-view category
(online services / offline analytics / real-time analytics), abstract
operations, and pattern — then implements ``run_<engine>`` per supported
substrate.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.workloads.base": (
            "ApplicationDomain", "Workload", "WorkloadCategory",
            "WorkloadResult",
        ),
        "repro.workloads.cfs": ("CfsWorkload",),
        "repro.workloads.deeplearning": ("MlpClassificationWorkload",),
        "repro.workloads.ecommerce": (
            "CollaborativeFilteringWorkload", "NaiveBayesWorkload",
            "label_document",
        ),
        "repro.workloads.hybrid": (
            "ArrivalPattern", "HybridWorkload", "profile_arrival_pattern",
        ),
        "repro.workloads.multimedia": ("ImageClassificationWorkload",),
        "repro.workloads.micro": (
            "GrepWorkload", "SortWorkload", "TeraSortWorkload",
            "WordCountWorkload",
        ),
        "repro.workloads.oltp": (
            "STANDARD_WORKLOADS", "OpType", "RequestDistribution",
            "YcsbWorkload", "YcsbWorkloadSpec", "workload_a", "workload_b",
            "workload_c", "workload_d", "workload_e", "workload_f",
        ),
        "repro.workloads.relational": (
            "CountUrlLinksWorkload", "RelationalQueryWorkload",
            "derive_products",
        ),
        "repro.workloads.search": (
            "InvertedIndexWorkload", "PageRankWorkload",
        ),
        "repro.workloads.social": (
            "ConnectedComponentsWorkload", "KMeansWorkload",
        ),
        "repro.workloads.streaming_workloads": (
            "RollingUpdateRateWorkload", "WindowedAggregationWorkload",
        ),
    },
)
