"""A partitioned NoSQL store (the NoSQL substitute)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engines.nosql.store": (
            "ConsistencyLevel", "LatencyModel", "NoSqlStore", "OpResult",
        ),
    },
)
