"""A mini stream-processing engine (the real-time analytics substitute)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engines.streaming.engine": (
            "FilterOperator", "SlidingWindowAggregate",
            "StreamingEngine", "StreamOperator", "StreamRunReport", "Topology",
            "TumblingWindowAggregate", "WindowResult", "count",
        ),
    },
)
