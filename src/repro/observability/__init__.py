"""Structured tracing & instrumentation (cross-cutting, zero-dependency).

Gives every layer of the Figure-2 architecture a shared measurement
substrate: the five-step process, test/data generation, the dataset
and fitted-model caches, the runner's executor backends, and the
MapReduce runtime all record into the thread's current :class:`Tracer`.  See
:mod:`repro.observability.tracing`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.observability.tracing": (
            "NULL_SPAN", "NULL_TRACER", "Span", "Tracer", "current_tracer",
            "summarize_spans", "trace_span",
        ),
    },
)
