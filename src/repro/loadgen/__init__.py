"""Controllable-velocity load generation (paper §5.1, request side).

The subsystem in four pieces: :mod:`~repro.loadgen.arrivals` (seeded
open-loop schedules), :mod:`~repro.loadgen.targets` (what one request
does — synthetic model, prescribed workload, or the benchmark service),
:mod:`~repro.loadgen.slo` (budgets → verdicts), and
:mod:`~repro.loadgen.runner` (the :class:`LoadRunner` tying them
together on a virtual or real clock, recording into the run store).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.loadgen.arrivals": (
            "ARRIVAL_KINDS", "arrival_process", "arrival_schedule",
        ),
        "repro.loadgen.runner": (
            "CLOCK_KINDS", "LoadPlan", "LoadReport", "LoadRunner",
            "load_fingerprint",
        ),
        "repro.loadgen.slo": ("SLOCheck", "SLOPolicy", "SLOVerdict"),
        "repro.loadgen.targets": (
            "SERVICE_DISTRIBUTIONS", "LoadTarget", "ServiceTarget",
            "SyntheticTarget", "WorkloadTarget",
        ),
    },
)
