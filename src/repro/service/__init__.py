"""Benchmark-as-a-service: an async job orchestrator over the runner.

The ROADMAP's north star — serving heavy traffic — needs the runner to
be a *worker*, not an owner of its own lifecycle.  This package is the
service in front of it:

* :mod:`repro.service.jobs` — the :class:`Job` state machine
  (``queued → admitted → running → done|failed|cancelled``) and the
  append-only JSONL job log next to the run store;
* :mod:`repro.service.queue` — bounded admission with per-client
  quotas and load shedding (typed :class:`AdmissionError` with seeded
  ``retry_after`` resubmission hints);
* :mod:`repro.service.orchestrator` — scheduler threads draining the
  queue through warm per-scheduler :class:`TestRunner` instances,
  recording into the :class:`RunStore` through ``record_outcomes``, streaming
  :class:`JobEvent` transitions, and tracing per-job spans with
  queue-depth counters;
* :mod:`repro.service.client` — the in-process :class:`ServiceClient`
  / :class:`JobHandle` surface the CLI verbs (``serve``, ``submit``,
  ``jobs list|show|cancel``) drive.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.service.client": ("JobHandle", "ServiceClient"),
        "repro.service.jobs": (
            "JOB_STATES", "TERMINAL_STATES", "Job", "JobLog",
        ),
        "repro.service.orchestrator": ("JobEvent", "Orchestrator"),
        "repro.service.queue": (
            "ADMISSION_REASONS", "AdmissionError", "AdmissionQueue",
        ),
    },
)
