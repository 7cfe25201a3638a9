"""Jobs and the append-only job log (benchmark-as-a-service, piece 1).

The paper frames benchmarking as a repeatable five-step *process*; the
service layer makes each run of that process a first-class **job** with
an explicit lifecycle::

    queued -> admitted -> running -> done | failed | cancelled

A :class:`Job` pairs a versioned :class:`~repro.core.spec.BenchmarkSpec`
with its state machine, timestamps, and (once finished) its outcomes
and run-store record ids.  Every transition is appended to a JSONL
**job log** living next to the :class:`~repro.analysis.store.RunStore`
(same directory, its own file), so ``repro-bench jobs list`` can audit
what the service did long after the process exits — and
:meth:`JobLog.replay` reconstructs the jobs from nothing but the log.

States are orchestration facts, not benchmark verdicts: a job whose
batch *completed* is ``done`` even when some tasks captured a
:class:`~repro.core.results.TaskFailure` under ``on_error="continue"``
(the failures ride along in the outcomes); ``failed`` means the runner
itself raised before producing a batch.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.appendlog import AppendLog
from repro.core.errors import ServiceError
from repro.core.spec import BenchmarkSpec

#: Every job state, in lifecycle order.
JOB_STATES = (
    "queued", "admitted", "running", "done", "failed", "cancelled",
)

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: The legal state machine (queued jobs can be cancelled before a
#: scheduler ever admits them; running jobs finish or fail).
_TRANSITIONS: dict[str, frozenset[str]] = {
    "queued": frozenset({"admitted", "cancelled"}),
    "admitted": frozenset({"running", "cancelled"}),
    "running": frozenset({"done", "failed", "cancelled"}),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}


@dataclass
class Job:
    """One benchmark run owned by the service.

    ``outcomes`` is runtime-only (live :class:`RunResult` /
    :class:`TaskFailure` objects handed to waiting clients); everything
    else serializes through :meth:`as_dict` and survives in the job log.
    """

    spec: BenchmarkSpec
    job_id: str = ""
    client: str = "anonymous"
    priority: int = 0
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    #: (state, wall-clock) pairs, one per transition, submission first.
    history: list[tuple[str, float]] = field(default_factory=list)
    #: Queue depth observed right after this job was enqueued (the
    #: load signal the per-job trace span surfaces).
    queue_depth_at_submit: int = 0
    error_type: str | None = None
    error_message: str | None = None
    #: Run-store record ids, outcome order (spec asked for recording).
    record_ids: list[str] = field(default_factory=list)
    #: Captured TaskFailure count within a completed batch.
    failure_count: int = 0
    #: Live outcomes — populated in-process only, never serialized.
    outcomes: list[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.state not in _TRANSITIONS:
            raise ServiceError(
                f"unknown job state {self.state!r}; known: {JOB_STATES}"
            )
        if not self.history:
            self.history.append((self.state, self.submitted_at))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def timestamps(self) -> dict[str, float]:
        """State → wall-clock of the (first) transition into it."""
        stamps: dict[str, float] = {}
        for state, at in self.history:
            stamps.setdefault(state, at)
        return stamps

    def queue_wait_seconds(self) -> float | None:
        """Seconds between submission and admission (None while queued)."""
        stamps = self.timestamps
        if "admitted" not in stamps:
            return None
        return max(0.0, stamps["admitted"] - self.submitted_at)

    def transition(self, state: str, at: float | None = None) -> float:
        """Move to ``state``, enforcing the machine; returns the stamp."""
        allowed = _TRANSITIONS.get(self.state)
        if allowed is None:
            raise ServiceError(
                f"unknown job state {self.state!r}; known: {JOB_STATES}"
            )
        if state not in allowed:
            raise ServiceError(
                f"job {self.job_id or '<unsubmitted>'} cannot go "
                f"{self.state!r} -> {state!r}; allowed: {sorted(allowed)}"
            )
        at = time.time() if at is None else at
        self.state = state
        self.history.append((state, at))
        return at

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "history": [list(entry) for entry in self.history],
            "queue_depth_at_submit": self.queue_depth_at_submit,
            "spec": self.spec.as_dict(),
        }
        if self.error_type:
            payload["error_type"] = self.error_type
            payload["error_message"] = self.error_message
        if self.record_ids:
            payload["record_ids"] = list(self.record_ids)
        if self.failure_count:
            payload["failure_count"] = self.failure_count
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Job":
        return cls(
            spec=BenchmarkSpec.from_dict(payload["spec"]),
            job_id=payload.get("job_id", ""),
            client=payload.get("client", "anonymous"),
            priority=payload.get("priority", 0),
            state=payload.get("state", "queued"),
            submitted_at=payload.get("submitted_at", 0.0),
            history=[
                (str(state), float(at))
                for state, at in payload.get("history", [])
            ],
            queue_depth_at_submit=payload.get("queue_depth_at_submit", 0),
            error_type=payload.get("error_type"),
            error_message=payload.get("error_message"),
            record_ids=list(payload.get("record_ids", [])),
            failure_count=payload.get("failure_count", 0),
        )


@dataclass
class JobLog:
    """Append-only JSONL audit trail of every job the service touched.

    Lives next to the run store (same directory, ``jobs.jsonl``).  The
    submission event carries the full job payload (including the
    versioned spec); later transition events are one line each.  The
    file is the source of truth for the offline CLI verbs
    (``jobs list|show|cancel``) — :meth:`replay` folds the lines back
    into :class:`Job` objects, newest state winning.

    The file is an :class:`~repro.core.appendlog.AppendLog`: concurrent
    writers are supported (every event lands whole, in one order), and
    an event torn by a crash costs only itself.  Every line carries
    ``seq``, the highest job number logged up to and including it, so
    :meth:`submit` numbers a job from the tail under the log's lock, as
    the run store numbers a record: services in any number of threads
    and processes sharing one store never mint the same ``jNNNN``.
    """

    root: Path
    FILENAME = "jobs.jsonl"

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._log = AppendLog(self.path, ServiceError, "job log")

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    # -- writing ----------------------------------------------------------

    def append(
        self, job: Job, event: str, detail: dict[str, Any] | None = None
    ) -> None:
        """Append one lifecycle event (``event`` is the entered state)."""

        def line(last: bytes | None) -> str:
            seq = max(self._highest(last), _number(job.job_id))
            return self._line(job, event, detail, seq)

        self._log.append(line)

    def submit(self, job: Job, admit: Callable[[Job], Any]) -> None:
        """Number ``job`` after the highest ``jNNNN`` logged, ``admit`` it
        and log it ``queued``, all under the log's lock.  When ``admit``
        raises (the queue sheds the job) nothing is logged."""

        def queued(last: bytes | None) -> str:
            number = self._highest(last) + 1
            job.job_id = f"j{number:04d}"
            admit(job)
            return self._line(job, "queued", None, number)

        self._log.append(queued)

    def _line(
        self,
        job: Job,
        event: str,
        detail: dict[str, Any] | None,
        seq: int,
    ) -> str:
        line: dict[str, Any] = {
            "job_id": job.job_id,
            "event": event,
            "at": job.timestamps.get(event, time.time()),
            "seq": seq,
        }
        if event == "queued":
            line["job"] = job.as_dict()
        if detail:
            line["detail"] = detail
        return json.dumps(line, default=str)

    def _highest(self, last: bytes | None) -> int:
        """The ``seq`` of the log's last line; a log written before
        lines carried it is scanned (once: the line appended next
        carries it)."""
        if last is None:
            return 0
        try:
            return int(json.loads(last)["seq"])
        except (ValueError, KeyError, TypeError):
            return self.last_sequence()

    def cancel(self, job_id: str, reason: str) -> Job:
        """Tombstone a non-terminal logged job, offline.

        For orphans of a dead service process: only the log changes, a
        live orchestrator is not notified.  ``job_id`` resolves like
        :meth:`get`; a job already terminal raises.
        """
        job = self.get(job_id)
        if job.terminal:
            raise ServiceError(f"job {job.job_id} is already {job.state}")
        job.transition("cancelled")
        self.append(job, "cancelled", detail={"reason": reason})
        return job

    # -- reading ----------------------------------------------------------

    def last_sequence(self) -> int:
        """The highest ``jNNNN`` number logged (0 for a new log), found
        by reading every line.  An unparsable line is skipped rather
        than raised: it must not stop a job being numbered
        (:meth:`events` still reports it to readers).
        """
        highest = 0
        for _, line in self._log.lines():
            try:
                number = _number(json.loads(line)["job_id"])
            except (ValueError, KeyError, TypeError):
                continue
            highest = max(highest, number)
        return highest

    def events(self) -> list[dict[str, Any]]:
        """Every logged event, oldest first."""
        return self._log.read()

    def replay(self) -> dict[str, Job]:
        """Reconstruct every logged job, submission order preserved.

        Transition events re-run through :meth:`Job.transition`, so a
        log that encodes an illegal jump fails loudly here instead of
        silently yielding an impossible state.  Events for unknown job
        ids (a truncated log) are skipped.
        """
        jobs: dict[str, Job] = {}
        for event in self.events():
            name = event.get("event")
            job_id = event.get("job_id", "")
            if name == "queued" and "job" in event:
                job = Job.from_dict(event["job"])
                jobs[job.job_id] = job
                continue
            job = jobs.get(job_id)
            if job is None or name is None:
                continue
            job.transition(name, at=event.get("at"))
            detail = event.get("detail") or {}
            if "error_type" in detail:
                job.error_type = detail["error_type"]
                job.error_message = detail.get("error_message")
            if "record_ids" in detail:
                job.record_ids = list(detail["record_ids"])
            if "failure_count" in detail:
                job.failure_count = detail["failure_count"]
        return jobs

    def get(self, job_id: str) -> Job:
        """One replayed job, by exact id or unique prefix."""
        jobs = self.replay()
        if job_id in jobs:
            return jobs[job_id]
        matches = [job for key, job in jobs.items() if key.startswith(job_id)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise ServiceError(f"ambiguous job reference {job_id!r}")
        raise ServiceError(
            f"no job {job_id!r} in {self.path}; known: {sorted(jobs)[-5:]}"
        )


def _number(job_id: Any) -> int:
    """The ``NNNN`` of a ``jNNNN`` id (0 for anything else)."""
    try:
        return int(job_id[1:])
    except (ValueError, TypeError):
        return 0
