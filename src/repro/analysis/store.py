"""The persistent run store (result analysis, piece 1 of 4).

Every recorded run becomes one append-only JSONL line under a
configurable directory (``REPRO_STORE_DIR``, default ``.repro-runs``).
A record captures everything a later comparison needs:

* the **spec fingerprint** — prescription, workload, engine, volume,
  seed, chunk size, executor, repeats, partitions, params — hashed into
  a *series* key, so runs of identical configurations group into
  comparable series across time;
* the **environment fingerprint** — python version, platform, CPU
  count, git SHA — the "what changed" half of a perf investigation;
* the full :class:`~repro.core.results.RunResult` serialization
  (per-metric **samples**, not just means, so the comparison engine can
  bootstrap) or the captured :class:`~repro.core.results.TaskFailure`;
* the per-task **trace summary** when the run was traced.

Records never mutate; baselines (see
:mod:`repro.analysis.baselines`) reference them by id.  The file is an
:class:`~repro.core.appendlog.AppendLog`: concurrent writers (threads,
processes, several :class:`RunStore` objects on one directory) are
supported and get distinct, ordered ids; a line torn by a crash costs
only itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.appendlog import AppendLog
from repro.core.errors import AnalysisError
from repro.core.results import RunResult, TaskFailure

#: Environment variable naming the default store directory.
STORE_DIR_ENV = "REPRO_STORE_DIR"
#: Default store directory when neither an argument nor the environment
#: names one.
DEFAULT_STORE_DIR = ".repro-runs"

#: The ``RunResult.extra`` / ``TaskFailure.extra`` key a freshly
#: recorded outcome's id is echoed under.
RECORD_ID_EXTRA_KEY = "record_id"


def fingerprint_hash(fingerprint: dict[str, Any]) -> str:
    """Content hash of a fingerprint dict — the series key.

    Canonical JSON (sorted keys, stringified fallbacks) through SHA-256,
    truncated to 12 hex chars: collision-safe at any plausible number of
    distinct configurations and short enough to type.
    """
    canonical = json.dumps(fingerprint, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def spec_fingerprint(
    prescription: str,
    engine: str,
    *,
    workload: str | None = None,
    volume: int | None = None,
    seed: Any = None,
    repeats: int = 1,
    params: dict[str, Any] | None = None,
    chunk_size: int | None = None,
    executor: str = "serial",
    data_partitions: int | None = None,
    layout: str = "row",
    tuning: Any = None,
) -> dict[str, Any]:
    """The canonical spec fingerprint two comparable runs must share.

    Everything that changes *what work runs* belongs here; everything
    that changes *how fast the code is* (git SHA, python version,
    hardware) belongs in :func:`environment_fingerprint` — so a code
    change keeps the series intact and shows up as movement within it.

    ``layout`` joins the payload only when non-default ("columnar"):
    every historical record was implicitly row-layout, and omitting the
    default keeps those series byte-identical and comparable.  The same
    contract covers ``tuning``: a normal profile contributes nothing
    (every historical record was implicitly normal), while a tuned
    profile's payload (see
    :meth:`repro.tuning.profiles.TuningProfile.fingerprint`) forks the
    series so tuned runs never pollute baseline history.

    ``accounting`` joins only for an engine that declares an
    :attr:`~repro.engines.base.Engine.accounting_version`: its byte
    counters are sized by ``estimate_pair_bytes``, whose definition is
    versioned, so bytes of two definitions never share a series, while
    the key of every engine that meters no pair stays what it was.
    """
    params = dict(params or {})
    fingerprint = {
        "prescription": prescription,
        "workload": workload or prescription,
        "engine": engine,
        "volume": volume,
        "seed": seed if seed is not None else params.get("seed", 0),
        "repeats": repeats,
        "params": params,
        "chunk_size": chunk_size,
        "executor": executor,
        "data_partitions": data_partitions or 1,
    }
    if layout != "row":
        fingerprint["layout"] = layout
    if tuning:
        fingerprint["tuning"] = tuning
    accounting = _accounting_version(engine)
    if accounting is not None:
        fingerprint["accounting"] = accounting
    return fingerprint


def _accounting_version(engine: str) -> int | None:
    """What the registered engine class declares.  None for an engine
    whose counters meter no pair, for a name the registry does not know,
    and for one registered as a factory that is not the engine class
    (``register_instance``)."""
    from repro.core.registry import engines

    if engine not in engines:
        return None
    return getattr(engines.resolve(engine), "accounting_version", None)


_ENV_CACHE: dict[str, Any] | None = None


def _git_sha() -> str | None:
    import subprocess

    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def environment_fingerprint(refresh: bool = False) -> dict[str, Any]:
    """Python/platform/CPU/git identity of the recording process.

    Cached per process (the git subprocess is the expensive part);
    ``refresh=True`` recomputes.
    """
    global _ENV_CACHE
    if _ENV_CACHE is None or refresh:
        # Imported by the first recording, not by every reader of the store.
        import platform

        _ENV_CACHE = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "git_sha": _git_sha(),
        }
    return dict(_ENV_CACHE)


@dataclass
class RunRecord:
    """One immutable line of the run store."""

    record_id: str
    series: str
    created_at: str
    fingerprint: dict[str, Any]
    environment: dict[str, Any]
    result: dict[str, Any]
    trace_summary: dict[str, Any] | None = None

    # -- convenience views ------------------------------------------------

    @property
    def test_name(self) -> str:
        return self.result.get("test", "")

    @property
    def engine(self) -> str:
        return self.result.get("engine", "")

    @property
    def workload(self) -> str:
        return self.result.get("workload", "")

    @property
    def status(self) -> str:
        return self.result.get("status", "ok")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def metrics(self) -> dict[str, list[float]]:
        """Metric name → raw samples (empty for failure records)."""
        out: dict[str, list[float]] = {}
        for name, stats in self.result.get("metrics", {}).items():
            samples = stats.get("samples")
            if samples:
                out[name] = [float(s) for s in samples]
        return out

    def samples(self, metric: str) -> list[float]:
        try:
            return self.metrics[metric]
        except KeyError:
            raise AnalysisError(
                f"record {self.record_id!r} has no samples of metric "
                f"{metric!r}; available: {sorted(self.metrics)}"
            ) from None

    def mean(self, metric: str) -> float:
        samples = self.samples(metric)
        return sum(samples) / len(samples)

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "record_id": self.record_id,
            "series": self.series,
            "created_at": self.created_at,
            "fingerprint": self.fingerprint,
            "environment": self.environment,
            "result": self.result,
        }
        if self.trace_summary:
            payload["trace_summary"] = self.trace_summary
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunRecord":
        return cls(
            record_id=payload["record_id"],
            series=payload["series"],
            created_at=payload.get("created_at", ""),
            fingerprint=payload.get("fingerprint", {}),
            environment=payload.get("environment", {}),
            result=payload.get("result", {}),
            trace_summary=payload.get("trace_summary"),
        )


@dataclass
class RunStore:
    """Append-only JSONL store of recorded runs.

    The directory is created lazily on first write, so constructing a
    store (e.g. to *read* history) never touches the filesystem.
    """

    root: Path = field(default_factory=lambda: Path(resolve_store_dir()))

    FILENAME = "runs.jsonl"

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._log = AppendLog(self.path, AnalysisError, "run store")

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    # -- writing ----------------------------------------------------------

    def record_outcome(
        self,
        outcome: RunResult | TaskFailure,
        fingerprint: dict[str, Any],
        environment: dict[str, Any] | None = None,
        trace_summary: dict[str, Any] | None = None,
    ) -> RunRecord:
        """Append one outcome as a new immutable record.

        The record id (``r0001``, ``r0002``, …) is echoed back into the
        outcome's ``extra`` so reports can reference it.
        """
        from repro.execution.runner import TRACE_SUMMARY_KEY

        if trace_summary is None:
            trace_summary = outcome.extra.get(TRACE_SUMMARY_KEY)
        record = RunRecord(
            record_id="",
            series=fingerprint_hash(fingerprint),
            created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            fingerprint=dict(fingerprint),
            environment=environment or environment_fingerprint(),
            result=outcome.as_dict(),
            trace_summary=trace_summary,
        )

        def numbered(last: bytes | None) -> str:
            # Under the log's lock: the id after the last line's is ours.
            record.record_id = f"r{self._number_of(last) + 1:04d}"
            return json.dumps(record.as_dict(), default=str)

        self._log.append(numbered)
        outcome.extra[RECORD_ID_EXTRA_KEY] = record.record_id
        return record

    def _number_of(self, line: bytes | None) -> int:
        """The ``NNNN`` of the record on ``line`` (0 for an empty store)."""
        if line is None:
            return 0
        try:
            return int(json.loads(line)["record_id"][1:])
        except (ValueError, KeyError, TypeError):
            raise AnalysisError(
                f"corrupt run store {self.path}: the last line is not a "
                "record, so the next one cannot be numbered"
            ) from None

    # -- reading ----------------------------------------------------------

    def records(self) -> list[RunRecord]:
        """Every record, oldest first (file order is append order)."""
        return self._log.read(RunRecord.from_dict)

    def series(self, key: str) -> list[RunRecord]:
        """All records of one series, oldest first."""
        return [r for r in self.records() if r.series == key]

    def latest(self, series: str | None = None) -> RunRecord:
        """Newest record (optionally within one series)."""
        records = self.series(series) if series else self.records()
        if not records:
            raise AnalysisError(
                f"run store {self.path} has no records"
                + (f" in series {series!r}" if series else "")
            )
        return records[-1]

    def get(self, ref: str) -> RunRecord:
        """Resolve a record reference.

        Accepts ``"latest"``, an exact record id, a unique record-id
        prefix, or a series key / unique series prefix (resolving to the
        newest record of that series).
        """
        records = self.records()
        if not records:
            raise AnalysisError(f"run store {self.path} has no records")
        if ref == "latest":
            return records[-1]
        for record in records:
            if record.record_id == ref:
                return record
        id_matches = [r for r in records if r.record_id.startswith(ref)]
        if len({r.record_id for r in id_matches}) == 1:
            return id_matches[0]
        series_matches = [r for r in records if r.series.startswith(ref)]
        if series_matches and len({r.series for r in series_matches}) == 1:
            return series_matches[-1]
        if id_matches or series_matches:
            raise AnalysisError(f"ambiguous record reference {ref!r}")
        raise AnalysisError(
            f"no record matching {ref!r} in {self.path}; "
            f"ids: {[r.record_id for r in records[-5:]]} (last 5)"
        )


def env_store_dir() -> str | None:
    """The directory ``REPRO_STORE_DIR`` names, or None (unset / blank)."""
    return os.environ.get(STORE_DIR_ENV, "").strip() or None


def resolve_store_dir(explicit: str | os.PathLike | None = None) -> str:
    """The store directory: explicit > ``REPRO_STORE_DIR`` > default."""
    if explicit:
        return str(explicit)
    return env_store_dir() or DEFAULT_STORE_DIR
