"""Baseline management (result analysis, piece 3 of 4).

A *baseline* is a recorded run promoted under a name ("main",
"v1.2", "pre-refactor") that later runs are judged against.  Baselines
live in a small JSON map next to the run store's JSONL file; promoting
never copies the record — the name is a pointer, the record stays
immutable in the store.

Writers take turns under an ``flock`` on ``baselines.lock``, a file that
is never replaced, and ``os.replace`` the map whole: no promotion is
lost, and a reader (no lock) sees the old map or the new, never a torn one.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.analysis.store import RunRecord, RunStore
from repro.core.errors import AnalysisError


@dataclass
class Baseline:
    """A named pointer to one recorded run."""

    name: str
    record_id: str
    series: str
    promoted_at: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "record_id": self.record_id,
            "series": self.series,
            "promoted_at": self.promoted_at,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Baseline":
        return cls(
            name=payload["name"],
            record_id=payload["record_id"],
            series=payload.get("series", ""),
            promoted_at=payload.get("promoted_at", ""),
        )


class BaselineManager:
    """Promote, list, and resolve named baselines for one run store."""

    FILENAME = "baselines.json"
    LOCKNAME = "baselines.lock"

    def __init__(self, store: RunStore) -> None:
        self.store = store

    @property
    def path(self):
        return self.store.root / self.FILENAME

    def _load(self) -> dict[str, Baseline]:
        if not self.path.exists():
            return {}
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise AnalysisError(
                f"corrupt baselines file {self.path}: {error}"
            ) from None
        return {
            name: Baseline.from_dict(entry) for name, entry in payload.items()
        }

    @contextmanager
    def _editing(self) -> Iterator[dict[str, Baseline]]:
        """The map to change in the block, under the store's baselines
        lock; written back atomically unless the block raises."""
        self.store.root.mkdir(parents=True, exist_ok=True)
        with open(self.store.root / self.LOCKNAME, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            baselines = self._load()
            yield baselines
            payload = {name: b.as_dict() for name, b in sorted(baselines.items())}
            temporary = self.path.with_name(self.FILENAME + ".tmp")
            temporary.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            os.replace(temporary, self.path)

    # ------------------------------------------------------------------

    def promote(self, ref: str, name: str) -> Baseline:
        """Promote a recorded run (by any store reference) to a name.

        Re-promoting an existing name repoints it — the previous record
        stays in the store, only the pointer moves.  Failed runs cannot
        be promoted: gating against a broken reference would make every
        candidate look healthy.
        """
        if not name or name == "latest":
            raise AnalysisError(f"invalid baseline name {name!r}")
        record = self.store.get(ref)
        if not record.ok:
            raise AnalysisError(
                f"record {record.record_id!r} has status "
                f"{record.status!r}; only ok runs can become baselines"
            )
        baseline = Baseline(
            name=name,
            record_id=record.record_id,
            series=record.series,
            promoted_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )
        with self._editing() as baselines:
            baselines[name] = baseline
        return baseline

    def all(self) -> dict[str, Baseline]:
        return self._load()

    def get(self, name: str) -> Baseline:
        baselines = self._load()
        if name not in baselines:
            raise AnalysisError(
                f"unknown baseline {name!r}; "
                f"available: {sorted(baselines) or '(none)'}"
            )
        return baselines[name]

    def resolve(self, name: str) -> RunRecord:
        """The run record a baseline name points at."""
        return self.store.get(self.get(name).record_id)

    def remove(self, name: str) -> None:
        with self._editing() as baselines:
            if name not in baselines:
                raise AnalysisError(f"unknown baseline {name!r}")
            del baselines[name]
