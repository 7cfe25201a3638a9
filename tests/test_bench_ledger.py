"""Every row of every ``benchmarks/BENCH_*.json`` is in the one history
schema ``benchmarks/_history.append_history`` writes (the run store's:
a ``fingerprint``, the ``series`` hash of it, an ``environment``, and
the ``measurements``), so any two rows of a series can be compared."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.store import fingerprint_hash

LEDGERS = sorted(
    (Path(__file__).resolve().parent.parent / "benchmarks").glob("BENCH_*.json")
)


def test_the_ledgers_are_found():
    assert len(LEDGERS) >= 8


@pytest.mark.parametrize("ledger", LEDGERS, ids=lambda path: path.name)
def test_every_row_has_the_history_schema(ledger):
    rows = json.loads(ledger.read_text())
    assert rows
    for position, row in enumerate(rows, start=1):
        assert set(row) == {
            "record_id", "series", "created_at", "fingerprint",
            "environment", "measurements",
        }, row.get("record_id", position)
        assert row["record_id"] == f"b{position:04d}"
        assert row["fingerprint"]["benchmark"]
        assert row["series"] == fingerprint_hash(row["fingerprint"])
        assert {"python", "platform", "cpus", "git_sha"} <= set(row["environment"])
        assert row["measurements"]


def test_the_model_cache_series_counts_fits_beside_seconds():
    """The series ISSUE 19 opened: a parent row, then the change row, in
    one series; the fit counts are exact, whatever the host's speed was."""
    (ledger,) = [
        path for path in LEDGERS if path.name == "BENCH_datagen_pipeline.json"
    ]
    rows = [
        row for row in json.loads(ledger.read_text())
        if row["fingerprint"]["benchmark"] == "datagen_pipeline.model_cache"
    ]
    assert len(rows) >= 2 and len({row["series"] for row in rows[:2]}) == 1
    fits = {
        row["measurements"]["source"]: {
            name: scenario["fits"]
            for name, scenario in row["measurements"]["scenarios"].items()
        }
        for row in rows[:2]
    }
    assert fits == {
        "parent": {
            "cold_run": 1, "second_run": 1, "sweep": 4, "chunked_run": 2,
        },
        "change": {
            "cold_run": 1, "second_run": 0, "sweep": 1, "chunked_run": 1,
        },
    }
