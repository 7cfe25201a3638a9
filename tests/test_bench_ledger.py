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


def _pair(ledger_name: str, benchmark: str) -> dict[str, dict]:
    """``{"parent": measurements, "change": measurements}`` of the first
    two rows of a series opened as a ``--src OTHER/src`` pair."""
    (ledger,) = [path for path in LEDGERS if path.name == ledger_name]
    rows = [
        row for row in json.loads(ledger.read_text())
        if row["fingerprint"]["benchmark"] == benchmark
    ]
    assert len(rows) >= 2 and len({row["series"] for row in rows[:2]}) == 1
    pair = {
        row["measurements"]["source"].split()[0].rstrip(":"): row["measurements"]
        for row in rows[:2]
    }
    assert set(pair) == {"parent", "change"}
    return pair


def test_the_batch_door_series_is_a_parent_and_a_change_row():
    """The series ISSUE 21 opened.  Timings on a host that drifts, so only
    what the change is *for* is asserted: a size the process knows costs
    next to nothing, where the parent walked the records again."""
    pair = _pair("BENCH_accounting.json", "accounting.batch_doors")
    for measurements in pair.values():
        assert measurements["built_events_per_s"] > 0
        assert measurements["counted_record_ns"] > 0
        assert measurements["nosql_load_ns_per_row"] > 0
    parent, change = (
        pair[side]["sizing_ns_per_record"] for side in ("parent", "change")
    )
    assert parent["known"] > 0.5 * parent["first_walk"]
    assert change["known"] < 0.1 * change["first_walk"]


def test_the_pair_meter_series_is_a_parent_and_a_change_row():
    """The series ISSUE 23 opened (accounting version 2).  The shares are
    ratios of two timings taken in one run, so they hold on a host that
    drifts: the pair meter was about half of the two iterative MapReduce
    cells and is now a small part of them."""
    pair = _pair("BENCH_accounting.json", "accounting.pair_meter")
    for measurements in pair.values():
        assert len(measurements["ns_per_pair"]) == 6
        assert all(value > 0 for value in measurements["ns_per_pair"].values())
        assert set(measurements["share"]) == {"pagerank-mr", "kmeans-mr"}
    parent, change = (pair[side]["share"] for side in ("parent", "change"))
    for cell in ("pagerank-mr", "kmeans-mr"):
        assert parent[cell]["calls"] == change[cell]["calls"] > 0
        assert parent[cell]["share"] > 0.3
        assert change[cell]["share"] < 0.15
    # Numbers got cheaper to size; only long strings got dearer (the
    # wire form copies their UTF-8 bytes, ``len(str)`` did not).
    for shape, parent_ns in pair["parent"]["ns_per_pair"].items():
        change_ns = pair["change"]["ns_per_pair"][shape]
        assert (change_ns < parent_ns) == (shape != "str342.int"), shape


def test_the_stream_rate_series_is_a_parent_and_a_change_row():
    pair = _pair(
        "BENCH_datagen_pipeline.json",
        "datagen_pipeline.generator_rates.poisson-stream",
    )
    for measurements in pair.values():
        assert set(measurements["shapes"]) == {"partitions1", "partitions2"}
        for shape in measurements["shapes"].values():
            assert shape["records"] == 30_000
            assert shape["records_per_second"] > 0
