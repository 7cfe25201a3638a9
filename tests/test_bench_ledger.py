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


def test_the_mapreduce_in_bulk_rows_are_a_parent_and_a_change_row():
    """The ``accounting.meter_cost`` rows that carry ``shuffle_ns_per_pair``
    (``bench_accounting.py``): word count's batch door and the shuffle's
    route table.  Long distinct keys went from one hash per pair to one
    matrix product per 128 keys, so that shape drops by far more than
    the host drifts; the two cells the change is for report less time.
    Those are the first two rows that carry the probe."""
    (ledger,) = [
        path for path in LEDGERS if path.name == "BENCH_accounting.json"
    ]
    rows = [
        row["measurements"] for row in json.loads(ledger.read_text())
        if "shuffle_ns_per_pair" in row["measurements"]
    ][:2]
    sides = {row["source"].split()[0].rstrip(":"): row for row in rows}
    assert len(rows) == 2 and set(sides) == {"parent", "change"}
    for measurements in rows:
        assert set(measurements["shuffle_ns_per_pair"]) == {
            "random-text-lines", "repeated-words",
        }
    parent, change = sides["parent"], sides["change"]
    assert change["shuffle_ns_per_pair"]["random-text-lines"] < (
        0.5 * parent["shuffle_ns_per_pair"]["random-text-lines"]
    )
    for cell in ("wordcount-mr.mapreduce", "sort-mr.mapreduce"):
        assert change["duration_s"][cell] < parent["duration_s"][cell], cell


def test_the_workload_kernel_rows_are_a_parent_and_a_change_row():
    """The ``bench_accounting.py`` rows of the workload kernels (the YCSB
    mix's one uniform per operation, k-means' one-pass nearest centroid).
    The two cells whose own Python was rewritten report less time; the
    pair meter does the same work in a k-means job with less user code
    around it, so its share of ``kmeans-mr`` rises.  The shares are
    ratios of two timings taken in one run, so they hold on a host that
    drifts."""
    (ledger,) = [
        path for path in LEDGERS if path.name == "BENCH_accounting.json"
    ]
    rows: dict[tuple[str, str], dict] = {}
    for row in json.loads(ledger.read_text()):
        measurements = row["measurements"]
        if "workload kernels" in measurements["source"]:
            side = measurements["source"].split()[0].rstrip(":")
            rows[side, row["fingerprint"]["benchmark"]] = measurements
    assert set(rows) == {
        (side, benchmark)
        for side in ("parent", "change")
        for benchmark in (
            "accounting.meter_cost", "accounting.batch_doors",
            "accounting.pair_meter",
        )
    }
    parent, change = (
        rows[side, "accounting.meter_cost"]["duration_s"]
        for side in ("parent", "change")
    )
    for cell in ("kmeans-mr.mapreduce", "ycsb-2eng.nosql"):
        assert change[cell] < parent[cell], cell
    parent, change = (
        rows[side, "accounting.pair_meter"]["share"]["kmeans-mr"]
        for side in ("parent", "change")
    )
    assert parent["calls"] == change["calls"] > 0
    assert change["share"] > parent["share"]


def test_the_kmeans_door_rows_are_a_parent_and_a_change_row():
    """The ``bench_accounting.py`` rows of k-means' batch door (a split
    assigned in one numpy pass).  ``kmeans-mr`` reports less time; the
    pair meter sizes the same pairs in the same number of calls, so its
    share of the job rises."""
    (ledger,) = [
        path for path in LEDGERS if path.name == "BENCH_accounting.json"
    ]
    rows: dict[tuple[str, str], dict] = {}
    for row in json.loads(ledger.read_text()):
        measurements = row["measurements"]
        if "k-means batch door" in measurements["source"]:
            side = measurements["source"].split()[0].rstrip(":")
            rows[side, row["fingerprint"]["benchmark"]] = measurements
    assert set(rows) == {
        (side, benchmark)
        for side in ("parent", "change")
        for benchmark in (
            "accounting.meter_cost", "accounting.batch_doors",
            "accounting.pair_meter",
        )
    }
    parent, change = (
        rows[side, "accounting.meter_cost"]["duration_s"]["kmeans-mr.mapreduce"]
        for side in ("parent", "change")
    )
    assert change < parent
    parent, change = (
        rows[side, "accounting.pair_meter"]["share"]["kmeans-mr"]
        for side in ("parent", "change")
    )
    assert parent["calls"] == change["calls"] > 0
    assert change["share"] > parent["share"]


def test_the_bytecode_cache_rows_are_a_parent_and_a_change_row():
    """The start-up rows that price ``repro_cached`` (``bench_startup.py``).
    On the parent the cache does not exist and the condition compiles
    every process; on the change its steady state sits nearer the
    verb's warm ``__pycache__`` row than compiling every process.
    Those are the first two rows that carry the condition."""
    (ledger,) = [path for path in LEDGERS if path.name == "BENCH_startup.json"]
    probed = [
        row["measurements"] for row in json.loads(ledger.read_text())
        if "repro_cached"
        in row["measurements"].get("without_bytecode", {}).get("cli.list", {})
    ][:2]
    rows = {measurements["source"]: measurements for measurements in probed}
    assert set(rows) == {"parent", "change"}
    for side, measurements in rows.items():
        for verb, conditions in measurements["without_bytecode"].items():
            warm = measurements["commands"][verb]["wall_q1_s"]
            uncompiled = conditions["repro_uncompiled"]["wall_q1_s"]
            cached = conditions["repro_cached"]["wall_q1_s"]
            assert uncompiled > warm, (side, verb)
            settled, other = (
                (uncompiled, warm) if side == "parent" else (warm, uncompiled)
            )
            assert abs(cached - settled) < abs(cached - other), (side, verb)


def test_the_blas_thread_rows_are_a_parent_and_a_change_row():
    """The start-up rows that carry ``cpu_q1_s`` (``bench_startup.py``):
    a CLI process starts one BLAS thread.  On the parent OpenBLAS
    started one per CPU, and they spun at numpy's import, so the verbs
    that import numpy paid CPU beyond their wall; the verbs that do not
    load the same modules as before.  Those are the first two rows that
    carry the probe; CPU seconds are a child's own, whatever the host's
    speed did between the two rows, and the gap is far wider."""
    (ledger,) = [path for path in LEDGERS if path.name == "BENCH_startup.json"]
    rows = [
        row for row in json.loads(ledger.read_text())
        if "cpu_q1_s" in row["measurements"]["commands"]["cli.list"]
    ][:2]
    sides = {
        row["measurements"]["source"].split()[0].rstrip(":"):
        row["measurements"]["commands"]
        for row in rows
    }
    assert len(rows) == 2 and set(sides) == {"parent", "change"}
    assert len({row["series"] for row in rows}) == 1
    parent, change = sides["parent"], sides["change"]
    for verb in ("cli.run-small", "cli.run-record", "cli.submit"):
        assert parent[verb]["numpy"] and change[verb]["numpy"], verb
        assert change[verb]["cpu_q1_s"] < 0.85 * parent[verb]["cpu_q1_s"], verb
    for verb in ("cli.list", "cli.runs-list", "cli.compare", "cli.jobs-list"):
        assert not parent[verb]["numpy"] and not change[verb]["numpy"], verb
        assert change[verb]["repro_modules"] == parent[verb]["repro_modules"], verb


def test_the_exit_rows_are_a_parent_and_a_change_row():
    """The start-up rows that carry ``exit_s`` (``bench_startup.py``): the
    time from a verb's ``SystemExit`` to its reap.  On the parent the
    interpreter's teardown collections walked the whole heap; on the
    change ``process_main`` froze it first, so every verb's exit falls
    and the seven together take less than half as long.  Those are the
    first two rows that carry the stamp, in the series of every row
    before them."""
    (ledger,) = [path for path in LEDGERS if path.name == "BENCH_startup.json"]
    history = json.loads(ledger.read_text())
    rows = [
        row for row in history
        if "exit_s" in row["measurements"]["commands"]["cli.list"]
    ][:2]
    sides = {
        row["measurements"]["source"]: row["measurements"]["commands"]
        for row in rows
    }
    assert len(rows) == 2 and set(sides) == {"parent", "change"}
    assert {row["series"] for row in rows} == {history[0]["series"]}
    parent, change = sides["parent"], sides["change"]
    verbs = [name for name in parent if name.startswith("cli.")]
    assert len(verbs) == 7
    for verb in verbs:
        assert 0 < change[verb]["exit_s"] < parent[verb]["exit_s"], verb
    assert 2 * sum(change[verb]["exit_s"] for verb in verbs) <= sum(
        parent[verb]["exit_s"] for verb in verbs
    )


def test_the_dataclass_method_rows_are_a_parent_and_a_change_row():
    """The start-up rows that carry ``dataclass_compiles``
    (``bench_startup.py``): the method sources ``dataclasses`` compiled
    in each command's footprint process, which runs after the timed
    processes of its command have used the same cache home.  On the
    parent every verb compiled its classes' methods again; on the change
    ``repro._bytecode``'s method table served every one of them, in each
    verb and in ``first-result``.  Those are the first two rows that
    carry the count, in the series of every row before them."""
    (ledger,) = [path for path in LEDGERS if path.name == "BENCH_startup.json"]
    history = json.loads(ledger.read_text())
    rows = [
        row for row in history
        if "dataclass_compiles" in row["measurements"]["commands"]["cli.list"]
    ][:2]
    sides = {
        row["measurements"]["source"]: row["measurements"]["commands"]
        for row in rows
    }
    assert len(rows) == 2 and set(sides) == {"parent", "change"}
    assert {row["series"] for row in rows} == {history[0]["series"]}
    parent, change = sides["parent"], sides["change"]
    verbs = [name for name in parent if name.startswith("cli.")]
    assert len(verbs) == 7
    for verb in verbs:
        assert parent[verb]["dataclass_compiles"] > 0, verb
        assert change[verb]["dataclass_compiles"] == 0, verb
    assert parent["first-result"]["dataclass_compiles"] > 0
    assert change["first-result"]["dataclass_compiles"] == 0


def test_the_slotted_stream_record_rows_are_a_parent_and_a_change_row():
    """The ``generator_rates.poisson-stream`` rows of slotted events built
    by column.  Each side is the fastest of seven generations in a fresh
    process; one constructor call per event became four column writes,
    a gain far outside what this host drifts between two such rows."""
    (ledger,) = [
        path for path in LEDGERS if path.name == "BENCH_datagen_pipeline.json"
    ]
    sides = {
        row["measurements"]["source"].split()[0].rstrip(":"): row
        for row in json.loads(ledger.read_text())
        if "slotted stream records" in row["measurements"].get("source", "")
    }
    assert set(sides) == {"parent", "change"}
    assert len({row["series"] for row in sides.values()}) == 1
    rates = {
        side: {
            shape: measured["records_per_second"]
            for shape, measured in row["measurements"]["shapes"].items()
        }
        for side, row in sides.items()
    }
    for shape in ("partitions1", "partitions2"):
        assert rates["change"][shape] > 1.4 * rates["parent"][shape], shape


def test_the_whole_array_rows_are_a_parent_and_a_change_row():
    """The ``generator_rates.e2e-volumes`` rows of generators that build
    records from whole arrays (``bench_datagen_pipeline.py``).  Each side
    is every generator's fastest ``generate()`` at its end-to-end volume,
    the generators taking turns in one fresh process.  The four rewritten
    ones take less time; ``kv-records`` was not touched and its cost is
    the draw itself, so it stays within what the host drifts."""
    pair = _pair(
        "BENCH_datagen_pipeline.json",
        "datagen_pipeline.generator_rates.e2e-volumes",
    )
    parent, change = (pair[side]["generators"] for side in ("parent", "change"))
    assert set(parent) == set(change) == {
        "fitted-table", "random-text", "rmat-graph", "mixture-table", "kv-records",
    }
    for name in parent:
        assert parent[name]["records"] == change[name]["records"] > 0, name
    for name in ("fitted-table", "random-text", "rmat-graph", "mixture-table"):
        assert change[name]["seconds"] < 0.8 * parent[name]["seconds"], name
    kv = change["kv-records"]["seconds"] / parent["kv-records"]["seconds"]
    assert 0.75 < kv < 1.33


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


def test_the_lda_sampler_rows_are_a_parent_and_a_change_row():
    """The ``generator_rates.lda-text`` rows (``bench_datagen_pipeline.py``):
    ``generate()`` of a fitted ``lda-text`` at the ``grep-lda`` volume, the
    fastest of fifteen calls in a fresh process per side.  The same
    documents, and one search per drawn topic instead of ``rng.choice``
    and a search per topic: far more than this host drifts."""
    pair = _pair(
        "BENCH_datagen_pipeline.json", "datagen_pipeline.generator_rates.lda-text"
    )
    parent, change = (
        pair[side]["generators"]["lda-text"] for side in ("parent", "change")
    )
    assert parent["records"] == change["records"] == 600
    assert parent["digest"] == change["digest"]
    assert change["seconds"] < 0.75 * parent["seconds"]


def test_the_blocked_cfs_rows_are_a_parent_and_a_change_row():
    """The ``accounting.meter_cost`` rows that carry ``cfs``
    (``bench_accounting.py``): ``CfsWorkload.run_dfs`` over each CFS cell's
    data set, the fastest of at least seven calls per side.  The same
    bytes reach the DFS, cut into the same blocks; encoding and hashing
    a block of documents at a time takes less time in both cells."""
    (ledger,) = [
        path for path in LEDGERS if path.name == "BENCH_accounting.json"
    ]
    rows = [
        row["measurements"] for row in json.loads(ledger.read_text())
        if "cfs" in row["measurements"]
    ][:2]
    sides = {row["source"].split()[0].rstrip(":"): row["cfs"] for row in rows}
    assert len(rows) == 2 and set(sides) == {"parent", "change"}
    parent, change = sides["parent"], sides["change"]
    assert set(parent) == set(change) == {"cfs-dfs", "cfs-text"}
    for cell in parent:
        seconds = parent[cell].pop("seconds"), change[cell].pop("seconds")
        assert parent[cell] == change[cell], cell
        assert parent[cell]["bytes"] > 0
        assert seconds[1] < seconds[0], cell


def test_the_counting_door_rows_are_a_parent_and_a_change_row():
    """The ``accounting.batch_doors`` rows that carry ``window_count_ns``
    (``bench_accounting.py``): ``WindowedAggregationWorkload.run_streaming``
    per event over the ``window-poisson`` stream, the fastest of at least
    seven calls per side.  The same workload call; on the change its
    window counts a run in bulk.  ``counted_record_ns`` runs the fold on
    both sides, so it says how far the host drifted between the rows:
    a pair is kept only when that moved by less than 5 %."""
    (ledger,) = [
        path for path in LEDGERS if path.name == "BENCH_accounting.json"
    ]
    rows = [
        row["measurements"] for row in json.loads(ledger.read_text())
        if "window_count_ns" in row["measurements"]
    ][:2]
    sides = {row["source"].split()[0].rstrip(":"): row for row in rows}
    assert len(rows) == 2 and set(sides) == {"parent", "change"}
    parent, change = sides["parent"], sides["change"]
    assert 0.95 < change["counted_record_ns"] / parent["counted_record_ns"] < 1.05
    assert change["window_count_ns"] <= 0.75 * parent["window_count_ns"]
