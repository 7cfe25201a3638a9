"""One spec, every path: direct run, service job, local and service ablation.

Each path hands the spec to the same ``resolve`` (see
:mod:`repro.execution.plan`), so all of them must build the same
engines, measure the same deterministic metrics and cost counters, and
record under the same fingerprint and series key.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.api import BenchmarkSpec
from repro.observability import Tracer
from repro.tuning import run_ablation

RELATIONAL = "database-aggregate-join"

#: Metrics that do not depend on wall-clock time (every dbms metric does).
DETERMINISTIC_METRICS = {
    "mapreduce": [
        "throughput", "ops_per_second", "data_rate",
        "network_rate", "energy", "cost",
    ],
    "nosql": [
        "throughput", "mean_latency", "latency_p95", "latency_p99",
        "network_rate",
    ],
    "dbms": [],
}

#: Explicit executor/chunk size so REPRO_EXECUTOR / REPRO_CHUNK_SIZE
#: cannot make the two sides of a comparison differ.
SPECS = {
    "nosql-normal": dict(
        prescription="oltp-read-write", engines=["nosql"], volume=200,
        params={"operation_count": 150}, executor="serial", chunk_size=None,
    ),
    "relational-columnar": dict(
        prescription=RELATIONAL, volume=120, layout="columnar",
        executor="serial", chunk_size=None,
    ),
    "relational-optimized": dict(
        prescription=RELATIONAL, volume=120, tuning="optimized",
        params={"seed": 0}, executor="serial", chunk_size=None,
    ),
    "wordcount-chunked-process": dict(
        prescription="micro-wordcount", volume=200, chunk_size=64,
        executor="process", max_workers=2,
    ),
}


def _observe(outcome, record) -> dict:
    """What must not depend on the path that ran the spec."""
    summary = outcome.extra.get("trace_summary") or {}
    return {
        "status": outcome.status,
        "metrics": {
            name: outcome.mean(name)
            for name in DETERMINISTIC_METRICS[outcome.engine]
            if name in outcome.metrics
        },
        # CostCounters, as the workload span reports them (traced paths).
        "cost": summary.get("workload", {}).get("counters"),
        "layout": outcome.extra.get("layout"),
        "fingerprint": record.fingerprint,
        "series": record.series,
    }


def _direct(fields: dict, store_dir: str) -> dict[str, dict]:
    report = api.run(
        BenchmarkSpec(**fields, store_dir=store_dir), tracer=Tracer()
    )
    assert not report.failures
    store = api.RunStore(store_dir)
    return {
        result.engine: _observe(result, store.get(record_id))
        for result, record_id in zip(report.results, report.record_ids)
    }


def _service(fields: dict, store_dir: str) -> dict[str, dict]:
    with api.serve(
        schedulers=1, store_dir=store_dir, tracer=Tracer()
    ) as client:
        handle = client.submit(BenchmarkSpec(**fields, store_dir=store_dir))
        outcomes = handle.result(timeout=120)
        record_ids = handle.job.record_ids
    store = api.RunStore(store_dir)
    return {
        outcome.engine: _observe(outcome, store.get(record_id))
        for outcome, record_id in zip(outcomes, record_ids)
    }


@pytest.mark.parametrize("name", sorted(SPECS))
def test_direct_and_service_agree(tmp_path, name):
    direct = _direct(SPECS[name], str(tmp_path / "direct"))
    service = _service(SPECS[name], str(tmp_path / "service"))
    assert direct and list(direct) == list(service)
    for engine in direct:
        assert direct[engine]["cost"] is not None
        assert direct[engine] == service[engine], engine


@pytest.mark.parametrize("service", [False, True], ids=["local", "service"])
def test_ablation_cells_match_the_direct_run(tmp_path, service):
    fields = SPECS["relational-optimized"]
    direct = _direct(fields, str(tmp_path / "direct"))
    report = run_ablation(
        [RELATIONAL],
        ["dbms", "mapreduce", "nosql"],
        repeats=1,
        volume=fields["volume"],
        seed=fields["params"]["seed"],
        include_one_offs=False,
        store_dir=str(tmp_path / "ablate"),
        service=service,
    )
    store = api.RunStore(str(tmp_path / "ablate"))
    for engine, expected in direct.items():
        cell = report.cell(RELATIONAL, engine, "optimized")
        assert cell.ok
        observed = _observe(cell.outcome, store.get(cell.record_id))
        assert cell.series == expected["series"]
        # Ablation cells run untraced: no cost counters to compare.
        assert observed == {**expected, "cost": None}, engine


def test_the_three_disagreements_are_gone(tmp_path):
    """The concrete keys and engines the paths used to disagree on."""
    nosql = _service(SPECS["nosql-normal"], str(tmp_path / "a"))["nosql"]
    # A bare NoSqlStore has replication factor 1: no replica traffic.
    assert nosql["metrics"]["network_rate"] == 0

    columnar = _service(SPECS["relational-columnar"], str(tmp_path / "b"))
    for engine in ("dbms", "mapreduce", "nosql"):
        assert columnar[engine]["fingerprint"]["layout"] == "columnar"
    assert columnar["dbms"]["layout"] == "columnar"

    optimized = _service(SPECS["relational-optimized"], str(tmp_path / "c"))
    fingerprint = optimized["dbms"]["fingerprint"]
    assert "layout" not in fingerprint
    assert fingerprint["tuning"]["knobs"]["layout"] == "columnar"
    # What executed stays honest on the result.
    assert optimized["dbms"]["layout"] == "columnar"
