"""``run.py --smoke``: every workload end to end, and what it declares."""

import json
import re
import subprocess
import sys
import time

import drivers
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_within_the_contract():
    spec = run.declared()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(drivers.WORKLOADS)
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= len(spec["end_to_end"]) <= 16
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
    for workload in spec["workloads"]:
        assert workload["why"] == drivers.WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    # Every cell has its wall-time metric declared.
    declared = {m["name"] for m in spec["per_layer"]}
    for definition in drivers.WORKLOADS.values():
        for cell in definition.cells:
            prefix = "cli" if cell.kind == "cli" else "cell"
            assert f"{prefix}.{cell.name}.wall_s" in declared


def test_smoke_runs_every_workload_without_a_failure():
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(drivers.HERE / "run.py"), "--smoke", "--seed", "5"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 30
    spec = run.declared()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload, definition in drivers.WORKLOADS.items():
        result = json.loads(
            (run.OUT / f"latest-{workload}.json").read_text(encoding="utf-8")
        )
        assert result["seed"] == 5
        assert result["failed"] == 0, result["problems"]
        assert result["attempted"] == len(definition.cells)
        assert set(result["end_to_end"]) == end_to_end
        assert all(value > 0 for value in result["end_to_end"].values())
        assert set(result["per_layer"]) <= per_layer
        assert result["per_layer"]["harness.rounds"] == 1
        line = json.loads(run.contract_line(result, False, spec))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and set(line["metrics"]) == end_to_end
        traced = json.loads(run.contract_line(result, True, spec))
        assert set(traced["metrics"]) == per_layer
        assert {"nproc", "python", "numpy", "repro", "git_sha", "loadavg_start"} <= set(
            result["environment"]
        )
