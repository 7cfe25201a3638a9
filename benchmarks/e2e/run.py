"""End-to-end benchmark of the repro framework: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 0] [--seconds 15]
                                  [--trace 0|1] [--smoke] [--aa N]

Each workload runs in child processes of its own (``drivers.py``).  For
one workload this command sets the child up several times (``setup_s``
is their median), runs timed rounds for ``--seconds`` with no wrapper
installed (the end-to-end metrics), and with ``--trace 1`` runs one more
round in a fresh child with ``layers.py`` wrappers installed (the
per-layer metrics).  Every metric is printed by name with its unit;
with ``--workload`` the last line of standard output is the result as
one JSON object.  Names, units, directions and bounds are declared in
``BENCHMARK.json`` at the repository root and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any

import drivers
import spans

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 160

def declared() -> dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- child processes ----------------------------------------------------------


def _child_env(tmp: Path) -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in drivers.SCRUBBED_ENV
    }
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([inherited] if inherited else [])
    )
    # Whatever the program spills goes under the checkout, not /tmp.
    env["TMPDIR"] = str(tmp)
    return env


def _spawn(options: argparse.Namespace, workload: str, tmp: Path, *flags: str):
    """Run one child to completion and return what it observed."""
    scratch = Path(tempfile.mkdtemp(prefix="child-", dir=tmp))
    result = scratch / "result.json"
    argv = [
        sys.executable, str(HERE / "drivers.py"),
        "--workload", workload,
        "--seed", str(options.seed),
        "--seconds", str(options.seconds),
        "--tmp", str(scratch),
        "--result", str(result),
        "--spawned-at", repr(time.time()),
        *flags,
    ]
    if options.smoke:
        argv.append("--smoke")
    child = subprocess.Popen(
        argv, cwd=scratch, env=_child_env(scratch), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        # The child's own children (CLI commands, pool workers) share its
        # session: none may outlive this call.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if child.returncode != 0 or not result.exists():
        raise RuntimeError(
            f"{workload} child exited {child.returncode}:\n{output[-4000:]}"
        )
    observed = json.loads(result.read_text(encoding="utf-8"))
    shutil.rmtree(scratch, ignore_errors=True)
    return observed


# -- observations -> metrics --------------------------------------------------


def _failures(rounds: list[dict[str, Any]]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for index, entry in enumerate(rounds, start=1):
        for name, cell in entry["cells"].items():
            attempted += 1
            if cell["problems"]:
                failed += 1
                problems += [
                    f"round {index} {name}: {problem}"
                    for problem in cell["problems"]
                ]
    return attempted, failed, problems


def _typical_round(rounds: list[dict[str, Any]], pick) -> float | None:
    """A round's total of ``pick(cell)``: each cell's typical value, summed.

    Taken per cell and then summed, because a burst of host interference
    hits one cell of a round, and nearly every round has one such cell.
    ``pick`` returns None for a cell that has no such value (a cell of
    another kind, or one that raised before it had any).
    """
    total = None
    for name in rounds[0]["cells"]:
        series = [pick(entry["cells"][name]) for entry in rounds]
        series = [value for value in series if value is not None]
        if series:
            total = (total or 0.0) + spans.typical(series)
    return total


def end_to_end(setups: list[float], timed: dict[str, Any]) -> dict[str, float]:
    rounds = timed["rounds"]
    return {
        "setup_s": median(setups),
        "round_wall_s": _typical_round(rounds, lambda cell: cell["wall_s"]),
        "round_cpu_s": _typical_round(rounds, lambda cell: cell["cpu_s"]),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def free_layer_metrics(workload: str, timed: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics the timed rounds give with no wrapper installed."""
    rounds = timed["rounds"]
    kinds = {cell.name: cell.kind for cell in drivers.WORKLOADS[workload].cells}
    walls = [entry["wall_s"] for entry in rounds]
    stated = sum(cell["records"] for cell in rounds[0]["cells"].values())
    first, _, third = spans.quartiles(walls)
    round_wall = _typical_round(rounds, lambda cell: cell["wall_s"])
    metrics: dict[str, float] = {
        "harness.rounds": len(rounds),
        "harness.round_wall_min_s": min(walls),
        "harness.round_wall_iqr_s": third - first,
        "harness.round_wall_raw_s": median(
            [entry["raw_wall_s"] for entry in rounds]
        ),
        "harness.time_scale": median(
            [cell["scale"] for entry in rounds for cell in entry["cells"].values()]
        ),
        "harness.records_per_round": stated,
        "harness.records_per_s": stated / round_wall,
        "harness.loadavg_start": timed["loadavg_start"],
    }
    for name, kind in kinds.items():
        prefix = "cli" if kind == "cli" else "cell"
        metrics[f"{prefix}.{name}.wall_s"] = spans.typical(
            [entry["cells"][name]["wall_s"] for entry in rounds]
        )
    cells = [cell for entry in rounds for cell in entry["cells"].values()]
    stepped = next((cell["steps"] for cell in cells if "steps" in cell), None)
    if stepped is not None:
        # The five Figure-1 steps, under the names ProcessReport gives them.
        for step in stepped:
            metrics[f"core.step.{step}_s"] = _typical_round(
                rounds, lambda cell: cell.get("steps", {}).get(step)
            )
        metrics["core.outside_steps_s"] = _typical_round(
            rounds,
            lambda cell: cell["wall_s"] - sum(cell["steps"].values())
            if "steps" in cell
            else None,
        )
    if any("layout_mismatches" in cell for cell in cells):
        metrics["engines.layout_mismatches"] = sum(
            cell.get("layout_mismatches", 0) for cell in cells
        )
    if any(cell["store_records"] for cell in cells):
        for metric, key in (
            ("analysis.store.records_written", "store_records"),
            ("analysis.store.bytes", "store_bytes"),
        ):
            metrics[metric] = median(
                [
                    sum(cell[key] for cell in entry["cells"].values())
                    for entry in rounds
                ]
            )
    bursts = [cell for cell in cells if "job_latency_s" in cell]
    if bursts:
        latencies = [v for cell in bursts for v in cell["job_latency_s"]]
        metrics.update(
            {
                "service.job_latency_p50_s": spans.percentile(latencies, 50),
                "service.job_latency_p95_s": spans.percentile(latencies, 95),
                "service.queue_wait_p50_s": spans.percentile(
                    [v for cell in bursts for v in cell["queue_wait_s"]], 50
                ),
                "service.job_run_p50_s": spans.percentile(
                    [v for cell in bursts for v in cell["job_run_s"]], 50
                ),
                "service.jobs": len(latencies),
                "service.jobs_shed": sum(cell["jobs_shed"] for cell in bursts),
            }
        )
    return metrics


def traced_layer_metrics(
    free: dict[str, float], timed: dict[str, Any], traced: dict[str, Any]
) -> dict[str, float]:
    """Per-layer metrics of the traced round, and what differs from it."""
    metrics = dict(traced["layers"])
    probes = traced["probes"]
    metrics.update(
        {name: value for name, value in probes.items() if name.startswith("startup.")}
    )
    metrics["harness.trace_overhead_ratio"] = traced["rounds"][0]["wall_s"] / median(
        [entry["wall_s"] for entry in timed["rounds"]]
    )
    if "startup.interp_s" in probes:
        commands = [v for k, v in free.items() if k.startswith("cli.")]
        startup = probes["startup.interp_s"] + probes["startup.import_repro_s"]
        metrics["cli.after_import_share"] = 1.0 - startup * len(commands) / sum(commands)
    if "direct_run_s" in probes:
        metrics["service.overhead_per_job_s"] = (
            free["service.job_latency_p50_s"] - probes["direct_run_s"]
        )
    return metrics


# -- one workload -------------------------------------------------------------


def measure(options: argparse.Namespace, workload: str) -> dict[str, Any]:
    """Run one workload and return its metrics, counts and environment."""
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        setups = [
            _spawn(options, workload, tmp, "--setup-only")["setup_s"]
            for _ in range(0 if options.smoke else SETUPS - 1)
        ]
        timed = _spawn(options, workload, tmp)
        setups.append(timed["setup_s"])
        traced = None
        if options.trace:
            traced = _spawn(
                options, workload, tmp, "--traced",
                "--trace-file", str(OUT / f"trace-{workload}.jsonl"),
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rounds = timed["rounds"] + (traced["rounds"] if traced else [])
    attempted, failed, problems = _failures(rounds)
    free = free_layer_metrics(workload, timed)
    result = {
        "workload": workload,
        "seed": options.seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "warnings": traced["warnings"] if traced else [],
        "environment": {
            **timed["environment"], "loadavg_start": timed["loadavg_start"]
        },
        "round_walls_s": [entry["wall_s"] for entry in timed["rounds"]],
        "end_to_end": end_to_end(setups, timed),
        "per_layer": {
            **free,
            **(traced_layer_metrics(free, timed, traced) if traced else {}),
        },
    }
    (OUT / f"latest-{workload}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8"
    )
    return result


def contract_line(result: dict[str, Any], trace: bool, spec: dict) -> str:
    """The result as the one JSON object the gate reads.

    A per-layer metric whose layer does not run in this workload was
    measured as nothing: it is printed as 0 here and left out of the
    table above.
    """
    group = "per_layer" if trace else "end_to_end"
    metrics = {
        entry["name"]: {
            "value": result[group].get(entry["name"], 0),
            "unit": entry["unit"],
        }
        for entry in spec[group]
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def report(result: dict[str, Any], spec: dict) -> None:
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    walls = result["round_walls_s"]
    first, _, third = spans.quartiles(walls)
    environment = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}")
    print(
        "   "
        + "  ".join(f"{key}={environment[key]}" for key in sorted(environment))
    )
    for name, value in result["end_to_end"].items():
        note = ""
        if name == "round_wall_s":
            note = (
                f"   n={len(walls)} rounds, quartiles {first:.3f}..{third:.3f},"
                f" {result['per_layer']['harness.records_per_round']} records/round"
            )
        print(f"   {name:42s} {value:12.4f} {units[name]}{note}")
    share = result["failed"] / result["attempted"]
    print(
        f"   {'failed_share':42s} {share:12.4f} ratio"
        f"   {result['failed']} of {result['attempted']} cells"
    )
    for name in sorted(result["per_layer"]):
        value = result["per_layer"][name]
        note = ""
        if name == "service.job_latency_p95_s":
            jobs = result["per_layer"]["service.jobs"]
            note = f"   n={jobs} jobs support p{spans.supported_tail(jobs)}"
        print(f"   {name:42s} {value:12.4f} {units.get(name, '?')}{note}")
    for line in result["warnings"] + result["problems"]:
        print(f"   ! {line}")
    # Again where a gate that keeps only the result line still shows them.
    for line in result["problems"]:
        print(f"{result['workload']} seed {result['seed']}: {line}", file=sys.stderr)


# -- A/A calibration ----------------------------------------------------------


def aa(options: argparse.Namespace, spec: dict) -> int:
    """Two interleaved sets of N full runs of the same tree at one seed."""
    names = [entry["name"] for entry in spec["workloads"]]
    sets: dict[str, list[dict[str, dict[str, float]]]] = {"A": [], "B": []}
    for index in range(options.aa):
        for label in ("A", "B") if index % 2 == 0 else ("B", "A"):
            sets[label].append(
                {name: measure(options, name)["end_to_end"] for name in names}
            )
    print(f"A/A: 2 sets of {options.aa} runs, seed {options.seed}, "
          f"{options.seconds:g} s per run")
    print("| metric | workload | median A | median B | B worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    passed = True
    for entry in spec["end_to_end"]:
        worse = 1 if entry["better"] == "lower" else -1
        for name in names:
            a, b = (
                median([run[name][entry["name"]] for run in sets[label]])
                for label in ("A", "B")
            )
            difference = (b - a) / a
            ok = abs(difference) <= entry["bound"]
            passed = passed and ok
            print(
                f"| {entry['name']} | {name} | {a:.4f} | {b:.4f} | "
                f"{difference * worse:+.1%} | {entry['bound']:.0%} | "
                f"{'pass' if ok else 'FAIL'} |"
            )
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    spec = declared()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="time budget of the timed rounds, checked between rounds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1 adds the traced round and the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one round, volumes / 20, one set-up, no traced round",
    )
    parser.add_argument(
        "--aa", type=int, metavar="N",
        help="calibrate: two interleaved sets of N full runs, same seed",
    )
    options = parser.parse_args(argv)
    # Children run in sessions of their own; a terminated parent must still
    # reach the ``finally`` that kills them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if options.smoke:
        options.trace = 0
    if options.aa:
        options.trace = 0
        return aa(options, spec)
    failed = 0
    for name in [options.workload] if options.workload else names:
        result = measure(options, name)
        report(result, spec)
        failed += result["failed"]
    if options.workload:
        print(contract_line(result, bool(options.trace), spec))
        return 0
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
