"""Output checks: every cell is verified, and a failed check is a failed cell.

Each ``check_*`` returns a list of problems (empty = correct).  The
``*_signature`` functions return the seeded, non-timing part of a
result; :func:`mark_unrepeatable` fails any cell whose signature is not
the same in every round of a run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: ``RunResult.extra`` keys that depend on the seed and the spec only.
SEEDED_EXTRA = ("operations", "plan", "layout", "jobs", "mix", "iterations")

_COLUMNAR_OPS = ("Batch", "Columnar")


def _plan_ops(plan: Any) -> list[str]:
    """Operator names of an explained plan tree, root first."""
    if not isinstance(plan, dict):
        return []
    ops = [plan["op"]] if "op" in plan else []
    for value in plan.values():
        ops += _plan_ops(value)
    return ops


def _layout_problems(expected: str, extra: dict[str, Any]) -> list[str]:
    """Whether a layout-aware engine executed the layout that was asked for."""
    executed = extra.get("layout")
    if executed is None:
        return []
    problems = []
    if executed != expected:
        problems.append(f"executed layout {executed!r}, requested {expected!r}")
    if expected == "columnar":
        row_ops = [
            op for op in _plan_ops(extra.get("plan"))
            if not op.startswith(_COLUMNAR_OPS)
        ]
        if row_ops:
            problems.append(f"row operators in a columnar plan: {row_ops}")
    return problems


def layout_mismatches(cell: Any, report: Any) -> int:
    return sum(
        bool(_layout_problems(cell.layout, result.extra))
        for result in report.results
    )


def check_run(cell: Any, spec: Any, report: Any) -> list[str]:
    from repro.core.prescription import builtin_repository

    problems = [
        f"{failure.engine}: {failure.error_type}: {failure.error_message}"
        for failure in report.failures
    ]
    expected = spec.resolved_engines(builtin_repository())
    ran = [result.engine for result in report.results]
    if ran != expected:
        problems.append(f"results for engines {ran}, spec resolves to {expected}")
    for result in report.results:
        if result.status != "ok":
            problems.append(f"{result.engine}: status {result.status!r}")
        problems += [
            f"{result.engine}: {problem}"
            for problem in _layout_problems(cell.layout, result.extra)
        ]
    generated = report.step("data-generation").detail["records"]
    if cell.exact_records and generated != cell.volume:
        problems.append(f"generated {generated} records, requested {cell.volume}")
    if generated <= 0:
        problems.append("generated no records")
    return problems


def run_signature(report: Any) -> dict[str, Any]:
    return {
        "records": report.step("data-generation").detail["records"],
        "engines": {
            result.engine: {
                key: result.extra[key]
                for key in SEEDED_EXTRA
                if key in result.extra
            }
            for result in report.results
        },
    }


def check_burst(cell: Any, jobs: list[Any], shed: int) -> list[str]:
    problems = []
    if shed:
        problems.append(f"{shed} submissions shed")
    if len(jobs) + shed != cell.args["jobs"]:
        problems.append(f"{len(jobs)} jobs finished of {cell.args['jobs']}")
    for job in jobs:
        if job.state != "done" or job.failure_count:
            problems.append(
                f"job {job.job_id}: state {job.state!r}, "
                f"{job.failure_count} task failures"
            )
        elif any(outcome.status != "ok" for outcome in job.outcomes):
            problems.append(f"job {job.job_id}: an outcome is not ok")
    return problems


def check_ablation(cell: Any, report: Any) -> list[str]:
    problems = []
    if len(report.cells) != cell.args["cells"]:
        problems.append(
            f"{len(report.cells)} ablation cells, expected {cell.args['cells']}"
        )
    for entry in report.cells:
        outcome = entry.outcome
        label = f"{entry.engine}/{entry.profile.name}"
        if not entry.supported or outcome is None:
            problems.append(f"{label}: not run")
        elif getattr(outcome, "status", None) != "ok":
            problems.append(f"{label}: not ok")
        else:
            expected = entry.profile.knobs.get("layout", report.layout)
            problems += [
                f"{label}: {problem}"
                for problem in _layout_problems(expected, outcome.extra)
            ]
    return problems


def ablation_signature(report: Any) -> list[Any]:
    return [
        [
            entry.engine,
            entry.profile.name,
            _plan_ops(getattr(entry.outcome, "extra", {}).get("plan")),
        ]
        for entry in report.cells
    ]


def check_load(report: Any) -> list[str]:
    problems = []
    if report.offered <= 0:
        problems.append("no requests offered")
    if report.completed != report.offered or report.shed or report.errors:
        problems.append(
            f"offered {report.offered}, completed {report.completed}, "
            f"shed {report.shed}, errors {report.errors}"
        )
    return problems


def check_cli(
    cell: Any, completed: Any, store: Path
) -> tuple[list[str], int, Any]:
    """Problems, layout mismatches and signature of one CLI command."""
    expect = cell.args
    problems = []
    mismatches = 0
    signature: Any = None
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-1:] or [""]
        return ([f"exit code {completed.returncode}: {tail[0]}"], 0, None)
    if "stdout_has" in expect and expect["stdout_has"] not in completed.stdout:
        problems.append(f"output lacks {expect['stdout_has']!r}")
    if "engines" in expect:
        try:
            results = json.loads(completed.stdout)
            engines = [result["engine"] for result in results]
            statuses = {result.get("status", "ok") for result in results}
            extras = {r["engine"]: r.get("extra", {}) for r in results}
        except (ValueError, KeyError, TypeError) as error:
            return ([f"--json output does not parse: {error!r}"], 0, None)
        if engines != expect["engines"]:
            problems.append(f"engines {engines}, expected {expect['engines']}")
        if statuses - {"ok"}:
            problems.append(f"statuses {sorted(statuses)}")
        for engine, extra in extras.items():
            found = _layout_problems(cell.layout, extra)
            mismatches += bool(found)
            problems += [f"{engine}: {problem}" for problem in found]
        signature = {
            engine: {key: extra[key] for key in SEEDED_EXTRA if key in extra}
            for engine, extra in extras.items()
        }
    if "jobs_added" in expect:
        from repro.service.jobs import JobLog

        # Counted from the log's events: each CLI process numbers its jobs
        # from j0001 again, so replayed jobs overwrite the seeded ones.  And
        # counted, not read off the last line: the service may log a job's
        # ``queued`` after its ``done``.
        events = [event["event"] for event in JobLog(store).events()]
        added = events.count("queued") - expect["jobs_before"]
        finished = events.count("done") - expect["jobs_before"]
        if added != expect["jobs_added"] or finished != added:
            problems.append(
                f"job log gained {added} jobs of which {finished} done, "
                f"expected {expect['jobs_added']}"
            )
    return (problems, mismatches, signature)


def mark_unrepeatable(rounds: list[dict[str, Any]]) -> None:
    """Fail a cell whose seeded fields differ from the first round's."""
    if not rounds:
        return
    first = rounds[0]["cells"]
    for index, entry in enumerate(rounds[1:], start=2):
        for name, cell in entry["cells"].items():
            if cell["signature"] != first[name]["signature"]:
                cell["problems"].append(
                    f"seeded fields in round {index} differ from round 1"
                )
