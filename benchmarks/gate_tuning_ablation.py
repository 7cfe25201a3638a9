"""CI gate for the tuning-ablation matrix.

Reads the JSON report emitted by ``repro ablate --style json`` and
enforces the subsystem's headline property: the documented ``optimized``
DBMS profile must never come out ``regressed`` against ``normal`` on
any workload in the matrix.  (MapReduce is reported but not gated: its
one optimized knob, ``slots_per_node``, shapes the simulated cluster's
makespan, not the wall-clock ``duration`` a CI host measures.)

Every gated verdict is also appended to ``BENCH_tuning_ablation.json``
through the shared :mod:`_history` helper, so the delta/p-value
trajectory of the optimized profile accumulates across revisions in the
run-store record schema.

Exit codes: 0 — no gated cell regressed; 1 — at least one optimized
DBMS cell regressed vs normal; 2 — the report has no gated cells to
check (treat as a failure in CI: the ablation did not run or did not
judge).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from _history import append_history

GATED_ENGINE = "dbms"
GATED_PROFILE = "optimized"
DEFAULT_REPORT = Path("ablation-report.json")
HISTORY_FILE = Path(__file__).parent / "BENCH_tuning_ablation.json"


def gate(report_path: Path = DEFAULT_REPORT,
         history_path: Path = HISTORY_FILE) -> int:
    if not report_path.exists():
        print(f"gate: {report_path} does not exist", file=sys.stderr)
        return 2
    report = json.loads(report_path.read_text())
    gated = [
        verdict
        for verdict in report.get("verdicts", [])
        if verdict["engine"] == GATED_ENGINE
        and verdict["profile"] == GATED_PROFILE
    ]
    if not gated:
        print(
            f"gate: no {GATED_PROFILE!r} {GATED_ENGINE!r} verdicts in "
            f"{report_path}",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for verdict in gated:
        lead = verdict["comparison"]["metrics"].get(verdict["metric"], {})
        delta = lead.get("relative_delta")
        p_value = lead.get("p_value")
        rendered_delta = "?" if delta is None else f"{delta:+.1%}"
        rendered_p = "?" if p_value is None else f"{p_value:.4f}"
        regressed = verdict["verdict"] == "regressed"
        print(
            f"{verdict['prescription']}  {GATED_ENGINE}/{GATED_PROFILE}  "
            f"{verdict['metric']} {rendered_delta} (p={rendered_p})  "
            f"{'REGRESSED' if regressed else verdict['verdict']}"
        )
        append_history(
            history_path,
            "tuning_ablation.optimized_dbms",
            fingerprint={
                "prescription": verdict["prescription"],
                "engine": GATED_ENGINE,
                "profile": GATED_PROFILE,
                "metric": verdict["metric"],
                "repeats": report.get("repeats"),
                "seed": report.get("seed"),
            },
            measurements={
                "relative_delta": delta,
                "ci_low": lead.get("ci_low"),
                "ci_high": lead.get("ci_high"),
                "p_value": p_value,
                "verdict": verdict["verdict"],
            },
        )
        if regressed:
            failures += 1
    if failures:
        print(
            f"gate: {failures} of {len(gated)} optimized {GATED_ENGINE} "
            f"cells regressed vs normal — the documented tuned profile "
            f"lost to the bare engine",
            file=sys.stderr,
        )
        return 1
    print(
        f"gate: all {len(gated)} optimized {GATED_ENGINE} cells held "
        f"(never regressed vs normal)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(
        gate(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_REPORT)
    )
