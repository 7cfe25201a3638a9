"""CI gate for the vectorized series of ``BENCH_columnar_execution.json``.

Enforces the columnar layout's headline property: batch-at-a-time
execution must be at least row-speed — i.e. ``speedup_vs_row >= 1.0``
for scan, filter, aggregate, join and ``repeat`` (a fresh engine, the
load, the first query: what a run pays) on **every** row of the
``columnar_execution.vectorized`` series.  Two kinds of row are listed,
not judged: one whose method a later row replaced (it says so under
``superseded`` in its measurements) and the twin a change measured on
its parent commit (``source`` starts with ``parent``).  Run it on a file freshly
extended by ``bench_columnar_execution.py`` so the newest row reflects
the revision under test.

Exit codes: 0 — every row holds the bound; 1 — at least one row
regressed below it; 2 — no vectorized rows to check (treat as a
failure in CI: the bench did not run or did not record).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SERIES = "columnar_execution.vectorized"
GATED_QUERIES = ("scan", "filter", "aggregate", "join", "repeat")
THRESHOLD = 1.0
DEFAULT_FILE = Path(__file__).parent / "BENCH_columnar_execution.json"


def _set_aside(measurements: dict) -> str | None:
    """Why a row is listed without being judged, if it is."""
    if measurements.get("superseded"):
        return measurements["superseded"]
    if str(measurements.get("source", "")).startswith("parent"):
        return "measured on the parent commit, for comparison"
    return None


def gate(path: Path = DEFAULT_FILE, threshold: float = THRESHOLD) -> int:
    if not path.exists():
        print(f"gate: {path} does not exist", file=sys.stderr)
        return 2
    rows = [
        row
        for row in json.loads(path.read_text())
        if row.get("fingerprint", {}).get("benchmark") == SERIES
    ]
    judged = []
    for row in rows:
        aside = _set_aside(row["measurements"])
        if aside:
            print(f"{row.get('created_at', '?')}  not judged: {aside}")
        else:
            judged.append(row)
    rows = judged
    if not rows:
        print(f"gate: no {SERIES!r} rows to judge in {path}", file=sys.stderr)
        return 2
    failures = 0
    for row in rows:
        stamp = row.get("created_at") or row.get("timestamp", "?")
        speedups = row["measurements"]["speedup_vs_row"]
        regressed = [
            name
            for name in GATED_QUERIES
            if speedups[name] < threshold
        ]
        verdict = "ok" if not regressed else "REGRESSED"
        rendered = "  ".join(
            f"{name}={speedups[name]:.3f}" for name in GATED_QUERIES
        )
        print(
            f"{stamp}  speedup_vs_row: {rendered} "
            f"(each >= {threshold:.1f})  {verdict}"
        )
        if regressed:
            failures += 1
    if failures:
        print(
            f"gate: {failures} of {len(rows)} vectorized rows below "
            f"{threshold:.1f}x — columnar execution lost to the row path",
            file=sys.stderr,
        )
        return 1
    print(
        f"gate: all {len(rows)} vectorized rows hold >= {threshold:.1f}x "
        f"on {', '.join(GATED_QUERIES)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(gate(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_FILE))
