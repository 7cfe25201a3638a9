"""Digests of what ``realtime-windowed-aggregation`` reports at the volumes
of the end-to-end benchmark's stream cells (``window-stream``,
``window-poisson``, ``window-poisson-p2``).

The fixture ``tests/fixtures/windows_parent.json`` is this script's
output on the commit before the tumbling window counted a run in bulk::

    PYTHONPATH=src python tests/engines/_window_capture.py \
        > tests/fixtures/windows_parent.json

It is never regenerated: a difference is seeded output that changed
(row ``windows`` of ``tests/test_captures.py``).  Every workload call of
a run is caught on its way out of ``Workload.run``; its digest covers
every window result's ``repr`` and the types of its fields, the
latencies, the cost counters, the record counts, the simulated seconds
and ``extra``.  Only public callables that exist on both sides are
used, so the same script measures parent and change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Any

from repro import api
from repro.workloads.base import Workload

#: The end-to-end benchmark's stream cells at their base volumes.
CASES: dict[str, dict[str, Any]] = {
    "window-stream": {"volume": 10_000, "repeats": 3},
    "window-poisson": {"volume": 30_000},
    "window-poisson-p2": {"volume": 30_000, "data_partitions": 2},
}


def _sha(lines) -> str:
    text = hashlib.sha256()
    for line in lines:
        text.update(line.encode())
        text.update(b"\n")
    return text.hexdigest()


def digest(result) -> dict[str, Any]:
    windows = result.output
    return {
        "windows": len(windows),
        "repr": _sha(map(repr, windows)),
        "types": _sha(
            " ".join(type(value).__name__ for value in dataclasses.astuple(window))
            for window in windows
        ),
        "latencies": _sha(map(repr, result.latencies)),
        "cost": repr(result.cost),
        "records": [result.records_in, result.records_out],
        "simulated_seconds": repr(result.simulated_seconds),
        "extra": repr(sorted(result.extra.items())),
    }


def capture() -> dict[str, list[dict[str, Any]]]:
    caught: list = []
    run = Workload.run

    def catching(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        caught.append(result)
        return result

    Workload.run = catching
    try:
        out = {}
        for case, spec in CASES.items():
            caught.clear()
            api.run("realtime-windowed-aggregation", **spec)
            out[case] = [digest(result) for result in caught]
        return out
    finally:
        Workload.run = run


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
