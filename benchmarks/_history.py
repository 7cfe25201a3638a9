"""Shared perf-trajectory recording for the ``BENCH_*.json`` files.

Every benchmark module used to carry its own copy of the append-a-row
helper with ad-hoc ``cpus``/``python``/``timestamp`` fields.  This
module is the one copy, and it emits rows in the run store's record
schema (:mod:`repro.analysis.store`): a ``fingerprint`` of what was
measured, a ``series`` hash grouping comparable rows, the shared
``environment`` fingerprint, and a ``measurements`` payload.  The
file stays a human-readable JSON array (the historical format), so
existing trajectories keep accumulating in place.

The scripts that compare two checkouts (``--src OTHER/src --source
parent``) measure in child processes; :func:`child_env` and
:func:`run_child` are the one way such a child is set up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.analysis.store import environment_fingerprint, fingerprint_hash


def append_history(
    path: Path,
    benchmark: str,
    fingerprint: dict[str, Any],
    measurements: dict[str, Any],
) -> dict[str, Any]:
    """Append one trajectory row to ``path`` and return it.

    ``fingerprint`` identifies what was measured (prescription, volume,
    chunk sizes, ...); rows with an identical fingerprint share a
    ``series`` key, exactly as run-store records with an identical spec
    fingerprint do.  ``measurements`` holds the numbers themselves.
    """
    history: list[dict[str, Any]] = []
    if path.exists():
        history = json.loads(path.read_text())
    full_fingerprint = {"benchmark": benchmark, **fingerprint}
    row = {
        "record_id": f"b{len(history) + 1:04d}",
        "series": fingerprint_hash(full_fingerprint),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "fingerprint": full_fingerprint,
        "environment": environment_fingerprint(),
        "measurements": measurements,
    }
    history.append(row)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return row


def child_env(src: Path | str, **variables: str) -> dict[str, str]:
    """The environment of a child whose ``repro`` is the one under ``src``.

    This process's own, with ``PYTHONPATH`` pointing at the measured
    tree and without the ``REPRO_*`` settings (executor, store
    directory) that would make two checkouts measure different things.
    """
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    return {**env, "PYTHONPATH": str(src), **variables}


def run_child(
    src: Path | str, argv: list[str], timeout: float = 600, **variables: str
) -> subprocess.CompletedProcess:
    """``python *argv`` against ``src``; raises when the child fails."""
    return subprocess.run(
        [sys.executable, *argv], env=child_env(src, **variables),
        capture_output=True, text=True, timeout=timeout, check=True,
    )
