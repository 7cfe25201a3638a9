"""Start-up ledger: what the commands that do nothing cost.

Cold wall time of fresh interpreter processes, one row per command:

* ``python -c pass``, ``import numpy``, ``import repro`` (the floor and
  the two imports every verb used to pay);
* the seven ``cli-cold`` verbs of the end-to-end benchmark
  (``benchmarks/e2e``), against a small seeded store;
* time to first result of ``api.run('micro-wordcount', volume=50)``, so
  that work moved out of import shows up if it merely moved.

Each command runs :data:`REPEATS` times; the row keeps the minimum and
the lower quartile.  One more process per command reports how many
``repro.*`` modules it ended with and whether numpy was loaded.  The
result is appended to ``BENCH_startup.json`` through
:func:`_history.append_history`.

    PYTHONPATH=src python -m pytest benchmarks/bench_startup.py -q -s
    PYTHONPATH=src python benchmarks/bench_startup.py --src OTHER/src --source parent

``--src`` measures another checkout's ``src`` (the parent commit's) with
this script; ``--source`` labels the row.  The measured ``src`` is
byte-compiled first, so rows compare warm ``__pycache__`` to warm
``__pycache__`` whatever ``PYTHONDONTWRITEBYTECODE`` says.

What that warmth is worth is measured too (``without_bytecode`` in the
row; a lead for the ROADMAP "Start-up floor" item, nothing is fixed
here): :data:`BYTECODE_VERBS` are timed again with
``PYTHONDONTWRITEBYTECODE=1`` against a copy of ``src`` that has no
``__pycache__`` (``repro_uncompiled``: what a fresh checkout costs in a
container that exports that variable, as this one does) and with
``PYTHONPYCACHEPREFIX`` at an empty directory as well
(``nothing_compiled``: the standard library and numpy recompile too).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from _history import append_history, run_child

RESULTS_FILE = Path(__file__).parent / "BENCH_startup.json"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
REPEATS = 9

#: Appended to a ``-c`` program: what the process had loaded at its end.
_FOOTPRINT = (
    "\nimport json, sys\n"
    "print(json.dumps({'repro_modules': sum(m == 'repro' or "
    "m.startswith('repro.') for m in sys.modules), "
    "'numpy': 'numpy' in sys.modules}), file=sys.stderr)"
)

#: row name → CLI argv (``{store}`` is a fresh copy of the seeded store).
CLI_VERBS = {
    "cli.list": ["list"],
    "cli.run-small": ["run", "micro-wordcount", "--json"],
    "cli.run-record": [
        "run", "database-aggregate-join", "--volume", "2000", "--layout",
        "columnar", "--record", "--store-dir", "{store}", "--json",
    ],
    "cli.runs-list": ["runs", "list", "--store-dir", "{store}"],
    "cli.compare": ["compare", "r0001", "r0002", "--store-dir", "{store}"],
    "cli.submit": ["submit", "micro-wordcount", "--store-dir", "{store}"],
    "cli.jobs-list": ["jobs", "list", "--store-dir", "{store}"],
}

#: The verbs timed again without a valid bytecode cache.
BYTECODE_VERBS = ("cli.list", "cli.run-small")

#: row name → ``python -c`` program.
PROGRAMS = {
    "interp": "pass",
    "import.numpy": "import numpy",
    "import.repro": "import repro",
    "first-result": (
        "from repro import api; api.run('micro-wordcount', volume=50)"
    ),
}


def _seed_store(src: Path, store: Path) -> None:
    """Two recorded runs of one series and one logged job."""
    for verb in ("run", "run", "submit"):
        run_child(
            src,
            ["-m", "repro.cli", verb, "micro-wordcount", "--volume", "50",
             "--engine", "mapreduce", "--repeats", "2", "--record",
             "--store-dir", str(store)],
        )


def _cli_argv(name: str, template: Path, scratch: Path) -> list[str]:
    """The verb's argv, against a fresh copy of the seeded store."""
    store = scratch / "store"
    shutil.rmtree(store, ignore_errors=True)
    shutil.copytree(template, store)
    return [part.format(store=store) for part in CLI_VERBS[name]]


def _cold_walls(src: Path, make_args, **variables: str) -> dict:
    """Cold walls of REPEATS processes; ``make_args()`` runs off the clock."""
    walls = []
    for _ in range(REPEATS):
        args = make_args()
        started = time.perf_counter()
        run_child(src, args, **variables)
        walls.append(time.perf_counter() - started)
    return {
        "wall_min_s": min(walls),
        "wall_q1_s": statistics.quantiles(walls, n=4)[0],
        "samples": len(walls),
    }


def _measure(src: Path, name: str, template: Path, scratch: Path) -> dict:
    """One row: cold walls of REPEATS processes plus the footprint probe."""
    walls = _cold_walls(
        src,
        lambda: ["-c", PROGRAMS[name]] if name in PROGRAMS
        else ["-m", "repro.cli", *_cli_argv(name, template, scratch)],
    )
    program = PROGRAMS.get(name) or (
        "import os\nfrom repro.cli import main\n"
        f"main({_cli_argv(name, template, scratch)!r}, "
        "out=open(os.devnull, 'w'))"
    )
    probe = run_child(src, ["-c", program + _FOOTPRINT])
    return {**walls, **json.loads(probe.stderr.strip().splitlines()[-1])}


def _measure_without_bytecode(src: Path, tmp: Path) -> dict[str, dict]:
    """Cold walls of :data:`BYTECODE_VERBS` when nothing was compiled ahead."""
    uncompiled, prefix = tmp / "src-uncompiled", tmp / "empty-pycache-prefix"
    shutil.copytree(
        src, uncompiled, ignore=shutil.ignore_patterns("__pycache__")
    )
    prefix.mkdir()
    conditions = {
        "repro_uncompiled": (uncompiled, {"PYTHONDONTWRITEBYTECODE": "1"}),
        "nothing_compiled": (
            src,
            {"PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONPYCACHEPREFIX": str(prefix)},
        ),
    }
    return {
        name: {
            condition: _cold_walls(
                tree, lambda: ["-m", "repro.cli", *CLI_VERBS[name]],
                **variables,
            )
            for condition, (tree, variables) in conditions.items()
        }
        for name in BYTECODE_VERBS
    }


def measure_startup(src: Path = SRC_DIR) -> tuple[dict[str, dict], dict]:
    """``(row per command, BYTECODE_VERBS without bytecode)`` for ``src``."""
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as tmp:
        template, scratch = Path(tmp) / "template", Path(tmp) / "scratch"
        scratch.mkdir()
        run_child(src, ["-m", "compileall", "-q", str(src)])
        _seed_store(src, template)
        rows = {
            name: _measure(src, name, template, scratch)
            for name in (*PROGRAMS, *CLI_VERBS)
        }
        return rows, _measure_without_bytecode(src, Path(tmp))


def record_startup(src: Path = SRC_DIR, source: str = "worktree") -> dict:
    rows, without_bytecode = measure_startup(src)
    print(f"\n{'command':16s} {'min s':>8s} {'q1 s':>8s} {'repro.*':>8s} numpy")
    for name, row in rows.items():
        print(
            f"{name:16s} {row['wall_min_s']:8.3f} {row['wall_q1_s']:8.3f} "
            f"{row['repro_modules']:8d} {'yes' if row['numpy'] else 'no'}"
        )
    print(f"\n{'q1 s':16s} {'warm':>8s} {'repro':>8s} {'nothing':>8s}  compiled")
    for name, row in without_bytecode.items():
        print(
            f"{name:16s} {rows[name]['wall_q1_s']:8.3f} "
            f"{row['repro_uncompiled']['wall_q1_s']:8.3f} "
            f"{row['nothing_compiled']['wall_q1_s']:8.3f}"
        )
    append_history(
        RESULTS_FILE,
        "startup.cold_wall",
        {
            "repeats": REPEATS,
            "programs": PROGRAMS,
            "cli_verbs": CLI_VERBS,
        },
        {
            "source": source,
            "commands": rows,
            "without_bytecode": without_bytecode,
        },
    )
    return rows


def test_startup_ledger():
    rows = record_startup()
    # The verbs that only read the registry or a JSONL file stay light.
    for name in ("import.repro", "cli.list", "cli.runs-list", "cli.compare",
                 "cli.jobs-list"):
        assert not rows[name]["numpy"], name
        assert rows[name]["repro_modules"] <= 30, name


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=SRC_DIR)
    parser.add_argument("--source", default="worktree")
    options = parser.parse_args()
    record_startup(options.src.resolve(), options.source)
