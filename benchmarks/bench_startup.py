"""Start-up ledger: what the commands that do nothing cost.

Cold wall time of fresh interpreter processes, one row per command:

* ``python -c pass``, ``import numpy``, ``import repro`` (the floor and
  the two imports every verb used to pay);
* the seven ``cli-cold`` verbs of the end-to-end benchmark
  (``benchmarks/e2e``), against a small seeded store;
* time to first result of ``api.run('micro-wordcount', volume=50)``, so
  that work moved out of import shows up if it merely moved;
* what a fitted model left on disk is worth (``model_reuse`` in the
  row): :data:`MODEL_REUSE` runs twice in a row in a cache home of its
  own, :data:`REPEATS` times.  Each home starts with the bytecode the
  rows above left (so the first process compiles nothing) and without
  models: ``first`` fits the ``lda-text`` model, ``second`` may read the
  file ``first`` left, and ``second_saved_q1_s`` is the lower quartile
  of the difference per pair.

Each command runs :data:`REPEATS` times; the row keeps the minimum and
the lower quartile of the wall time, and the lower quartile of the
child's CPU time (user + system, from ``RUSAGE_CHILDREN``): a process
whose BLAS threads spin pays CPU beyond its wall.  A CLI verb runs
through :data:`_CLI_ENTRY`, which is ``python -m repro.cli`` plus a
time stamp on stderr when the verb's ``SystemExit`` leaves the module;
the row's ``exit_s`` is the median time from that stamp to the moment
this process has reaped the child: what interpreter teardown costs the
verb.  One more process per command reports how many ``repro.*``
modules it ended with, whether numpy was loaded, and how many method
sources ``dataclasses`` compiled (``dataclass_compiles``: ``compile``
audit events of ``def __create_fn__`` source; the processes before it
share its cache home, so ``repro._bytecode``'s method table is warm by
then).  The result is
appended to ``BENCH_startup.json`` through
:func:`_history.append_history`.

    PYTHONPATH=src python benchmarks/bench_startup.py --src OTHER/src --source parent
    PYTHONPATH=src python -m pytest benchmarks/bench_startup.py -q -s

The pytest entry point (CI's ledger-smoke step) runs
:data:`SMOKE_REPEATS` processes per command; its rows are their own
series, since ``repeats`` is part of the fingerprint.

``--src`` measures another checkout's ``src`` (the parent commit's) with
this script; ``--source`` labels the row.  The measured ``src`` is
byte-compiled first, so rows compare warm ``__pycache__`` to warm
``__pycache__`` whatever ``PYTHONDONTWRITEBYTECODE`` says.

What that warmth is worth is measured too (``without_bytecode`` in the
row): :data:`BYTECODE_VERBS` are timed again under four conditions
that take turns process by process, so a drift of the host's speed
falls on all four alike.  The last three run with
``PYTHONDONTWRITEBYTECODE=1`` against a copy of ``src`` that has no
``__pycache__``, each with a cache home (``XDG_CACHE_HOME``) of its own:

* ``compiled``: the byte-compiled ``src`` as above, the yardstick;
* ``repro_uncompiled``: a cache home that is a regular file, so
  ``repro._bytecode`` can keep nothing and every process compiles
  ``repro`` (what a fresh checkout cost where that variable is set,
  before that module);
* ``repro_cached``: an empty cache home per verb; ``wall_first_s`` is
  the process that fills it, ``wall_q1_s`` the steady state, to be read
  against ``compiled``;
* ``nothing_compiled``: as ``repro_uncompiled``, with
  ``PYTHONPYCACHEPREFIX`` at an empty directory as well, so the standard
  library and numpy recompile too.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from _history import append_history, child_env, run_child

RESULTS_FILE = Path(__file__).parent / "BENCH_startup.json"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
REPEATS = 9
#: What the pytest entry point (CI's ledger-smoke step) runs.
SMOKE_REPEATS = 2

#: Put before a ``-c`` program: counts the method sources ``dataclasses``
#: compiles in the process (``exec`` of a string raises the event too).
_COUNT_METHOD_COMPILES = (
    "import sys\n"
    "_method_compiles = [0]\n"
    "def _count_method_compiles(event, args):\n"
    "    if event == 'compile' and isinstance(args[0], (str, bytes)) and (\n"
    "            args[0][:17] in ('def __create_fn__', b'def __create_fn__')):\n"
    "        _method_compiles[0] += 1\n"
    "sys.addaudithook(_count_method_compiles)\n"
)

#: Appended to a ``-c`` program: what the process had loaded at its end,
#: and how many dataclass methods it compiled.
_FOOTPRINT = (
    "\nimport json, sys\n"
    "print(json.dumps({'repro_modules': sum(m == 'repro' or "
    "m.startswith('repro.') for m in sys.modules), "
    "'numpy': 'numpy' in sys.modules, "
    "'dataclass_compiles': _method_compiles[0]}), file=sys.stderr)"
)

#: ``python -m repro.cli``, stamping ``time.time()`` on stderr as the
#: verb's ``SystemExit`` passes: ``python -c _CLI_ENTRY <verb> ...``.
_EXIT_STAMP = "exit-stamp "
_CLI_ENTRY = (
    "import runpy, sys, time\n"
    "try:\n"
    "    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    f"    print({_EXIT_STAMP!r} + repr(time.time()), file=sys.stderr)\n"
    "    raise\n"
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
BYTECODE_VERBS = ("cli.list", "cli.run-small", "cli.run-record")

#: The CLI argv run twice per cache home: its data set is fitted LDA text.
MODEL_REUSE = ["run", "micro-grep", "--json"]

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


def _timed_child(
    src: Path, args: list[str], **variables: str
) -> tuple[float, float, float | None]:
    """Wall and CPU seconds (user + system) of one child process, and
    the seconds from its exit stamp to its reap (``None`` without one)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    completed = run_child(src, args, **variables)
    wall = time.perf_counter() - started
    reaped = time.time()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    stamps = [
        float(line.removeprefix(_EXIT_STAMP))
        for line in completed.stderr.splitlines()
        if line.startswith(_EXIT_STAMP)
    ]
    return wall, cpu, (reaped - stamps[-1]) if stamps else None


def _summary(samples: list[tuple[float, float, float | None]]) -> dict:
    walls, cpus, exits = zip(*samples)
    summary = {
        "wall_first_s": walls[0],
        "wall_min_s": min(walls),
        "wall_q1_s": statistics.quantiles(walls, n=4)[0],
        "cpu_q1_s": statistics.quantiles(cpus, n=4)[0],
        "samples": len(walls),
    }
    if None not in exits:
        summary["exit_s"] = statistics.median(exits)
    return summary


def _measure(
    src: Path, name: str, template: Path, scratch: Path, repeats: int
) -> dict:
    """One row: cold runs of ``repeats`` processes plus the footprint probe."""
    walls = _summary([
        _timed_child(
            src,
            ["-c", PROGRAMS[name]] if name in PROGRAMS
            else ["-c", _CLI_ENTRY, *_cli_argv(name, template, scratch)],
        )
        for _ in range(repeats)
    ])
    program = PROGRAMS.get(name) or (
        "import os\nfrom repro.cli import main\n"
        f"main({_cli_argv(name, template, scratch)!r}, "
        "out=open(os.devnull, 'w'))"
    )
    probe = run_child(
        src, ["-c", _COUNT_METHOD_COMPILES + program + _FOOTPRINT]
    )
    return {**walls, **json.loads(probe.stderr.strip().splitlines()[-1])}


def _measure_without_bytecode(
    src: Path, tmp: Path, template: Path, scratch: Path, repeats: int
) -> dict[str, dict]:
    """Cold runs of :data:`BYTECODE_VERBS` with and without compiled
    bytecode, the conditions taking turns process by process."""
    uncompiled, prefix = tmp / "src-uncompiled", tmp / "empty-pycache-prefix"
    shutil.copytree(
        src, uncompiled, ignore=shutil.ignore_patterns("__pycache__")
    )
    prefix.mkdir()
    no_cache = tmp / "no-cache-home"
    no_cache.write_text("a regular file: no cache directory fits under it")
    kept_nowhere = {
        "PYTHONDONTWRITEBYTECODE": "1", "XDG_CACHE_HOME": str(no_cache),
    }

    def conditions(name: str) -> dict[str, tuple[Path, dict[str, str]]]:
        return {
            "compiled": (src, {}),
            "repro_uncompiled": (uncompiled, kept_nowhere),
            "repro_cached": (
                uncompiled,
                {"PYTHONDONTWRITEBYTECODE": "1",
                 "XDG_CACHE_HOME": str(tmp / f"cache-home-{name}")},
            ),
            "nothing_compiled": (
                src, {**kept_nowhere, "PYTHONPYCACHEPREFIX": str(prefix)}
            ),
        }

    rows = {}
    for name in BYTECODE_VERBS:
        trees = conditions(name)
        samples: dict[str, list] = {condition: [] for condition in trees}
        for _ in range(repeats):
            for condition, (tree, variables) in trees.items():
                argv = _cli_argv(name, template, scratch)
                samples[condition].append(
                    _timed_child(tree, ["-m", "repro.cli", *argv], **variables)
                )
        rows[name] = {
            condition: _summary(runs) for condition, runs in samples.items()
        }
    return rows


def _measure_model_reuse(src: Path, tmp: Path, repeats: int) -> dict:
    """:data:`MODEL_REUSE` twice in a row per fresh cache home."""
    bytecode = Path(child_env(src)["XDG_CACHE_HOME"]) / "repro" / "bytecode"
    pairs = []
    for turn in range(repeats):
        home = tmp / f"model-home-{turn}"
        if bytecode.is_dir():
            shutil.copytree(bytecode, home / "repro" / "bytecode")
        pairs.append([
            _timed_child(src, ["-m", "repro.cli", *MODEL_REUSE],
                         XDG_CACHE_HOME=str(home))
            for _ in range(2)
        ])
    first, second = zip(*pairs)
    saved = [one[0] - two[0] for one, two in pairs]
    return {
        "first": _summary(list(first)),
        "second": _summary(list(second)),
        "second_saved_q1_s": statistics.quantiles(saved, n=4)[0],
    }


def measure_startup(
    src: Path = SRC_DIR, repeats: int = REPEATS
) -> tuple[dict[str, dict], dict, dict]:
    """``(row per command, BYTECODE_VERBS without bytecode, model
    reuse)`` for ``src``."""
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as tmp:
        template, scratch = Path(tmp) / "template", Path(tmp) / "scratch"
        scratch.mkdir()
        run_child(src, ["-m", "compileall", "-q", str(src)])
        _seed_store(src, template)
        rows = {
            name: _measure(src, name, template, scratch, repeats)
            for name in (*PROGRAMS, *CLI_VERBS)
        }
        return (
            rows,
            _measure_without_bytecode(src, Path(tmp), template, scratch, repeats),
            _measure_model_reuse(src, Path(tmp), repeats),
        )


def record_startup(
    src: Path = SRC_DIR, source: str = "worktree", repeats: int = REPEATS
) -> dict:
    rows, without_bytecode, model_reuse = measure_startup(src, repeats)
    print(
        f"\n{'command':16s} {'min s':>8s} {'q1 s':>8s} {'cpu q1 s':>8s} "
        f"{'exit ms':>8s} {'repro.*':>8s} {'dc comp':>8s} numpy"
    )
    for name, row in rows.items():
        exit_ms = f"{row['exit_s'] * 1e3:8.1f}" if "exit_s" in row else f"{'':8s}"
        print(
            f"{name:16s} {row['wall_min_s']:8.3f} {row['wall_q1_s']:8.3f} "
            f"{row['cpu_q1_s']:8.3f} {exit_ms} {row['repro_modules']:8d} "
            f"{row['dataclass_compiles']:8d} {'yes' if row['numpy'] else 'no'}"
        )
    print(
        f"\n{'q1 s':16s} {'warm':>8s} {'repro':>8s} {'cache 1st':>9s} "
        f"{'cached':>8s} {'nothing':>8s}  compiled"
    )
    for name, row in without_bytecode.items():
        print(
            f"{name:16s} {row['compiled']['wall_q1_s']:8.3f} "
            f"{row['repro_uncompiled']['wall_q1_s']:8.3f} "
            f"{row['repro_cached']['wall_first_s']:9.3f} "
            f"{row['repro_cached']['wall_q1_s']:8.3f} "
            f"{row['nothing_compiled']['wall_q1_s']:8.3f}"
        )
    print(
        f"\n{' '.join(MODEL_REUSE)}: first q1 "
        f"{model_reuse['first']['wall_q1_s']:.3f} s, second q1 "
        f"{model_reuse['second']['wall_q1_s']:.3f} s, saved q1 "
        f"{model_reuse['second_saved_q1_s']:.3f} s"
    )
    append_history(
        RESULTS_FILE,
        "startup.cold_wall",
        {
            "repeats": repeats,
            "programs": PROGRAMS,
            "cli_verbs": CLI_VERBS,
            "model_reuse": MODEL_REUSE,
        },
        {
            "source": source,
            "commands": rows,
            "without_bytecode": without_bytecode,
            "model_reuse": model_reuse,
        },
    )
    return rows


def test_startup_ledger():
    rows = record_startup(repeats=SMOKE_REPEATS)
    # The verbs that only read the registry or a JSONL file stay light.
    for name in ("import.repro", "cli.list", "cli.runs-list", "cli.compare",
                 "cli.jobs-list"):
        assert not rows[name]["numpy"], name
        assert rows[name]["repro_modules"] <= 30, name
    # A verb's process after the first compiles no dataclass method.
    assert all(rows[name]["dataclass_compiles"] == 0 for name in CLI_VERBS)
    # Every verb stamped its exit, and only the verbs did.
    assert all(rows[name]["exit_s"] > 0 for name in CLI_VERBS)
    assert not any("exit_s" in rows[name] for name in PROGRAMS)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=SRC_DIR)
    parser.add_argument("--source", default="worktree")
    options = parser.parse_args()
    record_startup(options.src.resolve(), options.source)
