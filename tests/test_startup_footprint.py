"""Tooling: the commands that do nothing load nothing.

``import repro`` registers three tables of ``"module:attr"`` strings and
every package surface is lazy (:mod:`repro._lazy`), so a verb that
prints a registry or reads a JSONL file must not import numpy, an
engine, a generator, a workload, the service or the load generator.
Each case runs in a fresh interpreter and inspects ``sys.modules`` when
the verb returns; an :mod:`ast` walk keeps numpy out of the module level
of the layers those verbs do import (DESIGN.md, "Import layering").

A CLI process also starts one BLAS thread, not one per CPU: its entry
sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, unless the user
chose a count, and ``import repro`` and ``main()`` leave the
environment alone.  When the verb returns, the entry freezes the heap
(``gc.freeze()``), so the interpreter's teardown collections skip it;
``main()`` never freezes a caller's heap, and exit still joins threads,
runs ``atexit`` handlers and flushes what the verb wrote.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.analysis.baselines import BaselineManager
from repro.analysis.store import spec_fingerprint
from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

#: The only ``repro.datagen`` modules a light verb may load.
LIGHT_DATAGEN = {"repro.datagen", "repro.datagen.base", "repro.datagen.formats"}

#: Loaded by no light verb, submodules included.
HEAVY = (
    "numpy",
    "repro.engines.dbms", "repro.engines.mapreduce", "repro.engines.nosql",
    "repro.engines.streaming", "repro.engines.dfs",
    "repro.workloads", "repro.loadgen", "repro.tuning.ablate",
    "repro.service.orchestrator", "repro.execution.runner",
    "repro.core.process", "repro.core.layers",
)

#: No module-level ``import numpy`` here: what the light verbs import.
NUMPY_FREE = (
    "core", "analysis", "observability", "service/jobs.py", "api.py",
    "cli.py", "_lazy.py", "bootstrap.py", "__init__.py",
)


def _loaded_after(program: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter once ``program`` has run."""
    completed = subprocess.run(
        [
            sys.executable, "-c",
            program + "\nimport json, sys\n"
            "print(json.dumps(sorted(sys.modules)), file=sys.stderr)",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stderr.strip().splitlines()[-1]))


def _heavy(loaded: set[str]) -> list[str]:
    return sorted(
        module for module in loaded
        if any(module == name or module.startswith(name + ".")
               for name in HEAVY)
        or (module.startswith("repro.datagen") and module not in LIGHT_DATAGEN)
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> str:
    """Two records of one series, a baseline, and one logged job.

    One outcome recorded twice, so ``gate`` compares equal samples and
    its verdict (and exit code) is ``unchanged`` by construction, not by
    how two timed runs happened to fall.
    """
    path = str(tmp_path_factory.mktemp("footprint-store"))
    report = api.run("micro-wordcount", volume=40, repeats=2,
                     engines=["mapreduce"])
    result = report.results[0]
    fingerprint = spec_fingerprint(
        report.spec.prescription, result.engine, workload=result.workload,
        volume=report.spec.volume, repeats=report.spec.repeats,
    )
    for _ in range(2):
        api.RunStore(path).record_outcome(result, fingerprint)
    BaselineManager(api.RunStore(path)).promote("r0001", "main")
    with api.serve(schedulers=1, store_dir=path) as service:
        service.submit(api.BenchmarkSpec("micro-wordcount", volume=40)).result()
    return path


def test_import_repro_loads_the_tables_only():
    loaded = _loaded_after("import repro")
    assert not _heavy(loaded)
    # The dataclass method table waits for ``dataclasses`` to be imported.
    assert "dataclasses" not in loaded
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro._bytecode", "repro._filecache", "repro._lazy",
        "repro.bootstrap", "repro.core", "repro.core.errors", "repro.core.registry",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["list"],
        ["runs", "list"],
        ["compare", "r0001", "r0002"],
        ["gate", "--baseline", "main"],
        ["baseline", "list"],
        ["jobs", "list"],
    ],
    ids=" ".join,
)
def test_light_verbs_stay_light(argv, store):
    if argv != ["list"]:
        argv = argv + ["--store-dir", store]
    loaded = _loaded_after(
        "import os\nfrom repro.cli import main\n"
        f"code = main({argv!r}, out=open(os.devnull, 'w'))\n"
        "assert code == 0, code"
    )
    assert not _heavy(loaded), f"`{' '.join(argv)}` loaded {_heavy(loaded)}"
    assert sum(m.startswith("repro") for m in loaded) <= 30
    # Imported by the code that calls them, not by every reader of a
    # store: ``compare`` keeps ``statistics`` (its bootstrap uses it).
    unused = {"platform"}
    if argv[0] in ("runs", "jobs"):
        unused |= {"hashlib", "statistics", "traceback"}
    assert not unused & loaded, f"`{' '.join(argv)}` loaded {unused & loaded}"


def _module_level_imports(path: Path) -> set[str]:
    """Top-level packages a module imports when it is imported: every
    import outside a function body and outside ``if TYPE_CHECKING:``."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_the_light_layers_do_not_import_numpy_at_module_level():
    package = SRC / "repro"
    paths = [
        path
        for entry in NUMPY_FREE
        for path in (
            sorted((package / entry).rglob("*.py"))
            if (package / entry).is_dir() else [package / entry]
        )
    ]
    assert len(paths) > 20 and all(path.exists() for path in paths)
    # The walk does see module-level imports where they exist.
    assert "numpy" in _module_level_imports(package / "datagen" / "text.py")
    assert "numpy" not in _module_level_imports(package / "datagen" / "base.py")
    strays = [
        path.relative_to(package).as_posix()
        for path in paths
        if "numpy" in _module_level_imports(path)
    ]
    assert not strays, (
        f"module-level `import numpy` in {strays}: import it in the "
        "function that uses it (DESIGN.md, Import layering)"
    )


#: Prints every ``repro.*`` dataclass whose ``__doc__`` is the signature
#: ``dataclass()`` generated, once everything under ``repro`` is imported.
_UNDOCUMENTED_DATACLASSES = """
import dataclasses, gc, importlib, json, pkgutil
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print(json.dumps(sorted(
    f"{cls.__module__}.{cls.__qualname__}"
    for cls in gc.get_objects()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    and cls.__module__.startswith("repro.")
    and cls.__doc__.startswith(cls.__name__ + "(")
)))
"""


def test_every_dataclass_has_its_own_docstring():
    """A dataclass without a docstring gets one built with
    ``inspect.signature`` each time its module is imported (about
    0.3 ms a class, paid by every process that imports it)."""

    @dataclasses.dataclass(frozen=True)
    class Undocumented:
        name: str

    assert Undocumented.__doc__.startswith("Undocumented(")
    completed = subprocess.run(
        [sys.executable, "-c", _UNDOCUMENTED_DATACLASSES],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == []


# --- One BLAS thread per CLI process (DESIGN.md §3.16) ---------------------

#: What OpenBLAS reads for its thread count (``repro.cli``).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: Appended to a program: its exit state, as JSON on the last stderr line.
_REPORT = (
    "\nimport gc, json, os, sys\n"
    "print(json.dumps({'threads': len(os.listdir('/proc/self/task')), "
    "'numpy': 'numpy' in sys.modules, "
    "'pin': os.environ.get('OPENBLAS_NUM_THREADS'), "
    "'frozen': gc.get_freeze_count() > 0}), file=sys.stderr)"
)

#: ``run micro-wordcount --json`` through each door of a CLI process.
_ENTRIES = {
    "console script": (
        "import sys\nsys.argv = ['repro-bench', 'run', 'micro-wordcount', '--json']\n"
        "from repro.cli import process_main\nassert process_main() == 0"
    ),
    "python -m repro.cli": (
        "import runpy, sys\nsys.argv = ['repro-bench', 'run', 'micro-wordcount', '--json']\n"
        "try:\n    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit_:\n    assert exit_.code == 0, exit_.code"
    ),
}

linux_only = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(),
    reason="counts threads through Linux /proc/self/task",
)


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(**variables: str) -> dict[str, str]:
    """This environment without BLAS or ``REPRO_*`` variables, plus
    ``variables``."""
    env = {
        name: value for name, value in os.environ.items()
        if name not in BLAS_THREAD_VARIABLES and not name.startswith("REPRO_")
    }
    return {**env, "PYTHONPATH": str(SRC), **variables}


def _exit_state(program: str, **variables: str) -> dict:
    """Threads, numpy, ``OPENBLAS_NUM_THREADS`` and whether the heap is
    frozen, of a fresh interpreter when ``program`` ends."""
    completed = subprocess.run(
        [sys.executable, "-c", program + _REPORT], env=_child_env(**variables),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stderr.strip().splitlines()[-1])


def test_the_console_script_is_the_process_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert 'repro-bench = "repro.cli:process_main"' in pyproject


@linux_only
class TestOneBlasThread:
    @pytest.mark.parametrize("entry", _ENTRIES)
    def test_a_cli_process_ends_with_one_thread(self, entry):
        state = _exit_state(_ENTRIES[entry])
        assert state == {"threads": 1, "numpy": True, "pin": "1", "frozen": True}

    def test_without_the_entry_openblas_starts_a_thread_per_cpu(self):
        """The control: ``main`` alone does not pin, and OpenBLAS then
        starts more than one thread wherever there is more than one CPU."""
        program = _ENTRIES["console script"].replace("process_main", "main")
        state = _exit_state(program)
        assert state["numpy"] and state["pin"] is None and not state["frozen"]
        assert (state["threads"] > 1) == (_cpus() > 1)

    @pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
    def test_the_users_thread_count_wins(self, variable):
        if _cpus() < 2:
            pytest.skip("two BLAS threads need two CPUs")
        state = _exit_state(_ENTRIES["console script"], **{variable: "2"})
        assert state["threads"] == 2
        assert state["pin"] == ("2" if variable == "OPENBLAS_NUM_THREADS" else None)

    @pytest.mark.parametrize("entry", _ENTRIES)
    def test_numpy_is_not_loaded_when_the_entry_pins(self, entry):
        """``os.putenv`` is an audit event: the hook sees the pin land
        and what ``sys.modules`` held at that moment."""
        program = (
            "import sys\nseen = []\n"
            "def hook(event, args):\n"
            "    if event == 'os.putenv' and args[0] in "
            "(b'OPENBLAS_NUM_THREADS', 'OPENBLAS_NUM_THREADS'):\n"
            "        seen.append('numpy' in sys.modules)\n"
            "sys.addaudithook(hook)\n"
            + _ENTRIES[entry]
            + "\nassert seen == [False], seen"
        )
        assert _exit_state(program)["numpy"]

    def test_import_repro_and_main_leave_the_environment_alone(self):
        program = (
            "import os\nbefore = dict(os.environ)\nimport repro\n"
            "from repro.cli import main\n"
            "code = main(['run', 'micro-wordcount', '--json'], "
            "out=open(os.devnull, 'w'))\n"
            "assert code == 0, code\n"
            "assert dict(os.environ) == before"
        )
        state = _exit_state(program)
        assert state["numpy"] and state["pin"] is None
        assert not state["frozen"]


def test_main_in_process_leaves_the_heap_unfrozen():
    """A library caller's heap is never frozen: only the process entry
    freezes, and only on its way out."""
    before = gc.get_freeze_count()
    for argv in (["list"], ["run", "micro-wordcount", "--volume", "20", "--json"]):
        assert main(argv, out=io.StringIO()) == 0
    assert gc.get_freeze_count() == before


@linux_only
@pytest.mark.parametrize("entry", _ENTRIES)
def test_a_frozen_exit_still_does_its_work(entry, tmp_path):
    """After the freeze, the interpreter still joins a non-daemon thread,
    runs an ``atexit`` handler registered before the entry, and leaves
    complete output: the ``--json`` document and the ``--trace-out``
    file."""
    trace = tmp_path / "trace.jsonl"
    program = (
        "import atexit, sys, threading, time\n"
        "def late():\n"
        "    time.sleep(0.2)\n"
        "    print('thread joined', file=sys.stderr, flush=True)\n"
        "threading.Thread(target=late).start()\n"
        "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
        + _ENTRIES[entry].replace(
            "'--json']", f"'--json', '--trace-out', {str(trace)!r}]"
        )
    )
    completed = subprocess.run(
        [sys.executable, "-c", program], env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr.splitlines()[-2:] == ["thread joined", "atexit ran"]
    report = json.loads(completed.stdout)
    assert report and all(result["engine"] for result in report)
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [step["name"] for step in spans[0]["children"]] == [
        "planning", "data-generation", "test-generation", "execution",
        "analysis-evaluation",
    ]


#: ``learning-mlp`` (the one workload that calls BLAS), observed whole.
_MLP = """
import dataclasses, json, os
from repro import api
from repro.core import registry
from repro.core.prescription import builtin_repository

prescription = builtin_repository().get("learning-mlp")
dataset = registry.generators.create(prescription.data.generator).generate(
    prescription.data.volume
)
result = registry.workloads.create(prescription.workload).run(
    registry.engines.create("mapreduce"), dataset
)
report = api.run("learning-mlp")
print(json.dumps({
    "output": result.output,
    "cost": dataclasses.asdict(result.cost),
    "simulated_seconds": result.simulated_seconds,
    "records": [result.records_in, result.records_out],
    "extra": [run.extra for run in report.results],
    "energy": [run.metric("energy").samples for run in report.results],
    "threads": len(os.listdir("/proc/self/task")),
}))
"""


@linux_only
def test_the_only_blas_traffic_is_unchanged_by_the_pin():
    """One BLAS thread or two, the MLP trains to the same numbers: its
    16-unit products are far below what OpenBLAS splits over threads."""
    runs = {}
    for threads in ("1", "2"):
        completed = subprocess.run(
            [sys.executable, "-c", _MLP],
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        runs[threads] = json.loads(completed.stdout.strip().splitlines()[-1])
    assert runs["1"].pop("threads") == 1
    assert runs["2"].pop("threads") == min(2, _cpus())
    assert runs["1"] == runs["2"]
    assert runs["1"]["output"]["accuracy"] > 0.5
    assert runs["1"]["cost"]
