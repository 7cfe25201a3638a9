"""Tooling: the commands that do nothing load nothing.

``import repro`` registers three tables of ``"module:attr"`` strings and
every package surface is lazy (:mod:`repro._lazy`), so a verb that
prints a registry or reads a JSONL file must not import numpy, an
engine, a generator, a workload, the service or the load generator.
Each case runs in a fresh interpreter and inspects ``sys.modules`` when
the verb returns; an :mod:`ast` walk keeps numpy out of the module level
of the layers those verbs do import (DESIGN.md, "Import layering").
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.analysis.baselines import BaselineManager
from repro.analysis.store import spec_fingerprint

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
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro._lazy", "repro.bootstrap", "repro.core",
        "repro.core.errors", "repro.core.registry",
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
