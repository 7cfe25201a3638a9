"""Tooling: the reachability ledger — every module has a way in.

The knob ledger's sibling (DESIGN.md "Options"): a module under
``src/repro`` is reachable from :mod:`repro.api` or :mod:`repro.cli`
through the import graph, or it is listed in
``tests/fixtures/reachability.json`` with the reason it stays.  The
graph is read off the code with :mod:`ast`:

* every ``import`` / ``from … import`` in a module is an edge, wherever
  it sits (function bodies hold the lazy imports);
* a package's ``lazy_exports`` table is a surface, not a caller: an
  entry becomes an edge when some module under ``src/`` imports that
  name from the package;
* a ``"module:attr"`` string (the ``bootstrap.py`` catalogue) is an edge.

Beside it, the same rule for what ``repro list`` prints: every workload
in the catalogue is named by a builtin prescription or run by a
miniature suite.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

from repro import bootstrap
from repro.core.prescription import builtin_repository

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "reachability.json"
ROOTS = ("repro.api", "repro.cli")

REFERENCE = re.compile(r"^(repro(?:\.\w+)+):\w+$")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: Dotted module name → parsed source, for every module under ``src/repro``.
TREES = {
    _module_name(path): ast.parse(path.read_text(), filename=str(path))
    for path in sorted((SRC / "repro").rglob("*.py"))
}
PACKAGES = {
    _module_name(path)
    for path in (SRC / "repro").rglob("__init__.py")
}


def _lazy_table(package: str) -> dict[str, str]:
    """Exported name → defining module, from a ``lazy_exports`` call."""
    origin: dict[str, str] = {}
    for node in ast.walk(TREES[package]):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            continue
        exports = ast.literal_eval(node.args[1])
        origin.update(
            (name, module) for module, names in exports.items() for name in names
        )
        for keyword in node.keywords:
            if keyword.arg == "submodules":
                origin.update(
                    (name, f"{package}.{name}")
                    for name in ast.literal_eval(keyword.value)
                )
    return origin


LAZY_TABLES = {package: _lazy_table(package) for package in PACKAGES}


def _with_parents(module: str) -> set[str]:
    """Importing ``a.b.c`` runs ``a`` and ``a.b`` first."""
    parts = module.split(".")
    return {".".join(parts[: end + 1]) for end in range(len(parts))}


def _edges(module: str) -> set[str]:
    """The modules under ``src/repro`` that ``module`` imports or names."""
    package = module if module in PACKAGES else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            found |= _with_parents(base)
            for alias in node.names:
                if f"{base}.{alias.name}" in TREES:
                    found.add(f"{base}.{alias.name}")
                elif alias.name in LAZY_TABLES.get(base, {}):
                    found |= _with_parents(LAZY_TABLES[base][alias.name])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reference = REFERENCE.match(node.value)
            if reference:
                found |= _with_parents(reference.group(1))
    return found & TREES.keys()


def _reached() -> set[str]:
    reached: set[str] = set()
    frontier = [name for root in ROOTS for name in _with_parents(root)]
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(_edges(module))
    return reached


def test_the_walk_sees_the_tree():
    # Guards the ledger against passing because nothing was parsed.
    reached = _reached()
    assert len(TREES) > 100
    assert {"repro.execution.runner", "repro.datagen.stream"} <= reached
    # A lazy table alone reaches nothing: veracity is in through graph.py.
    assert "repro.datagen.veracity" in _edges("repro.datagen.graph")
    assert "repro.datagen.veracity" not in _edges("repro.datagen")


def test_every_module_is_reached_or_on_the_ledger():
    ledger = json.loads(FIXTURE.read_text())
    unreached = TREES.keys() - _reached()
    assert sorted(unreached - ledger.keys()) == [], (
        "no import path from repro.api or repro.cli: wire the module to a "
        "verb, move it beside the experiment that uses it under "
        "benchmarks/, delete it, or list it in "
        "tests/fixtures/reachability.json with the reason it stays"
    )
    assert sorted(ledger.keys() - unreached) == [], (
        "listed in tests/fixtures/reachability.json but reachable (or "
        "gone): drop the entry"
    )
    assert all(ledger.values()), "every exception states its reason"


def _miniature_workload_classes() -> set[str]:
    """Class names ``suites/miniatures.py`` imports from the workloads."""
    return {
        alias.name
        for node in ast.walk(TREES["repro.suites.miniatures"])
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.workloads")
        for alias in node.names
    }


def test_everything_listed_is_runnable():
    repository = builtin_repository()
    prescribed = {repository.get(name).workload for name in repository.names()}
    in_a_miniature = _miniature_workload_classes()
    unrunnable = [
        name
        for name, reference in bootstrap.WORKLOADS.items()
        if name not in prescribed
        and reference.partition(":")[2] not in in_a_miniature
    ]
    assert unrunnable == [], (
        "printed by `repro list`, but no builtin prescription names it and "
        "no miniature suite runs it"
    )
