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

One level down, the same rule for symbols: every public top-level
function and class, public method and dataclass field under
``src/repro`` has a reader under ``src/`` (not counting its own body and
its ``lazy_exports`` entry), or it is listed in the same ledger as
``"module:Qualified.name"`` with the reader that keeps it: an
experiment ``EXPERIMENTS.md`` names, an example, the e2e benchmark, a
capture or oracle under ``tests/``, or a caller outside the tree.  A
reader is matched by name, read off the code with :mod:`ast`:

* a name, an ``.attribute``, an imported name or a ``"module:attr"``
  string reads every symbol of that name, so one read of a method name
  keeps every method so named;
* ``getattr(x, "name")`` reads ``name`` and ``getattr(x, f"run_{…}")``
  every symbol named ``run_…``;
* ``fields()``, ``asdict()`` or ``astuple()`` of ``self``, ``cls`` or a
  dataclass by name reads all of that class's fields;
* a keyword argument writes a field, it does not read it.

Beside it, the same rule for what ``repro list`` prints: every workload
in the catalogue is named by a builtin prescription or run by a
miniature suite.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

from repro import bootstrap
from repro.core.prescription import builtin_repository

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "reachability.json"
ROOTS = ("repro.api", "repro.cli")

REFERENCE = re.compile(r"^(repro(?:\.\w+)+):(\w+)$")


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
    # One level down, on source parsed here.
    synthetic = ast.parse(SYNTHETIC)
    assert _unread({"repro.synthetic": synthetic}) == {
        "repro.synthetic:Record.dropped",
        "repro.synthetic:unused",
        "repro.synthetic:recursive",
        "repro.synthetic:main",
    }


def _ledger() -> tuple[dict[str, str], dict[str, str]]:
    """The fixture's module entries and its ``module:symbol`` entries."""
    entries = json.loads(FIXTURE.read_text())
    modules = {key: why for key, why in entries.items() if ":" not in key}
    return modules, {key: entries[key] for key in entries.keys() - modules.keys()}


#: A module whose readers the symbol walk must find: everything but what
#: ``test_the_walk_sees_the_tree`` lists is read.
SYNTHETIC = """
from dataclasses import dataclass, fields


@dataclass
class Record:
    kept: int
    dropped: int


@dataclass
class Whole:
    first: int

    def row(self):
        return [getattr(self, item.name) for item in fields(self)]


class Dispatcher:
    def go(self, name):
        return getattr(self, f"run_{name}")()

    def run_alpha(self):
        return 1


def used():
    return "repro.synthetic:loaded"


def loaded():
    return 0


def unused():
    return 0


def recursive(n):
    return recursive(n - 1) if n else 0


def main():
    used()
    Dispatcher().go("alpha")
    return Record(kept=1, dropped=2).kept + Whole(1).row()[0]
"""


def test_every_module_is_reached_or_on_the_ledger():
    ledger, _ = _ledger()
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


#: Calls that read every field of the dataclass they are given.
WHOLE_RECORD_READERS = frozenset({"fields", "asdict", "astuple"})
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def _symbols(tree: ast.Module) -> Iterable[tuple[str, str, ast.AST]]:
    """``(qualified name, name, node)`` of every public top-level def and
    class, public method and public dataclass field of a module."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = _is_dataclass(node)
        for item in node.body:
            if isinstance(item, DEFINITIONS):
                name = item.name
            elif (
                dataclass
                and isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
            ):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{node.name}.{name}", name, item


def _call_reads(call: ast.Call, owner: str | None) -> Iterable[str]:
    """What a ``getattr`` or a whole-record call reads beyond its names.

    ``prefix:run_`` stands for every name starting ``run_``, and
    ``fields:Record`` for every field of ``Record``."""
    func = call.func
    callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if callee in ("getattr", "hasattr") and len(call.args) > 1:
        name = call.args[1]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            yield name.value
        elif isinstance(name, ast.JoinedStr) and isinstance(
            name.values[0], ast.Constant
        ):
            yield f"prefix:{name.values[0].value}"
    elif callee in WHOLE_RECORD_READERS and call.args:
        subject = call.args[0]
        if isinstance(subject, ast.Name):
            record = owner if subject.id in ("self", "cls") else subject.id
            yield f"fields:{record}"


def _reads(node: ast.AST, owner: str | None = None) -> Counter[str]:
    """Every name ``node`` reads; ``owner`` is the class it sits in."""
    found: Counter[str] = Counter()
    if isinstance(node, ast.ClassDef):
        owner = node.name
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        found[node.id] += 1
    elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
        found[node.attr] += 1
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        found.update(alias.name.rpartition(".")[2] for alias in node.names)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        reference = REFERENCE.match(node.value)
        if reference:
            found[reference.group(2)] += 1
    elif isinstance(node, ast.Call):
        found.update(_call_reads(node, owner))
    for child in ast.iter_child_nodes(node):
        found.update(_reads(child, owner))
    return found


def _unread(trees: dict[str, ast.Module]) -> set[str]:
    """``module:qualified.name`` of every symbol in ``trees`` that no
    code in ``trees`` reads outside the symbol's own body."""
    reads: Counter[str] = sum(map(_reads, trees.values()), Counter())
    prefixes = [key[7:] for key in reads if key.startswith("prefix:")]
    unread = set()
    for module, tree in trees.items():
        for qualname, name, node in _symbols(tree):
            owner = qualname.partition(".")[0]
            if (
                reads[name] > _reads(node)[name]
                or any(name.startswith(prefix) for prefix in prefixes)
                or (isinstance(node, ast.AnnAssign) and reads[f"fields:{owner}"])
            ):
                continue
            unread.add(f"{module}:{qualname}")
    return unread


#: A file a ledger entry names as its reader.
READER_PATH = re.compile(r"(?:benchmarks|examples|tests)/[\w/]+\.py|README\.md")


def test_every_symbol_is_read_or_on_the_ledger():
    _, ledger = _ledger()
    unread = _unread(TREES)
    assert sorted(unread - ledger.keys()) == [], (
        "nothing under src/ reads it: delete it with the tests that only "
        "exercise it, or list it in tests/fixtures/reachability.json with "
        "the reader that keeps it"
    )
    assert sorted(ledger.keys() - unread) == [], (
        "listed in tests/fixtures/reachability.json but read under src/ "
        "(or gone): drop the entry"
    )


def test_every_symbol_entry_names_a_reader_that_reads_it():
    _, ledger = _ledger()
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for key, reader in sorted(ledger.items()):
        qualname = key.partition(":")[2]
        # A field is read whole where its record is read whole.
        names = {qualname.rpartition(".")[2], qualname.partition(".")[0]}
        for path in READER_PATH.findall(reader):
            assert (REPO / path).is_file(), f"{key}: no reader {path}"
            if path.startswith("benchmarks/bench_"):
                assert Path(path).name in experiments, (
                    f"{key}: {path} is no experiment EXPERIMENTS.md names"
                )
            text = (REPO / path).read_text()
            if path.endswith(".py"):
                assert names & _reads(ast.parse(text)).keys(), (
                    f"{key}: {path} does not read it"
                )
            else:
                assert any(re.search(rf"\b{name}\b", text) for name in names)


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
