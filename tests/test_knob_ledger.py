"""Tooling: the knob ledger — every option the run path has, pinned.

Each independently settable value doubles what tests and benchmarks
must cover, so the whole surface is read off the code by introspection
and compared with ``tests/fixtures/knobs.json``.  Adding, renaming or
removing an option fails here until the fixture changes with it, which
makes every new option a deliberate, reviewable diff (DESIGN.md
"Options" holds the rule and the audit the fixture came from).

Regenerate after a deliberate change:
``PYTHONPATH=src python tests/test_knob_ledger.py > tests/fixtures/knobs.json``
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
import json
from pathlib import Path
from typing import Any

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "knobs.json"

RULE = (
    "the option surface differs from tests/fixtures/knobs.json.  An "
    "option earns its place when two callers that are neither tests nor "
    "examples need different values, or when it is a deployment setting "
    "(a path, an address); a value the code can work out, or that one "
    "caller sets, is a constant (DESIGN.md \"Options\").  If the change "
    "is deliberate, regenerate the fixture (see this module's docstring) "
    "and add the option to DESIGN's table with who sets it and why."
)


def _dataclasses() -> dict[str, type]:
    from repro.core.spec import BenchmarkSpec
    from repro.engines.dbms.planner import PlannerConfig
    from repro.engines.mapreduce.job import JobConf
    from repro.execution.runner import RunnerOptions, RunTask
    from repro.execution.workers import TaskDescriptor, WorkerInit

    return {
        cls.__name__: cls
        for cls in (
            BenchmarkSpec, RunnerOptions, RunTask, WorkerInit,
            TaskDescriptor, JobConf, PlannerConfig,
        )
    }


def _callables() -> dict[str, Any]:
    from repro.core.test_generator import TestGenerator
    from repro.datagen.base import DataGenerator
    from repro.datagen.cache import DatasetCache
    from repro.datagen.handoff import export_dataset
    from repro.engines.mapreduce.runtime import MapReduceEngine
    from repro.execution.runner import RunnerOptions, TestRunner
    from repro.service.orchestrator import Orchestrator

    return {
        "TestRunner.__init__": TestRunner.__init__,
        "TestRunner.run_many": TestRunner.run_many,
        "TestRunner.run_on_engines": TestRunner.run_on_engines,
        "RunnerOptions.retry_policy": RunnerOptions.retry_policy,
        "DataGenerator.generate_parallel": DataGenerator.generate_parallel,
        "TestGenerator.__init__": TestGenerator.__init__,
        "DatasetCache.__init__": DatasetCache.__init__,
        "export_dataset": export_dataset,
        "MapReduceEngine.__init__": MapReduceEngine.__init__,
        "Orchestrator.__init__": Orchestrator.__init__,
    }


def _tuning() -> dict[str, Any]:
    from repro.tuning import profiles

    return {
        # A knob every engine accepts would need a name here first.
        "constants": sorted(
            name for name in vars(profiles)
            if name.isupper() and not name.startswith("_")
        ),
        "ENGINE_KNOBS": {
            engine: list(knobs)
            for engine, knobs in profiles.ENGINE_KNOBS.items()
        },
        "OPTIMIZED_KNOBS": profiles.OPTIMIZED_KNOBS,
        "profiles": {
            engine: profiles.available_profiles(engine)
            for engine in profiles.ENGINE_KNOBS
        },
    }


def _is_environ(node: ast.expr) -> bool:
    """``os.environ`` or a bare ``environ``."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _environment_reads() -> dict[str, list[str]]:
    """``REPRO_*`` name → the modules under ``src/`` that read it.

    Finds ``os.environ.get(X)``, ``os.environ[X]`` and ``os.getenv(X)``
    where ``X`` is a string literal or a module-level constant holding
    one; any other read is an error, so the walk cannot miss a name.
    """
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            key = None
            if isinstance(node, ast.Call) and node.args:
                function = node.func
                if isinstance(function, ast.Attribute) and (
                    (function.attr == "get" and _is_environ(function.value))
                    or function.attr == "getenv"
                ):
                    key = node.args[0]
            elif isinstance(node, ast.Subscript) and _is_environ(node.value):
                key = node.slice
            if key is None:
                continue
            if isinstance(key, ast.Constant):
                name = key.value
            elif isinstance(key, ast.Name) and key.id in constants:
                name = constants[key.id]
            else:
                raise AssertionError(
                    f"{module}:{node.lineno} reads an environment variable "
                    "this walk cannot name; use a literal or a module constant"
                )
            if name.startswith("REPRO_"):
                found.setdefault(name, []).append(module)
    return found


def _cli_options(
    parser: argparse.ArgumentParser, prefix: str = ""
) -> dict[str, list[str]]:
    """Verb (``"runs list"`` for a nested one) → its option strings."""
    options = sorted(
        option
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    )
    found = {prefix: options} if prefix else {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                found.update(
                    _cli_options(subparser, f"{prefix} {name}".strip())
                )
    return found


def surface() -> dict[str, Any]:
    """The whole option surface, as JSON-friendly data."""
    from repro.cli import _build_parser

    return {
        "dataclass_fields": {
            name: [field.name for field in dataclasses.fields(cls)]
            for name, cls in _dataclasses().items()
        },
        "parameters": {
            name: [
                parameter
                for parameter in inspect.signature(function).parameters
                if parameter != "self"
            ]
            for name, function in _callables().items()
        },
        "tuning": _tuning(),
        "environment": _environment_reads(),
        "cli": _cli_options(_build_parser()),
    }


def _flatten(value: Any, path: str = "") -> set[str]:
    """Every leaf of the surface as one ``section/…/name`` string."""
    if isinstance(value, dict):
        return {
            leaf
            for key, child in value.items()
            for leaf in _flatten(child, f"{path}/{key}")
        }
    if isinstance(value, list):
        return {f"{path}: {item}" for item in value}
    return {f"{path} = {value!r}"}


def test_the_option_surface_is_the_pinned_one():
    pinned = json.loads(FIXTURE.read_text())
    # Through JSON, so tuples and lists compare as the fixture holds them.
    found = json.loads(json.dumps(surface()))
    added = sorted(_flatten(found) - _flatten(pinned))
    removed = sorted(_flatten(pinned) - _flatten(found))
    assert found == pinned, (
        f"{RULE}\n  added: {added}\n  removed: {removed}"
    )


def test_each_environment_variable_is_read_by_one_function():
    reads = _environment_reads()
    assert reads, "the walk found no REPRO_* read at all"
    shared = {name: where for name, where in reads.items() if len(where) > 1}
    assert not shared, (
        f"read in more than one place: {shared}; a second reader is a "
        "second opinion about the default.  Call the one function that "
        "reads it (execution.parallel.default_backend, "
        "analysis.store.env_store_dir)"
    )


def _render(value: Any, depth: int = 0) -> str:
    """JSON with one line per leaf list, so a diff shows one option."""
    if isinstance(value, dict) and value:
        pad = " " * depth
        body = ",\n".join(
            f"{pad} {json.dumps(key)}: {_render(child, depth + 1)}"
            for key, child in sorted(value.items())
        )
        return f"{{\n{body}\n{pad}}}"
    return json.dumps(value)


if __name__ == "__main__":
    print(_render(surface()))
