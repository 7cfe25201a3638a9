"""Tooling: there is one way to turn a BenchmarkSpec into running work.

ROADMAP aim 2 — "a new spec field touches ``spec.py``, the resolver
and one test" — as a check that runs in tier-1.  Walks ``src/repro``
with :mod:`ast` and fails when a spec consumer starts translating spec
fields by hand again instead of calling
:func:`repro.execution.plan.resolve`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The only modules that may construct ``RunnerOptions``.
RUNNER_OPTIONS_HOMES = {
    "execution/plan.py", "execution/runner.py", "execution/workers.py",
}

#: The spec consumers: they resolve a spec (or submit it) and run the plan.
CONSUMERS = (
    "core/process.py",
    "service/orchestrator.py",
    "tuning/ablate.py",
    "loadgen/targets.py",
)

#: What only the resolver builds from spec fields.
RESOLVER_ONLY = {
    "RunnerOptions", "SystemConfiguration", "FaultSpec", "RunTask",
    "get_profile", "spec_fingerprint",
}


#: Module path relative to src/repro → its parsed source.
TREES = {
    path.relative_to(SRC).as_posix(): ast.parse(
        path.read_text(), filename=str(path)
    )
    for path in sorted(SRC.rglob("*.py"))
}


def _calls() -> dict[str, list[tuple[str, int]]]:
    """Called name → [(module path relative to src/repro, line)]."""
    found: dict[str, list[tuple[str, int]]] = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            name = (
                function.id if isinstance(function, ast.Name)
                else function.attr if isinstance(function, ast.Attribute)
                else None
            )
            if name is not None:
                found.setdefault(name, []).append((module, node.lineno))
    return found


CALLS = _calls()


def test_the_walk_sees_the_resolver():
    # Guards the checks below against passing because nothing was parsed.
    assert "execution/plan.py" in {m for m, _ in CALLS["RunnerOptions"]}
    assert all((SRC / consumer).exists() for consumer in CONSUMERS)


def test_runner_options_are_built_in_the_execution_layer_only():
    strays = [
        site for site in CALLS["RunnerOptions"]
        if site[0] not in RUNNER_OPTIONS_HOMES
    ]
    assert not strays, (
        f"RunnerOptions(...) constructed outside {sorted(RUNNER_OPTIONS_HOMES)}"
        f": {strays}; resolve the spec with repro.execution.plan.resolve"
    )


def test_one_module_builds_series_keys():
    modules = {module for module, _ in CALLS["spec_fingerprint"]}
    assert len(modules) == 1, (
        f"spec_fingerprint(...) called from {sorted(modules)}: two "
        "fingerprint builders are two opinions about the series key; "
        "record through repro.execution.runner.record_outcomes"
    )


def test_spec_consumers_do_not_translate_spec_fields():
    strays = [
        (name, module, line)
        for name in sorted(RESOLVER_ONLY)
        for module, line in CALLS.get(name, [])
        if module in CONSUMERS
    ]
    assert not strays, (
        f"spec fields translated by hand in a spec consumer: {strays}; "
        "that belongs in repro.execution.plan"
    )


def test_a_task_attempt_happens_in_one_place():
    """One task function behind every executor: the fault scope and the
    timeout bound are each entered from a single call site."""
    for name in ("fault_attempt", "call_with_timeout"):
        sites = [
            site for site in CALLS.get(name, [])
            if site[0].startswith("execution/")
        ]
        assert len(sites) == 1 and sites[0][0] == "execution/runner.py", (
            f"{name}(...) called from {sites}: every backend runs a task "
            "through TestRunner.run_task"
        )


def test_the_worker_rebuilds_nothing_the_parent_shipped():
    strays = [
        (name, line)
        for name in ("RunTask", "RetryPolicy")
        for module, line in CALLS.get(name, [])
        if module == "execution/workers.py"
    ]
    assert not strays, (
        f"execution/workers.py constructs {strays}: the descriptor carries "
        "the task and the policy by value"
    )


def test_an_engine_is_configured_on_its_task_and_nowhere_else():
    """No runner-level engine table: nothing under ``src/`` passes a
    ``configurations=`` keyword or names ``default_configurations``."""
    strays = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            names = [
                getattr(node, attribute, None)
                for attribute in ("id", "attr", "name", "arg")
            ]
            if isinstance(node, ast.keyword) and node.arg == "configurations":
                strays.append((module, node.value.lineno, "configurations="))
            elif "default_configurations" in names:
                strays.append((module, node.lineno, "default_configurations"))
    assert not strays, (
        f"a runner-level engine table is back: {strays}; an engine is "
        "task.configuration.build() or the bare registry engine "
        "(repro.execution.plan.engine_configuration decides which)"
    )


def test_engines_and_generators_import_nothing_from_the_execution_layer():
    """Who fans out is the runner: no engine and no generator resolves
    an executor of its own (DESIGN.md §3.16)."""
    strays = [
        (module, node.lineno)
        for module, tree in TREES.items()
        if module.startswith(("engines/", "datagen/"))
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("repro.execution")
        )
        or (
            isinstance(node, ast.Import)
            and any(a.name.startswith("repro.execution") for a in node.names)
        )
    ]
    assert not strays, (
        f"repro.execution imported below the execution layer: {strays}"
    )


def test_metric_direction_is_defined_once():
    """Step 5 ranks engines by asking ``compare.metric_direction``: the
    process holds no metric names of its own to fall out of step."""
    from repro.analysis.compare import metric_direction

    tree = TREES["core/process.py"]
    named = sorted(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and metric_direction(node.value) == "lower"
    )
    assert not named, f"core/process.py spells out metric names: {named}"
    assert "metric_direction" in {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
