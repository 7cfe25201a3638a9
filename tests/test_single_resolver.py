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
    "api.py",
    "core/process.py",
    "service/orchestrator.py",
    "tuning/ablate.py",
    "loadgen/targets.py",
)

#: What only the resolver builds from spec fields.
RESOLVER_ONLY = {
    "RunnerOptions", "SystemConfiguration", "FaultSpec", "RunTask",
    "engine_configuration", "get_profile", "spec_fingerprint",
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


def test_tasks_and_engine_configurations_come_from_the_resolver_only():
    """Every door (a spec run, a sweep, a cross-engine comparison, a
    load target) takes its tasks from ``resolve``."""
    for name in ("RunTask", "engine_configuration"):
        modules = {module for module, _ in CALLS.get(name, [])}
        assert modules == {"execution/plan.py"}, (
            f"{name}(...) called from {sorted(modules)}: build a "
            "BenchmarkSpec and take the tasks of "
            "repro.execution.plan.resolve"
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


def test_a_batch_counts_its_cache_lookups_in_one_place():
    """A dataset-cache delta is taken by ``TestRunner.cache_delta`` (the
    parent's, plus its workers') and by a process worker for its own
    task, nowhere else: a door that subtracted snapshots itself missed
    the workers' lookups."""
    sites = sorted({module for module, _ in CALLS.get("since", [])})
    assert sites == ["execution/runner.py", "execution/workers.py"], (
        f".since(...) called from {sites}: call TestRunner.cache_delta"
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


def _enclosing_functions(predicate) -> set[tuple[str, str]]:
    """(module, ``Class.function``) of every call under ``src/repro``
    that ``predicate`` accepts."""
    found = set()

    def visit(module: str, node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                visit(module, child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and predicate(child):
                found.add((module, ".".join(scope)))
            visit(module, child, scope)

    for module, tree in TREES.items():
        visit(module, tree, ())
    return found


def _builds_an_engine(call: ast.Call) -> bool:
    """A configuration's ``.build()`` or a registry's ``engines.create(``."""
    function = call.func
    if not isinstance(function, ast.Attribute):
        return False
    receiver = ast.unparse(function.value)
    return (
        function.attr == "build"
        and not call.args
        and "configuration" in receiver.lower()
    ) or (function.attr == "create" and receiver.endswith("engines"))


def test_an_engine_is_built_from_its_task_in_one_function():
    """``TestGenerator.build_engine`` is the one recipe (the runner kept
    a copy of it); ``TuningProfile.validate`` builds one to check its
    knobs and runs nothing on it."""
    assert _enclosing_functions(_builds_an_engine) == {
        ("core/test_generator.py", "TestGenerator.build_engine"),
        ("tuning/profiles.py", "TuningProfile.validate"),
    }


#: ``TestRunner`` methods anyone may call: the one way in, the batch's
#: cache delta, and the release of its pools.
RUNNER_DOORS = {"run_many", "cache_delta", "close"}
#: Who may call ``run_task``: ``run_many`` and the process worker.
RUN_TASK_CALLERS = {"execution/runner.py", "execution/workers.py"}


def _runner_methods() -> set[str]:
    (runner,) = (
        node for node in ast.walk(TREES["execution/runner.py"])
        if isinstance(node, ast.ClassDef) and node.name == "TestRunner"
    )
    return {
        node.name for node in runner.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(
            isinstance(decorator, ast.Name) and decorator.id == "property"
            for decorator in node.decorator_list
        )
    }


def test_a_runner_runs_work_one_way():
    """Nothing under ``src/``, ``benchmarks/`` or ``examples/`` calls a
    ``TestRunner`` method but ``run_many``, ``cache_delta`` and
    ``close``: a runner runs the tasks ``resolve`` made (a second door,
    ``run`` / ``run_on_engines``, took prescriptions and overrides)."""
    methods = _runner_methods()
    public = {name for name in methods if not name.startswith("_")}
    assert public == RUNNER_DOORS | {"run_task"}, sorted(public)
    trees = dict(TREES)
    root = SRC.parent.parent
    for directory in ("benchmarks", "examples"):
        for path in sorted((root / directory).rglob("*.py")):
            trees[path.relative_to(root).as_posix()] = ast.parse(
                path.read_text()
            )
    del trees["execution/runner.py"]  # its methods call each other
    strays = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods - RUNNER_DOORS
            ):
                continue
            if node.func.attr == "run_task" and module in RUN_TASK_CALLERS:
                continue
            strays.append((module, node.lineno, node.func.attr))
    assert not strays, (
        f"TestRunner methods called beside run_many: {strays}; build a "
        "BenchmarkSpec and run the tasks of repro.execution.plan.resolve"
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
    """The result analyzer ranks and compares by asking
    ``core.metrics.metric_direction``: no caller passes a direction, and
    step 5 holds no metric names of its own to fall out of step."""
    import inspect

    from repro.core.metrics import metric_direction
    from repro.core.results import ResultAnalyzer

    tree = TREES["core/process.py"]
    named = sorted(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and metric_direction(node.value) == "lower"
    )
    assert not named, f"core/process.py spells out metric names: {named}"
    for method in (ResultAnalyzer.ranking, ResultAnalyzer.speedup):
        assert "metric_direction" in inspect.getsource(method), method
        assert set(inspect.signature(method).parameters) <= {
            "self", "metric", "baseline_engine",
        }, method
    definitions = [
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name == "metric_direction"
    ]
    assert definitions == ["core/metrics.py"], definitions
