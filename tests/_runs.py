"""Run a prescription through a runner's one way in.

``TestRunner.run_many`` runs the tasks ``resolve`` makes; these helpers
build the spec a test means and hand its tasks over.
"""

from __future__ import annotations

from typing import Any

from repro.core.spec import BenchmarkSpec
from repro.execution.plan import resolve


def run_on_engines(
    runner: Any,
    prescription: str,
    engines: list[str],
    volume: int | None = None,
    **params: Any,
) -> list[Any]:
    """``prescription`` on each of ``engines``; outcomes in engine order."""
    spec = BenchmarkSpec(
        prescription, engines=list(engines), volume=volume, params=params
    )
    return runner.run_many(resolve(spec, runner.test_generator.repository).tasks)


def run_one(
    runner: Any,
    prescription: str,
    engine: str,
    volume: int | None = None,
    **params: Any,
) -> Any:
    """The one outcome of ``prescription`` on ``engine``."""
    (outcome,) = run_on_engines(runner, prescription, [engine], volume, **params)
    return outcome
