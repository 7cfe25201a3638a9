"""System configuration tools (Execution Layer, Figure 2).

"The system configuration tools enable a generated test running in a
specific software stack."  Concretely: named engine configurations
(cluster size, planner knobs, store partitioning, stream service rate)
that the runner uses to instantiate engines.  Format conversion is
:func:`repro.datagen.formats.convert`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ExecutionError
from repro.engines.base import Engine, SimulatedClusterSpec


@dataclass
class SystemConfiguration:
    """A named way to instantiate one engine.

    ``fault`` attaches a seeded fault-injection schedule (see
    :mod:`repro.engines.faults`): the built engine is wrapped in a
    :class:`~repro.engines.faults.FaultyEngine` so executions fail or
    stall deterministically — the substrate the retry and degradation
    paths are tested against.  The whole configuration is picklable, so
    faulty engines cross the process-executor boundary intact.
    """

    engine_name: str
    options: dict[str, Any] = field(default_factory=dict)
    label: str = ""
    fault: Any = None  # repro.engines.faults.FaultSpec (import kept lazy)

    def build(self) -> Engine:
        """Instantiate the configured engine."""
        engine = self._build_bare()
        if self.fault is not None:
            from repro.engines.faults import FaultyEngine

            engine = FaultyEngine(engine, self.fault)
        return engine

    def _build_bare(self) -> Engine:
        if self.engine_name == "mapreduce":
            from repro.engines.mapreduce import MapReduceEngine

            cluster = (
                SimulatedClusterSpec(**self.options) if self.options else None
            )
            return MapReduceEngine(cluster=cluster)
        if self.engine_name == "dbms":
            from repro.engines.dbms import DbmsEngine, PlannerConfig

            config = PlannerConfig(**self.options) if self.options else None
            return DbmsEngine(planner_config=config)
        if self.engine_name == "nosql":
            from repro.engines.nosql import NoSqlStore

            return NoSqlStore(**self.options)
        if self.engine_name == "streaming":
            from repro.engines.streaming import StreamingEngine

            return StreamingEngine(**self.options)
        if self.engine_name == "dfs":
            from repro.engines.dfs import DistributedFileSystem

            return DistributedFileSystem(**self.options)
        raise ExecutionError(
            f"no configuration recipe for engine {self.engine_name!r}"
        )


def layout_options(layout: str) -> dict[str, dict[str, Any]]:
    """Per-engine option overrides realizing an execution layout.

    Layout is a DBMS notion: ``columnar`` selects its batch-at-a-time
    vectorized operators.  Every other engine ignores the layout and
    runs bare, and the row layout is the DBMS default, so it needs no
    overrides at all.
    """
    if layout != "columnar":
        return {}
    return {"dbms": {"layout": "columnar"}}
