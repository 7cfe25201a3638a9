"""Real-time analytics workloads on the streaming engine.

The paper's real-time analytics category (Table 2): interactive
aggregation over continuously arriving data.  Both workloads report the
queueing evidence (does processing keep up with the arrival speed?) that
the velocity discussion of Section 2.1 demands.
"""

from __future__ import annotations

from collections import Counter
from statistics import median
from typing import Any

from repro.core.operations import operations
from repro.core.patterns import MultiOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.datagen.stream import EventKind
from repro.engines.base import CostCounters
from repro.engines.streaming import (
    FilterOperator,
    SlidingWindowAggregate,
    StreamingEngine,
    Topology,
    TumblingWindowAggregate,
    count,
)
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


class WindowedAggregationWorkload(Workload):
    """Per-key event counts over tumbling windows."""

    name = "windowed-aggregation"
    domain = ApplicationDomain.STREAMING
    category = WorkloadCategory.REALTIME_ANALYTICS
    data_type = DataType.STREAM
    abstract_operations = tuple(operations("window", "aggregate"))
    pattern = MultiOperationPattern(operations("window", "aggregate"))

    def run_streaming(
        self,
        engine: StreamingEngine,
        dataset: DataSet,
        window_seconds: float = 0.1,
        **params: Any,
    ) -> WorkloadResult:
        topology = Topology(self.name).then(
            TumblingWindowAggregate(window_seconds, count)
        )
        report = engine.run(topology, dataset.records)
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=report.results,
            records_in=dataset.num_records,
            records_out=len(report.results),
            duration_seconds=0.0,  # filled by the dispatcher
            cost=CostCounters().merge(engine.counters),
            latencies=report.latencies,
            simulated_seconds=report.events_in / report.service_rate,
            extra={
                "keeps_up": report.keeps_up,
                "arrival_rate": report.arrival_rate,
                "service_rate": report.service_rate,
                "backlog_seconds": report.final_backlog_seconds,
            },
        )


class RollingUpdateRateWorkload(Workload):
    """Sliding-window rate of UPDATE events (monitors update frequency).

    Filters the stream to updates, then counts them per sliding window —
    the observable side of the *data updating frequency* facet of
    velocity.  ``extra["update_rate"]`` is the median window's count
    over the window length, in updates per second (the median, because
    the windows at the end of a finite stream are only partly filled).
    """

    name = "rolling-update-rate"
    domain = ApplicationDomain.STREAMING
    category = WorkloadCategory.REALTIME_ANALYTICS
    data_type = DataType.STREAM
    abstract_operations = tuple(operations("select", "window", "aggregate"))
    pattern = MultiOperationPattern(operations("select", "window", "aggregate"))

    def run_streaming(
        self,
        engine: StreamingEngine,
        dataset: DataSet,
        window_seconds: float = 0.2,
        slide_seconds: float = 0.05,
        **params: Any,
    ) -> WorkloadResult:
        topology = (
            Topology(self.name)
            .then(FilterOperator(lambda event: event.kind is EventKind.UPDATE))
            .then(
                SlidingWindowAggregate(
                    window_seconds, slide_seconds, lambda acc, value: acc + 1
                )
            )
        )
        report = engine.run(topology, dataset.records)
        updates_per_window: Counter[float] = Counter()
        for result in report.results:
            updates_per_window[result.window_start] += result.value
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=report.results,
            records_in=dataset.num_records,
            records_out=len(report.results),
            duration_seconds=0.0,
            cost=CostCounters().merge(engine.counters),
            latencies=report.latencies,
            extra={
                "keeps_up": report.keeps_up,
                "arrival_rate": report.arrival_rate,
                "update_rate": (
                    median(updates_per_window.values()) / window_seconds
                    if updates_per_window
                    else 0.0
                ),
            },
        )
