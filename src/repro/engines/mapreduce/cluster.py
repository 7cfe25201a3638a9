"""Simulated cluster model for the MapReduce engine.

Executing on one host, the engine still reports what an N-node cluster
would have done: per-task record counts become simulated task durations,
tasks are scheduled LPT-first onto map/reduce slots, and shuffle bytes
cross a modelled network.  This is the substitution (DESIGN.md §2) for the
Hadoop testbeds the surveyed benchmarks assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engines.base import SimulatedClusterSpec, schedule_heterogeneous


@dataclass
class PhaseTiming:
    """Simulated timing of one phase (map, shuffle, or reduce)."""

    name: str
    task_costs: list[float] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class ClusterReport:
    """Simulated execution report of one job on the modelled cluster."""

    spec: SimulatedClusterSpec
    phases: list[PhaseTiming] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """End-to-end makespan: phases are barriers, so times add."""
        return sum(phase.seconds for phase in self.phases)

class ClusterModel:
    """Turns per-task costs into simulated phase timings."""

    def __init__(self, spec: SimulatedClusterSpec | None = None) -> None:
        self.spec = spec or SimulatedClusterSpec()

    def simulate_job(
        self,
        map_task_records: list[int],
        shuffle_bytes: int,
        reduce_task_records: list[int],
    ) -> ClusterReport:
        """Simulate one job: map phase, shuffle transfer, reduce phase."""
        spec = self.spec
        map_costs = [records * spec.seconds_per_record for records in map_task_records]
        reduce_costs = [
            records * spec.seconds_per_record for records in reduce_task_records
        ]
        map_phase = PhaseTiming(
            name="map",
            task_costs=map_costs,
            seconds=self._schedule(map_costs),
        )
        # Shuffle: all-to-all transfer limited by aggregate bisection
        # bandwidth; data staying node-local ((1/N) of it on average)
        # does not cross the network.
        remote_fraction = (
            (spec.num_nodes - 1) / spec.num_nodes if spec.num_nodes > 1 else 0.0
        )
        shuffle_seconds = (
            shuffle_bytes * remote_fraction / spec.network_bytes_per_second
        )
        shuffle_phase = PhaseTiming(
            name="shuffle", task_costs=[shuffle_seconds], seconds=shuffle_seconds
        )
        reduce_phase = PhaseTiming(
            name="reduce",
            task_costs=reduce_costs,
            seconds=self._schedule(reduce_costs),
        )
        return ClusterReport(
            spec=spec, phases=[map_phase, shuffle_phase, reduce_phase]
        )

    def _schedule(self, task_costs: list[float]) -> float:
        """Phase makespan under the spec's homogeneity/speculation model."""
        spec = self.spec
        return schedule_heterogeneous(
            task_costs,
            spec.slot_speeds(),
            speculative_execution=spec.speculative_execution,
            straggler_threshold=spec.straggler_threshold,
        )
