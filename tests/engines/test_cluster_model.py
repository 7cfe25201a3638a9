"""Tests for the heterogeneous-cluster and speculative-execution model."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engines.base import (
    SimulatedClusterSpec,
    schedule_heterogeneous,
)
from repro.engines.mapreduce import ClusterModel

from _reference_scheduler import schedule_lpt

#: Task costs as the cluster model makes them (records × seconds per
#: record): zero, tiny, whole microseconds, and arbitrary floats.
costs = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=1e-9),
        st.integers(min_value=0, max_value=10**7).map(lambda us: us * 1e-6),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    max_size=40,
)


class TestScheduleHeterogeneous:
    def test_homogeneous_matches_lpt_shape(self):
        costs = [3.0, 2.0, 2.0, 1.0]
        heterogeneous = schedule_heterogeneous(costs, [1.0, 1.0])
        # Earliest-completion-time with equal speeds is at least as good
        # as plain LPT (same greedy family).
        assert heterogeneous <= schedule_lpt(costs, 2) + 1e-9

    def test_slow_slot_inflates_makespan(self):
        costs = [1.0] * 8
        uniform = schedule_heterogeneous(costs, [1.0, 1.0, 1.0, 1.0])
        straggling = schedule_heterogeneous(costs, [1.0, 1.0, 1.0, 0.25])
        assert straggling >= uniform

    def test_scheduler_is_oblivious_to_speeds(self):
        # Placement assumes equal speeds: with empty slots, the single
        # task lands on the first slot regardless of its actual speed —
        # the "unexpected straggler" scenario.
        makespan = schedule_heterogeneous([4.0], [0.5, 1.0])
        assert makespan == pytest.approx(8.0)

    def test_speculation_bounds_stragglers(self):
        costs = [1.0] * 12
        slow = schedule_heterogeneous(
            costs, [1.0, 1.0, 1.0, 0.1], speculative_execution=False
        )
        rescued = schedule_heterogeneous(
            costs, [1.0, 1.0, 1.0, 0.1], speculative_execution=True
        )
        assert rescued < slow

    def test_speculation_noop_on_homogeneous_cluster(self):
        costs = [1.0] * 8
        plain = schedule_heterogeneous(costs, [1.0] * 4)
        speculated = schedule_heterogeneous(
            costs, [1.0] * 4, speculative_execution=True
        )
        assert speculated == pytest.approx(plain)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_heterogeneous([1.0], [])
        with pytest.raises(ValueError):
            schedule_heterogeneous([1.0], [0.0])

    def test_empty_tasks(self):
        assert schedule_heterogeneous([], [1.0]) == 0.0


class TestOneScheduler:
    """Unit speeds, no speculation: the one scheduler is the LPT
    scheduler it replaced, to the float."""

    @settings(max_examples=400)
    @given(costs, st.integers(min_value=1, max_value=12))
    @example([], 4)
    @example([0.0, 0.0, 0.0], 12)
    @example([1e-6, 2e-6, 3e-6], 8)
    @example([5e-324, 0.0, 1e-300], 2)
    def test_unit_speeds_equal_lpt(self, costs, slots):
        makespan = schedule_heterogeneous(costs, [1.0] * slots)
        expected = schedule_lpt(costs, slots)
        assert makespan == expected
        assert repr(makespan) == repr(expected)

    def test_the_cluster_model_schedules_through_it(self, monkeypatch):
        from repro.engines.mapreduce import cluster

        calls = []

        def counted(task_costs, slot_speeds, **options):
            calls.append((list(task_costs), list(slot_speeds), options))
            return schedule_heterogeneous(task_costs, slot_speeds, **options)

        monkeypatch.setattr(cluster, "schedule_heterogeneous", counted)
        spec = SimulatedClusterSpec(num_nodes=2, slots_per_node=3)
        report = ClusterModel(spec).simulate_job([10, 20, 30], 1000, [5, 5])
        assert [speeds for _, speeds, _ in calls] == [[1.0] * 6] * 2
        map_phase = report.phases[0]
        assert map_phase.seconds == schedule_lpt(map_phase.task_costs, 6)


class TestSpecValidation:
    def test_speed_factor_count_must_match_nodes(self):
        with pytest.raises(ValueError):
            SimulatedClusterSpec(num_nodes=4, node_speed_factors=(1.0, 1.0))

    def test_speed_factors_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulatedClusterSpec(
                num_nodes=2, node_speed_factors=(1.0, -1.0)
            )

    def test_slot_speeds_expand_per_node(self):
        spec = SimulatedClusterSpec(
            num_nodes=2, slots_per_node=2, node_speed_factors=(1.0, 0.5)
        )
        assert spec.slot_speeds() == [1.0, 1.0, 0.5, 0.5]

    def test_homogeneous_default(self):
        spec = SimulatedClusterSpec(num_nodes=3, slots_per_node=1)
        assert spec.slot_speeds() == [1.0, 1.0, 1.0]


class TestClusterModelWithStragglers:
    def _simulate(self, spec: SimulatedClusterSpec) -> float:
        model = ClusterModel(spec)
        report = model.simulate_job(
            map_task_records=[1000] * 16,
            shuffle_bytes=10_000,
            reduce_task_records=[500] * 8,
        )
        return report.simulated_seconds

    def test_straggler_node_slows_the_job(self):
        uniform = self._simulate(SimulatedClusterSpec(num_nodes=4))
        straggling = self._simulate(
            SimulatedClusterSpec(
                num_nodes=4, node_speed_factors=(1.0, 1.0, 1.0, 0.2)
            )
        )
        assert straggling > uniform

    def test_speculation_recovers_most_of_the_loss(self):
        straggling = self._simulate(
            SimulatedClusterSpec(
                num_nodes=4, node_speed_factors=(1.0, 1.0, 1.0, 0.2)
            )
        )
        speculated = self._simulate(
            SimulatedClusterSpec(
                num_nodes=4,
                node_speed_factors=(1.0, 1.0, 1.0, 0.2),
                speculative_execution=True,
            )
        )
        uniform = self._simulate(SimulatedClusterSpec(num_nodes=4))
        assert speculated < straggling
        # Backup tasks recover at least a third of the straggler penalty.
        assert (straggling - speculated) > (straggling - uniform) / 3
