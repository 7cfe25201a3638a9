"""The homogeneous makespan scheduler the cluster model used to keep.

``schedule_lpt`` is kept verbatim as the oracle for
:func:`repro.engines.base.schedule_heterogeneous` at unit slot speeds
without speculation, which replaced it in ``ClusterModel._schedule``
(``tests/engines/test_cluster_model.py::TestOneScheduler``).
"""

from __future__ import annotations


def schedule_lpt(task_costs: list[float], num_slots: int) -> float:
    """Longest-processing-time-first makespan for independent tasks.

    The classic greedy schedule used to model how a cluster runs a bag of
    map or reduce tasks on a fixed number of slots.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    if not task_costs:
        return 0.0
    slots = [0.0] * min(num_slots, len(task_costs))
    for cost in sorted(task_costs, reverse=True):
        lightest = min(range(len(slots)), key=slots.__getitem__)
        slots[lightest] += cost
    return max(slots)
