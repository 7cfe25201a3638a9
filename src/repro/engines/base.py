"""Engine (substrate) base classes.

The paper's *system view* (Section 2.2) requires that one abstract test be
implementable over different systems and software stacks.  Every substrate
in :mod:`repro.engines` therefore implements this small common surface:

* a name and a declared software-stack label (used by Table 2),
* :class:`CostCounters` — uniform cost accounting that the architecture
  metrics (Section 3.1's MIPS/MFLOPS analogues) are computed from.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any


@dataclass
class CostCounters:
    """Uniform cost accounting across all engines.

    ``compute_ops`` counts abstract record-processing operations (the
    simulator's stand-in for retired instructions); architecture metrics
    divide it by elapsed time.
    """

    records_read: int = 0
    records_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    compute_ops: int = 0
    network_bytes: int = 0
    #: Column batches materialized by vectorized operators (0 on row paths).
    batches: int = 0

    def merge(self, other: "CostCounters") -> "CostCounters":
        """Accumulate another counter set into this one (returns self)."""
        self.records_read += other.records_read
        self.records_written += other.records_written
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.compute_ops += other.compute_ops
        self.network_bytes += other.network_bytes
        self.batches += other.batches
        return self

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy for reports."""
        return {
            "records_read": self.records_read,
            "records_written": self.records_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "compute_ops": self.compute_ops,
            "network_bytes": self.network_bytes,
            "batches": self.batches,
        }

    def reset(self) -> None:
        self.records_read = 0
        self.records_written = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.compute_ops = 0
        self.network_bytes = 0
        self.batches = 0


def estimate_pair_bytes(pairs: Iterable[tuple[Any, Any]]) -> int:
    """The serialized size the byte counters charge for ``(key, value)`` pairs.

    ``len(str(key)) + len(str(value))`` per pair, summed in one call per
    task or operation; an exact ``str`` is its own string form, so it
    skips the ``str()`` call.
    """
    total = 0
    for key, value in pairs:
        total += len(key if type(key) is str else str(key)) + len(
            value if type(value) is str else str(value)
        )
    return total


@dataclass
class EngineInfo:
    """Descriptive metadata every engine reports (feeds Table 2)."""

    name: str
    system_type: str  # e.g. "MapReduce", "DBMS", "NoSQL", "Streaming"
    software_stack: str  # e.g. "Hadoop-like", "relational DBMS"
    input_format: str  # the repro.datagen.formats name this engine consumes
    description: str = ""


class Engine(ABC):
    """Base class for all execution substrates."""

    def __init__(self) -> None:
        self.counters = CostCounters()

    @property
    @abstractmethod
    def info(self) -> EngineInfo:
        """Static metadata about this engine."""

    @property
    def name(self) -> str:
        return self.info.name

    def reset_counters(self) -> None:
        self.counters.reset()


@dataclass
class SimulatedClusterSpec:
    """Parameters of the simulated distributed cluster behind an engine.

    Used to convert measured per-task costs into the makespan an N-node
    cluster would achieve — the honest single-host stand-in for the
    distributed testbeds the surveyed benchmarks assume.

    ``node_speed_factors`` models a heterogeneous cluster (1.0 = nominal
    speed; 0.25 = a 4×-slow straggler node); ``speculative_execution``
    enables MapReduce-style backup tasks that re-run straggling work on
    the fastest node.
    """

    num_nodes: int = 4
    slots_per_node: int = 2
    #: Seconds of simulated compute per record processed.
    seconds_per_record: float = 1e-6
    #: Simulated network bandwidth in bytes/second (shuffle, replication).
    network_bytes_per_second: float = 100e6
    #: Per-node speed multipliers; None means a homogeneous cluster.
    node_speed_factors: tuple[float, ...] | None = None
    #: Launch backup copies of straggling tasks (Dean & Ghemawat's fix).
    speculative_execution: bool = False
    #: A task is a straggler if it finishes later than this multiple of
    #: the median task completion time.
    straggler_threshold: float = 1.5

    def __post_init__(self) -> None:
        if self.node_speed_factors is not None:
            if len(self.node_speed_factors) != self.num_nodes:
                raise ValueError(
                    f"need {self.num_nodes} node_speed_factors, got "
                    f"{len(self.node_speed_factors)}"
                )
            if any(factor <= 0 for factor in self.node_speed_factors):
                raise ValueError("node speed factors must be positive")

    @property
    def total_slots(self) -> int:
        return self.num_nodes * self.slots_per_node

    def slot_speeds(self) -> list[float]:
        """One speed factor per slot (nodes contribute all their slots)."""
        factors = self.node_speed_factors or tuple(
            1.0 for _ in range(self.num_nodes)
        )
        speeds: list[float] = []
        for factor in factors:
            speeds.extend([factor] * self.slots_per_node)
        return speeds


def schedule_heterogeneous(
    task_costs: list[float],
    slot_speeds: list[float],
    speculative_execution: bool = False,
    straggler_threshold: float = 1.5,
) -> float:
    """Makespan of independent tasks on slots whose speeds the scheduler
    does NOT know in advance.

    Stragglers in MapReduce clusters are *unexpected* (a node with a bad
    disk runs tasks slowly after they were assigned), so tasks are
    placed by LPT assuming equal speeds; the actual slot speed then
    stretches each slot's work.  With ``speculative_execution``, any task
    finishing later than ``straggler_threshold`` × the median completion
    gets a backup copy launched on the fastest slot at the median
    completion time; the earlier copy wins — the MapReduce backup-task
    mechanism as a closed-form approximation.
    """
    if not slot_speeds:
        raise ValueError("need at least one slot")
    if any(speed <= 0 for speed in slot_speeds):
        raise ValueError("slot speeds must be positive")
    if not task_costs:
        return 0.0
    # Oblivious LPT placement (scheduler assumes homogeneous slots).
    expected_load = [0.0] * len(slot_speeds)
    actual_elapsed = [0.0] * len(slot_speeds)
    completions: list[tuple[float, float]] = []  # (actual completion, cost)
    for cost in sorted(task_costs, reverse=True):
        slot = min(range(len(slot_speeds)), key=expected_load.__getitem__)
        expected_load[slot] += cost
        actual_elapsed[slot] += cost / slot_speeds[slot]
        completions.append((actual_elapsed[slot], cost))
    if not speculative_execution:
        return max(completion for completion, _ in completions)
    ordered = sorted(completion for completion, _ in completions)
    median = ordered[len(ordered) // 2]
    fastest = max(slot_speeds)
    effective = []
    for completion, cost in completions:
        if completion > straggler_threshold * median:
            backup = median + cost / fastest
            completion = min(completion, backup)
        effective.append(completion)
    return max(effective)


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
