"""Engine (substrate) base classes.

The paper's *system view* (Section 2.2) requires that one abstract test be
implementable over different systems and software stacks.  Every substrate
in :mod:`repro.engines` therefore implements this small common surface:

* a name and a declared software-stack label (used by Table 2),
* :class:`CostCounters` — uniform cost accounting that the architecture
  metrics (Section 3.1's MIPS/MFLOPS analogues) are computed from.
"""

from __future__ import annotations

import marshal
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, ClassVar


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


#: The definition :func:`estimate_pair_bytes` implements.  Byte counters
#: are reported values (DESIGN.md section 3.17): changing what a pair
#: costs changes this number, and the run store joins it to the series
#: key of every engine that declares :attr:`Engine.accounting_version`.
ACCOUNTING_VERSION = 2

#: Bytes marshal writes before the items of a tuple or a list (a type
#: code and a 32-bit count) and before the UTF-8 bytes of a string.
_HEADER_BYTES = 5
#: Pairs per ``marshal.dumps`` call: bounds the transient buffer however
#: long the list is (0.4 MB for ``micro-sort``'s 342-character keys; at
#: 4096 the process's peak RSS read 2 % higher, at 1024 and at 256 no
#: difference could be measured, in memory or in time).  Sizes are
#: additive over pairs, so the width changes no counter.
_SLICE_PAIRS = 1024


def estimate_pair_bytes(pairs: Iterable[tuple[Any, Any]]) -> int:
    """The serialized size the byte counters charge for ``(key, value)`` pairs.

    Accounting version 2: a pair costs the marshal-format-2 length of
    the tuple ``(key, value)``: 5 bytes of tuple header, then 9 per
    float, 5 per 32-bit int, 5 + UTF-8 length per string, 5 per nested
    tuple / list header, 1 for ``None`` / ``True`` / ``False``, and a
    numpy scalar or contiguous array as 5 + its buffer.  Format 2
    writes no back-references and ignores interning, so the size
    depends on values only and a list costs the sum of its pairs (an
    empty one 0), whichever way a caller cuts it.  A key or value
    marshal rejects (an ``Enum``, a dataclass, a subclass of a builtin:
    ``ValueError``) is charged as the string ``str()`` gives for it,
    in that pair only.
    """
    if type(pairs) is not list:
        pairs = list(pairs)
    if len(pairs) <= _SLICE_PAIRS:
        # The NoSQL store sizes one short row per call: no slice copy.
        return _slice_bytes(pairs)
    return sum(
        _slice_bytes(pairs[start : start + _SLICE_PAIRS])
        for start in range(0, len(pairs), _SLICE_PAIRS)
    )


def _slice_bytes(pairs: list[tuple[Any, Any]]) -> int:
    """The pairs of one list, without the list's own header."""
    try:
        return len(marshal.dumps(pairs, 2)) - _HEADER_BYTES
    except ValueError:
        return sum(map(_pair_bytes, pairs))


def _pair_bytes(pair: tuple[Any, Any]) -> int:
    """One pair, when marshal rejected something in its slice."""
    total = _HEADER_BYTES
    key, value = pair
    for part in (key, value):
        try:
            total += len(marshal.dumps(part, 2))
        except ValueError:
            total += _HEADER_BYTES + len(
                str(part).encode("utf-8", "surrogatepass")
            )
    return total


class Engine:
    """Base class for all execution substrates.

    A concrete engine names itself (``name``, what workloads dispatch on,
    ``run_<name>``) and the system it stands in for (``software_stack``).
    """

    name: ClassVar[str]
    software_stack: ClassVar[str]

    #: :data:`ACCOUNTING_VERSION` on an engine whose byte counters come
    #: from :func:`estimate_pair_bytes`; ``None`` where no pair is
    #: metered (real bytes, pages, events).
    accounting_version: int | None = None

    def __init__(self) -> None:
        self.counters = CostCounters()


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
    mechanism as a closed-form approximation.  With every speed 1.0 and
    no speculation this is the classic longest-processing-time-first
    makespan of a homogeneous cluster, to the float.
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

