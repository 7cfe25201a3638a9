"""Hadoop-style grouped counters for the MapReduce engine."""

from __future__ import annotations

from collections import defaultdict


class CounterGroup:
    """Named counter groups, mirroring Hadoop's ``group::counter`` model.

    >>> counters = CounterGroup()
    >>> counters.increment("map", "input_records", 10)
    >>> counters.get("map", "input_records")
    10

    Counters are additive: task-local counts are summed when tasks merge.
    """

    def __init__(self) -> None:
        self._groups: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def increment(self, group: str, counter: str, amount: int = 1) -> None:
        self._groups[group][counter] += amount

    def get(self, group: str, counter: str) -> int:
        return self._groups.get(group, {}).get(counter, 0)

    def group(self, group: str) -> dict[str, int]:
        """A copy of one group's counters."""
        return dict(self._groups.get(group, {}))

    def snapshot(self) -> dict[str, dict[str, int]]:
        """A plain-dict copy of every group."""
        return {name: dict(values) for name, values in self._groups.items()}

    def merge(self, other: "CounterGroup") -> "CounterGroup":
        for group, values in other._groups.items():
            for counter, amount in values.items():
                self._groups[group][counter] += amount
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CounterGroup({self.snapshot()!r})"
