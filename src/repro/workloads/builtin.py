"""Every built-in workload class, resolved from the catalogue table."""

from __future__ import annotations

from repro.bootstrap import WORKLOADS
from repro.core.registry import resolve_reference
from repro.workloads.base import Workload

#: In registry-table order.
ALL_WORKLOADS: tuple[type[Workload], ...] = tuple(
    resolve_reference(reference) for reference in WORKLOADS.values()
)
