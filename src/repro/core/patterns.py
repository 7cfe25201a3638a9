"""Workload patterns (Section 3.3).

Patterns combine abstract operations into complex processing tasks.  The
paper defines exactly three:

* **single-operation** — one operation;
* **multi-operation** — a finite, known-in-advance sequence;
* **iterative-operation** — a body repeated under a stopping condition,
  so "the exact number of operations can [only] be known at run time".

A pattern describes a prescription's operations: it is reported and
serialized with the prescription, and the workload runs its own loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.errors import TestGenerationError
from repro.core.operations import AbstractOperation


class StoppingCondition:
    """When an iterative pattern stops, decided at run time."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class FixedIterations(StoppingCondition):
    """Stop after exactly ``count`` iterations."""

    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise TestGenerationError(
                f"iteration count must be positive, got {self.count}"
            )

    def describe(self) -> str:
        return f"after {self.count} iterations"


@dataclass
class ConvergenceCondition(StoppingCondition):
    """Stop when successive states change less than ``tolerance``, or
    after ``max_iterations``."""

    tolerance: float
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise TestGenerationError(
                f"tolerance must be non-negative, got {self.tolerance}"
            )
        if self.max_iterations <= 0:
            raise TestGenerationError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )

    def describe(self) -> str:
        return f"on convergence (tol={self.tolerance}, cap={self.max_iterations})"


# The stopping rule of each built-in iterative workload, defined once:
# its prescription's pattern states it and its loop obeys it, reading
# the rule when it runs (a spec param of the loop's own name overrides
# it for that run).  Here, not in the workload modules, so building the
# prescriptions imports no workload.

#: PageRank: the L1 change of the ranks.
PAGERANK_STOP = ConvergenceCondition(tolerance=1e-4, max_iterations=30)
#: k-means: the total movement of the centroids.
KMEANS_STOP = ConvergenceCondition(tolerance=1e-3, max_iterations=20)
#: Label propagation: until no label changes.
LABEL_PROPAGATION_STOP = ConvergenceCondition(tolerance=0.0, max_iterations=50)
#: MLP training: the loss improving by less than the tolerance in an
#: epoch, from the fifth epoch on (``min_loss_improvement`` / ``max_epochs``).
MLP_STOP = ConvergenceCondition(tolerance=1e-3, max_iterations=40)


class WorkloadPattern(ABC):
    """Base class of the three workload patterns."""

    @property
    @abstractmethod
    def pattern_name(self) -> str:
        """The paper's name for this pattern."""


class SingleOperationPattern(WorkloadPattern):
    """Exactly one abstract operation."""

    def __init__(self, operation: AbstractOperation) -> None:
        self.operation = operation

    @property
    def pattern_name(self) -> str:
        return "single-operation"

    def __repr__(self) -> str:
        return f"SingleOperationPattern({self.operation.name})"


class MultiOperationPattern(WorkloadPattern):
    """A finite, ordered sequence of operations (a workflow).

    The paper's example: "an abstract pattern of a SQL query can contain
    select and put operations, in which the select operation executes
    first."
    """

    def __init__(self, operations: Sequence[AbstractOperation]) -> None:
        if not operations:
            raise TestGenerationError(
                "a multi-operation pattern needs at least one operation"
            )
        self.operations = list(operations)

    @property
    def pattern_name(self) -> str:
        return "multi-operation"

    def __repr__(self) -> str:
        names = ", ".join(op.name for op in self.operations)
        return f"MultiOperationPattern([{names}])"


class IterativeOperationPattern(WorkloadPattern):
    """A body of operations repeated until a stopping condition holds."""

    def __init__(
        self,
        body: Sequence[AbstractOperation],
        stopping_condition: StoppingCondition,
    ) -> None:
        if not body:
            raise TestGenerationError(
                "an iterative pattern needs a non-empty body"
            )
        self.body = list(body)
        self.stopping_condition = stopping_condition

    @property
    def pattern_name(self) -> str:
        return "iterative-operation"

    def __repr__(self) -> str:
        names = ", ".join(op.name for op in self.body)
        return (
            f"IterativeOperationPattern([{names}], "
            f"stop {self.stopping_condition.describe()})"
        )
