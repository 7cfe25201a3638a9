"""Tests for abstract operations and workload patterns (Section 3.3)."""

from __future__ import annotations

import pytest

from repro.core.errors import TestGenerationError, UnknownOperationError
from repro.core.operations import (
    STANDARD_OPERATIONS,
    OperationCategory,
    operation,
    operations,
)
from repro.core.patterns import (
    ConvergenceCondition,
    FixedIterations,
    IterativeOperationPattern,
    MultiOperationPattern,
    SingleOperationPattern,
)


class TestOperations:
    def test_paper_examples_present(self):
        """Every operation named in the paper exists in the catalogue."""
        for name in ("select", "put", "get", "delete", "read", "write",
                     "update", "scan", "sort", "join", "aggregate"):
            assert name in STANDARD_OPERATIONS

    def test_element_operations(self):
        assert operation("get").category is OperationCategory.ELEMENT
        assert operation("put").category is OperationCategory.ELEMENT

    def test_single_set_operations(self):
        assert operation("sort").category is OperationCategory.SINGLE_SET
        assert operation("select").category is OperationCategory.SINGLE_SET

    def test_double_set_operations(self):
        assert operation("join").category is OperationCategory.DOUBLE_SET
        assert operation("union").category is OperationCategory.DOUBLE_SET

    def test_unknown_operation_raises(self):
        with pytest.raises(UnknownOperationError):
            operation("teleport")

    def test_operations_bulk_lookup(self):
        ops = operations("sort", "join")
        assert [op.name for op in ops] == ["sort", "join"]

    def test_operations_are_frozen(self):
        op = operation("sort")
        with pytest.raises(AttributeError):
            op.name = "changed"  # type: ignore[misc]


class TestSingleOperationPattern:
    def test_pattern_name(self):
        assert SingleOperationPattern(operation("sort")).pattern_name == (
            "single-operation"
        )


class TestMultiOperationPattern:
    def test_preserves_order(self):
        """The paper: 'the select operation executes first'."""
        pattern = MultiOperationPattern(operations("select", "put"))
        assert [op.name for op in pattern.operations] == ["select", "put"]

    def test_empty_sequence_rejected(self):
        with pytest.raises(TestGenerationError):
            MultiOperationPattern([])


class TestIterativeOperationPattern:
    def test_empty_body_rejected(self):
        with pytest.raises(TestGenerationError):
            IterativeOperationPattern([], FixedIterations(1))

    def test_validation(self):
        with pytest.raises(TestGenerationError):
            FixedIterations(0)
        with pytest.raises(TestGenerationError):
            ConvergenceCondition(tolerance=-1.0)
        with pytest.raises(TestGenerationError):
            ConvergenceCondition(tolerance=0.1, max_iterations=0)

    def test_describe_mentions_condition(self):
        pattern = IterativeOperationPattern(
            operations("rank"), FixedIterations(3)
        )
        assert "3 iterations" in repr(pattern)
