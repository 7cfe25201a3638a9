"""Abstract operations (Section 3.3, functional view).

Operations are the system-independent processing actions a workload is
built from.  Following the paper, they are categorised by the number of
data sets they process: *element* operations touch individual records,
*single-set* operations transform one data set, and *double-set*
operations combine two.

The standard catalogue below covers every operation named in the paper's
Tables 1–2 discussion (select, put, get, delete, read, write, update,
scan, sort, grep, count, aggregate, join, …).  Concrete engines bind
these names to implementations through the workload layer — the same
abstract test can therefore run on a DBMS and a MapReduce system, which
is exactly the comparison the functional view exists to allow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.errors import UnknownOperationError


class OperationCategory(enum.Enum):
    """The paper's three operation arities."""

    ELEMENT = "element"
    SINGLE_SET = "single-set"
    DOUBLE_SET = "double-set"


@dataclass(frozen=True)
class AbstractOperation:
    """A named, system-independent data-processing action."""

    name: str
    category: OperationCategory
    description: str = ""

    def __str__(self) -> str:
        return self.name


def _catalogue() -> dict[str, AbstractOperation]:
    element = OperationCategory.ELEMENT
    single = OperationCategory.SINGLE_SET
    double = OperationCategory.DOUBLE_SET
    operations = [
        # Element operations: act on one record/element at a time.
        AbstractOperation("get", element, "fetch one element by key"),
        AbstractOperation("put", element, "store one element by key"),
        AbstractOperation("read", element, "read one record"),
        AbstractOperation("write", element, "write one record"),
        AbstractOperation("update", element, "modify one existing record"),
        AbstractOperation("delete", element, "remove one record"),
        AbstractOperation("insert", element, "add one new record"),
        # Single-set operations: transform one data set.
        AbstractOperation("select", single, "filter a set by a predicate"),
        AbstractOperation("project", single, "keep a subset of attributes"),
        AbstractOperation("scan", single, "enumerate a range of a set"),
        AbstractOperation("sort", single, "order a set by key"),
        AbstractOperation("grep", single, "match records against a pattern"),
        AbstractOperation("count", single, "count records or groups"),
        AbstractOperation("aggregate", single, "group and summarise a set"),
        AbstractOperation("sample", single, "draw a random subset"),
        AbstractOperation("transform", single, "apply a function per record"),
        AbstractOperation("cluster", single, "group records by similarity"),
        AbstractOperation("classify", single, "assign labels from a model"),
        AbstractOperation("rank", single, "score records (e.g. PageRank)"),
        AbstractOperation("index", single, "build an index over a set"),
        AbstractOperation("window", single, "aggregate over time windows"),
        # Double-set operations: combine two data sets.
        AbstractOperation("join", double, "combine two sets on a key"),
        AbstractOperation("union", double, "merge two sets"),
        AbstractOperation("difference", double, "subtract one set from another"),
        AbstractOperation("cross", double, "pair records across two sets"),
        AbstractOperation("recommend", double, "match users against items"),
    ]
    return {operation.name: operation for operation in operations}


#: The framework's standard operation catalogue.
STANDARD_OPERATIONS: dict[str, AbstractOperation] = _catalogue()


def operation(name: str) -> AbstractOperation:
    """Look up a standard operation by name."""
    try:
        return STANDARD_OPERATIONS[name]
    except KeyError:
        raise UnknownOperationError(
            f"unknown abstract operation {name!r}; "
            f"known: {sorted(STANDARD_OPERATIONS)}"
        ) from None


def operations(*names: str) -> list[AbstractOperation]:
    """Look up several standard operations at once."""
    return [operation(name) for name in names]
