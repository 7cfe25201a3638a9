"""Build a data set from a plain record list, for tests."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.datagen.base import DataSet, DataType


def as_dataset(
    records: Sequence[Any], data_type: DataType, name: str = "adhoc", **metadata: Any
) -> DataSet:
    """A :class:`DataSet` of ``records`` (copied into a list)."""
    return DataSet(name=name, data_type=data_type, records=list(records), metadata=dict(metadata))
