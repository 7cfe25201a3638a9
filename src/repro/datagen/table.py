"""Structured (table) data generation.

Implements a MUDD/PDGF-style multi-dimensional table generator (the tools
the paper cites for TPC-DS and BigBench): a table is described by a schema
whose columns carry value distributions, and rows are produced in
deterministic, independent partitions so generation can be parallelised.

Two generators are provided:

* :class:`TableGenerator` — purely synthetic, driven by an explicit schema
  (the paper's "traditional synthetic distributions such as a Gaussian");
* :class:`FittedTableGenerator` — veracity-aware: learns per-column
  empirical distributions from a real table (the BigDataBench approach the
  paper classifies as "considered" veracity).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.base import (
    DataGenerator,
    DataSet,
    DataType,
    PurelySyntheticMixin,
)


class ColumnDistribution(ABC):
    """Distribution of values within one table column."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[Any]:
        """Draw ``count`` values; ``start_row`` is the global row offset.

        ``start_row`` lets row-dependent distributions (sequential keys)
        stay deterministic under partitioned generation.
        """


@dataclass(frozen=True)
class SequentialKey(ColumnDistribution):
    """A dense integer primary key: start, start+1, ..."""

    start: int = 0

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[int]:
        first = self.start + start_row
        return list(range(first, first + count))


@dataclass(frozen=True)
class UniformInt(ColumnDistribution):
    """Integers uniform in [low, high)."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise GenerationError(
                f"UniformInt requires high > low, got [{self.low}, {self.high})"
            )

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[int]:
        return rng.integers(self.low, self.high, size=count).tolist()


@dataclass(frozen=True)
class UniformFloat(ColumnDistribution):
    """Floats uniform in [low, high)."""

    low: float
    high: float

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[float]:
        return rng.uniform(self.low, self.high, size=count).tolist()


@dataclass(frozen=True)
class Gaussian(ColumnDistribution):
    """Normally distributed floats (MUDD's default for most columns)."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self) -> None:
        if self.std < 0:
            raise GenerationError(f"Gaussian std must be non-negative, got {self.std}")

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[float]:
        return rng.normal(self.mean, self.std, size=count).tolist()


@dataclass(frozen=True)
class Zipf(ColumnDistribution):
    """Zipf-skewed integers in [0, size) — skewed reference keys.

    ``exponent`` must be > 1 (numpy's zipf sampler requirement); higher
    values concentrate mass on the first few ranks.
    """

    size: int
    exponent: float = 1.5

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise GenerationError(f"Zipf size must be positive, got {self.size}")
        if self.exponent <= 1.0:
            raise GenerationError(
                f"Zipf exponent must be > 1, got {self.exponent}"
            )

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[int]:
        raw = rng.zipf(self.exponent, size=count)
        return np.minimum(raw - 1, self.size - 1).tolist()


@dataclass(frozen=True)
class Categorical(ColumnDistribution):
    """Values drawn from a finite set with optional weights."""

    values: tuple[Any, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise GenerationError("Categorical requires at least one value")
        if self.weights is not None and len(self.weights) != len(self.values):
            raise GenerationError(
                f"Categorical got {len(self.weights)} weights for "
                f"{len(self.values)} values"
            )

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[Any]:
        if self.weights is None:
            indexes = rng.integers(len(self.values), size=count)
        else:
            probabilities = np.asarray(self.weights, dtype=np.float64)
            probabilities = probabilities / probabilities.sum()
            indexes = rng.choice(len(self.values), size=count, p=probabilities)
        return list(map(self.values.__getitem__, indexes.tolist()))


@dataclass(frozen=True)
class ForeignKey(ColumnDistribution):
    """A reference into another table of ``ref_size`` rows.

    ``skew`` > 1 draws Zipf-skewed references (hot rows); ``skew`` of 0 or
    1 draws uniformly.
    """

    ref_size: int
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.ref_size <= 0:
            raise GenerationError(
                f"ForeignKey ref_size must be positive, got {self.ref_size}"
            )

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[int]:
        if self.skew > 1.0:
            raw = rng.zipf(self.skew, size=count)
            return np.minimum(raw - 1, self.ref_size - 1).tolist()
        return rng.integers(0, self.ref_size, size=count).tolist()


@dataclass(frozen=True)
class TextColumn(ColumnDistribution):
    """Short synthetic strings with a common prefix (names, labels)."""

    prefix: str = "value"
    cardinality: int = 1000

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[str]:
        indexes = rng.integers(self.cardinality, size=count)
        return [f"{self.prefix}_{i}" for i in indexes.tolist()]


@dataclass
class TableSchema:
    """A named table schema: ordered (column name → distribution) pairs."""

    name: str
    columns: dict[str, ColumnDistribution] = field(default_factory=dict)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def add(self, column: str, distribution: ColumnDistribution) -> "TableSchema":
        if column in self.columns:
            raise GenerationError(f"duplicate column {column!r} in {self.name!r}")
        self.columns[column] = distribution
        return self


class TableGenerator(PurelySyntheticMixin, DataGenerator):
    """Schema-driven synthetic table generator (MUDD/PDGF style)."""

    data_type = DataType.TABLE

    def __init__(self, schema: TableSchema, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if not schema.columns:
            raise GenerationError(f"schema {schema.name!r} has no columns")
        self.schema = schema

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> list[tuple[Any, ...]]:
        count = self.partition_volume(volume, partition, num_partitions)
        # Global row offset of this partition, for row-dependent columns.
        start_row = sum(
            self.partition_volume(volume, p, num_partitions) for p in range(partition)
        )
        rng = self.rng_for_partition(partition, num_partitions)
        column_values = [
            distribution.sample(rng, count, start_row)
            for distribution in self.schema.columns.values()
        ]
        return list(zip(*column_values))

    def _wrap(self, records: list[Any], name: str | None) -> DataSet:
        dataset = super()._wrap(records, name or self.schema.name)
        dataset.metadata["schema"] = self.schema.column_names
        return dataset


class FittedTableGenerator(DataGenerator):
    """Learns per-column empirical distributions from a real table.

    Numeric columns are modelled by their empirical quantile function
    (inverse-CDF sampling), categorical columns by their empirical
    frequencies — so skew in the real table survives into the synthetic
    one, which is exactly the veracity property Table 1 of the paper
    credits BigDataBench for.
    """

    data_type = DataType.TABLE
    veracity_aware = True

    def __init__(self, seed: int = 0, max_categories: int = 1000) -> None:
        super().__init__(seed=seed)
        self.max_categories = max_categories
        self._columns: list[ColumnDistribution] = []
        self._schema: tuple[str, ...] = ()

    def fit(self, real_data: DataSet) -> "FittedTableGenerator":
        rows = real_data.records
        if not rows:
            raise GenerationError("cannot fit a table generator on an empty table")
        schema = real_data.metadata.get("schema")
        width = len(rows[0])
        if schema is None:
            schema = tuple(f"col_{i}" for i in range(width))
        self._schema = tuple(schema)
        self._columns = [
            self._fit_column([row[index] for row in rows]) for index in range(width)
        ]
        self._fitted = True
        return self

    def fitted_state(self) -> dict[str, Any]:
        # A categorical column by its values and weights, a numeric one
        # by its sorted values, an array named after its position.
        state: dict[str, Any] = {"schema": list(self._schema), "columns": []}
        for index, column in enumerate(self._columns):
            if isinstance(column, Categorical):
                state["columns"].append(
                    {"values": list(column.values), "weights": list(column.weights)}
                )
            else:
                state["columns"].append({"integral": column._integral})
                state[f"quantile_{index}"] = column._sorted
        return state

    def restore_fitted(self, state: dict[str, Any]) -> None:
        self._schema = tuple(state["schema"])
        self._columns = [
            _EmpiricalQuantile.of_sorted(state[f"quantile_{index}"], column["integral"])
            if "integral" in column
            else Categorical(tuple(column["values"]), tuple(column["weights"]))
            for index, column in enumerate(state["columns"])
        ]
        self._fitted = True

    def _fit_column(self, values: list[Any]) -> ColumnDistribution:
        if all(isinstance(value, (int, float)) and not isinstance(value, bool)
               for value in values):
            distinct = set(values)
            if len(distinct) <= min(self.max_categories, max(10, len(values) // 20)):
                # Low-cardinality numeric: keep the exact empirical pmf.
                return _empirical_categorical(values)
            return _EmpiricalQuantile(values)
        return _empirical_categorical(values)

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> list[tuple[Any, ...]]:
        self._require_fitted()
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        column_values = [
            distribution.sample(rng, count, 0) for distribution in self._columns
        ]
        return list(zip(*column_values))

    def _wrap(self, records: list[Any], name: str | None) -> DataSet:
        dataset = super()._wrap(records, name)
        dataset.metadata["schema"] = self._schema
        return dataset


def _empirical_categorical(values: list[Any]) -> Categorical:
    counts = Counter(values)
    items = sorted(counts.items(), key=lambda pair: (str(pair[0])))
    return Categorical(
        values=tuple(value for value, _ in items),
        weights=tuple(float(count) for _, count in items),
    )


class _EmpiricalQuantile(ColumnDistribution):
    """Inverse-CDF sampling from the empirical distribution of a column."""

    def __init__(self, values: Sequence[float]) -> None:
        self._sorted = np.sort(np.asarray(values, dtype=np.float64))
        self._sorted.setflags(write=False)
        self._integral = all(float(v).is_integer() for v in values)

    @classmethod
    def of_sorted(cls, column: np.ndarray, integral: bool) -> "_EmpiricalQuantile":
        """The distribution whose ``_sorted`` and ``_integral`` these are."""
        distribution = cls.__new__(cls)
        column.setflags(write=False)
        distribution._sorted = column
        distribution._integral = integral
        return distribution

    def sample(self, rng: np.random.Generator, count: int, start_row: int) -> list[Any]:
        quantiles = rng.uniform(0.0, 1.0, size=count)
        column = self._sorted
        size = len(column)
        if size == 0 or column[-1] != column[-1]:  # empty, or a NaN (last)
            sampled = np.quantile(column, quantiles, method="linear")
        else:
            # ``np.quantile(column, quantiles, method="linear")`` step by
            # step, over a column already sorted: no copy, partition or
            # ``np.unique`` of the neighbours.  The virtual index, its
            # floor and the next index (the last value at or past the
            # end), then numpy's ``_lerp``, which interpolates down from
            # the upper neighbour once the weight reaches one half.  The
            # one difference: where the column holds both -0.0 and 0.0,
            # which of them comes first is as arbitrary here as after
            # numpy's partition.
            virtual = (size - 1) * quantiles
            previous = np.floor(virtual)
            following = previous + 1
            past_end = virtual >= size - 1
            previous[past_end] = -1
            following[past_end] = -1
            previous = previous.astype(np.intp)
            following = following.astype(np.intp)
            gamma = virtual - previous
            low = column[previous]
            high = column[following]
            step = high - low
            sampled = low + step * gamma
            np.subtract(high, step * (1 - gamma), out=sampled, where=gamma >= 0.5)
        if self._integral:  # exact at any magnitude, unlike an int64 cast
            return list(map(float.__trunc__, np.rint(sampled).tolist()))
        return sampled.tolist()


def retail_star_schema(
    num_customers: int = 1000, num_products: int = 200
) -> dict[str, TableSchema]:
    """A ready-made retail star schema mirroring the embedded corpus tables."""
    from repro.datagen.corpus import COUNTRIES, PRODUCT_CATEGORIES

    customers = TableSchema("customers")
    customers.add("customer_id", SequentialKey())
    customers.add("name", TextColumn(prefix="customer", cardinality=num_customers))
    customers.add("country", Categorical(tuple(COUNTRIES)))
    customers.add("age", UniformInt(18, 80))

    products = TableSchema("products")
    products.add("product_id", SequentialKey())
    products.add("name", TextColumn(prefix="product", cardinality=num_products))
    products.add("category", Categorical(tuple(PRODUCT_CATEGORIES)))
    products.add("price", Gaussian(mean=40.0, std=15.0))

    orders = TableSchema("orders")
    orders.add("order_id", SequentialKey())
    orders.add("customer_id", ForeignKey(num_customers, skew=1.4))
    orders.add("product_id", ForeignKey(num_products, skew=1.3))
    orders.add("quantity", UniformInt(1, 6))
    orders.add("day", UniformInt(0, 365))

    return {"customers": customers, "products": products, "orders": orders}
