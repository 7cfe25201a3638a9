"""Tests for schema-driven and fitted table generation."""

from __future__ import annotations

import statistics

import pytest

from repro.core.errors import GenerationError
from repro.datagen.base import DataType
from repro.datagen.table import (
    Categorical,
    FittedTableGenerator,
    ForeignKey,
    Gaussian,
    SequentialKey,
    TableGenerator,
    TableSchema,
    TextColumn,
    UniformFloat,
    UniformInt,
    Zipf,
    retail_star_schema,
)

import numpy as np

RNG = np.random.default_rng(0)


class TestDistributions:
    def test_sequential_key_is_dense(self):
        values = SequentialKey(start=5).sample(RNG, 4, start_row=10)
        assert values == [15, 16, 17, 18]

    def test_uniform_int_bounds(self):
        values = UniformInt(3, 7).sample(RNG, 200, 0)
        assert all(3 <= value < 7 for value in values)

    def test_uniform_int_invalid_bounds(self):
        with pytest.raises(GenerationError):
            UniformInt(5, 5)

    def test_uniform_float_bounds(self):
        values = UniformFloat(0.0, 1.0).sample(RNG, 100, 0)
        assert all(0.0 <= value < 1.0 for value in values)

    def test_gaussian_mean_roughly_correct(self):
        values = Gaussian(mean=10.0, std=1.0).sample(
            np.random.default_rng(1), 2000, 0
        )
        assert abs(statistics.fmean(values) - 10.0) < 0.15

    def test_gaussian_negative_std_rejected(self):
        with pytest.raises(GenerationError):
            Gaussian(std=-1.0)

    def test_zipf_is_skewed_to_low_ranks(self):
        values = Zipf(size=100, exponent=1.8).sample(
            np.random.default_rng(2), 2000, 0
        )
        assert all(0 <= value < 100 for value in values)
        zeros = sum(1 for value in values if value == 0)
        assert zeros > len(values) * 0.3  # rank 0 dominates

    def test_zipf_validation(self):
        with pytest.raises(GenerationError):
            Zipf(size=0)
        with pytest.raises(GenerationError):
            Zipf(size=10, exponent=1.0)

    def test_categorical_respects_values(self):
        values = Categorical(("a", "b")).sample(RNG, 50, 0)
        assert set(values) <= {"a", "b"}

    def test_categorical_weights_shift_mass(self):
        values = Categorical(("a", "b"), weights=(0.95, 0.05)).sample(
            np.random.default_rng(3), 1000, 0
        )
        assert values.count("a") > 800

    def test_categorical_validation(self):
        with pytest.raises(GenerationError):
            Categorical(())
        with pytest.raises(GenerationError):
            Categorical(("a",), weights=(0.5, 0.5))

    def test_foreign_key_range(self):
        values = ForeignKey(ref_size=10).sample(RNG, 100, 0)
        assert all(0 <= value < 10 for value in values)

    def test_foreign_key_skew_creates_hot_rows(self):
        values = ForeignKey(ref_size=50, skew=1.8).sample(
            np.random.default_rng(4), 1000, 0
        )
        assert values.count(0) > values.count(25)

    def test_text_column_format(self):
        values = TextColumn(prefix="name", cardinality=5).sample(RNG, 10, 0)
        assert all(value.startswith("name_") for value in values)


class TestTableSchema:
    def test_duplicate_column_rejected(self):
        schema = TableSchema("t").add("a", SequentialKey())
        with pytest.raises(GenerationError):
            schema.add("a", SequentialKey())

    def test_column_names_ordered(self):
        schema = TableSchema("t").add("x", SequentialKey()).add("y", UniformInt(0, 2))
        assert schema.column_names == ("x", "y")


class TestTableGenerator:
    def _schema(self):
        return (
            TableSchema("demo")
            .add("id", SequentialKey())
            .add("value", UniformInt(0, 100))
        )

    def test_empty_schema_rejected(self):
        with pytest.raises(GenerationError):
            TableGenerator(TableSchema("empty"))

    def test_rows_match_schema_width(self):
        rows = TableGenerator(self._schema(), seed=1).generate(10).records
        assert all(len(row) == 2 for row in rows)

    def test_sequential_keys_stay_dense_across_partitions(self):
        dataset = TableGenerator(self._schema(), seed=1).generate_parallel(20, 4)
        keys = sorted(row[0] for row in dataset.records)
        assert keys == list(range(20))

    def test_schema_metadata_attached(self):
        dataset = TableGenerator(self._schema(), seed=1).generate(3)
        assert dataset.metadata["schema"] == ("id", "value")
        assert dataset.data_type is DataType.TABLE

    def test_zero_volume(self):
        assert TableGenerator(self._schema(), seed=1).generate(0).records == []

    def test_retail_star_schema_generates_three_tables(self):
        schemas = retail_star_schema()
        assert set(schemas) == {"customers", "products", "orders"}
        for schema in schemas.values():
            dataset = TableGenerator(schema, seed=2).generate(20)
            assert dataset.num_records == 20


class TestFittedTableGenerator:
    def test_requires_fit(self, retail_tables):
        with pytest.raises(Exception):
            FittedTableGenerator().generate(5)

    def test_empty_table_rejected(self, retail_tables):
        from tests._datasets import as_dataset

        empty = as_dataset([], DataType.TABLE, schema=("a",))
        with pytest.raises(GenerationError):
            FittedTableGenerator().fit(empty)

    def test_preserves_schema(self, retail_tables):
        generator = FittedTableGenerator(seed=1).fit(retail_tables["orders"])
        dataset = generator.generate(50)
        assert dataset.metadata["schema"] == retail_tables["orders"].metadata["schema"]

    def test_categorical_columns_use_real_values(self, retail_tables):
        generator = FittedTableGenerator(seed=1).fit(retail_tables["customers"])
        real_countries = {row[2] for row in retail_tables["customers"].records}
        synthetic = generator.generate(100)
        assert {row[2] for row in synthetic.records} <= real_countries

    def test_numeric_columns_stay_in_range(self, retail_tables):
        generator = FittedTableGenerator(seed=1).fit(retail_tables["orders"])
        real_days = [row[4] for row in retail_tables["orders"].records]
        synthetic_days = [row[4] for row in generator.generate(200).records]
        assert min(synthetic_days) >= min(real_days)
        assert max(synthetic_days) <= max(real_days)

    def test_skew_is_preserved(self, retail_tables):
        """Zipf-skewed customer references must stay skewed."""
        from collections import Counter

        generator = FittedTableGenerator(seed=1).fit(retail_tables["orders"])
        synthetic = generator.generate(300)
        real_counts = Counter(row[1] for row in retail_tables["orders"].records)
        synthetic_counts = Counter(row[1] for row in synthetic.records)
        real_top_share = real_counts.most_common(1)[0][1] / sum(real_counts.values())
        synthetic_top_share = synthetic_counts.most_common(1)[0][1] / sum(
            synthetic_counts.values()
        )
        # Hot-key share within 2x of the real share (both clearly skewed).
        assert synthetic_top_share > real_top_share / 2


class _FixedDraws:
    """A generator whose uniform draws are the quantiles given."""

    def __init__(self, quantiles) -> None:
        self.quantiles = np.asarray(quantiles, dtype=np.float64)

    def uniform(self, low, high, size):
        assert (low, high, size) == (0.0, 1.0, len(self.quantiles))
        return self.quantiles.copy()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
class TestQuantileSteps:
    """``_EmpiricalQuantile.sample`` takes numpy's linear-method steps over
    its sorted column itself: it must return what ``np.quantile(...,
    method="linear")`` returns, value for value (``repr``: infinities and
    NaN too).  Not the sign of a zero where a column holds both ``-0.0``
    and ``0.0``: which of two equal values ``np.sort`` and numpy's
    partition leave first is arbitrary on both sides."""

    @staticmethod
    def _both(values, quantiles, integral=False):
        from repro.datagen.table import _EmpiricalQuantile

        distribution = _EmpiricalQuantile(values)
        distribution._integral = integral
        got = distribution.sample(_FixedDraws(quantiles), len(quantiles), 0)
        expected = np.quantile(
            np.sort(np.asarray(values, dtype=np.float64)),
            np.asarray(quantiles, dtype=np.float64),
            method="linear",
        )
        if integral:
            expected = list(map(float.__trunc__, np.rint(expected).tolist()))
        else:
            expected = expected.tolist()
        return repr(got), repr(expected)

    EDGES = [0.0, 0.5, np.nextafter(1.0, 0.0), 0.25, 0.999999, 1e-300]

    @pytest.mark.parametrize(
        "values",
        [
            [3.0],
            [2.0, 2.0, 2.0],
            [1.0, 1.0, 2.0, 2.0, 2.0, 7.0],
            [-0.0, -1.0, -0.0],
            [1e308, -1e308, 1.7e308, 5.0],
            [1e-320, 2e-320, 0.0],
            [-np.inf, 1.0, np.inf],
            [np.inf, np.inf],
            list(range(10)),
        ],
        ids=[
            "single", "all-equal", "duplicates", "negative-zeros", "huge",
            "subnormal", "infinite-ends", "all-infinite", "ints",
        ],
    )
    def test_edges(self, values):
        got, expected = self._both(values, self.EDGES)
        assert got == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_columns_and_draws(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            values = [
                rng.normal(size=size) * 10.0 ** rng.integers(-300, 300),
                rng.integers(0, 5, size=size).astype(float),
                np.round(rng.normal(size=size), 1) + 0.0,  # no -0.0
            ][int(rng.integers(0, 3))]
            quantiles = rng.uniform(0.0, 1.0, size=int(rng.integers(0, 30)))
            got, expected = self._both(list(values), quantiles)
            assert got == expected

    def test_integral_columns(self):
        values = [1.0, 4.0, 4.0, 9.0, 2.0**60, 2.0**60 + 2**10]
        got, expected = self._both(values, self.EDGES, integral=True)
        assert got == expected

    def test_a_column_ending_in_nan_goes_to_np_quantile(self, monkeypatch):
        from repro.datagen import table

        calls = []
        original = np.quantile

        def spy(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return original(*args, **kwargs)

        monkeypatch.setattr(table.np, "quantile", spy)
        got, expected = self._both([1.0, np.nan, 2.0], self.EDGES)
        assert got == expected
        assert calls == ["linear", "linear"]  # the sample, then the oracle
        calls.clear()
        self._both([1.0, 2.0], self.EDGES)
        assert calls == ["linear"]  # the oracle only
