"""Columnar storage and batch-at-a-time execution (DESIGN.md §3.14).

The row path is the correctness oracle: every vectorized plan must
return exactly the rows the row plan returns, in the same order, with
identical cost totals (only the ``batches`` counter may differ — it is
the vectorization's own fingerprint and stays 0 on row paths).
"""

from __future__ import annotations

import json
import random
from array import array
from pathlib import Path

import pytest

from repro.core.errors import EngineError
from repro.engines.base import CostCounters
from repro.engines.dbms import (
    Aggregate,
    DbmsEngine,
    PlannerConfig,
    col,
    lit,
)
from repro.engines.dbms.expressions import Comparison
from repro.engines.dbms.planner import JoinSpec, Query
from repro.engines.dbms.storage import ColumnarTable, HeapTable
from repro.engines.dbms.vector_plans import (
    BatchFilter,
    ColumnarScan,
    ColumnBatch,
    RowAdapter,
)
from repro.workloads.relational import RelationalQueryWorkload

import _columnar_capture as differential

#: ``batches`` of every differential case on the commit before the batch
#: operators stopped materialising rows; never regenerated.
PARENT_BATCHES = json.loads(
    (
        Path(__file__).parent.parent / "fixtures" / "columnar_parent.json"
    ).read_text()
)


@pytest.fixture()
def people_db():
    engine = DbmsEngine()
    engine.create_table("people", ("id", "name", "age", "city"))
    engine.insert(
        "people",
        [
            (1, "ann", 30, "rome"),
            (2, "bob", 25, "oslo"),
            (3, "cat", 35, "rome"),
            (4, "dan", 25, "kiev"),
            (5, "eve", 40, "oslo"),
        ],
    )
    engine.create_table("cities", ("city", "country"))
    engine.insert(
        "cities",
        [("rome", "it"), ("oslo", "no"), ("kiev", "ua")],
    )
    return engine


class TestColumnarTable:
    def test_transpose_round_trips(self):
        table = HeapTable("t", ("a", "b"))
        table.insert((1, "x"))
        table.insert((2, "y"))
        view = ColumnarTable.from_heap(table)
        assert len(view) == 2
        assert list(view.column("a")) == [1, 2]
        assert list(view.column("b")) == ["x", "y"]

    def test_int_column_packs_into_typed_array(self):
        table = HeapTable("t", ("a",))
        for value in (1, 2, 3):
            table.insert((value,))
        view = table.columnar()
        assert isinstance(view.column("a"), array)
        assert view.column("a").typecode == "q"

    def test_bool_stays_out_of_int_arrays(self):
        # bool is an int subclass; a typed array would silently coerce
        # True -> 1 and break bit-identity with the row path.
        table = HeapTable("t", ("a",))
        table.insert((True,))
        table.insert((2,))
        view = table.columnar()
        assert not isinstance(view.column("a"), array)
        assert view.column("a")[0] is True

    def test_mixed_and_none_columns_stay_lists(self):
        table = HeapTable("t", ("a",))
        table.insert((1,))
        table.insert((None,))
        view = table.columnar()
        assert list(view.column("a")) == [1, None]

    def test_huge_ints_fall_back_to_lists(self):
        table = HeapTable("t", ("a",))
        table.insert((2**100,))
        view = table.columnar()
        assert list(view.column("a")) == [2**100]

    def test_cache_reused_until_mutation(self):
        table = HeapTable("t", ("a",))
        table.insert((1,))
        first = table.columnar()
        assert table.columnar() is first
        table.insert((2,))
        second = table.columnar()
        assert second is not first
        assert list(second.column("a")) == [1, 2]

    def test_deleted_rows_invisible(self):
        table = HeapTable("t", ("a",))
        table.insert((1,))
        row_id = table.insert((2,))
        table.insert((3,))
        table.delete_row(row_id)
        assert list(table.columnar().column("a")) == [1, 3]

    def test_positions_track_heap_row_ids(self):
        table = HeapTable("t", ("a",))
        ids = [table.insert((value,)) for value in (10, 20, 30)]
        table.delete_row(ids[0])
        view = table.columnar()
        positions = view.positions_for([ids[2], ids[1]])
        assert [view.column("a")[p] for p in positions] == [30, 20]


class TestViewIsOneSnapshot:
    """A view transposes a column when it is first read, which may be
    after the heap moved on: it must still show one state of the table."""

    MUTATIONS = {
        "insert": lambda table: table.insert((4, "new")),
        "update": lambda table: table.update_row(1, {"a": 20, "b": "changed"}),
        "delete": lambda table: table.delete_row(0),
    }
    AFTER = {
        "insert": ([1, 2, 3, 4], ["x", "y", "z", "new"]),
        "update": ([1, 20, 3], ["x", "changed", "z"]),
        "delete": ([2, 3], ["y", "z"]),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_old_view_stays_whole_and_new_view_is_fresh(self, mutation):
        table = HeapTable("t", ("a", "b"))
        table.insert_many([(1, "x"), (2, "y"), (3, "z")])
        old = table.columnar()
        assert list(old.column("a")) == [1, 2, 3]
        self.MUTATIONS[mutation](table)
        # "b" is transposed only now, from the rows the view pinned.
        assert list(old.column("b")) == ["x", "y", "z"]
        assert list(old.column("a")) == [1, 2, 3]
        assert len(old) == 3
        fresh = table.columnar()
        assert fresh is not old
        after_a, after_b = self.AFTER[mutation]
        assert list(fresh.column("b")) == after_b
        assert list(fresh.column("a")) == after_a

    def test_bulk_insert_invalidates_the_view(self):
        table = HeapTable("t", ("a",))
        table.insert((1,))
        first = table.columnar()
        assert table.insert_many([(2,), (3,)]) == 2
        assert table.columnar() is not first
        assert list(table.columnar().column("a")) == [1, 2, 3]
        assert list(first.column("a")) == [1]
        assert table.insert_many([]) == 0

    def test_a_column_is_transposed_when_first_read(self):
        table = HeapTable("t", ("a", "b", "c"))
        table.insert_many([(1, "x", 1.5), (2, "y", 2.5)])
        view = table.columnar()
        assert set(view.columns) == set()
        view.column("c")
        assert set(view.columns) == {"c"}
        assert view.column("c") is view.column("c")
        with pytest.raises(EngineError, match="no column 'd'"):
            view.column("d")


class TestBulkHeapLoad:
    """``insert_many`` is one pass; it fails as the loop of inserts did."""

    def test_equals_the_inserts_one_by_one(self):
        rows = [[1, "x"], (2, "y"), (3, None)]
        bulk = HeapTable("t", ("a", "b"))
        bulk.create_index("a")
        single = HeapTable("t", ("a", "b"))
        single.create_index("a")
        assert bulk.insert_many(iter(rows)) == 3
        for row in rows:
            single.insert(row)
        assert list(bulk.items()) == list(single.items())
        assert bulk.fetch(0) == (1, "x")  # a list row is stored as a tuple
        assert len(bulk) == len(single) == 3
        assert bulk.version == single.version
        assert bulk.indexes["a"].lookup(2) == single.indexes["a"].lookup(2)
        assert bulk.indexes["a"].range_scan() == [0, 1, 2]

    def test_wrong_width_row_fails_where_the_loop_did(self):
        rows = [(1, "x"), (2, "y"), (3,), (4, "z"), (5,)]
        bulk = HeapTable("t", ("a", "b"))
        single = HeapTable("t", ("a", "b"))
        with pytest.raises(EngineError) as looped:
            for row in rows:
                single.insert(row)
        with pytest.raises(EngineError) as raised:
            bulk.insert_many(rows)
        assert str(raised.value) == str(looped.value)
        assert str(raised.value) == "table 't' expects 2 values, got 1"
        # The rows before the bad one stay; nothing after it went in.
        assert list(bulk.scan()) == list(single.scan()) == [(1, "x"), (2, "y")]
        assert bulk.version == single.version
        assert list(bulk.columnar().column("a")) == [1, 2]


class TestColumnBatch:
    def test_from_rows_and_back(self):
        batch = ColumnBatch.from_rows(("a", "b"), [(1, "x"), (2, "y")])
        assert batch.num_rows == 2
        assert batch.to_rows() == [(1, "x"), (2, "y")]

    def test_empty(self):
        batch = ColumnBatch.from_rows(("a", "b"), [])
        assert batch.num_rows == 0
        assert batch.to_rows() == []

    def test_take_gathers_positions(self):
        batch = ColumnBatch.from_rows(("a",), [(1,), (2,), (3,)])
        assert batch.take([2, 0]).to_rows() == [(3,), (1,)]

    def test_head_trims(self):
        batch = ColumnBatch.from_rows(("a",), [(1,), (2,), (3,)])
        assert batch.head(2).to_rows() == [(1,), (2,)]


class TestVectorOperators:
    def test_columnar_scan_batches_and_counts(self):
        table = HeapTable("t", ("a",))
        for value in range(10):
            table.insert((value,))
        cost = CostCounters()
        scan = ColumnarScan(table, cost, batch_size=4)
        batches = list(scan.batches())
        assert [b.num_rows for b in batches] == [4, 4, 2]
        assert cost.records_read == 10
        assert cost.batches == 3

    def test_batch_filter_keeps_whole_passing_batch(self):
        table = HeapTable("t", ("a",))
        for value in range(4):
            table.insert((value,))
        cost = CostCounters()
        scan = ColumnarScan(table, cost, batch_size=4)
        keep_all = BatchFilter(scan, col("a") >= lit(0), cost)
        [batch] = list(keep_all.batches())
        assert batch.num_rows == 4

    def test_row_adapter_ducks_as_row_operator(self):
        table = HeapTable("t", ("a",))
        table.insert((7,))
        cost = CostCounters()
        adapter = RowAdapter(ColumnarScan(table, cost), cost)
        assert list(adapter.rows()) == [(7,)]
        assert adapter.explain()["op"] == "RowAdapter"


class TestPlannerLayout:
    def test_default_layout_is_row(self, people_db):
        assert people_db.execution_layout == "row"
        result = people_db.execute(people_db.query("people"))
        assert result.plan["layout"] == "row"
        assert result.cost.batches == 0

    def test_configured_columnar_engine(self, people_db):
        engine = DbmsEngine(PlannerConfig(layout="columnar"))
        assert engine.execution_layout == "columnar"

    def test_invalid_layout_rejected(self):
        with pytest.raises(EngineError):
            PlannerConfig(layout="diagonal")
        engine = DbmsEngine()
        with pytest.raises(EngineError):
            engine.execute(engine.query("nope"), layout="diagonal")

    def test_per_query_override(self, people_db):
        result = people_db.execute(
            people_db.query("people"), layout="columnar"
        )
        assert result.plan["layout"] == "columnar"
        assert result.plan["op"] == "ColumnarScan"
        assert result.cost.batches > 0
        # The engine default is untouched.
        assert people_db.execution_layout == "row"

    def test_explain_reports_layout(self, people_db):
        assert people_db.explain(people_db.query("people"))["layout"] == "row"
        plan = people_db.explain(people_db.query("people"), layout="columnar")
        assert plan["layout"] == "columnar"

    def test_merge_join_falls_back_to_row_honestly(self):
        engine = DbmsEngine(
            PlannerConfig(layout="columnar", join_algorithm="merge")
        )
        engine.create_table("people", ("id", "name", "age", "city"))
        engine.insert("people", [(1, "ann", 30, "rome")])
        engine.create_table("cities", ("city", "country"))
        engine.insert("cities", [("rome", "it")])
        query = engine.query("people").join("cities", "city", "city")
        result = engine.execute(query)
        assert result.plan["layout"] == "row"
        assert result.rows == [(1, "ann", 30, "rome", "rome", "it")]

    def test_auto_join_resolves_to_hash_under_columnar(self, people_db):
        query = people_db.query("people").join("cities", "city", "city")
        row = people_db.execute(query, layout="row")
        columnar = people_db.execute(
            people_db.query("people").join("cities", "city", "city"),
            layout="columnar",
        )
        # Row auto picks nested-loop for the tiny inner; columnar auto
        # resolves to the vectorized hash join.  Same rows, same order
        # — hash output order matches nested-loop exactly.
        assert row.plan["op"] == "NestedLoopJoin"
        assert columnar.plan["op"] == "BatchHashJoin"
        assert columnar.rows == row.rows

    def test_columnar_index_scan(self, people_db):
        people_db.create_index("people", "age")
        query = people_db.query("people").where(col("age") == lit(25))
        row = people_db.execute(query, layout="row")
        columnar = people_db.execute(query, layout="columnar")
        # The point predicate is consumed by the index, so the scan IS
        # the plan root on both paths.
        assert row.plan["op"] == "IndexScan"
        assert columnar.plan["op"] == "ColumnarIndexScan"
        assert columnar.rows == row.rows
        assert columnar.cost.records_read == row.cost.records_read


def _people_engine(**config) -> DbmsEngine:
    engine = DbmsEngine(PlannerConfig(**config) if config else None)
    engine.create_table("people", ("id", "name", "age", "city"))
    engine.insert(
        "people",
        [
            (1, "ann", 30, "rome"),
            (2, "bob", 25, "oslo"),
            (3, "cat", 35, "rome"),
            (4, "dan", 25, "kiev"),
            (5, "eve", 40, "oslo"),
        ],
    )
    engine.create_table("cities", ("city", "country"))
    engine.insert(
        "cities",
        [("rome", "it"), ("oslo", "no"), ("kiev", "ua")],
    )
    return engine


class TestCostParity:
    """Vector twins charge exactly the row operators' cost totals.

    The join algorithm is pinned to hash: under ``auto`` the two
    layouts may legitimately pick different algorithms (columnar
    resolves auto to hash, the vectorized choice), and parity is an
    operator-vs-twin property, not a planner-vs-planner one.
    """

    QUERIES = {
        "scan": lambda e: e.query("people").select("id", "age"),
        "filter": lambda e: e.query("people").where(col("age") > lit(26)),
        "join": lambda e: e.query("people").join("cities", "city", "city"),
        "aggregate": lambda e: (
            e.query("people")
            .group_by("city")
            .aggregate("avg", "age", "mean_age")
            .aggregate("count", None, "n")
        ),
        "sorted_limit": lambda e: (
            e.query("people").order_by("age", descending=True).limit(3)
        ),
    }

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_identical_except_batches(self, shape):
        engine = _people_engine(join_algorithm="hash")
        build = self.QUERIES[shape]
        row = engine.execute(build(engine).build(), layout="row")
        columnar = engine.execute(build(engine).build(), layout="columnar")
        assert [repr(r) for r in columnar.rows] == [
            repr(r) for r in row.rows
        ]
        row_snapshot = row.cost.snapshot()
        columnar_snapshot = columnar.cost.snapshot()
        assert row_snapshot.pop("batches") == 0
        assert columnar_snapshot.pop("batches") > 0
        assert columnar_snapshot == row_snapshot


def _random_table(rng: random.Random, prefix: str) -> list[tuple]:
    """A generated table mixing ints, strings, and None-ish values."""
    num_rows = rng.choice([0, 1, rng.randint(2, 60)])
    rows = []
    for index in range(num_rows):
        rows.append(
            (
                index,
                rng.choice(["red", "green", "blue", None]),
                rng.choice([rng.randint(-5, 5), None, rng.randint(0, 100)]),
                f"{prefix}{rng.randint(0, 6)}",
            )
        )
    return rows


class TestRowColumnarProperty:
    """Seeded generative equivalence: columnar == row, bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_tables_agree(self, seed):
        rng = random.Random(seed)
        engine = DbmsEngine()
        engine.create_table("left_t", ("id", "color", "score", "key"))
        engine.insert("left_t", _random_table(rng, "k"))
        engine.create_table("right_t", ("key", "weight"))
        engine.insert(
            "right_t",
            [(f"k{i}", rng.randint(0, 9)) for i in range(rng.randint(0, 7))],
        )

        queries = [
            Query(table="left_t"),
            Query(
                table="left_t",
                projection=[("id", col("id")), ("color", col("color"))],
            ),
            Query(table="left_t", predicate=col("id") > lit(5)),
            Query(
                table="left_t",
                joins=[JoinSpec("right_t", "key", "key")],
            ),
            Query(
                table="left_t",
                group_by=["color"],
                aggregates=[
                    Aggregate("count", None, "n"),
                    Aggregate("max", "id", "top"),
                ],
            ),
            Query(
                table="left_t",
                order_by=[("key", False), ("id", True)],
                limit=rng.randint(1, 10),
            ),
        ]
        for query in queries:
            row = engine.execute(query, layout="row")
            columnar = engine.execute(query, layout="columnar")
            assert [repr(r) for r in columnar.rows] == [
                repr(r) for r in row.rows
            ], query

    @pytest.mark.parametrize("seed", range(4))
    def test_sql_path_agrees(self, seed):
        rng = random.Random(1000 + seed)
        engine = DbmsEngine()
        engine.create_table("t", ("id", "color", "score", "key"))
        engine.insert("t", _random_table(rng, "k"))
        statements = [
            "SELECT id, color FROM t",
            "SELECT * FROM t WHERE id > 3",
            "SELECT color, COUNT(*) AS n FROM t GROUP BY color",
            "SELECT * FROM t ORDER BY key LIMIT 5",
        ]
        for statement in statements:
            row = engine.sql(statement, layout="row")
            columnar = engine.sql(statement, layout="columnar")
            assert [repr(r) for r in columnar.rows] == [
                repr(r) for r in row.rows
            ], statement


    @pytest.mark.parametrize("batch_size", differential.BATCH_SIZES)
    @pytest.mark.parametrize("seed", differential.SEEDS)
    def test_combined_plans_agree(self, seed, batch_size):
        """filter → join → group-by → order-by → limit in one plan, over
        tables built to trip late materialisation (see the capture
        script): the row oracle fixes rows, ``records_read`` and
        ``compute_ops`` (or the exception type), the parent commit
        fixes ``batches``."""
        row_engine = differential.engine_for(seed, "row", batch_size)
        columnar_engine = differential.engine_for(seed, "columnar", batch_size)
        for name, query in differential.queries(seed).items():
            row = differential.outcome(row_engine, query)
            columnar = differential.outcome(columnar_engine, query)
            case = f"{seed}/{batch_size}/{name}"
            assert columnar.pop("batches", None) == PARENT_BATCHES[case], case
            assert row.pop("batches", 0) == 0, case
            assert columnar == row, case

    def test_the_cases_cover_what_they_claim(self):
        outcomes = list(PARENT_BATCHES.values())
        assert None in outcomes  # some case raises on both layouts
        assert max(filter(None, outcomes)) > 1100  # one batch per build row
        left, right = differential.tables(2)
        assert left and not right  # an empty build side under outer rows
        assert max(len(differential.tables(seed)[1]) for seed in
                   differential.SEEDS) > 1024


def _sequential_sum(values):
    """The row path's sum: non-None values added to 0.0 in row order."""
    total = 0.0
    for value in values:
        if value is not None:
            total += value
    return total


class TestOneFold:
    """Both layouts fold GROUP BY through one fold: rows and exceptions
    (type and message) agree at every batch size, and a sum is the row
    path's additions in row order, bit for bit."""

    #: Float sums across groups with None values; ``b`` is all None.
    SUMS = [
        ("a", 0.1), ("b", None), ("a", None), ("c", None), ("a", 0.2),
        ("c", 3.0), ("b", None), ("a", 1e16), ("c", 1.0), ("a", 1.0),
        ("a", -1e16), ("c", 2.0),
    ]
    #: Leading None values; ``e`` holds 1, True and 1.0, which compare
    #: equal, so the first one seen stays.
    EXTREMES = [
        ("c", None), ("b", None), ("c", 3.0), ("e", 1), ("c", 1.0),
        ("b", None), ("e", True), ("c", 2.0), ("e", 1.0),
    ]
    #: A None after a value: ``min`` compares None with 1.5 and raises.
    RAISES = [("a", 1.5), ("b", 2), ("a", None), ("b", 1)]

    AGGREGATES = {
        "SUMS": ["count", "sum", "avg"],
        "EXTREMES": ["count", "min", "max"],
        "RAISES": ["min"],
    }

    @staticmethod
    def _outcome(rows, functions, layout, batch_size):
        engine = DbmsEngine(
            PlannerConfig(layout=layout, batch_size=batch_size)
        )
        engine.create_table("t", ("g", "v"))
        engine.insert("t", rows)
        query = Query(
            table="t",
            group_by=["g"],
            aggregates=[Aggregate("count", None, "n")]
            + [Aggregate(function, "v", function) for function in functions],
        )
        try:
            result = engine.execute(query)
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return ("raises", type(exc), str(exc))
        assert result.plan["layout"] == layout
        return [repr(row) for row in result.rows]

    @pytest.mark.parametrize("table", sorted(AGGREGATES))
    def test_layouts_and_batch_sizes_agree(self, table):
        rows = getattr(self, table)
        functions = self.AGGREGATES[table]
        oracle = self._outcome(rows, functions, "row", 1024)
        for batch_size in (1, 3, 1024):
            assert self._outcome(
                rows, functions, "columnar", batch_size
            ) == oracle, (table, batch_size)

    def test_the_fold_keeps_the_row_semantics(self):
        sums = self._outcome(self.SUMS, ["count", "sum", "avg"], "row", 1024)
        total_a = _sequential_sum([0.1, None, 0.2, 1e16, 1.0, -1e16])
        assert sums == [
            repr(("a", 6, 6, total_a, total_a / 6)),
            repr(("b", 2, 2, 0.0, 0.0)),
            repr(("c", 4, 4, 6.0, 1.5)),
        ]
        extremes = self._outcome(
            self.EXTREMES, ["count", "min", "max"], "row", 1024
        )
        assert extremes == [
            repr(("c", 4, 4, 1.0, 3.0)),
            repr(("b", 2, 2, None, None)),
            repr(("e", 3, 3, 1, 1)),
        ]
        raised = self._outcome(self.RAISES, ["min"], "row", 1024)
        assert raised[:2] == ("raises", TypeError)
        assert "NoneType" in raised[2]

    @pytest.mark.parametrize(
        "values",
        [
            # Floats whose order of addition shows in the last bits.
            [
                random.Random(seed).choice([-1, 1])
                * random.Random(seed + 1).random()
                * 10.0 ** random.Random(seed + 2).randint(-3, 16)
                for seed in range(0, 900, 3)
            ],
            # Ints a double does not hold exactly: each addition rounds.
            [
                (2**60 + 12345 * seed) * (-1) ** seed + seed
                for seed in range(300)
            ],
        ],
        ids=["floats", "big-ints"],
    )
    def test_typed_sums_are_the_sequential_additions(self, values):
        rows = [(f"g{index % 5}", value) for index, value in enumerate(values)]
        expected = [
            repr(
                (
                    f"g{group}",
                    len(values[group::5]),
                    _sequential_sum(values[group::5]),
                )
            )
            for group in range(5)
        ]
        for layout in ("row", "columnar"):
            for batch_size in (1, 3, 1024):
                assert self._outcome(
                    rows, ["sum"], layout, batch_size
                ) == expected, (layout, batch_size)
        engine = DbmsEngine()
        engine.create_table("t", ("g", "v"))
        engine.insert("t", rows)
        assert isinstance(engine.catalog.table("t").columnar().column("v"), array)


class TestLateMaterialisation:
    """Positions travel up the plan; a column is read where it is named."""

    def test_unread_columns_are_never_transposed(self):
        from repro.core import prescription
        from repro.core.test_generator import TestGenerator

        dataset = TestGenerator().select_data(
            prescription.builtin_repository().get(
                "database-aggregate-join"
            ).data,
            400,
        )
        engine = DbmsEngine(PlannerConfig(layout="columnar"))
        result = RelationalQueryWorkload().run_dbms(engine, dataset)
        assert result.extra["plan"]["layout"] == "columnar"
        orders = engine.catalog.table("orders").columnar()
        products = engine.catalog.table("products").columnar()
        # Of five order columns the plan names two, of three product
        # columns two; result rows are built above the aggregate.
        assert set(orders.columns) == {"quantity", "product_id"}
        assert set(products.columns) == {"product_id", "category"}

    def test_a_join_batch_gathers_only_what_is_read(self):
        engine = _people_engine()
        plan = engine.planner.plan(
            engine.query("people").join("cities", "city", "city").build(),
            CostCounters(),
            layout="columnar",
        )
        [batch] = list(plan.batches())
        assert batch.schema == (
            "id", "name", "age", "city", "city_r", "country"
        )
        assert list(batch.column(5)) == ["it", "no", "it", "ua", "no"]
        people = engine.catalog.table("people").columnar()
        cities = engine.catalog.table("cities").columnar()
        assert set(people.columns) == {"city"}
        assert set(cities.columns) == {"city", "country"}
        assert list(batch.column_map()) == list(batch.schema)
        with pytest.raises(KeyError):
            batch.column_map()["nope"]

    def test_take_and_head_compose(self):
        batch = ColumnBatch.from_rows(
            ("a", "b"), [(1, "x"), (2, "y"), (3, "z"), (4, "w")]
        )
        taken = batch.take([3, 1, 0]).head(2)
        assert taken.num_rows == 2
        assert taken.to_rows() == [(4, "w"), (2, "y")]
        assert batch.head(9).num_rows == 4
        assert batch.take([]).to_rows() == []


class TestPredicatePushdown:
    """Filters fused into ColumnarScan: untouched columns are only
    materialized for surviving positions, cost parity stays exact."""

    def _table(self, rows=10):
        table = HeapTable("t", ("a", "b"))
        for value in range(rows):
            table.insert((value, f"v{value}"))
        return table

    def test_fused_scan_matches_unfused_rows(self):
        table = self._table()
        predicate = col("a") >= lit(5)
        fused = ColumnarScan(
            table, CostCounters(), batch_size=4, predicate=predicate
        )
        unfused = BatchFilter(
            ColumnarScan(table, CostCounters(), batch_size=4),
            predicate,
            CostCounters(),
        )
        assert list(fused.rows()) == list(unfused.rows())

    def test_cost_parity_with_unfused_pair(self):
        table = self._table()
        fused_cost = CostCounters()
        list(ColumnarScan(
            table, fused_cost, batch_size=4, predicate=col("a") >= lit(5)
        ).batches())
        unfused_cost = CostCounters()
        list(BatchFilter(
            ColumnarScan(table, unfused_cost, batch_size=4),
            col("a") >= lit(5),
            unfused_cost,
        ).batches())
        assert fused_cost.records_read == unfused_cost.records_read == 10
        assert fused_cost.compute_ops == unfused_cost.compute_ops == 10

    def test_all_dropped_batch_emits_nothing(self):
        table = self._table()
        cost = CostCounters()
        scan = ColumnarScan(
            table, cost, batch_size=5, predicate=col("a") > lit(100)
        )
        assert list(scan.batches()) == []
        # Every row was still scanned and evaluated (cost parity)...
        assert cost.records_read == 10
        assert cost.compute_ops == 10
        # ...but no batch was ever emitted.
        assert cost.batches == 0

    def test_fully_surviving_batch_is_a_cheap_slice(self):
        table = self._table()
        cost = CostCounters()
        scan = ColumnarScan(
            table, cost, batch_size=5, predicate=col("a") >= lit(0)
        )
        batches = list(scan.batches())
        assert [b.num_rows for b in batches] == [5, 5]
        assert cost.batches == 2

    def test_untouched_columns_not_materialized_for_dropped_rows(self):
        table = self._table()

        class CountingSeq:
            """Wraps the b column to count per-position gathers."""

            def __init__(self, inner):
                self.inner = inner
                self.touches = 0

            def __getitem__(self, key):
                if isinstance(key, int):
                    self.touches += 1
                return self.inner[key]

            def __len__(self):
                return len(self.inner)

        view = table.columnar()
        counting = CountingSeq(list(view.column("b")))
        original_column = view.column

        def patched(name):
            return counting if name == "b" else original_column(name)

        view.column = patched
        scan = ColumnarScan(
            table, CostCounters(), batch_size=10, predicate=col("a") >= lit(8)
        )
        scan.table.columnar = lambda: view
        rows = list(scan.rows())
        assert [row[0] for row in rows] == [8, 9]
        # Only the two survivors gathered from the untouched column.
        assert counting.touches == 2

    def test_planner_fuses_local_predicate_into_the_scan(self, people_db):
        query = (
            people_db.query("people").where(col("age") > lit(26)).build()
        )
        result = people_db.execute(query, layout="columnar")
        plan = result.plan
        assert plan["op"] == "ColumnarScan"
        assert "predicate" in plan

    def test_planner_row_path_unchanged(self, people_db):
        query = (
            people_db.query("people").where(col("age") > lit(26)).build()
        )
        result = people_db.execute(query, layout="row")
        assert result.plan["op"] == "Filter"

    def test_fused_plan_agrees_with_row_plan(self, people_db):
        query = (
            people_db.query("people").where(col("age") > lit(26)).build()
        )
        row = people_db.execute(query, layout="row")
        columnar = people_db.execute(query, layout="columnar")
        assert [repr(r) for r in columnar.rows] == [
            repr(r) for r in row.rows
        ]
        assert columnar.cost.records_read == row.cost.records_read
        assert columnar.cost.compute_ops == row.cost.compute_ops

    @pytest.mark.parametrize(
        "values",
        [
            [0, -1, 7, 2**62, -(2**63), 2**63 - 1, 9007199254740993],
            [0.0, -0.0, 1.5, float("nan"), float("inf"), 2.0**53, -3.25],
        ],
        ids=["int64", "float64"],
    )
    def test_a_typed_column_filters_as_the_row_path(self, values):
        """The fused scan compares a typed column in numpy only where
        that is Python's comparison; every literal type and operator
        agrees with the row oracle (batch size 3: several slices)."""
        constants = [
            0, -0.0, 1.5, float("nan"), 2**53 + 1, 2**63, -(2**63) - 1,
            9007199254740993, 2.0**53, True, 7,
        ]
        engine = DbmsEngine(PlannerConfig(batch_size=3))
        engine.create_table("t", ("v", "i"))
        engine.insert("t", [(value, i) for i, value in enumerate(values)])
        assert isinstance(engine.catalog.table("t").columnar().column("v"), array)
        for constant in constants:
            for op in ("=", "!=", "<", "<=", ">", ">="):
                query = Query(
                    table="t", predicate=Comparison(col("v"), op, lit(constant))
                )
                row = engine.execute(query, layout="row")
                columnar = engine.execute(query, layout="columnar")
                assert columnar.plan["op"] == "ColumnarScan"
                assert [repr(r) for r in columnar.rows] == [
                    repr(r) for r in row.rows
                ], (constant, op)
                assert columnar.cost.compute_ops == row.cost.compute_ops
