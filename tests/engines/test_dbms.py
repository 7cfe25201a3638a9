"""Tests for the relational engine: storage, expressions, planner, API."""

from __future__ import annotations

import pytest

from repro.core.errors import EngineError
from repro.engines.dbms import (
    Aggregate,
    DbmsEngine,
    PlannerConfig,
    col,
    lit,
)
from repro.engines.dbms.storage import HeapTable, SortedIndex


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
    return engine


class TestSortedIndex:
    def test_lookup(self):
        index = SortedIndex("c")
        index.build([(5, 0), (3, 1), (5, 2)])
        assert sorted(index.lookup(5)) == [0, 2]
        assert index.lookup(4) == []

    def test_insert_and_remove(self):
        index = SortedIndex("c")
        index.insert(7, 0)
        index.insert(7, 1)
        index.remove(7, 0)
        assert index.lookup(7) == [1]

    def test_range_scan(self):
        index = SortedIndex("c")
        index.build([(i, i) for i in range(10)])
        assert index.range_scan(3, 6) == [3, 4, 5, 6]
        assert index.range_scan(None, 2) == [0, 1, 2]
        assert index.range_scan(8, None) == [8, 9]

    def test_mixed_types_stay_ordered(self):
        index = SortedIndex("c")
        index.build([("zebra", 0), (5, 1), ("apple", 2), (1, 3)])
        # Numbers rank before strings; within ranks, natural order.
        assert index.range_scan() == [3, 1, 2, 0]


class TestHeapTable:
    def test_insert_and_scan(self):
        table = HeapTable("t", ("a", "b"))
        table.insert((1, "x"))
        table.insert((2, "y"))
        assert list(table.scan()) == [(1, "x"), (2, "y")]
        assert len(table) == 2

    def test_width_mismatch_rejected(self):
        table = HeapTable("t", ("a",))
        with pytest.raises(EngineError):
            table.insert((1, 2))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(EngineError):
            HeapTable("t", ("a", "a"))

    def test_delete_tombstones_rows(self):
        table = HeapTable("t", ("a",))
        row_id = table.insert((1,))
        table.insert((2,))
        table.delete_row(row_id)
        assert list(table.scan()) == [(2,)]
        with pytest.raises(EngineError):
            table.fetch(row_id)

    def test_update_maintains_index(self):
        table = HeapTable("t", ("a", "b"))
        row_id = table.insert((1, "x"))
        table.create_index("a")
        table.update_row(row_id, {"a": 9})
        assert table.indexes["a"].lookup(9) == [row_id]
        assert table.indexes["a"].lookup(1) == []

    def test_duplicate_index_rejected(self):
        table = HeapTable("t", ("a",))
        table.create_index("a")
        with pytest.raises(EngineError):
            table.create_index("a")


class TestExpressions:
    LAYOUT = {"x": 0, "y": 1}

    def test_comparisons(self):
        row = (5, 10)
        assert (col("x") < col("y")).evaluate(row, self.LAYOUT)
        assert (col("x") == lit(5)).evaluate(row, self.LAYOUT)
        assert not (col("y") <= lit(9)).evaluate(row, self.LAYOUT)

    def test_boolean_combinators(self):
        row = (5, 10)
        both = (col("x") == lit(5)) & (col("y") == lit(10))
        either = (col("x") == lit(0)) | (col("y") == lit(10))
        negated = ~(col("x") == lit(5))
        assert both.evaluate(row, self.LAYOUT)
        assert either.evaluate(row, self.LAYOUT)
        assert not negated.evaluate(row, self.LAYOUT)

    def test_arithmetic(self):
        row = (6, 3)
        assert (col("x") + col("y")).evaluate(row, self.LAYOUT) == 9
        assert (col("x") / col("y")).evaluate(row, self.LAYOUT) == 2
        assert (col("x") * lit(2) - lit(1)).evaluate(row, self.LAYOUT) == 11

    def test_unknown_column_raises(self):
        with pytest.raises(EngineError):
            col("zzz").evaluate((1,), {"x": 0})

    def test_columns_collects_references(self):
        expression = (col("a") > lit(1)) & (col("b") == col("c"))
        assert expression.columns() == frozenset({"a", "b", "c"})

    def test_split_and_conjoin_roundtrip(self):
        from repro.engines.dbms.expressions import conjoin, split_conjuncts

        predicate = (col("a") > lit(1)) & (col("b") == lit(2)) & (col("c") < lit(3))
        conjuncts = split_conjuncts(predicate)
        assert len(conjuncts) == 3
        rebuilt = conjoin(conjuncts)
        row = (2, 2, 1)
        layout = {"a": 0, "b": 1, "c": 2}
        assert rebuilt.evaluate(row, layout) == predicate.evaluate(row, layout)


def _outcome(evaluate):
    """What one evaluation lets a caller see: a value (with its type) or
    an exception (with its message)."""
    try:
        value = evaluate()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(exc), str(exc))
    return ("value", type(value), repr(value))


class TestBind:
    """``bind(layout)`` is ``evaluate`` with the layout resolved once."""

    LAYOUT = {"x": 0, "y": 1, "s": 2, "n": 3}
    ROWS = [
        (5, 10, "a", None),
        (3, 3, "b", 1.5),
        (0, -2, "", 0),
        (7.5, 0, "c", True),
        (-1, 4, None, "n"),
    ]
    OPERANDS = (
        col("x"), col("y"), col("s"), col("n"), lit(3), lit(None), lit("b"),
    )

    def _expressions(self):
        expressions = list(self.OPERANDS)
        for left in self.OPERANDS:
            for right in self.OPERANDS:
                expressions += [
                    left == right, left != right, left < right,
                    left <= right, left > right, left >= right,
                    left + right, left - right, left * right, left / right,
                ]
        expressions += [
            (col("x") > lit(1)) & (col("n") < lit(2)),
            (col("x") > lit(100)) & (col("n") < lit(2)),
            (col("x") > lit(1)) | (col("n") < lit(2)),
            (col("x") < lit(-5)) | (col("n") < lit(2)),
            ~(col("x") >= col("y")),
            ~col("s"),
            (col("x") * lit(2) - col("y")) / (col("y") + lit(1)),
        ]
        return expressions

    def test_bind_equals_evaluate_for_every_kind_and_operator(self):
        raised = set()
        for expression in self._expressions():
            bound = expression.bind(self.LAYOUT)
            for row in self.ROWS:
                outcome = _outcome(lambda: bound(row))
                assert outcome == _outcome(
                    lambda: expression.evaluate(row, self.LAYOUT)
                ), (expression, row)
                if outcome[0] == "raises":
                    raised.add(outcome[1])
        # None operands, str against int, division by zero all raise.
        assert raised == {TypeError, ZeroDivisionError}

    def test_a_none_operand_raises_the_same_type_error(self):
        predicate = col("n") < lit(2)
        row = (1, 2, "a", None)
        with pytest.raises(TypeError) as bound_error:
            predicate.bind(self.LAYOUT)(row)
        with pytest.raises(TypeError) as evaluated_error:
            predicate.evaluate(row, self.LAYOUT)
        assert str(bound_error.value) == str(evaluated_error.value)

    def test_an_unknown_column_raises_only_when_a_row_is_evaluated(self):
        for expression in (
            col("zzz"),
            col("zzz") > lit(1),
            lit(1) + col("zzz"),
            (col("x") > lit(0)) & (col("zzz") == lit(2)),
            ~col("zzz"),
        ):
            bound = expression.bind(self.LAYOUT)  # no error yet
            row = self.ROWS[0]
            outcome = _outcome(lambda: bound(row))
            assert outcome[1] is EngineError
            assert outcome == _outcome(
                lambda: expression.evaluate(row, self.LAYOUT)
            )

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_a_projection_of_an_unknown_column_over_no_rows_is_empty(
        self, layout
    ):
        from repro.engines.dbms.planner import Query

        engine = DbmsEngine()
        engine.create_table("t", ("a", "b"))
        query = Query(
            table="t", projection=[("a", col("a")), ("z", col("nope"))]
        )
        assert engine.execute(query, layout=layout).rows == []
        engine.insert("t", [(1, 2)])
        with pytest.raises(EngineError, match="unknown column 'nope'"):
            engine.execute(query, layout=layout)


class TestClauseColumns:
    """GROUP BY, aggregate and ORDER BY columns are checked once, when
    the query is planned, against the schema each clause reads."""

    @pytest.mark.parametrize("rows", [[], [(1, 2), (3, 4)]])
    @pytest.mark.parametrize(
        "clause",
        [
            dict(group_by=["nope"], aggregates=[Aggregate("count", None, "n")]),
            dict(aggregates=[Aggregate("sum", "nope", "s")]),
            dict(order_by=[("nope", False)]),
            dict(projection=[("a", col("a"))], order_by=[("b", True)]),
        ],
        ids=["group-by", "aggregate", "order-by", "order-by-projected-away"],
    )
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_a_clause_over_an_unknown_column_is_refused_when_planned(
        self, layout, clause, rows
    ):
        from repro.engines.dbms.planner import Query

        engine = DbmsEngine()
        engine.create_table("t", ("a", "b"))
        engine.insert("t", rows)
        message = r"unknown column '(nope|b)'; available: \["
        with pytest.raises(EngineError, match=message):
            engine.execute(Query(table="t", **clause), layout=layout)

    def test_sql_order_by_an_unknown_column_is_refused(self):
        engine = DbmsEngine()
        engine.create_table("t", ("a", "b"))
        message = r"unknown column 'nope'; available: \['a'\]"
        with pytest.raises(EngineError, match=message):
            engine.sql("SELECT a FROM t ORDER BY nope")


class TestQueries:
    def test_filter(self, people_db):
        result = people_db.execute(
            people_db.query("people").where(col("age") >= lit(30))
        )
        assert {row[1] for row in result.rows} == {"ann", "cat", "eve"}

    def test_projection(self, people_db):
        result = people_db.execute(
            people_db.query("people").select("name", "city").limit(2)
        )
        assert result.schema == ("name", "city")
        assert len(result.rows) == 2

    def test_computed_projection(self, people_db):
        result = people_db.execute(
            people_db.query("people").select(
                "name", ("age_next_year", col("age") + lit(1))
            )
        )
        ages = dict(result.rows)
        assert ages["ann"] == 31

    def test_group_by_with_aggregates(self, people_db):
        result = people_db.execute(
            people_db.query("people")
            .group_by("city")
            .aggregate("count", None, "n")
            .aggregate("avg", "age", "mean_age")
            .order_by("city")
        )
        rows = {row[0]: row for row in result.rows}
        assert rows["rome"][1] == 2
        assert rows["oslo"][2] == pytest.approx(32.5)

    def test_aggregate_without_group_by(self, people_db):
        result = people_db.execute(
            people_db.query("people").aggregate("sum", "age", "total")
        )
        assert result.rows == [(155.0,)]

    def test_min_max(self, people_db):
        result = people_db.execute(
            people_db.query("people")
            .aggregate("min", "age", "youngest")
            .aggregate("max", "age", "oldest")
        )
        assert result.rows == [(25, 40)]

    def test_order_by_desc_and_limit(self, people_db):
        result = people_db.execute(
            people_db.query("people").order_by("age", descending=True).limit(2)
        )
        assert [row[1] for row in result.rows] == ["eve", "cat"]

    def test_multi_key_order(self, people_db):
        result = people_db.execute(
            people_db.query("people").order_by("age").order_by("name")
        )
        names = [row[1] for row in result.rows]
        assert names == ["bob", "dan", "ann", "cat", "eve"]

    def test_column_accessor(self, people_db):
        result = people_db.execute(people_db.query("people"))
        assert result.column("name")[0] == "ann"
        with pytest.raises(EngineError):
            result.column("missing")

    def test_unknown_table_rejected(self, people_db):
        with pytest.raises(EngineError):
            people_db.execute(people_db.query("nope"))

    def test_unknown_predicate_column_rejected(self, people_db):
        with pytest.raises(EngineError):
            people_db.execute(
                people_db.query("people").where(col("salary") > lit(1))
            )

    def test_invalid_aggregate_function(self):
        with pytest.raises(EngineError):
            Aggregate("median", "x", "m")


class TestJoinsAndPlanner:
    @pytest.fixture()
    def joined_db(self, people_db):
        people_db.create_table("visits", ("visit_id", "person_id", "length"))
        people_db.insert(
            "visits",
            [(10, 1, 5), (11, 1, 7), (12, 3, 2), (13, 9, 1)],
        )
        return people_db

    def _join_rows(self, engine):
        return engine.execute(
            engine.query("visits")
            .join("people", "person_id", "id")
            .select("visit_id", "name")
            .order_by("visit_id")
        ).rows

    def test_join_matches_expected(self, joined_db):
        assert self._join_rows(joined_db) == [
            (10, "ann"), (11, "ann"), (12, "cat"),
        ]

    def test_all_join_algorithms_agree(self, people_db):
        expected = None
        for algorithm in ("hash", "nested_loop", "merge"):
            engine = DbmsEngine(PlannerConfig(join_algorithm=algorithm))
            engine.create_table("people", ("id", "name", "age", "city"))
            engine.insert("people", [(1, "ann", 30, "rome"), (2, "bob", 25, "oslo")])
            engine.create_table("visits", ("visit_id", "person_id", "length"))
            engine.insert("visits", [(10, 1, 5), (11, 2, 3), (12, 1, 9)])
            rows = sorted(
                engine.execute(
                    engine.query("visits").join("people", "person_id", "id")
                ).rows
            )
            if expected is None:
                expected = rows
            assert rows == expected

    def test_predicate_pushdown_appears_below_join(self, joined_db):
        plan = joined_db.explain(
            joined_db.query("visits")
            .join("people", "person_id", "id")
            .where(col("length") >= lit(5))
        )
        # The filter on visits.length must sit under the join's outer side.
        join_node = plan
        while join_node.get("op") not in ("HashJoin", "NestedLoopJoin", "MergeJoin"):
            join_node = join_node["child"]
        assert join_node["outer"]["op"] == "Filter"

    def test_pushdown_can_be_disabled(self):
        engine = DbmsEngine(PlannerConfig(predicate_pushdown=False))
        engine.create_table("t", ("a",))
        engine.insert("t", [(1,), (2,)])
        plan = engine.explain(engine.query("t").where(col("a") == lit(1)))
        assert plan["op"] == "Filter"
        assert plan["child"]["op"] == "SeqScan"

    def test_index_scan_chosen_for_point_query(self, people_db):
        people_db.create_index("people", "id")
        plan = people_db.explain(
            people_db.query("people").where(col("id") == lit(3))
        )
        assert plan["op"] == "IndexScan"

    def test_index_scan_can_be_disabled(self, people_db):
        people_db.create_index("people", "id")
        engine = people_db
        engine.planner.config.use_indexes = False
        plan = engine.explain(engine.query("people").where(col("id") == lit(3)))
        assert plan["op"] == "Filter"

    def test_auto_picks_nested_loop_for_tiny_inner(self, joined_db):
        plan = joined_db.explain(
            joined_db.query("visits").join("people", "person_id", "id")
        )
        assert plan["op"] == "NestedLoopJoin"  # 5-row inner under threshold

    def test_join_column_validation(self, joined_db):
        with pytest.raises(EngineError):
            joined_db.execute(
                joined_db.query("visits").join("people", "nope", "id")
            )

    def test_duplicate_columns_qualified(self, people_db):
        people_db.create_table("pets", ("id", "name", "owner_id"))
        people_db.insert("pets", [(1, "rex", 1)])
        result = people_db.execute(
            people_db.query("pets").join("people", "owner_id", "id")
        )
        assert "id_r" in result.schema
        assert "name_r" in result.schema


class TestDml:
    def test_update(self, people_db):
        changed = people_db.update(
            "people", col("city") == lit("rome"), {"age": 99}
        )
        assert changed == 2
        result = people_db.execute(
            people_db.query("people").where(col("age") == lit(99))
        )
        assert len(result.rows) == 2

    def test_delete(self, people_db):
        removed = people_db.delete("people", col("age") < lit(30))
        assert removed == 2
        assert len(people_db.execute(people_db.query("people")).rows) == 3

    def test_load_dataset(self, retail_tables):
        engine = DbmsEngine()
        name = engine.load_dataset(retail_tables["orders"], "orders")
        assert name == "orders"
        assert len(engine.catalog.table("orders")) == 300

    def test_load_requires_table_type(self, text_corpus):
        engine = DbmsEngine()
        with pytest.raises(EngineError):
            engine.load_dataset(text_corpus)

    def test_drop_table(self, people_db):
        people_db.drop_table("people")
        assert not people_db.catalog.has_table("people")
        with pytest.raises(EngineError):
            people_db.drop_table("people")


class TestCountersAtAnEarlyStop:
    """Row operators count in locals and publish once; a ``LIMIT`` that
    closes the plan mid-stream must leave the totals one bump per row
    left.  The literals are the commit-before-the-change's counts (one
    bump per row then) for the same queries."""

    @staticmethod
    def _engine(algorithm):
        engine = DbmsEngine(PlannerConfig(join_algorithm=algorithm))
        engine.create_table("orders", ("order_id", "product", "quantity"))
        engine.insert("orders", [(i, i % 7, i % 5) for i in range(40)])
        engine.create_table("products", ("product", "name"))
        # Keys 0..4 name two products each: a probe can stop between them.
        engine.insert("products", [(p % 7, f"p{p}") for p in range(12)])
        return engine

    #: algorithm → {limit: (records_read, compute_ops)}
    PARENT_COUNTS = {
        "hash": {0: (15, 17), 1: (15, 18), 3: (16, 22), 5: (17, 26), 8: (21, 35)},
        "nested_loop": {
            0: (15, 7), 1: (15, 15), 3: (16, 31), 5: (17, 47), 8: (21, 68),
        },
        "merge": {0: (52, 78), 1: (52, 79), 3: (52, 81), 5: (52, 83), 8: (52, 87)},
    }

    @pytest.mark.parametrize("algorithm", sorted(PARENT_COUNTS))
    def test_limit_without_order_by_counts_what_was_pulled(self, algorithm):
        engine = self._engine(algorithm)
        join_op = {
            "hash": "HashJoin", "nested_loop": "NestedLoopJoin",
            "merge": "MergeJoin",
        }[algorithm]
        for limit, counts in self.PARENT_COUNTS[algorithm].items():
            result = engine.execute(
                engine.query("orders")
                .where(col("quantity") >= lit(2))
                .join("products", "product", "product")
                .select("order_id", "name")
                .limit(limit)
            )
            # Limit → Project → join over a filtered scan and a scan.
            assert result.plan["op"] == "Limit"
            join = result.plan["child"]["child"]
            assert join["op"] == join_op
            assert join["outer"]["op"] == "Filter"
            assert join["outer"]["child"]["op"] == "SeqScan"
            assert len(result.rows) == limit
            assert (
                result.cost.records_read, result.cost.compute_ops
            ) == counts, (algorithm, limit)
