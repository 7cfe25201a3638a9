"""The access path never changes the answer: index vs scan, differentially.

``execute`` plans ``col = literal`` over an indexed column as an index
scan, and ``update`` / ``delete`` pick their rows by the same rule
(``Planner.matching_row_ids``).  Every case below runs against a table
with the index, a table without it, and a planner told not to use it, in
both layouts, and must agree with plain Python ``==`` over the rows,
including for the literals an index could get wrong: ``None`` (once the
"no point value" sentinel), and ``1`` / ``True`` / ``1.0`` (equal values
that once ranked apart).
"""

from __future__ import annotations

import pytest

from repro.engines.base import CostCounters
from repro.engines.dbms import DbmsEngine, PlannerConfig, col, lit
from repro.engines.dbms.plans import IndexScan
from repro.engines.dbms.storage import SortedIndex
from repro.engines.dbms.vector_plans import ColumnarIndexScan

VALUES = [None, 0, "", 1, True, 1.0, False, 0.0, "a", 2, None, "", 1]
ROWS = [(row_id, value, "-") for row_id, value in enumerate(VALUES)]
LITERALS = [None, 0, "", 1, True, 1.0, "a", "absent", 3]


def _engine(indexed: bool, use_indexes: bool = True) -> DbmsEngine:
    engine = DbmsEngine(PlannerConfig(use_indexes=use_indexes))
    engine.create_table("t", ("id", "k", "tag"))
    engine.insert("t", ROWS)
    if indexed:
        engine.create_index("t", "k")
    return engine


def _engines() -> dict[str, DbmsEngine]:
    return {
        "indexed": _engine(indexed=True),
        "unindexed": _engine(indexed=False),
        "index unused": _engine(indexed=True, use_indexes=False),
    }


def _table(engine: DbmsEngine) -> list[tuple]:
    return sorted(engine.execute(engine.query("t")).rows)


def _literal_id(literal) -> str:
    return f"{type(literal).__name__}:{literal!r}"


@pytest.mark.parametrize("literal", LITERALS, ids=_literal_id)
class TestEveryAccessPathAgrees:
    def test_execute(self, literal):
        expected = [row for row in ROWS if row[1] == literal]
        for name, engine in _engines().items():
            for layout in ("row", "columnar"):
                query = engine.query("t").where(col("k") == lit(literal))
                result = engine.execute(query, layout=layout)
                assert sorted(result.rows) == expected, (name, layout)
                scans = repr(result.plan)
                assert ("IndexScan" in scans) == (name == "indexed")

    def test_update(self, literal):
        matches = [row[0] for row in ROWS if row[1] == literal]
        expected = sorted(
            (row_id, value, "hit" if row_id in matches else tag)
            for row_id, value, tag in ROWS
        )
        for name, engine in _engines().items():
            count = engine.update("t", col("k") == lit(literal), {"tag": "hit"})
            assert count == len(matches), name
            assert engine.counters.records_written == len(ROWS) + count
            assert _table(engine) == expected, name

    def test_delete(self, literal):
        expected = sorted(row for row in ROWS if not row[1] == literal)
        for name, engine in _engines().items():
            count = engine.delete("t", col("k") == lit(literal))
            assert count == len(ROWS) - len(expected), name
            assert _table(engine) == expected, name
            # The index was maintained: the same lookup now finds nothing.
            query = engine.query("t").where(col("k") == lit(literal))
            assert engine.execute(query).rows == [], name


class TestMutationsThroughTheIndex:
    def test_the_whole_predicate_is_rechecked_on_index_candidates(self):
        predicate = (col("k") == lit(1)) & (col("id") > lit(4))
        matches = [row[0] for row in ROWS if row[1] == 1 and row[0] > 4]
        assert matches == [5, 12]
        for name, engine in _engines().items():
            assert engine.update("t", predicate, {"tag": "late"}) == 2, name
            tagged = [row[0] for row in _table(engine) if row[2] == "late"]
            assert tagged == matches, name

    def test_rows_are_updated_in_ascending_row_id_order(self):
        updated: list[int] = []
        engine = _engine(indexed=True)
        heap = engine.catalog.table("t")
        update_row = heap.update_row
        heap.update_row = lambda row_id, updates: (
            updated.append(row_id), update_row(row_id, updates)
        )[1]
        engine.update("t", col("k") == lit(True), {"tag": "x"})
        assert updated == [3, 4, 5, 12]

    def test_updating_the_indexed_column_moves_the_rows(self):
        engine = _engine(indexed=True)
        assert engine.update("t", col("k") == lit(""), {"k": "filled"}) == 2
        assert engine.update("t", col("k") == lit(""), {"k": "again"}) == 0
        assert engine.delete("t", col("k") == lit("filled")) == 2

    def test_an_unknown_column_still_raises(self):
        from repro.core.errors import EngineError

        with pytest.raises(EngineError):
            _engine(indexed=True).delete("t", col("nope") == lit(1))


class TestPointLookupSentinel:
    """``value=None`` is a point lookup of NULLs, not "no value given"."""

    @pytest.mark.parametrize("scan_type", [IndexScan, ColumnarIndexScan])
    def test_none_is_a_value(self, scan_type):
        table = _engine(indexed=True).catalog.table("t")
        point = scan_type(table, "k", CostCounters(), value=None)
        assert point.explain()["point"] is True
        everything = scan_type(table, "k", CostCounters())
        assert everything.explain()["point"] is False
        if scan_type is IndexScan:
            assert sorted(point.rows()) == [ROWS[0], ROWS[10]]
            assert len(list(everything.rows())) == len(ROWS)
        else:
            assert sum(batch.num_rows for batch in point.batches()) == 2
            assert sum(
                batch.num_rows for batch in everything.batches()
            ) == len(ROWS)

    def test_a_null_lookup_on_a_text_column_finds_nothing(self):
        engine = DbmsEngine()
        engine.create_table("names", ("name",))
        engine.insert("names", [("ann",), ("bob",)])
        engine.create_index("names", "name")
        query = engine.query("names").where(col("name") == lit(None))
        assert engine.execute(query).rows == []
        assert engine.delete("names", col("name") == lit(None)) == 0


class TestEqualValuesShareAnIndexRank:
    def test_one_true_and_one_point_zero_are_one_key(self):
        index = SortedIndex("k")
        index.build((value, row_id) for row_id, value in enumerate(VALUES))
        assert index.lookup(1) == index.lookup(True) == index.lookup(1.0)
        assert index.lookup(1) == [3, 4, 5, 12]
        assert index.lookup(0) == index.lookup(False) == [1, 6, 7]
        assert index.lookup(None) == [0, 10]
        assert index.lookup("") == [2, 11]

    def test_numbers_then_text_then_nulls(self):
        index = SortedIndex("k")
        index.build([(None, 0), ("a", 1), (True, 2), (0.5, 3)])
        assert index.range_scan() == [3, 2, 1, 0]
        index.insert(None, 4)
        index.remove(True, 2)
        assert index.range_scan() == [3, 1, 0, 4]
