"""Property-based tests for the DFS substrate and the SQL front-end."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines.dbms import DbmsEngine, col, lit
from repro.engines.dfs import DistributedFileSystem

# ---------------------------------------------------------------------------
# DFS: the filesystem must behave exactly like a dict[str, bytes].
# ---------------------------------------------------------------------------

file_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "append", "delete"]),
        st.sampled_from(["/a", "/b", "/c", "/dir/d"]),
        st.binary(max_size=300),
    ),
    max_size=25,
)


class TestDfsProperties:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(file_ops, st.integers(min_value=1, max_value=3))
    def test_dfs_matches_dict_model(self, operations, replication):
        dfs = DistributedFileSystem(
            num_nodes=3, block_size=64, replication=replication
        )
        model: dict[str, bytes] = {}
        for action, path, payload in operations:
            if action == "write":
                dfs.write_file(path, payload)
                model[path] = payload
            elif action == "append":
                dfs.append(path, payload)
                model[path] = model.get(path, b"") + payload
            else:
                dfs.delete_file(path)
                model.pop(path, None)
        for action, path, payload in operations:
            assert dfs.exists(path) == (path in model)
        for path, payload in model.items():
            result = dfs.read_file(path)
            assert result.ok
            assert result.data == payload

    @settings(max_examples=30)
    @given(st.binary(min_size=1, max_size=2000),
           st.integers(min_value=8, max_value=256))
    def test_any_payload_roundtrips_any_block_size(self, payload, block_size):
        dfs = DistributedFileSystem(num_nodes=3, block_size=block_size,
                                    replication=2)
        dfs.write_file("/f", payload)
        assert dfs.read_file("/f").data == payload

    @settings(max_examples=25)
    @given(st.binary(min_size=1, max_size=1000),
           st.integers(min_value=0, max_value=2))
    def test_single_node_failure_never_loses_replicated_data(
        self, payload, failed_node
    ):
        dfs = DistributedFileSystem(num_nodes=3, block_size=64, replication=2)
        dfs.write_file("/f", payload)
        dfs.fail_node(failed_node)
        assert dfs.read_file("/f").data == payload
        dfs.re_replicate()
        assert dfs.under_replicated_blocks() == []


# ---------------------------------------------------------------------------
# SQL: text queries must agree with the fluent builder on random data.
# ---------------------------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),        # k
        st.integers(min_value=-100, max_value=100),    # v
        st.sampled_from(["red", "green", "blue"]),     # tag
    ),
    min_size=1,
    max_size=60,
)


def _load(rows) -> DbmsEngine:
    engine = DbmsEngine()
    engine.create_table("t", ("k", "v", "tag"))
    engine.insert("t", rows)
    return engine


class TestSqlEquivalenceProperties:
    @settings(max_examples=40)
    @given(rows_strategy, st.integers(min_value=-100, max_value=100))
    def test_filter_equivalence(self, rows, threshold):
        engine = _load(rows)
        via_sql = engine.sql(f"SELECT * FROM t WHERE v >= {threshold}")
        via_builder = engine.execute(
            engine.query("t").where(col("v") >= lit(threshold))
        )
        assert sorted(via_sql.rows) == sorted(via_builder.rows)

    @settings(max_examples=40)
    @given(rows_strategy)
    def test_group_by_equivalence(self, rows):
        engine = _load(rows)
        via_sql = engine.sql(
            "SELECT tag, COUNT(*) AS n, SUM(v) AS total "
            "FROM t GROUP BY tag ORDER BY tag"
        )
        via_builder = engine.execute(
            engine.query("t")
            .group_by("tag")
            .aggregate("count", None, "n")
            .aggregate("sum", "v", "total")
            .order_by("tag")
        )
        assert via_sql.rows == via_builder.rows

    @settings(max_examples=40)
    @given(rows_strategy, st.integers(min_value=1, max_value=10))
    def test_order_limit_equivalence(self, rows, limit):
        engine = _load(rows)
        via_sql = engine.sql(
            f"SELECT k, v FROM t ORDER BY v DESC, k ASC LIMIT {limit}"
        )
        via_builder = engine.execute(
            engine.query("t")
            .select("k", "v")
            .order_by("v", descending=True)
            .order_by("k")
            .limit(limit)
        )
        assert via_sql.rows == via_builder.rows

    @settings(max_examples=30)
    @given(rows_strategy)
    def test_aggregates_match_python_reference(self, rows):
        engine = _load(rows)
        result = engine.sql(
            "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
            "FROM t"
        )
        n, s, lo, hi = result.rows[0]
        values = [row[1] for row in rows]
        assert n == len(values)
        assert s == sum(values)
        assert lo == min(values)
        assert hi == max(values)
