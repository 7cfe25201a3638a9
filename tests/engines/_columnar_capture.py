"""The row↔columnar differential's cases, and their ``batches`` captured.

``tests/engines/test_columnar.py`` runs every case below on both layouts
and holds the columnar side to the row oracle in rows (by ``repr``),
``records_read`` and ``compute_ops``.  ``batches`` has no row twin — it
counts what the vector operators emit — so it is held to
``tests/fixtures/columnar_parent.json``, this script's output on the
commit *before* the batch operators stopped materialising rows::

    PYTHONPATH=src python tests/engines/_columnar_capture.py \
        > tests/fixtures/columnar_parent.json

The fixture is never regenerated: a change that moves ``batches`` has
changed a reported value (the ``columnar`` row of
``tests/test_captures.py``).  Only this file's own code and public
callables that exist on both sides are used, so the same script
measures parent and change.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Any

from repro.engines.dbms import Aggregate, DbmsEngine, PlannerConfig, col, lit
from repro.engines.dbms.planner import JoinSpec, Query

BATCH_SIZES = (1, 3, 1024)
#: (outer rows, build rows) per seed: empty sides, a single row, a build
#: side larger than one 1024-row batch.
SHAPES = (
    (0, 5), (1, 3), (30, 0), (70, 12), (45, 7),
    (12, 1), (70, 9), (30, 5), (64, 2), (50, 1100),
)
SEEDS = range(len(SHAPES))

LEFT_SCHEMA = ("id", "color", "size", "score", "key")
RIGHT_SCHEMA = ("key", "weight", "tag")

#: Join keys: ``1``, ``True`` and ``1.0`` are one dict key and three
#: reprs; ``None`` joins ``None``; most outer keys find 0, 1 or many.
_KEYS = ("k0", "k1", "k2", "k3", "k4", "k5", 1, True, 1.0, None)
#: Clean, then what an aggregate can trip over.
_SCORES = (
    lambda rng: rng.randint(-5, 100),
    lambda rng: rng.choice([rng.randint(0, 9), rng.random(), True, False]),
    lambda rng: rng.choice([rng.randint(0, 9), None]),
    lambda rng: rng.choice([rng.randint(0, 9), "nine"]),
)


def tables(seed: int) -> tuple[list[tuple], list[tuple]]:
    """The two tables of one seed: duplicate join keys on both sides,
    outer rows without a match, sometimes an empty build side."""
    rng = random.Random(f"columnar-differential:{seed}")
    score = _SCORES[seed % len(_SCORES)]
    left_rows, right_rows = SHAPES[seed]
    left = [
        (
            index,
            rng.choice(["red", "green", "blue", None]),
            rng.choice(["s", "m", 7]),
            score(rng),
            rng.choice(_KEYS),
        )
        for index in range(left_rows)
    ]
    right = [
        (rng.choice(_KEYS[1:]), rng.random() * 10, rng.choice(["x", "y"]))
        for _ in range(right_rows)
    ]
    return left, right


def queries(seed: int) -> dict[str, Query]:
    """filter → join → group-by → order-by → limit, combined.

    Every ``LIMIT`` sits above a sort, which drains its input on both
    layouts: the row path stops pulling at the limit, a batch does not.
    """
    rng = random.Random(f"columnar-differential-queries:{seed}")
    join = [JoinSpec("right_t", "key", "key")]
    every = [
        Aggregate("count", None, "n"),
        Aggregate("count", "score", "scored"),
        Aggregate("sum", "weight", "total"),
        Aggregate("avg", "weight", "mean"),
        Aggregate("min", "id", "first"),
        Aggregate("max", "id", "last"),
    ]
    return {
        "all-aggregates": Query(
            table="left_t",
            joins=join,
            predicate=(col("id") >= lit(rng.randint(0, 5)))
            & (col("weight") < lit(9.0)),
            group_by=["color", "tag"],
            aggregates=every,
            order_by=[("last", True)],
            limit=rng.randint(1, 6),
        ),
        "residual-filter": Query(
            table="left_t",
            joins=join,
            predicate=col("id") > col("weight"),
            order_by=[("id", False), ("weight", True)],
            limit=rng.randint(1, 40),
        ),
        "mixed-group-key": Query(
            table="left_t",
            joins=join,
            group_by=["key", "size"],
            aggregates=[
                Aggregate("count", None, "n"),
                Aggregate("max", "weight", "heaviest"),
            ],
            order_by=[("heaviest", False)],
        ),
        "sum-scores": Query(
            table="left_t",
            joins=join,
            group_by=["tag"],
            aggregates=[
                Aggregate("sum", "score", "total"),
                Aggregate("avg", "score", "mean"),
            ],
            order_by=[("tag", True)],
        ),
        "min-max-scores": Query(
            table="left_t",
            predicate=col("id") >= lit(1),
            group_by=["color"],
            aggregates=[
                Aggregate("min", "score", "low"),
                Aggregate("max", "score", "high"),
            ],
        ),
        "global-aggregate": Query(
            table="left_t",
            joins=join,
            aggregates=[
                Aggregate("count", None, "n"),
                Aggregate("sum", "weight", "total"),
            ],
        ),
        "filter-on-scores": Query(
            table="left_t",
            joins=join,
            predicate=col("score") >= lit(3),
            projection=[("id", col("id")), ("tag", col("tag"))],
            order_by=[("id", True)],
            limit=5,
        ),
    }


def engine_for(seed: int, layout: str, batch_size: int) -> DbmsEngine:
    """The seed's tables, loaded.  The join is pinned to hash: under
    ``auto`` the row planner may pick nested-loop where columnar always
    hashes, and cost parity is an operator-vs-twin property."""
    engine = DbmsEngine(
        PlannerConfig(
            layout=layout, batch_size=batch_size, join_algorithm="hash"
        )
    )
    left, right = tables(seed)
    engine.create_table("left_t", LEFT_SCHEMA)
    engine.insert("left_t", left)
    engine.create_table("right_t", RIGHT_SCHEMA)
    engine.insert("right_t", right)
    return engine


def outcome(engine: DbmsEngine, query: Query) -> dict[str, Any]:
    """What one execution lets a caller observe, exceptions included."""
    try:
        result = engine.execute(query)
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return {"raises": type(exc).__name__}
    return {
        "rows": [repr(row) for row in result.rows],
        "records_read": result.cost.records_read,
        "compute_ops": result.cost.compute_ops,
        "batches": result.cost.batches,
    }


def capture() -> dict[str, int | None]:
    """``seed/batch_size/query`` → ``batches`` (``None``: it raised)."""
    captured: dict[str, int | None] = {}
    for seed in SEEDS:
        for batch_size in BATCH_SIZES:
            engine = engine_for(seed, "columnar", batch_size)
            for name, query in queries(seed).items():
                captured[f"{seed}/{batch_size}/{name}"] = outcome(
                    engine, query
                ).get("batches")
    return captured


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
