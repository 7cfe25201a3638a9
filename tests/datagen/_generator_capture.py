"""Digests of the records the table, text, graph and mixture generators
build, and of the batch boundaries ``iter_batches`` cuts them into.

The fixture ``tests/fixtures/generators_parent.json`` is this script's
output on the commit before those generators built their records from
whole arrays::

    PYTHONPATH=src python tests/datagen/_generator_capture.py \
        > tests/fixtures/generators_parent.json

It is never regenerated: a difference is seeded output that changed
(row ``generators`` of ``tests/test_captures.py``).  Each digest covers
every record's ``repr`` and the type of every element (so ``1`` and
``1.0``, or ``int`` and ``np.int64``, differ).  Only public callables
that exist on both sides are used, so one script measures both sides.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any

import repro  # noqa: F401 — fills the registries
from repro.core import registry
from repro.core.prescription import load_seed
from repro.datagen.base import DataSet, DataType
from repro.datagen.table import (
    Categorical,
    ForeignKey,
    TableGenerator,
    TableSchema,
    UniformFloat,
    Zipf,
    retail_star_schema,
)

#: Volumes of every case: empty, one record, odd sizes, and the volume the
#: end-to-end benchmark asks each generator for.
VOLUMES = {
    "fitted-table": (0, 1, 7, 333, 10_000),
    "random-text": (0, 1, 7, 333, 5_000),
    "rmat-graph": (0, 1, 2, 7, 333, 1_024),
    "mixture-table": (0, 1, 7, 333, 2_000),
    "schema-table": (0, 1, 7, 333),
}
PARTITIONS = (1, 3)
#: Chunk sizes of the batch-boundary cases, besides ``volume`` and
#: ``volume + 1``.
CHUNK_SIZES = (1, 7)
BATCH_VOLUME = 50


def _types(value: Any) -> Any:
    kind = type(value)
    if kind is tuple or kind is list:
        return [kind.__name__, [_types(item) for item in value]]
    return f"{kind.__module__}.{kind.__qualname__}"


def digest(records: list) -> dict:
    text = hashlib.sha256()
    types = hashlib.sha256()
    for record in records:
        text.update(repr(record).encode())
        text.update(b"\n")
        types.update(json.dumps(_types(record)).encode())
        types.update(b"\n")
    return {
        "records": len(records),
        "repr": text.hexdigest(),
        "types": types.hexdigest(),
    }


def _mixed_schema() -> TableSchema:
    """The column kinds the retail schema does not use."""
    return (
        TableSchema("mixed")
        .add("zipf", Zipf(50, exponent=1.3))
        .add("uniform", UniformFloat(-1.0, 1.0))
        .add("reference", ForeignKey(30))
        .add("hot_reference", ForeignKey(3, skew=2.5))
        .add("tag", Categorical(("a", 1, 2.5, None), weights=(1.0, 2.0, 3.0, 4.0)))
    )


def _float_table():
    """A table whose fitted columns are non-integral quantiles, a huge
    integral one and a low-cardinality categorical."""
    rows = [
        (i * 0.37 - 11.0, (i * 7919) % 1000 * 2**60, i % 3, f"t{i % 5}")
        for i in range(400)
    ]
    return DataSet(
        name="adhoc",
        data_type=DataType.TABLE,
        records=rows,
        metadata={"schema": ("x", "big", "small", "label")},
    )


def generators() -> dict[str, Any]:
    """Case name -> a ready generator."""
    cases: dict[str, Any] = {}
    for name in ("random-text", "rmat-graph", "mixture-table"):
        cases[name] = registry.generators.create(name)
    cases["fitted-table"] = registry.generators.create("fitted-table").fit(
        load_seed("retail-orders")
    )
    cases["fitted-table.floats"] = registry.generators.create("fitted-table").fit(
        _float_table()
    )
    cases["rmat-graph.fitted"] = registry.generators.create("rmat-graph").fit(
        load_seed("social-graph")
    )
    schemas = retail_star_schema(num_customers=40, num_products=12)
    schemas["mixed"] = _mixed_schema()
    for name, schema in schemas.items():
        cases[f"schema-table.{name}"] = TableGenerator(schema, seed=5)
    return cases


def capture() -> dict:
    out: dict[str, Any] = {"records": {}, "batches": {}}
    for case, generator in generators().items():
        for volume in VOLUMES[case.split(".")[0]]:
            for partitions in PARTITIONS:
                if partitions == 1:
                    records = generator.generate(volume).records
                else:
                    records = generator.generate_parallel(volume, partitions).records
                out["records"][f"{case}/{volume}/p{partitions}"] = digest(records)
        for partitions in (1, 2, 3):
            for chunk_size in (*CHUNK_SIZES, BATCH_VOLUME, BATCH_VOLUME + 1):
                out["batches"][f"{case}/{BATCH_VOLUME}/p{partitions}/c{chunk_size}"] = (
                    batches(generator.iter_batches(BATCH_VOLUME, chunk_size, partitions))
                )
    return out


def batches(stream) -> dict:
    """Each batch's ``index:offset:size``, and one digest of them all."""
    bounds = []
    text = hashlib.sha256()
    for batch in stream:
        bounds.append(f"{batch.index}:{batch.offset}:{len(batch)}")
        text.update(f"{bounds[-1]} {digest(batch.records)['repr']}\n".encode())
    return {"bounds": " ".join(bounds), "digest": text.hexdigest()}


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
