"""E14 — the chunked dataset pipeline: throughput and peak memory.

Compares the two shapes of the data path on the same generator and
volume:

* **materialized** — ``generate(volume)`` builds the full record list;
* **chunked** — ``iter_batches(volume, chunk_size)`` streams
  ``RecordBatch`` chunks, holding one chunk at a time.

Each shape runs in its own subprocess so ``ru_maxrss`` is a clean
per-shape high-water mark (within one process the peak never resets).
The contract asserted here is the pipeline's core claim: the chunked
pass touches every record the materialized pass produces (same count,
same digest) while its peak RSS stays essentially flat as volume grows.

A second benchmark times every registry generator at one fixed volume
(records/s, MB/s, and ``fit`` seconds where the generator is fitted on
seed data) — generation rate is a data generator's headline number
(BDGS), and this is where a change to any generator's hot loop shows.

A third prices the fitted-model cache (DESIGN.md §3.19): how long, and
how many ``LdaModel.fit`` calls, a cold and a second ``api.run`` of
``micro-grep``, a four-point volume sweep and a chunked run with repeats
take, each scenario in a fresh process whose ``PYTHONPATH`` is the
measured ``src``; the probe uses only calls both sides of a comparison
have, so the same script measures the parent commit::

    PYTHONPATH=src python benchmarks/bench_datagen_pipeline.py --src OTHER/src --source parent

The same command appends a ``generator_rates.poisson-stream`` row: events
per second of the registry's stream generator at the end-to-end
benchmark's ``window-poisson`` volume, in one partition and in two, also
in a fresh process on the measured ``src`` (the all-generators table
above runs in this process at 1 000 records, where a stream takes 2 ms),
a ``generator_rates.e2e-volumes`` row: ``generate()`` of every other
generator an ``exec-default`` cell reaches, at that cell's volume, and a
``generator_rates.lda-text`` row: ``generate()`` of a fitted ``lda-text``
at ``gen-bound``'s ``grep-lda`` volume, the fit outside the timing.  Both
carry a digest of the records, so two trees' rows show they generated
the same ones.

Each run appends a run-store-schema row per benchmark (see ``_history``)
to ``BENCH_datagen_pipeline.json`` so the throughput and memory numbers
accumulate into a perf trajectory across revisions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from pathlib import Path

from _history import append_history, child_env, run_child
from conftest import print_banner

import repro  # noqa: F401 — fills the registries
from repro.core import registry
from repro.core.prescription import load_seed
from repro.execution.report import ascii_table

GENERATOR = "random-text"
VOLUME = 100_000
CHUNK_SIZES = (128, 1024, 8192)

#: Every registry generator is timed at this volume (generator-native
#: units: documents, rows, vertices, events, images).
RATE_VOLUME = 1000
#: Seed data for the generators that cannot generate unfitted.
FIT_SOURCES = {
    "lda-text": "text-corpus",
    "unigram-text": "text-corpus",
    "fitted-table": "retail-orders",
}

RESULTS_FILE = Path(__file__).parent / "BENCH_datagen_pipeline.json"
SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: The fitted-model scenarios: ``micro-grep`` (``lda-text`` fitted on
#: ``text-corpus``) at the end-to-end benchmark's ``grep-lda`` volume.
MODEL_CACHE = {
    "volume": 600,
    "sweep_volumes": [100, 200, 400, 800],
    "chunk_size": 128,
    "chunked_repeats": 3,
}
#: Fresh processes per scenario; the row keeps each number's minimum.
MODEL_CACHE_REPEATS = 3
#: What the pytest entry point (CI's ledger-smoke step) runs.
MODEL_CACHE_SMOKE = {
    "volume": 60,
    "sweep_volumes": [20, 30, 40, 50],
    "chunk_size": 16,
    "chunked_repeats": 3,
}

#: The stream generator's rate row: ``gen-bound``'s ``window-poisson`` and
#: ``window-poisson-p2`` cells.
STREAM_RATE = {"generator": "poisson-stream", "volume": 30_000, "partitions": [1, 2]}
STREAM_RATE_REPEATS = 7
#: What the pytest entry point runs.
STREAM_RATE_SMOKE = {**STREAM_RATE, "volume": 3_000}

#: Generator -> the volume an ``exec-default`` cell asks it for
#: (``relational-dbms``, ``wordcount-mr``, ``pagerank-mr``, ``kmeans-mr``,
#: ``ycsb-2eng``), fitted on the seed data its prescription names.
E2E_RATES = {
    "fitted-table": 10_000,
    "random-text": 5_000,
    "rmat-graph": 1_024,
    "mixture-table": 2_000,
    "kv-records": 500,
}
E2E_FIT_ON = {"fitted-table": "retail-orders", "rmat-graph": "social-graph"}
E2E_RATE_REPEATS = 9
#: What the pytest entry point runs.
E2E_RATES_SMOKE = {name: volume // 20 for name, volume in E2E_RATES.items()}

#: ``gen-bound``'s ``grep-lda`` cell: ``lda-text`` at its volume.  The fit
#: is outside the timing, as it is in every round of the cell but the
#: first (the fitted-model cache).
LDA_RATE = {"lda-text": 600}
LDA_FIT_ON = {"lda-text": "text-corpus"}
LDA_RATE_REPEATS = 15

#: The child generates in the requested shape and reports elapsed
#: seconds, peak RSS, record count, and a record digest on stdout.
_CHILD = """
import hashlib
import json
import resource
import sys
import time

mode = sys.argv[1]            # "materialized" | "chunked"
volume = int(sys.argv[2])
chunk_size = int(sys.argv[3])

import repro
from repro.core import registry

generator = registry.generators.create({generator!r})
digest = hashlib.sha256()
started = time.perf_counter()
if mode == "materialized":
    records = generator.generate(volume).records
    count = len(records)
    for record in records:
        digest.update(record.encode())
else:
    count = 0
    for batch in generator.iter_batches(volume, chunk_size):
        count += len(batch)
        for record in batch:
            digest.update(record.encode())
elapsed = time.perf_counter() - started
print(json.dumps({{
    "seconds": elapsed,
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    * 1024,
    "records": count,
    "digest": digest.hexdigest(),
}}))
"""


def _run_shape(tmp_path: Path, mode: str, chunk_size: int = 0) -> dict:
    script = tmp_path / "pipeline_shape.py"
    script.write_text(_CHILD.format(generator=GENERATOR))
    completed = run_child(
        SRC_DIR, [str(script), mode, str(VOLUME), str(chunk_size)]
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_chunked_vs_materialized_pipeline(benchmark, tmp_path):
    def drive():
        shapes = {"materialized": _run_shape(tmp_path, "materialized")}
        for chunk_size in CHUNK_SIZES:
            shapes[f"chunked-{chunk_size}"] = _run_shape(
                tmp_path, "chunked", chunk_size
            )
        return shapes

    shapes = benchmark.pedantic(drive, rounds=1, iterations=1)

    print_banner("E14", "chunked pipeline — throughput and peak RSS")
    print(
        ascii_table(
            [
                {
                    "shape": shape,
                    "records/s": data["records"] / data["seconds"],
                    "seconds": data["seconds"],
                    "peak RSS MB": data["peak_rss_bytes"] / 1e6,
                }
                for shape, data in shapes.items()
            ]
        )
    )

    # Contract 1: every shape visits the same records, bit for bit.
    reference = shapes["materialized"]
    assert reference["records"] == VOLUME
    for shape, data in shapes.items():
        assert data["records"] == reference["records"], shape
        assert data["digest"] == reference["digest"], shape

    # Contract 2: chunking bounds memory — every chunked shape's peak
    # stays below the materialized peak (the record list itself is tens
    # of MB at this volume, so the gap is structural, not noise).
    for chunk_size in CHUNK_SIZES:
        chunked = shapes[f"chunked-{chunk_size}"]
        assert chunked["peak_rss_bytes"] < reference["peak_rss_bytes"], (
            chunk_size
        )

    append_history(
        RESULTS_FILE,
        "datagen_pipeline.chunked_vs_materialized",
        {
            "generator": GENERATOR,
            "volume": VOLUME,
            "chunk_sizes": list(CHUNK_SIZES),
        },
        {
            "shapes": {
                shape: {
                    "seconds": data["seconds"],
                    "records_per_second": data["records"] / data["seconds"],
                    "peak_rss_bytes": data["peak_rss_bytes"],
                }
                for shape, data in shapes.items()
            },
        },
    )


def _time_generator(name: str) -> dict:
    generator = registry.generators.create(name)
    measured: dict = {}
    if name in FIT_SOURCES:
        seed_data = load_seed(FIT_SOURCES[name])
        started = time.perf_counter()
        generator.fit(seed_data)
        measured["fit_seconds"] = time.perf_counter() - started
    # Fastest of three identical passes: the first also pays lazy imports.
    seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        dataset = generator.generate(RATE_VOLUME)
        seconds = min(seconds, time.perf_counter() - started)
    measured.update(
        seconds=seconds,
        records=len(dataset.records),
        records_per_second=len(dataset.records) / seconds,
        mb_per_second=dataset.estimated_bytes() / 1e6 / seconds,
    )
    return measured


def test_generator_rates(benchmark):
    names = sorted(registry.generators.names())

    def drive():
        return {name: _time_generator(name) for name in names}

    rates = benchmark.pedantic(drive, rounds=1, iterations=1)

    print_banner("E14", f"generation rate per generator, volume {RATE_VOLUME}")
    print(
        ascii_table(
            [
                {
                    "generator": name,
                    "records": data["records"],
                    "records/s": data["records_per_second"],
                    "MB/s": data["mb_per_second"],
                    "fit s": data.get("fit_seconds", ""),
                }
                for name, data in rates.items()
            ]
        )
    )

    for name, data in rates.items():
        assert data["records"] > 0, name

    append_history(
        RESULTS_FILE,
        "datagen_pipeline.generator_rates",
        {"volume": RATE_VOLUME, "generators": names},
        {"generators": rates},
    )

    stream = record_stream_rate(sizes=STREAM_RATE_SMOKE, repeats=2)
    for shape in stream.values():
        assert shape["records"] == STREAM_RATE_SMOKE["volume"]

    e2e = record_e2e_rates(volumes=E2E_RATES_SMOKE, repeats=2)
    assert set(e2e) == set(E2E_RATES_SMOKE)
    assert all(row["records"] > 0 for row in e2e.values())

    lda = record_lda_rate(repeats=2)
    assert lda["records"] == LDA_RATE["lda-text"]


_STREAM_CHILD = """
import json
import sys
import time

sizes = json.loads(sys.argv[1])
repeats = int(sys.argv[2])

import repro
from repro.core import registry

generator = registry.generators.create(sizes["generator"])
rows = {}
for partitions in sizes["partitions"]:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        dataset = generator.generate_parallel(sizes["volume"], partitions)
        best = min(best, time.perf_counter() - started)
    rows[f"partitions{partitions}"] = {
        "seconds": best,
        "records": dataset.num_records,
        "records_per_second": dataset.num_records / best,
    }
print(json.dumps(rows))
"""


def record_stream_rate(
    src: str = SRC_DIR, source: str = "worktree", sizes: dict = STREAM_RATE,
    repeats: int = STREAM_RATE_REPEATS,
) -> dict[str, dict]:
    completed = run_child(
        src, ["-c", _STREAM_CHILD, json.dumps(sizes), str(repeats)]
    )
    rows = json.loads(completed.stdout.strip().splitlines()[-1])
    print_banner("E14", f"{sizes['generator']} rate, {source}")
    print(
        ascii_table(
            [
                {"shape": name, "records": row["records"],
                 "records/s": row["records_per_second"]}
                for name, row in rows.items()
            ]
        )
    )
    append_history(
        RESULTS_FILE,
        "datagen_pipeline.generator_rates.poisson-stream",
        dict(sizes),
        {"source": source, "repeats": repeats, "shapes": rows},
    )
    return rows


#: Generators take turns, each timed ``repeats`` times; a row keeps each
#: generator's fastest call and a digest of its records.
_E2E_CHILD = """
import hashlib
import json
import sys
import time

volumes = json.loads(sys.argv[1])
fit_on = json.loads(sys.argv[2])
repeats = int(sys.argv[3])

import repro
from repro.core import registry
from repro.core.prescription import load_seed

generators = {}
for name in volumes:
    generators[name] = registry.generators.create(name)
    if name in fit_on:
        generators[name].fit(load_seed(fit_on[name]))
rows = {
    name: {"volume": volume, "records": 0, "seconds": float("inf")}
    for name, volume in volumes.items()
}
for _ in range(repeats):
    for name, generator in generators.items():
        started = time.perf_counter()
        dataset = generator.generate(volumes[name])
        seconds = time.perf_counter() - started
        rows[name]["seconds"] = min(rows[name]["seconds"], seconds)
        rows[name]["records"] = dataset.num_records
        digest = hashlib.sha256()
        for record in dataset.records:
            digest.update(repr(record).encode())
            digest.update(b"\\n")
        rows[name]["digest"] = digest.hexdigest()
print(json.dumps(rows))
"""


def _generator_rates(
    src: str, volumes: dict, fit_on: dict, repeats: int
) -> dict[str, dict]:
    completed = run_child(
        src,
        ["-c", _E2E_CHILD, json.dumps(volumes), json.dumps(fit_on),
         str(repeats)],
    )
    rows = json.loads(completed.stdout.strip().splitlines()[-1])
    for row in rows.values():
        row["records_per_second"] = row["records"] / row["seconds"]
    return rows


def record_e2e_rates(
    src: str = SRC_DIR, source: str = "worktree", volumes: dict = E2E_RATES,
    repeats: int = E2E_RATE_REPEATS,
) -> dict[str, dict]:
    rows = _generator_rates(src, volumes, E2E_FIT_ON, repeats)
    print_banner("E14", f"generate() at the e2e volumes, {source}")
    print(
        ascii_table(
            [
                {"generator": name, "volume": row["volume"],
                 "records": row["records"], "ms": row["seconds"] * 1e3,
                 "records/s": row["records_per_second"]}
                for name, row in rows.items()
            ]
        )
    )
    append_history(
        RESULTS_FILE,
        "datagen_pipeline.generator_rates.e2e-volumes",
        {"volumes": dict(volumes), "fit_on": dict(E2E_FIT_ON)},
        {"source": source, "repeats": repeats, "generators": rows},
    )
    return rows


def record_lda_rate(
    src: str = SRC_DIR, source: str = "worktree", repeats: int = LDA_RATE_REPEATS,
) -> dict:
    """``generate()`` of a fitted ``lda-text`` at the ``grep-lda`` volume:
    the fastest of ``repeats`` calls, in a fresh process on ``src``."""
    (row,) = _generator_rates(src, LDA_RATE, LDA_FIT_ON, repeats).values()
    print_banner("E14", f"lda-text generate() at the grep-lda volume, {source}")
    print(
        ascii_table(
            [{"volume": row["volume"], "records": row["records"],
              "ms": row["seconds"] * 1e3,
              "records/s": row["records_per_second"]}]
        )
    )
    append_history(
        RESULTS_FILE,
        "datagen_pipeline.generator_rates.lda-text",
        {"volumes": dict(LDA_RATE), "fit_on": dict(LDA_FIT_ON)},
        {"source": source, "repeats": repeats, "generators": {"lda-text": row}},
    )
    return row


#: One fitted-model scenario per process, so each starts with nothing
#: fitted, in memory or on disk (its cache home has no ``models``
#: directory); ``LdaModel.fit`` is counted by wrapping it.
_MODEL_CHILD = """
import json
import sys
import time

scenario = sys.argv[1]
sizes = json.loads(sys.argv[2])

from repro import api
from repro.datagen.text import LdaModel

fits = []
fit = LdaModel.fit


def counted(self, documents):
    fits.append(1)
    return fit(self, documents)


LdaModel.fit = counted


def timed(call):
    before = len(fits)
    started = time.perf_counter()
    call()
    return {"seconds": time.perf_counter() - started,
            "fits": len(fits) - before}


def run():
    api.run("micro-grep", volume=sizes["volume"], executor="serial",
            chunk_size=None)


if scenario == "run-twice":
    rows = {"cold_run": timed(run), "second_run": timed(run)}
elif scenario == "sweep":
    rows = {"sweep": timed(lambda: api.sweep(
        "micro-grep", "mapreduce", volumes=sizes["sweep_volumes"]))}
else:
    rows = {"chunked_run": timed(lambda: api.run(
        "micro-grep", volume=sizes["volume"], executor="serial",
        chunk_size=sizes["chunk_size"], repeats=sizes["chunked_repeats"]))}
print(json.dumps(rows))
"""


def measure_model_cache(
    src: str = SRC_DIR, sizes: dict = MODEL_CACHE,
    repeats: int = MODEL_CACHE_REPEATS,
) -> dict[str, dict]:
    """``{measurement: {"seconds": min, "fits": n}}`` for the ``src`` tree."""
    rows: dict[str, dict] = {}
    models = Path(child_env(src)["XDG_CACHE_HOME"]) / "repro" / "models"
    for scenario in ("run-twice", "sweep", "chunked"):
        for _ in range(repeats):
            shutil.rmtree(models, ignore_errors=True)
            completed = run_child(
                src, ["-c", _MODEL_CHILD, scenario, json.dumps(sizes)]
            )
            for name, row in json.loads(
                completed.stdout.strip().splitlines()[-1]
            ).items():
                best = rows.setdefault(name, row)
                # Fits are a count and repeat exactly; seconds do not.
                assert best["fits"] == row["fits"], name
                best["seconds"] = min(best["seconds"], row["seconds"])
    return rows


def record_model_cache(
    src: str = SRC_DIR, source: str = "worktree", sizes: dict = MODEL_CACHE,
    repeats: int = MODEL_CACHE_REPEATS,
) -> dict[str, dict]:
    rows = measure_model_cache(src, sizes, repeats)
    print_banner("E14", f"fitted-model cache — micro-grep, {source}")
    print(
        ascii_table(
            [
                {"measurement": name, "seconds": row["seconds"],
                 "LdaModel.fit calls": row["fits"]}
                for name, row in rows.items()
            ]
        )
    )
    append_history(
        RESULTS_FILE,
        "datagen_pipeline.model_cache",
        {"prescription": "micro-grep", **sizes},
        {"source": source, "repeats": repeats, "scenarios": rows},
    )
    return rows


def test_model_cache_ledger():
    rows = record_model_cache(sizes=MODEL_CACHE_SMOKE, repeats=1)
    # A process trains a model once, whichever path asks for it again.
    assert {name: row["fits"] for name, row in rows.items()} == {
        "cold_run": 1, "second_run": 0, "sweep": 1, "chunked_run": 1,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Append one fitted-model cache row, one stream-rate row, "
        "one e2e-volume generator-rate row and one lda-text rate row for the "
        "tree under --src."
    )
    parser.add_argument("--src", type=Path, default=Path(SRC_DIR))
    parser.add_argument("--source", default="worktree")
    options = parser.parse_args()
    record_model_cache(str(options.src.resolve()), options.source)
    record_stream_rate(str(options.src.resolve()), options.source)
    record_e2e_rates(str(options.src.resolve()), options.source)
    record_lda_rate(str(options.src.resolve()), options.source)
