"""Generation version 2: what forked, and what did not.

``lda-text`` draws its documents a block at a time since generation
version 2 (``repro.datagen.base.GENERATION_VERSION``); version 1 drew
them one document at a time.  ``tests/fixtures/generation_v1.json`` was
captured from the registry's ``lda-text``, fitted on ``text-corpus`` at
seed 0, on the commit before the fork, and is never regenerated.  It
holds version 1's 300-record digest, the ``grep-lda`` entry version 1
gave ``tests/fixtures/accounting_v2.json``, the word counts of 10 000
documents and the histogram of the dominant topic's share of the first
2 000 of them (``veracity.topic_structure_veracity``'s statistic, ten
bins).

Version 2 must sample the same distribution, move only what the records
reach, and give every data path and backend the same records.  Byte
equality of the block sampler with its one-word-at-a-time definition is
``tests/datagen/test_lda_equivalence.py``'s.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.core import registry
from repro.datagen.base import GENERATION_VERSION
from repro.datagen.corpus import load_text_corpus
from repro.datagen.text import _LDA_DOCUMENTS_PER_DRAW, tokenize
from repro.datagen.veracity import jensen_shannon_divergence

FIXTURES = Path(__file__).parent.parent / "fixtures"
V1 = json.loads((FIXTURES / "generation_v1.json").read_text())
ACCOUNTING = json.loads((FIXTURES / "accounting_v2.json").read_text())

#: About twenty times the divergence measured when version 2 went in
#: (4.1e-5 and 5.6e-4 nats).  A unigram corpus, which keeps the word
#: frequencies and loses the topics, reads 6.4e-5 and 0.66: the second
#: bound is the one that says the topics survived.
WORD_FREQUENCY_JS_BOUND = 8e-4
DOMINANT_SHARE_JS_BOUND = 1.1e-2


def _digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def lda_text():
    return registry.generators.create("lda-text").fit(load_text_corpus())


@pytest.fixture(scope="module")
def documents(lda_text):
    return lda_text.generate(V1["word_frequency"]["documents"]).records


def test_lda_text_is_the_one_versioned_generator():
    declared = {
        name: registry.generators.create(name).generation_version
        for name in registry.generators.names()
    }
    assert {name for name, version in declared.items() if version} == {
        "lda-text"
    }
    assert declared["lda-text"] == GENERATION_VERSION == 2


def test_the_seeded_output_forked(lda_text):
    pinned = V1["lda_text_digest"]
    assert _digest(lda_text.generate(pinned["volume"]).records) != (
        pinned["sha256"]
    )


def test_word_frequencies_match_version_1(documents):
    counts = Counter()
    for document in documents:
        counts.update(tokenize(document))
    v1 = V1["word_frequency"]["counts"]
    assert set(counts) <= set(v1)
    assert jensen_shannon_divergence(v1, dict(counts)) < WORD_FREQUENCY_JS_BOUND


def test_dominant_topic_shares_match_version_1(lda_text, documents):
    shape = V1["dominant_share"]
    shares = [
        float(lda_text.model.infer_document_mixture(tokenize(document)).max())
        for document in documents[: shape["documents"]]
    ]
    bins = np.linspace(0.0, 1.0, shape["bins"] + 1)
    histogram, _ = np.histogram(shares, bins=bins)
    assert jensen_shannon_divergence(shape["counts"], histogram) < (
        DOMINANT_SHARE_JS_BOUND
    )


# ---------------------------------------------------------------------------
# Version 1 -> version 2: only what the records reach moved
# ---------------------------------------------------------------------------


def _leaves(observed, path=()):
    if isinstance(observed, dict):
        for key, value in observed.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(observed, list):
        for index, value in enumerate(observed):
            yield from _leaves(value, (*path, index))
    else:
        yield path, observed


#: Leaves of a capture that the request fixes, whatever the records are
#: (``*`` matches one step): names, the volume, the cluster's spec, the
#: outcome.  The map phase reads one record per document generated.
REQUEST_FIXED = [
    ("generation", "generator"),
    ("generation", "records"),
    ("failures",),
    ("results", "*", "*"),
    ("engines", "*", "*", "call"),
    ("engines", "*", "*", "job"),
    ("engines", "*", "*", "workload"),
    ("engines", "*", "*", "records_in"),
    ("engines", "*", "*", "cost", "records_read"),
    ("engines", "*", "*", "engine_counters", "records_read"),
    ("engines", "*", "*", "cluster", "spec", "*"),
    ("engines", "*", "*", "cluster", "phases", "*", "name"),
    ("engines", "*", "*", "counters", "*", 0),
    ("engines", "*", "*", "counters", "*", 1, "*", 0),
    ("engines", "mapreduce", 0, "counters", 0, 1, 0, 1),
]


def _matches(pattern, path) -> bool:
    return len(pattern) == len(path) and all(
        want in ("*", step) for want, step in zip(pattern, path)
    )


def _fixed(path) -> bool:
    return any(_matches(pattern, path) for pattern in REQUEST_FIXED)


def test_only_leaves_the_records_reach_moved():
    v1 = dict(_leaves(V1["accounting"]["grep-lda"]))
    v2 = dict(_leaves(ACCOUNTING["grep-lda"]))
    assert v1.keys() == v2.keys()
    moved = {path for path in v1 if v1[path] != v2[path]}
    # Every pattern names leaves the capture has.
    for pattern in REQUEST_FIXED:
        assert any(_matches(pattern, path) for path in v1), pattern
    assert [path for path in moved if _fixed(path)] == []
    # Not vacuous: the data and the job's output are new.
    assert {
        ("generation", "bytes"),
        ("engines", "mapreduce", 0, "output"),
        ("engines", "mapreduce", 1, "records_out"),
    } <= moved


# ---------------------------------------------------------------------------
# Every data path and backend draws the same records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("volume", [0, 1, _LDA_DOCUMENTS_PER_DRAW + 44])
def test_every_data_path_draws_the_materialized_records(fitted_lda, volume):
    materialized = fitted_lda.generate(volume).records
    for chunk_size in (1, 37, 256, 257):
        assert [
            record
            for batch in fitted_lda.iter_batches(volume, chunk_size)
            for record in batch
        ] == materialized
    parallel = fitted_lda.generate_parallel(volume, 2).records
    assert [
        record
        for batch in fitted_lda.iter_batches(volume, 37, num_partitions=2)
        for record in batch
    ] == parallel
    # Each partition drawn in another thread, and in a fresh interpreter.
    spawn = multiprocessing.get_context("spawn")
    for pool in (ThreadPoolExecutor(2), ProcessPoolExecutor(2, mp_context=spawn)):
        with pool:
            partitions = pool.map(
                fitted_lda.generate_partition, [volume] * 2, [0, 1], [2] * 2
            )
            assert [record for part in partitions for record in part] == parallel


def _deterministic(report):
    """What a run reports that is a function of its records: the
    generated volume and size, and every metric the simulated cluster
    models (all but the measured ``duration``)."""
    generation = next(
        step.detail for step in report.steps if step.step == "data-generation"
    )
    (result,) = report.results
    return generation["records"], generation.get("bytes"), {
        name: stats.samples
        for name, stats in result.metrics.items()
        if name != "duration"
    }


def test_every_backend_reports_the_same_records():
    """Runs of ``micro-grep`` on the default backend (``REPRO_EXECUTOR``)
    and on each pooled one against the serial run of the same spec:
    materialized and chunked on both sides of a block boundary, in one
    partition and in two.  One test, so the model is fitted once."""
    for partitions in (1, 2):
        for chunk_size in (None, 37, 257):
            spec = {
                "volume": _LDA_DOCUMENTS_PER_DRAW + 44,
                "data_partitions": partitions,
                "chunk_size": chunk_size,
                "max_workers": 2,
            }
            expected = _deterministic(
                api.run("micro-grep", executor="serial", **spec)
            )
            assert expected[0] == spec["volume"]
            for pool in ({}, {"executor": "thread"}, {"executor": "process"}):
                assert _deterministic(
                    api.run("micro-grep", **pool, **spec)
                ) == expected, (partitions, chunk_size, pool)
