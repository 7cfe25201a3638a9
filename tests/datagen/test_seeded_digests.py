"""Pinned digests of seeded generator output.

Captured on the commit before the kv / text / corpus generation loops were
rewritten for speed, and (``poisson-stream``) before stream events were
slotted and built by column; they changed how records are *assembled*
from the draws, never which draws are made.  A digest moving means
seeded output changed, which forks every dataset cache key and result
series: that needs a versioned generator, not a new pin.  ``lda-text``
is such a generator: its pin is generation version 2's
(``repro.datagen.base.GENERATION_VERSION``), and version 1's lives in
``tests/fixtures/generation_v1.json``
(``tests/datagen/test_generation_version.py``).
"""

from __future__ import annotations

import hashlib

import pytest

import repro  # noqa: F401 — fills the registries
from repro.core import registry
from repro.datagen.corpus import load_text_corpus
from repro.datagen.formats import convert
from repro.datagen.models import content_digest
from repro.datagen.stream import EventKind, StreamEvent


def _digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _generated(name: str, volume: int) -> list:
    generator = registry.generators.create(name)
    if generator.veracity_aware:
        generator.fit(load_text_corpus())
    return generator.generate(volume).records


@pytest.mark.parametrize(
    ("name", "volume", "expected"),
    [
        ("kv-records", 200,
         "2dd799c0ef0f050bc9e3d7fa8bcc6623c6aa6acc4e84d947da44d4f88f387f90"),
        ("random-text", 500,
         "a156cbbdd871711bb1c6ef7674a40e6e50a1cbefe8360728f4d403c5ac8081c6"),
        ("unigram-text", 300,
         "2e8086d047eec6248bf1a52031acc465a03acc1b570c11ba3ab46f81cd3af436"),
        ("poisson-stream", 2000,
         "6d5904cf7e6dbecd374cd739e250a301044839efd9396aaa57dfa4c594006403"),
        ("lda-text", 300,
         "842160ad03648100eb0b648638eff837ec8b3bcf59f742a4ba9e0785c1d8a8a8"),
    ],
)
def test_generator_output_is_pinned(name, volume, expected):
    assert _digest(_generated(name, volume)) == expected


def test_stream_events_keep_their_json_form_and_content_address():
    """A slotted event has no ``__dict__``; both read it by its fields."""
    lines = convert(
        registry.generators.create("poisson-stream").generate(50), "jsonl"
    ).payload
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "0c8f1cae14049080457569bce8996d485f5b16fb45720d5698259b67e62fbb20"
    )
    assert content_digest(StreamEvent(0.5, 7, 1.25, EventKind.UPDATE)) == (
        "e1c21d39201857ae633a8b048f04691f385a2114a8d2373e24db676145a3adca"
    )


@pytest.mark.parametrize(
    ("shape", "expected"),
    [
        ({},
         "1dded736528f6b4eff99a4f086ac7663ad32265157ad1c2a10482933044b44ab"),
        ({"num_documents": 80, "words_per_document": 40},
         "4170e09e397738d195a3d5c2e959268357c96444d605bd499d0b98555234c21c"),
    ],
)
def test_text_corpus_is_pinned(shape, expected):
    assert _digest(load_text_corpus(**shape).records) == expected
