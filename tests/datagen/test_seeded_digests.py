"""Pinned digests of seeded generator output.

Captured on the commit before the kv / text / corpus generation loops were
rewritten for speed; they changed how records are *assembled* from the
draws, never which draws are made.  A digest moving means seeded output
changed, which forks every dataset cache key and result series: that
needs a versioned generator, not a new pin.
"""

from __future__ import annotations

import hashlib

import pytest

import repro  # noqa: F401 — fills the registries
from repro.core import registry
from repro.datagen.corpus import load_text_corpus


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
    ],
)
def test_generator_output_is_pinned(name, volume, expected):
    assert _digest(_generated(name, volume)) == expected


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
