"""Shared fixtures.

Expensive artifacts (corpus loads, LDA fits) are session-scoped so the
suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro.datagen.corpus import (
    load_retail_tables,
    load_social_graph,
    load_text_corpus,
)
from repro.datagen.models import PROCESS_MODELS
from repro.datagen.text import LdaTextGenerator


@pytest.fixture(autouse=True)
def cold_model_cache():
    """Every test starts with no fitted model in the process-wide cache,
    so none can pass (or fail) on a fit an earlier test paid for."""
    PROCESS_MODELS.clear()


@pytest.fixture(scope="session")
def text_corpus():
    """A small embedded text corpus (120 docs, 40 words each)."""
    return load_text_corpus(num_documents=120, words_per_document=40)


@pytest.fixture(scope="session")
def social_graph():
    """The embedded social graph at reduced size."""
    return load_social_graph(num_vertices=200, edges_per_vertex=3)


@pytest.fixture(scope="session")
def retail_tables():
    """The embedded retail tables at reduced size."""
    return load_retail_tables(num_customers=80, num_products=40, num_orders=300)


@pytest.fixture(scope="session")
def fitted_lda(text_corpus):
    """An LDA text generator fitted once for the whole session."""
    generator = LdaTextGenerator(num_topics=4, iterations=10, seed=7)
    generator.fit(text_corpus)
    return generator
