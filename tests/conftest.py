"""Shared fixtures.

Expensive artifacts (corpus loads, LDA fits) are session-scoped so the
suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.datagen.corpus import (
    load_retail_tables,
    load_social_graph,
    load_text_corpus,
)
from repro.datagen.models import PROCESS_MODELS
from repro.datagen.text import LdaTextGenerator

# Every property draws the same examples on every run and host, so a
# tier-1 failure reproduces; none is timed, because a slow host is not
# a failure.  ``max_examples`` stays each test's own.
settings.register_profile(
    "repro", derandomize=True, deadline=None, database=None
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """One ``XDG_CACHE_HOME`` for the session and the processes it
    starts: models fitted on disk serve later tests, and nothing is read
    from or left in the user's cache.  Set after ``import repro``, so
    this process keeps its bytecode where it was."""
    home = str(tmp_path_factory.mktemp("cache-home"))
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", home)
    yield home
    patch.undo()


@pytest.fixture
def empty_cache_home(tmp_path, monkeypatch):
    """An ``XDG_CACHE_HOME`` of the test's own, empty: a model it asks
    for is fitted, never read from an earlier test's file."""
    home = tmp_path / "cache-home"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture(autouse=True)
def cold_model_cache():
    """Every test starts with no fitted model in the process-wide cache;
    what an earlier test fitted it may read from the session's disk
    tier, except in a test that asks for ``empty_cache_home``."""
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
