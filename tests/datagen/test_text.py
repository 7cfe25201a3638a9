"""Tests for LDA-based and baseline text generation."""

from __future__ import annotations

import pytest

from repro.core.errors import GenerationError
from repro.datagen.base import DataType
from repro.datagen.text import (
    LdaModel,
    LdaTextGenerator,
    RandomTextGenerator,
    UnigramTextGenerator,
    Vocabulary,
    tokenize,
    word_distribution,
)

from tests._datasets import as_dataset


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_strips_punctuation(self):
        assert tokenize("a, b. c!") == ["a", "b", "c"]

    def test_keeps_digits_and_apostrophes(self):
        assert tokenize("it's 42") == ["it's", "42"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestVocabulary:
    def test_roundtrip(self):
        vocabulary = Vocabulary(["a", "b"])
        assert vocabulary.word_of(vocabulary.id_of("b")) == "b"

    def test_add_is_idempotent(self):
        vocabulary = Vocabulary()
        first = vocabulary.add("x")
        second = vocabulary.add("x")
        assert first == second
        assert len(vocabulary) == 1

    def test_contains(self):
        vocabulary = Vocabulary(["w"])
        assert "w" in vocabulary
        assert "z" not in vocabulary


class TestLdaModel:
    def test_fit_on_empty_corpus_rejected(self):
        with pytest.raises(GenerationError):
            LdaModel().fit([])

    def test_fit_learns_topic_word_matrix(self, text_corpus):
        documents = [tokenize(doc) for doc in text_corpus.records[:40]]
        model = LdaModel(num_topics=4, iterations=5, seed=1).fit(documents)
        assert model.phi is not None
        assert model.phi.shape[0] == 4
        # Each topic's word distribution sums to one.
        for row in model.phi:
            assert abs(row.sum() - 1.0) < 1e-9

    def test_sample_block_uses_learned_vocabulary(self, fitted_lda):
        import numpy as np

        model = fitted_lda.model
        documents = model.sample_block(np.random.default_rng(0), 20)
        assert len(documents) == 20
        assert all(
            word in model.vocabulary
            for document in documents
            for word in document.split(" ")
        )

    def test_topics_separate_topical_words(self, fitted_lda):
        """Each embedded topic's vocabulary should dominate some topic."""
        from repro.datagen.corpus import TOPIC_VOCABULARIES

        model = fitted_lda.model
        dominated = set()
        for topic in range(model.num_topics):
            order = model.phi[topic].argsort()[::-1][:8]
            top = {model.vocabulary.word_of(int(word)) for word in order}
            for name, vocabulary in TOPIC_VOCABULARIES.items():
                if len(top & set(vocabulary)) >= 4:
                    dominated.add(name)
        assert len(dominated) >= 2  # at least half the topics recovered

    def test_invalid_topic_count_rejected(self):
        with pytest.raises(ValueError):
            LdaModel(num_topics=0)


class TestLdaTextGenerator:
    def test_generates_requested_volume(self, fitted_lda):
        assert fitted_lda.generate(12).num_records == 12

    def test_output_is_text_dataset(self, fitted_lda):
        assert fitted_lda.generate(3).data_type is DataType.TEXT

    def test_synthetic_words_come_from_real_vocabulary(self, fitted_lda, text_corpus):
        real_vocabulary = set()
        for document in text_corpus.records:
            real_vocabulary.update(tokenize(document))
        synthetic = fitted_lda.generate(10)
        for document in synthetic.records:
            assert set(tokenize(document)) <= real_vocabulary

    def test_deterministic(self, text_corpus):
        runs = []
        for _ in range(2):
            generator = LdaTextGenerator(iterations=3, seed=4).fit(text_corpus)
            runs.append(generator.generate(5).records)
        assert runs[0] == runs[1]


class TestUnigramTextGenerator:
    def test_learns_word_frequencies(self, text_corpus):
        generator = UnigramTextGenerator(seed=2).fit(text_corpus)
        synthetic = generator.generate(30)
        real = word_distribution(text_corpus.records)
        fake = word_distribution(synthetic.records)
        # The most common real words should appear in synthetic output.
        top_real = sorted(real, key=real.get, reverse=True)[:5]
        assert sum(1 for word in top_real if word in fake) >= 4

    def test_empty_corpus_rejected(self):
        empty = as_dataset([""], DataType.TEXT)
        with pytest.raises(GenerationError):
            UnigramTextGenerator().fit(empty)

    def test_fixed_document_length(self, text_corpus):
        generator = UnigramTextGenerator(seed=1, document_length=7)
        generator.fit(text_corpus)
        for document in generator.generate(5).records:
            assert len(document.split()) == 7


class TestRandomTextGenerator:
    def test_uses_only_supplied_words(self):
        generator = RandomTextGenerator(words=["aa", "bb"], seed=1)
        for document in generator.generate(5).records:
            assert set(document.split()) <= {"aa", "bb"}

    def test_document_length_respected(self):
        generator = RandomTextGenerator(document_length=13, seed=1)
        assert all(
            len(doc.split()) == 13 for doc in generator.generate(4).records
        )

    def test_empty_word_list_rejected(self):
        with pytest.raises(GenerationError):
            RandomTextGenerator(words=[])

    def test_non_positive_length_rejected(self):
        with pytest.raises(GenerationError):
            RandomTextGenerator(document_length=0)


class TestWordDistribution:
    def test_sums_to_one(self, text_corpus):
        distribution = word_distribution(text_corpus.records)
        assert abs(sum(distribution.values()) - 1.0) < 1e-9

    def test_empty_input(self):
        assert word_distribution([]) == {}

    def test_counts_are_proportional(self):
        distribution = word_distribution(["a a b"])
        assert distribution["a"] == pytest.approx(2 / 3)
