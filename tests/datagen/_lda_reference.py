"""Test-only oracle: the numpy/``rng.choice`` LDA loops as they stood before
the scalar rewrite of :mod:`repro.datagen.text`.

The bodies of ``LdaModel.fit`` and ``LdaModel.sample_document`` are kept
verbatim (``self`` is the model under comparison), so the fast paths in
``src/`` can be held to byte-identical ``phi`` and documents.  Nothing in
``src/`` may import this module.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.text import LdaModel, Vocabulary


def reference_fit(self: LdaModel, documents: Sequence[Sequence[str]]) -> LdaModel:
    """Fit the model on tokenized documents via collapsed Gibbs sampling."""
    if not documents:
        raise GenerationError("cannot fit an LDA model on an empty corpus")
    vocabulary = Vocabulary()
    doc_tokens = [
        np.array([vocabulary.add(word) for word in doc], dtype=np.int64)
        for doc in documents
    ]
    vocab_size = len(vocabulary)
    if vocab_size == 0:
        raise GenerationError("corpus contains no tokens")
    rng = np.random.default_rng(self.seed)
    num_topics = self.num_topics

    topic_word = np.zeros((num_topics, vocab_size), dtype=np.float64)
    doc_topic = np.zeros((len(doc_tokens), num_topics), dtype=np.float64)
    topic_totals = np.zeros(num_topics, dtype=np.float64)
    assignments: list[np.ndarray] = []

    for doc_index, tokens in enumerate(doc_tokens):
        topics = rng.integers(num_topics, size=len(tokens))
        assignments.append(topics)
        for word_id, topic in zip(tokens, topics):
            topic_word[topic, word_id] += 1
            doc_topic[doc_index, topic] += 1
            topic_totals[topic] += 1

    for _ in range(self.iterations):
        for doc_index, tokens in enumerate(doc_tokens):
            topics = assignments[doc_index]
            for position, word_id in enumerate(tokens):
                old_topic = topics[position]
                topic_word[old_topic, word_id] -= 1
                doc_topic[doc_index, old_topic] -= 1
                topic_totals[old_topic] -= 1

                weights = (
                    (topic_word[:, word_id] + self.beta)
                    / (topic_totals + self.beta * vocab_size)
                    * (doc_topic[doc_index] + self.alpha)
                )
                weights /= weights.sum()
                new_topic = int(rng.choice(num_topics, p=weights))

                topics[position] = new_topic
                topic_word[new_topic, word_id] += 1
                doc_topic[doc_index, new_topic] += 1
                topic_totals[new_topic] += 1

    phi = topic_word + self.beta
    phi /= phi.sum(axis=1, keepdims=True)
    self.phi = phi
    self.vocabulary = vocabulary
    self.mean_document_length = float(
        np.mean([len(tokens) for tokens in doc_tokens])
    )
    return self


def reference_sample_document(
    self: LdaModel, rng: np.random.Generator, length: int | None = None
) -> list[str]:
    """Sample one synthetic document from the fitted model."""
    if self.phi is None or self.vocabulary is None:
        raise GenerationError("LDA model is not fitted")
    if length is None:
        length = max(1, int(rng.poisson(self.mean_document_length)))
    theta = rng.dirichlet(np.full(self.num_topics, max(self.alpha, 1e-6)))
    topics = rng.choice(self.num_topics, size=length, p=theta)
    words: list[str] = []
    for topic in topics:
        word_id = int(rng.choice(self.phi.shape[1], p=self.phi[topic]))
        words.append(self.vocabulary.word_of(word_id))
    return words
