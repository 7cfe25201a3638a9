"""Test-only oracles for :mod:`repro.datagen.text`.

``reference_fit`` is the numpy/``rng.choice`` Gibbs loop as it stood
before the scalar rewrite, kept verbatim (``self`` is the model under
comparison), so ``LdaModel.fit`` can be held to a byte-identical
``phi``.  ``reference_sample_block`` is generation version 2's sampler
written one document and one word at a time: it makes the same four
block draws as ``LdaModel.sample_block`` and inverts each uniform on its
own, so the vectorised arithmetic can be held to byte-identical
documents.  Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.text import _DEGENERATE_WEIGHTS, LdaModel, Vocabulary


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


def reference_sample_block(
    self: LdaModel, rng: np.random.Generator, count: int
) -> list[str]:
    """``count`` documents of generation version 2, one word at a time."""
    if self.phi is None or self.vocabulary is None:
        raise GenerationError("LDA model is not fitted")
    lengths = [
        max(1, length)
        for length in rng.poisson(self.mean_document_length, count).tolist()
    ]
    thetas = rng.dirichlet(np.full(self.num_topics, max(self.alpha, 1e-6)), count)
    topic_uniforms = iter(rng.random(sum(lengths)).tolist())
    word_uniforms = iter(rng.random(sum(lengths)).tolist())
    for theta in thetas:
        # choice's own validation; its draw comes from a generator of its own.
        np.random.default_rng(0).choice(self.num_topics, p=theta)
    word_cdfs = {}
    documents = []
    for length, theta in zip(lengths, thetas):
        topic_cdf = theta.cumsum()
        topic_cdf /= topic_cdf[-1]
        words = []
        for _ in range(length):
            topic = bisect_right(topic_cdf.tolist(), next(topic_uniforms))
            if np.isnan(self.phi[topic]).any():
                raise ValueError(_DEGENERATE_WEIGHTS)
            if topic not in word_cdfs:
                word_cdf = self.phi[topic].cumsum()
                word_cdf /= word_cdf[-1]
                word_cdfs[topic] = word_cdf.tolist()
            word_id = bisect_right(word_cdfs[topic], next(word_uniforms))
            words.append(self.vocabulary.word_of(word_id))
        documents.append(" ".join(words))
    return documents
