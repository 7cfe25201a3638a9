"""The scalar LDA paths in ``src/`` against the numpy/``rng.choice`` oracle.

Seeded output is a contract (caches, series keys and golden digests hang
off it), so the rewrite is held to *byte* equality with the loops it
replaced, not to a statistical tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.text import LdaModel, _ndarray_sum, tokenize

from _lda_reference import reference_fit, reference_sample_document

#: Around every branch of numpy's summation: 1, sequential (<8), the
#: 8-lane block with and without a tail, and the >128 recursive split.
TOPIC_COUNTS = [1, 2, 4, 7, 8, 9, 16, 33, 130]


@pytest.fixture(scope="module")
def documents(text_corpus):
    return [tokenize(document) for document in text_corpus.records[:30]]


def _fit_pair(documents, **options):
    fast = LdaModel(**options).fit(documents)
    reference = reference_fit(LdaModel(**options), documents)
    return fast, reference


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("num_topics", TOPIC_COUNTS)
    def test_fit_and_sampling_are_byte_identical(self, documents, num_topics, seed):
        fast, reference = _fit_pair(
            documents, num_topics=num_topics, iterations=2, seed=seed
        )
        assert fast.phi.tobytes() == reference.phi.tobytes()
        assert fast.phi.flags.c_contiguous
        assert fast.mean_document_length == reference.mean_document_length
        assert fast.vocabulary.words == reference.vocabulary.words
        for length in (None, 25):
            fast_rng = np.random.default_rng(seed + 1)
            reference_rng = np.random.default_rng(seed + 1)
            for _ in range(50):
                assert fast.sample_document(fast_rng, length) == (
                    reference_sample_document(reference, reference_rng, length)
                )
            # Same number of draws consumed, not just the same words.
            assert fast_rng.random() == reference_rng.random()

    def test_default_hyperparameters_over_many_sweeps(self, documents):
        fast, reference = _fit_pair(documents, iterations=12, seed=3)
        assert fast.phi.tobytes() == reference.phi.tobytes()

    def test_generator_paths_agree_with_the_reference(self, fitted_lda):
        """generate == chunked iter_batches, generate_parallel == the
        partitioned stream, and both are what the old sampler drew."""
        volume = 12
        materialized = fitted_lda.generate(volume).records
        chunked = [
            record
            for batch in fitted_lda.iter_batches(volume, 5)
            for record in batch
        ]
        assert chunked == materialized
        rng = fitted_lda.rng_for_partition(0, 1)
        assert materialized == [
            " ".join(reference_sample_document(fitted_lda.model, rng))
            for _ in range(volume)
        ]

        parallel = fitted_lda.generate_parallel(volume, 2).records
        partitioned = [
            record
            for batch in fitted_lda.iter_batches(volume, 5, num_partitions=2)
            for record in batch
        ]
        assert partitioned == parallel
        expected = []
        for partition in range(2):
            rng = fitted_lda.rng_for_partition(partition, 2)
            expected += [
                " ".join(reference_sample_document(fitted_lda.model, rng))
                for _ in range(fitted_lda.partition_volume(volume, partition, 2))
            ]
        assert parallel == expected


class TestSummationOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_matches_ndarray_sum(self, values):
        assert _ndarray_sum(values) == float(np.add.reduce(np.array(values)))

    @pytest.mark.parametrize("count", [7, 8, 9, 127, 128, 129, 136, 257, 300])
    def test_matches_at_block_boundaries(self, count):
        values = np.random.default_rng(count).random(count) * 1e3
        assert _ndarray_sum(values.tolist()) == float(np.add.reduce(values))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestDegenerateModels:
    """``rng.choice`` refused weights that do not normalise; the scalar
    sweep must not pick a topic silently instead."""

    # "solo" occurs once: with its only token taken out of the counts and
    # beta=0 it has no mass under any topic.
    CORPUS = [["solo", "pair", "pair"], ["pair", "pair", "pair"]]

    @pytest.mark.parametrize("num_topics", [1, 4])
    def test_unseen_word_without_smoothing_raises(self, num_topics):
        options = dict(num_topics=num_topics, alpha=0.0, beta=0.0, iterations=2)
        with pytest.raises(ValueError):
            reference_fit(LdaModel(**options), self.CORPUS)
        with pytest.raises(ValueError):
            LdaModel(**options).fit(self.CORPUS)

    def test_emptied_topic_refuses_to_sample(self):
        # No sweeps and beta=0: topics nobody was assigned to keep a 0/0
        # row in phi, which choice(p=phi[topic]) rejected when drawn.
        options = dict(num_topics=16, alpha=0.5, beta=0.0, iterations=0)
        fast = LdaModel(**options).fit(self.CORPUS)
        reference = reference_fit(LdaModel(**options), self.CORPUS)
        assert np.isnan(reference.phi).any()
        # alpha=0.5 over 16 topics: 30 words land on an empty topic.
        with pytest.raises(ValueError):
            reference_sample_document(
                reference, np.random.default_rng(0), length=30
            )
        with pytest.raises(ValueError):
            fast.sample_document(np.random.default_rng(0), length=30)

    @pytest.mark.parametrize("priors", [dict(alpha=-0.1), dict(beta=-0.01)])
    def test_negative_priors_rejected(self, priors):
        with pytest.raises(ValueError):
            LdaModel(**priors)
