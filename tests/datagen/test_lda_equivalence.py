"""The LDA paths in ``src/`` against their oracles.

Seeded output is a contract (caches, series keys and golden digests hang
off it), so ``fit`` is held to *byte* equality with the numpy/
``rng.choice`` loop it replaced, and the version-2 block sampler to byte
equality with its one-word-at-a-time definition, draws consumed
included, not to a statistical tolerance.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.text import (
    _LDA_DOCUMENTS_PER_DRAW,
    LdaModel,
    _ndarray_sum,
    tokenize,
)

from _lda_reference import reference_fit, reference_sample_block

#: Tests about fitting start from no model on disk either.
pytestmark = pytest.mark.usefixtures("empty_cache_home")

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
        # Blocks of one, an odd count, and one past the generator's block.
        fast_rng = np.random.default_rng(seed + 1)
        reference_rng = np.random.default_rng(seed + 1)
        for count in (1, 37, 257):
            assert fast.sample_block(fast_rng, count) == (
                reference_sample_block(reference, reference_rng, count)
            )
        # Same number of draws consumed, not just the same words.
        assert fast_rng.random() == reference_rng.random()

    def test_default_hyperparameters_over_many_sweeps(self, documents):
        fast, reference = _fit_pair(documents, iterations=12, seed=3)
        assert fast.phi.tobytes() == reference.phi.tobytes()

    def test_generator_paths_agree_with_the_reference(self, fitted_lda):
        """generate == chunked iter_batches, generate_parallel == the
        partitioned stream, and both are what the reference draws, a
        block of at most ``_LDA_DOCUMENTS_PER_DRAW`` at a time."""
        volume = _LDA_DOCUMENTS_PER_DRAW + 13
        materialized = fitted_lda.generate(volume).records
        chunked = [
            record
            for batch in fitted_lda.iter_batches(volume, 5)
            for record in batch
        ]
        assert chunked == materialized
        rng = fitted_lda.rng_for_partition(0, 1)
        assert materialized == reference_sample_block(
            fitted_lda.model, rng, _LDA_DOCUMENTS_PER_DRAW
        ) + reference_sample_block(fitted_lda.model, rng, 13)

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
            expected += reference_sample_block(
                fitted_lda.model, rng,
                fitted_lda.partition_volume(volume, partition, 2),
            )
        assert parallel == expected


#: Document-topic priors from "every document draws one topic" to "every
#: document draws them all" (K = 4, lengths up to 120).
ALPHAS = [1e-3, 0.1, 1.0, 50.0]


@pytest.fixture(scope="module")
def models_by_alpha(documents):
    return {
        alpha: _fit_pair(documents, num_topics=4, alpha=alpha, iterations=2, seed=7)
        for alpha in ALPHAS
    }


def _topics_drawn(model, rng, count):
    """The largest number of distinct topics one document of the next
    block from ``rng`` draws (the reference's own draws, on a copy of
    the generator)."""
    probe = copy.deepcopy(rng)
    lengths = np.maximum(probe.poisson(model.mean_document_length, count), 1)
    thetas = probe.dirichlet(np.full(model.num_topics, max(model.alpha, 1e-6)), count)
    uniforms = probe.random(int(lengths.sum()))
    cdfs = thetas.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    drawn = 0
    for length, cdf in zip(lengths.tolist(), cdfs):
        topics = set(cdf.searchsorted(uniforms[:length], side="right").tolist())
        drawn = max(drawn, len(topics))
        uniforms = uniforms[length:]
    return drawn


class _RiggedTheta(np.random.Generator):
    """A generator whose Dirichlet draw is replaced by a fixed theta."""

    def __init__(self, seed, theta):
        super().__init__(np.random.PCG64(seed))
        self.theta = np.array(theta, dtype=np.float64)

    def dirichlet(self, alpha, size=None):
        super().dirichlet(alpha, size)  # consumed as the real draw is
        return np.tile(self.theta, (size, 1))


class _RiggedTies(_RiggedTheta):
    """A rigged-theta generator whose uniform arrays repeat ``ties``:
    values equal to CDF entries, where ``<=`` and ``<`` part ways."""

    def __init__(self, seed, theta, ties):
        super().__init__(seed, theta)
        self.ties = np.array(ties, dtype=np.float64)

    def random(self, size=None, *args, **kwargs):
        if size is None:
            return super().random()
        return np.resize(self.ties, size)


class TestOneSearchPerDrawnTopic:
    """``sample_block`` counts each word's topic against its document's
    theta CDF and searches each topic's word CDF once, for the topics the
    block drew; every case is held to the one-word-at-a-time reference,
    draws consumed included."""

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**63),
        alpha=st.sampled_from(ALPHAS),
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    )
    def test_documents_and_draws_equal_the_oracle(
        self, models_by_alpha, seed, alpha, counts
    ):
        fast, reference = models_by_alpha[alpha]
        fast_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        for count in counts:
            assert fast.sample_block(fast_rng, count) == (
                reference_sample_block(reference, reference_rng, count)
            )
        assert fast_rng.random() == reference_rng.random()

    @pytest.mark.parametrize("mean_length", [0, 1])
    def test_the_shortest_documents(self, models_by_alpha, mean_length):
        # A Poisson length of 0 becomes 1: no document is empty.
        fast, reference = (
            copy.copy(model) for model in models_by_alpha[0.1]
        )
        fast.mean_document_length = reference.mean_document_length = mean_length
        fast_rng = np.random.default_rng(mean_length)
        reference_rng = np.random.default_rng(mean_length)
        for _ in range(5):
            documents = fast.sample_block(fast_rng, 30)
            assert min(len(document.split()) for document in documents) == 1
            assert documents == reference_sample_block(
                reference, reference_rng, 30
            )
        assert fast_rng.random() == reference_rng.random()

    def test_one_two_and_all_topics_drawn(self, models_by_alpha):
        drawn_counts = set()
        for alpha, (fast, reference) in models_by_alpha.items():
            fast_rng = np.random.default_rng(11)
            reference_rng = np.random.default_rng(11)
            for _ in range(20):
                drawn_counts.add(_topics_drawn(reference, reference_rng, 5))
                assert fast.sample_block(fast_rng, 5) == (
                    reference_sample_block(reference, reference_rng, 5)
                )
            assert fast_rng.random() == reference_rng.random(), alpha
        assert {1, 2, 4} <= drawn_counts

    @pytest.mark.parametrize(
        ("theta", "refusal"),
        [
            ([0.5, float("nan"), 0.25, 0.25], "NaN"),
            ([0.75, -0.25, 0.25, 0.25], "non-negative"),
            ([0.5, 0.25, 0.25, 0.25], "sum to 1"),
            ([0.25 + 3e-8, 0.25, 0.25, 0.25], "sum to 1"),
        ],
    )
    def test_a_theta_choice_refuses_is_refused_as_choice_does(
        self, models_by_alpha, theta, refusal
    ):
        fast, reference = models_by_alpha[0.1]
        fast_rng = _RiggedTheta(3, theta)
        reference_rng = _RiggedTheta(3, theta)
        with pytest.raises(ValueError, match=refusal) as fast_error:
            fast.sample_block(fast_rng, 10)
        with pytest.raises(ValueError) as reference_error:
            reference_sample_block(reference, reference_rng, 10)
        assert str(fast_error.value) == str(reference_error.value)
        assert fast_rng.random() == reference_rng.random()

    def test_a_uniform_equal_to_a_cdf_entry_counts_that_entry(
        self, models_by_alpha
    ):
        # choice returns how many CDF entries are <= u: a tie goes right,
        # for the topic (theta's CDF is 0.25, 0.5, 0.75, 1) and the word.
        fast, reference = models_by_alpha[0.1]
        ties = [0.0, 0.25, 0.5, 0.75, *fast._word_cdfs[:, :-1].ravel()]
        theta = [0.25, 0.25, 0.25, 0.25]
        fast_rng = _RiggedTies(5, theta, ties)
        reference_rng = _RiggedTies(5, theta, ties)
        for _ in range(3):
            assert fast.sample_block(fast_rng, 40) == (
                reference_sample_block(reference, reference_rng, 40)
            )
        assert fast_rng.random() == reference_rng.random()

    @pytest.mark.parametrize("excess", [2e-9, 1e-8])
    def test_a_theta_within_choices_tolerance_only_is_sampled_by_choice(
        self, models_by_alpha, excess
    ):
        # Off 1 by more than the inline check's own margin (1e-9) but
        # within choice's 1.5e-8: choice accepts it, and it is sampled
        # like any other theta.
        theta = [0.25 + excess, 0.25, 0.25, 0.25]
        fast, reference = models_by_alpha[0.1]
        fast_rng = _RiggedTheta(4, theta)
        reference_rng = _RiggedTheta(4, theta)
        for _ in range(5):
            assert fast.sample_block(fast_rng, 40) == (
                reference_sample_block(reference, reference_rng, 40)
            )
        assert fast_rng.random() == reference_rng.random()


class TestSummationOrder:
    @settings(max_examples=200)
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

    def test_an_emptied_topic_raises_only_when_drawn(self):
        # Sixteen topics, two of them ever assigned: most blocks at
        # alpha=0.05 draw an emptied topic, some only live ones.
        options = dict(num_topics=16, alpha=0.05, beta=0.0, iterations=0)
        fast = LdaModel(**options).fit(self.CORPUS)
        reference = reference_fit(LdaModel(**options), self.CORPUS)
        outcomes = set()
        for seed in range(60):
            fast_rng = np.random.default_rng(seed)
            reference_rng = np.random.default_rng(seed)
            try:
                expected = reference_sample_block(reference, reference_rng, 2)
            except ValueError:
                with pytest.raises(ValueError, match="do not normalise"):
                    fast.sample_block(fast_rng, 2)
                outcomes.add("raised")
            else:
                assert fast.sample_block(fast_rng, 2) == expected
                outcomes.add("sampled")
            assert fast_rng.random() == reference_rng.random()
        assert outcomes == {"raised", "sampled"}

    def test_emptied_topic_refuses_to_sample(self):
        # No sweeps and beta=0: topics nobody was assigned to keep a 0/0
        # row in phi, which choice(p=phi[topic]) rejected when drawn.
        options = dict(num_topics=16, alpha=0.5, beta=0.0, iterations=0)
        fast = LdaModel(**options).fit(self.CORPUS)
        reference = reference_fit(LdaModel(**options), self.CORPUS)
        assert np.isnan(reference.phi).any()
        # alpha=0.5 over 16 topics: ten documents land on an empty topic.
        with pytest.raises(ValueError):
            reference_sample_block(reference, np.random.default_rng(0), 10)
        with pytest.raises(ValueError):
            fast.sample_block(np.random.default_rng(0), 10)

    @pytest.mark.parametrize("priors", [dict(alpha=-0.1), dict(beta=-0.01)])
    def test_negative_priors_rejected(self, priors):
        with pytest.raises(ValueError):
            LdaModel(**priors)
