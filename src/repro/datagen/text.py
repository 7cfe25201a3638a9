"""Veracity-preserving text generation via Latent Dirichlet Allocation.

Section 3.2 of the paper describes the reference design this module
implements: a text generator that (1) learns a word dictionary from a real
text data set, (2) trains the parameters of an LDA model [Blei et al. 2003]
on that data set, and (3) generates synthetic text from the trained model.

The LDA trainer is a from-scratch collapsed Gibbs sampler.  Its seeded
output is pinned to the first implementation, which drew every topic with
``rng.choice(K, p=weights)``: ``choice`` consumes exactly one
``rng.random()`` and inverts ``cumsum(p) / cumsum(p)[-1]`` with
``searchsorted(side="right")``, so the same uniforms are drawn here a
document at a time and inverted inline on plain Python floats,
normalised by a sum taken in ``ndarray.sum``'s order
(:func:`_ndarray_sum`), with ``phi`` normalised on a C-contiguous array
(the transposed view sums in another order and lands 1 ulp away).  The
original loop is the test oracle (``tests/datagen/_lda_reference.py``),
so fitted models and their cache keys are byte-identical.

Sampling is generation version 2
(:data:`repro.datagen.base.GENERATION_VERSION`): documents are drawn a
block at a time (:meth:`LdaModel.sample_block`) with the same
inversions, so its seeded output differs from version 1's one document
at a time, and every series that generates ``lda-text`` carries the
version in its key.

Two baseline generators are provided for veracity ablations:

* :class:`UnigramTextGenerator` — learns only the marginal word frequency
  (no topic structure), and
* :class:`RandomTextGenerator` — purely synthetic, HiBench-style uniform
  random words, independent of any real data ("un-considered" veracity in
  Table 1 of the paper).
"""

from __future__ import annotations

import copy
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.base import (
    GENERATION_VERSION,
    DataGenerator,
    DataSet,
    DataType,
    PurelySyntheticMixin,
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9']+")


def tokenize(document: str) -> list[str]:
    """Lower-case alphanumeric tokenization used throughout the framework."""
    return _TOKEN_PATTERN.findall(document.lower())


class Vocabulary:
    """A bidirectional word ↔ integer-id mapping learned from a corpus."""

    def __init__(self, words: Iterable[str] = ()) -> None:
        self._word_to_id: dict[str, int] = {}
        self._words: list[str] = []
        for word in words:
            self.add(word)

    def add(self, word: str) -> int:
        if word not in self._word_to_id:
            self._word_to_id[word] = len(self._words)
            self._words.append(word)
        return self._word_to_id[word]

    def id_of(self, word: str) -> int:
        return self._word_to_id[word]

    def word_of(self, word_id: int) -> str:
        return self._words[word_id]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __len__(self) -> int:
        return len(self._words)

    @property
    def words(self) -> list[str]:
        return list(self._words)


#: Documents :meth:`LdaModel.sample_block` samples at once (generation
#: version 2): part of the seeded output, like a draw's order.
_LDA_DOCUMENTS_PER_DRAW = 256

_DEGENERATE_WEIGHTS = (
    "LDA topic weights do not normalise: a word or topic has zero mass "
    "(alpha and beta must leave every topic reachable)"
)


def _ndarray_sum(values: Sequence[float]) -> float:
    """Sum floats in the order ``ndarray.sum`` adds a contiguous float64 vector.

    numpy adds fewer than 8 elements left to right, up to 128 in eight
    interleaved lanes combined as a balanced tree, and splits anything
    longer in two at a multiple of 8.  Matching the order (not just the
    value to a tolerance) is what keeps the scalar Gibbs sweep
    byte-identical to the ``weights /= weights.sum()`` it replaced.
    """
    count = len(values)
    if count < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if count <= 128:
        full = count - count % 8
        lanes = []
        for lane in range(8):
            partial = values[lane]
            for value in values[lane + 8:full:8]:
                partial += value
            lanes.append(partial)
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for value in values[full:]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return _ndarray_sum(values[:half]) + _ndarray_sum(values[half:])


def _refuse_like_choice(thetas: np.ndarray) -> None:
    """Raise the ``ValueError`` ``rng.choice(K, p=theta)`` raises for any
    row it refuses: NaN, a negative entry or a sum off 1.

    Rows that certainly pass (none negative, sum within 1e-9 of 1,
    against ``choice``'s 1.5e-8) are not handed to ``choice`` at all;
    the others are, on a generator of their own, so checking draws
    nothing from the block's stream.  A row ``choice`` accepts is
    sampled as any other.
    """
    doubtful = ~(
        (thetas.min(axis=1) >= 0.0) & (np.abs(thetas.sum(axis=1) - 1.0) <= 1e-9)
    )
    for theta in thetas[doubtful]:
        np.random.default_rng(0).choice(len(theta), p=theta)


def _choose(weights: list[float], uniform: float) -> int:
    """``int(rng.choice(len(weights), p=weights / weights.sum()))``, given the
    one uniform that call would have drawn from ``rng``.

    ``choice`` builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` and returns
    ``cdf.searchsorted(uniform, side="right")``, i.e. how many entries
    are ``<= uniform``; this is the same arithmetic on Python floats.
    Like ``choice`` it refuses weights that do not normalise.  Fixed
    weights build their CDF once with :func:`repro._util.choice_cdf`;
    these change with every call, so the CDF is built here, per draw.
    """
    total = _ndarray_sum(weights)
    if not total > 0.0:  # zero, negative or NaN
        raise ValueError(_DEGENERATE_WEIGHTS)
    running = 0.0
    cumulative = []
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    index = 0
    for value in cumulative:
        if value / running > uniform:
            break
        index += 1
    return index


class LdaModel:
    """Latent Dirichlet Allocation fitted with collapsed Gibbs sampling.

    Exposes the fitted topic-word matrix ``phi`` (topics × vocabulary) and
    the document-topic prior ``alpha``; both are what the generator needs
    to sample new documents.
    """

    def __init__(
        self,
        num_topics: int = 4,
        alpha: float = 0.1,
        beta: float = 0.01,
        iterations: int = 60,
        seed: int = 0,
    ) -> None:
        if num_topics <= 0:
            raise ValueError(f"num_topics must be positive, got {num_topics}")
        if alpha < 0 or beta < 0:
            # Negative priors make negative sampling weights, which the
            # Gibbs sweep does not re-check per token.
            raise ValueError(
                f"alpha and beta must be non-negative, got {alpha}, {beta}"
            )
        self.num_topics = num_topics
        self.alpha = alpha
        self.beta = beta
        self.iterations = iterations
        self.seed = seed
        self.vocabulary: Vocabulary | None = None
        self.phi: np.ndarray | None = None  # topics x vocab
        self._word_cdfs: np.ndarray | None = None  # row-wise CDFs of phi
        self.mean_document_length: float = 0.0

    @property
    def is_fitted(self) -> bool:
        return self.phi is not None

    def fit(self, documents: Sequence[Sequence[str]]) -> "LdaModel":
        """Fit the model on tokenized documents via collapsed Gibbs sampling."""
        if not documents:
            raise GenerationError("cannot fit an LDA model on an empty corpus")
        vocabulary = Vocabulary()
        doc_tokens = [[vocabulary.add(word) for word in doc] for doc in documents]
        vocab_size = len(vocabulary)
        if vocab_size == 0:
            raise GenerationError("corpus contains no tokens")
        rng = np.random.default_rng(self.seed)
        num_topics = self.num_topics
        alpha = self.alpha
        beta = self.beta
        beta_mass = beta * vocab_size

        # Counts live in plain float lists (word-major, so one word's K
        # counts are one list): the sweep below is scalar arithmetic, and
        # numpy's per-call overhead on K-element arrays was ~all its cost.
        word_topic = [[0.0] * num_topics for _ in range(vocab_size)]
        doc_topic = [[0.0] * num_topics for _ in doc_tokens]
        topic_totals = [0.0] * num_topics
        assignments: list[list[int]] = []

        for tokens, doc_counts in zip(doc_tokens, doc_topic):
            topics = rng.integers(num_topics, size=len(tokens)).tolist()
            assignments.append(topics)
            for word_id, topic in zip(tokens, topics):
                word_topic[word_id][topic] += 1
                doc_counts[topic] += 1
                topic_totals[topic] += 1

        try:
            for _ in range(self.iterations):
                for tokens, topics, doc_counts in zip(
                    doc_tokens, assignments, doc_topic
                ):
                    # One uniform per token, in token order: the stream
                    # ``rng.choice`` would consume one call at a time.
                    uniforms = rng.random(len(tokens)).tolist()
                    for position, word_id in enumerate(tokens):
                        word_counts = word_topic[word_id]
                        old_topic = topics[position]
                        word_counts[old_topic] -= 1
                        doc_counts[old_topic] -= 1
                        topic_totals[old_topic] -= 1

                        weights = [
                            (in_word + beta) / (in_topic + beta_mass)
                            * (in_doc + alpha)
                            for in_word, in_topic, in_doc in zip(
                                word_counts, topic_totals, doc_counts
                            )
                        ]
                        new_topic = _choose(weights, uniforms[position])

                        topics[position] = new_topic
                        word_counts[new_topic] += 1
                        doc_counts[new_topic] += 1
                        topic_totals[new_topic] += 1
        except ZeroDivisionError:
            # An empty topic under beta=0: numpy made this 0/0 = NaN and
            # ``rng.choice`` refused it.
            raise ValueError(_DEGENERATE_WEIGHTS) from None

        # C-contiguous K x V before normalising: the transposed view would
        # sum each row in a different order and land 1 ulp away.
        phi = np.ascontiguousarray(np.array(word_topic, dtype=np.float64).T)
        phi += beta
        phi /= phi.sum(axis=1, keepdims=True)
        return self.bind(
            vocabulary, phi, float(np.mean([len(tokens) for tokens in doc_tokens]))
        )

    def bind(
        self, vocabulary: Vocabulary, phi: np.ndarray, mean_document_length: float
    ) -> "LdaModel":
        """Take on a fitted model: what :meth:`fit` learnt, or what the
        fitted-model cache kept of an earlier fit (these three are all
        of it)."""
        word_cdfs = phi.cumsum(axis=1)
        word_cdfs /= word_cdfs[:, -1:]
        # What every sampled document reads, derived once per fit and
        # only here (the unfitted state is the model's content address):
        # the Dirichlet prior, the topics whose phi row is NaN (emptied
        # under beta=0) and the words by id.
        prior = np.full(self.num_topics, max(self.alpha, 1e-6))
        words = np.array(vocabulary.words, dtype=object)
        # Fitted state is shared by every holder of this model.
        for array in (phi, word_cdfs, prior, words):
            array.setflags(write=False)
        self.phi = phi
        self._word_cdfs = word_cdfs
        self._topic_prior = prior
        self._unreachable_topics = frozenset(
            np.flatnonzero(word_cdfs[:, -1] != 1.0).tolist()
        )
        self._words = words
        self.vocabulary = vocabulary
        self.mean_document_length = mean_document_length
        return self

    def topic_distribution(self) -> np.ndarray:
        """The corpus-level word distribution implied by the fitted model."""
        if self.phi is None:
            raise GenerationError("LDA model is not fitted")
        return self.phi.mean(axis=0)

    def sample_block(self, rng: np.random.Generator, count: int) -> list[str]:
        """Sample ``count`` synthetic documents, each as space-joined words.

        Generation version 2: four draws per block, in this order —
        every length (``poisson``, at least one word), every theta
        (``dirichlet``), one uniform per word for its topic and one per
        word for the word itself — then arithmetic that draws nothing.
        A word's topic is ``choice``'s inversion of its document's theta
        (how many CDF entries are ``<= u``), its word the inversion of
        that topic's word CDF.
        """
        if self.phi is None or self.vocabulary is None:
            raise GenerationError("LDA model is not fitted")
        lengths = np.maximum(rng.poisson(self.mean_document_length, count), 1)
        thetas = rng.dirichlet(self._topic_prior, count)
        total = int(lengths.sum())
        topic_uniforms = rng.random(total)
        word_uniforms = rng.random(total)
        _refuse_like_choice(thetas)
        cdfs = thetas.cumsum(axis=1)
        cdfs /= cdfs[:, -1:]
        # The last CDF entry is 1.0 and never <= u: K - 1 columns count.
        # The smallest unsigned type sorts by radix below.
        owner = np.repeat(np.arange(count), lengths)
        topics = np.zeros(total, dtype=np.min_scalar_type(self.num_topics - 1))
        for column in cdfs[:, :-1].T:
            topics += topic_uniforms >= column[owner]
        per_topic = np.bincount(topics, minlength=self.num_topics)
        if not self._unreachable_topics.isdisjoint(
            np.flatnonzero(per_topic).tolist()
        ):
            raise ValueError(_DEGENERATE_WEIGHTS)
        # Words grouped by topic, one search per topic the block drew on
        # the CDFs of ``fit``, then put back in document order.
        order = np.argsort(topics, kind="stable")
        grouped = word_uniforms[order]
        found = np.empty(total, dtype=np.intp)
        start = 0
        for topic, drawn in enumerate(per_topic.tolist()):
            if drawn:
                end = start + drawn
                found[start:end] = self._word_cdfs[topic].searchsorted(
                    grouped[start:end], side="right"
                )
                start = end
        word_ids = np.empty(total, dtype=np.intp)
        word_ids[order] = found
        words = self._words[word_ids].tolist()
        documents = []
        start = 0
        for end in lengths.cumsum().tolist():
            documents.append(" ".join(words[start:end]))
            start = end
        return documents

    def infer_document_mixture(
        self, tokens: Sequence[str], iterations: int = 30
    ) -> np.ndarray:
        """Infer a document's topic mixture under the fitted model.

        A fixed-point iteration on the topic responsibilities (a cheap
        variational E-step); unknown words are ignored.  Used by the
        topic-structure veracity metric.
        """
        if self.phi is None or self.vocabulary is None:
            raise GenerationError("LDA model is not fitted")
        word_ids = [
            self.vocabulary.id_of(word) for word in tokens
            if word in self.vocabulary
        ]
        theta = np.full(self.num_topics, 1.0 / self.num_topics)
        if not word_ids:
            return theta
        word_probabilities = self.phi[:, word_ids]  # topics x words
        for _ in range(iterations):
            responsibilities = word_probabilities * theta[:, None]
            totals = responsibilities.sum(axis=0, keepdims=True)
            totals[totals == 0] = 1.0
            responsibilities /= totals
            theta = responsibilities.sum(axis=1) + self.alpha
            theta /= theta.sum()
        return theta


class LdaTextGenerator(DataGenerator):
    """The paper's reference veracity-preserving text generator.

    ``fit`` learns a dictionary and LDA parameters from real text;
    ``generate`` samples synthetic documents from the trained model.
    """

    data_type = DataType.TEXT
    veracity_aware = True
    generation_version = GENERATION_VERSION

    def __init__(
        self,
        num_topics: int = 4,
        alpha: float = 0.1,
        beta: float = 0.01,
        iterations: int = 60,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        self.model = LdaModel(
            num_topics=num_topics, alpha=alpha, beta=beta,
            iterations=iterations, seed=seed,
        )

    def fit(self, real_data: DataSet) -> "LdaTextGenerator":
        documents = [tokenize(doc) for doc in real_data.records]
        documents = [doc for doc in documents if doc]
        # A new model object, never a refit of the one this generator
        # may share with copies of itself (the fitted-model cache's).
        self.model = copy.copy(self.model).fit(documents)
        self._fitted = True
        return self

    def fitted_state(self) -> dict[str, Any]:
        model = self.model
        return {
            "words": model.vocabulary.words,
            "phi": model.phi,
            "mean_document_length": model.mean_document_length,
        }

    def restore_fitted(self, state: dict[str, Any]) -> None:
        self.model = copy.copy(self.model).bind(
            Vocabulary(state["words"]),
            state["phi"],
            float(state["mean_document_length"]),
        )
        self._fitted = True

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        # Streamed one block at a time: the block boundaries depend on
        # the partition's volume only, so the materialized list and
        # every chunk size see the same draws; memory stays one block.
        self._require_fitted()
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        for start in range(0, count, _LDA_DOCUMENTS_PER_DRAW):
            yield from self.model.sample_block(
                rng, min(_LDA_DOCUMENTS_PER_DRAW, count - start)
            )


def default_lda_text_generator() -> LdaTextGenerator:
    """The registry's ``lda-text``.

    A small iteration count keeps interactive runs snappy; raise it
    through a custom prescription for higher-fidelity veracity.
    """
    return LdaTextGenerator(iterations=15)


class UnigramTextGenerator(DataGenerator):
    """Baseline: learns only the marginal word frequencies (no topics)."""

    data_type = DataType.TEXT
    veracity_aware = True

    def __init__(self, seed: int = 0, document_length: int | None = None) -> None:
        super().__init__(seed=seed)
        self.document_length = document_length
        self._words: list[str] = []
        self._probabilities: np.ndarray | None = None
        self._mean_length = 0.0

    def fit(self, real_data: DataSet) -> "UnigramTextGenerator":
        counts: Counter[str] = Counter()
        lengths: list[int] = []
        for document in real_data.records:
            tokens = tokenize(document)
            counts.update(tokens)
            lengths.append(len(tokens))
        if not counts:
            raise GenerationError("corpus contains no tokens")
        self._words = sorted(counts)
        frequencies = np.array([counts[word] for word in self._words], dtype=np.float64)
        self._probabilities = frequencies / frequencies.sum()
        self._probabilities.setflags(write=False)
        self._mean_length = float(np.mean(lengths))
        self._fitted = True
        return self

    def fitted_state(self) -> dict[str, Any]:
        return {
            "words": self._words,
            "probabilities": self._probabilities,
            "mean_length": self._mean_length,
        }

    def restore_fitted(self, state: dict[str, Any]) -> None:
        self._words = list(state["words"])
        self._probabilities = state["probabilities"]
        self._probabilities.setflags(write=False)
        self._mean_length = float(state["mean_length"])
        self._fitted = True

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        self._require_fitted()
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        words = self._words
        for _ in range(count):
            length = self.document_length or max(1, int(rng.poisson(self._mean_length)))
            indexes = rng.choice(len(words), size=length, p=self._probabilities)
            yield " ".join([words[index] for index in indexes.tolist()])


#: Documents whose word indexes :class:`RandomTextGenerator` draws at once.
_DOCUMENTS_PER_DRAW = 256


class RandomTextGenerator(PurelySyntheticMixin, DataGenerator):
    """Purely synthetic text: uniform random words from a fixed word list.

    Mirrors the HiBench/Hadoop ``randomtextwriter`` approach the paper
    classifies as "un-considered" veracity (Table 1).
    """

    data_type = DataType.TEXT

    #: Default word list when none is supplied (a small English sample).
    DEFAULT_WORDS = [
        "apple", "river", "stone", "cloud", "light", "forest", "window",
        "bridge", "silver", "garden", "mountain", "ocean", "paper", "candle",
        "mirror", "shadow", "thunder", "velvet", "whisper", "yellow",
    ]

    def __init__(
        self, words: Sequence[str] | None = None,
        document_length: int = 50, seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        self.words = list(words) if words is not None else list(self.DEFAULT_WORDS)
        if not self.words:
            raise GenerationError("word list must not be empty")
        if document_length <= 0:
            raise GenerationError(
                f"document_length must be positive, got {document_length}"
            )
        self.document_length = document_length
        # A block of word indexes gathers its strings in one numpy call.
        self._word_array = np.array(self.words, dtype=object)
        self._word_array.setflags(write=False)

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        # One draw per block of documents: the same stream as one draw
        # per document (pinned by tests/datagen/test_seeded_digests.py),
        # without a numpy call per record; memory stays one block.
        for start in range(0, count, _DOCUMENTS_PER_DRAW):
            rows = min(_DOCUMENTS_PER_DRAW, count - start)
            block = rng.integers(len(self.words), size=(rows, self.document_length))
            yield from map(" ".join, self._word_array[block].tolist())


def word_distribution(documents: Iterable[str]) -> dict[str, float]:
    """The empirical word distribution of a set of documents.

    Used by the veracity metrics (Section 5.1) to compare real and
    synthetic corpora.
    """
    counts: Counter[str] = Counter()
    for document in documents:
        counts.update(tokenize(document))
    total = sum(counts.values())
    if total == 0:
        return {}
    return {word: count / total for word, count in counts.items()}
