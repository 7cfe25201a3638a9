"""Veracity metrics: how close is synthetic data to the real data?

Section 5.1 of the paper calls for two kinds of veracity metrics —
comparing the raw data against (1) the constructed data model and (2) the
generated synthetic data — and names Kullback–Leibler divergence as the
statistical tool for text.  This module implements that proposal for every
data type in the framework:

* divergence primitives (KL, Jensen–Shannon, total variation, chi-square)
  over aligned discrete distributions,
* per-type comparison functions: word distributions for text, log-binned
  degree distributions for graphs, per-column distributions for tables,
  inter-arrival histograms for streams,
* a :class:`VeracityReport` summarising the scores.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.errors import MetricError

#: Smoothing mass assigned to unseen outcomes when aligning supports.
_SMOOTHING = 1e-9


def align_distributions(
    p: Mapping[Any, float], q: Mapping[Any, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Align two discrete distributions onto their union support.

    Missing outcomes get smoothing mass so divergences stay finite; both
    vectors are renormalised to sum to one.
    """
    support = sorted(set(p) | set(q), key=str)
    if not support:
        raise MetricError("cannot align two empty distributions")
    p_vector = np.array([p.get(key, 0.0) + _SMOOTHING for key in support])
    q_vector = np.array([q.get(key, 0.0) + _SMOOTHING for key in support])
    return p_vector / p_vector.sum(), q_vector / q_vector.sum()


def _as_vectors(
    p: Mapping[Any, float] | Sequence[float] | np.ndarray,
    q: Mapping[Any, float] | Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, Mapping) or isinstance(q, Mapping):
        if not (isinstance(p, Mapping) and isinstance(q, Mapping)):
            raise MetricError("cannot mix mapping and vector distributions")
        return align_distributions(p, q)
    p_vector = np.asarray(p, dtype=np.float64) + _SMOOTHING
    q_vector = np.asarray(q, dtype=np.float64) + _SMOOTHING
    if p_vector.shape != q_vector.shape:
        raise MetricError(
            f"distribution shapes differ: {p_vector.shape} vs {q_vector.shape}"
        )
    return p_vector / p_vector.sum(), q_vector / q_vector.sum()


def kl_divergence(
    p: Mapping[Any, float] | Sequence[float] | np.ndarray,
    q: Mapping[Any, float] | Sequence[float] | np.ndarray,
) -> float:
    """Kullback–Leibler divergence D(p ‖ q) in nats; non-negative."""
    p_vector, q_vector = _as_vectors(p, q)
    return float(np.sum(p_vector * np.log(p_vector / q_vector)))


def jensen_shannon_divergence(
    p: Mapping[Any, float] | Sequence[float] | np.ndarray,
    q: Mapping[Any, float] | Sequence[float] | np.ndarray,
) -> float:
    """Jensen–Shannon divergence: symmetric, bounded by ln 2."""
    p_vector, q_vector = _as_vectors(p, q)
    mixture = 0.5 * (p_vector + q_vector)
    return float(
        0.5 * np.sum(p_vector * np.log(p_vector / mixture))
        + 0.5 * np.sum(q_vector * np.log(q_vector / mixture))
    )


def total_variation(
    p: Mapping[Any, float] | Sequence[float] | np.ndarray,
    q: Mapping[Any, float] | Sequence[float] | np.ndarray,
) -> float:
    """Total-variation distance: half the L1 distance, in [0, 1]."""
    p_vector, q_vector = _as_vectors(p, q)
    return float(0.5 * np.sum(np.abs(p_vector - q_vector)))


@dataclass
class VeracityReport:
    """Scores from comparing a synthetic data set against the real one.

    ``score`` is the headline Jensen–Shannon divergence (lower is better,
    0 = identical, ln 2 ≈ 0.693 = disjoint); ``metrics`` carries every
    computed statistic.
    """

    data_type: str
    score: float
    metrics: dict[str, float] = field(default_factory=dict)

    #: JS-divergence threshold under which synthetic data is considered
    #: faithful; half the maximum possible divergence.
    FAITHFUL_THRESHOLD = 0.5 * math.log(2)

    @property
    def is_faithful(self) -> bool:
        return self.score <= self.FAITHFUL_THRESHOLD

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "faithful" if self.is_faithful else "NOT faithful"
        return f"VeracityReport({self.data_type}: JS={self.score:.4f}, {verdict})"


def text_veracity(
    real_documents: Iterable[str], synthetic_documents: Iterable[str]
) -> VeracityReport:
    """Compare word distributions of a real and a synthetic corpus.

    This is the paper's worked example: derive the word distributions from
    both corpora, then apply statistical divergences.
    """
    from repro.datagen.text import word_distribution

    real = word_distribution(real_documents)
    synthetic = word_distribution(synthetic_documents)
    if not real or not synthetic:
        raise MetricError("both corpora must contain at least one token")
    real_support = set(real)
    synthetic_support = set(synthetic)
    overlap = len(real_support & synthetic_support) / len(
        real_support | synthetic_support
    )
    js = jensen_shannon_divergence(real, synthetic)
    return VeracityReport(
        data_type="text",
        score=js,
        metrics={
            "kl_real_vs_synthetic": kl_divergence(real, synthetic),
            "js_divergence": js,
            "total_variation": total_variation(real, synthetic),
            "vocabulary_jaccard": overlap,
        },
    )


def topic_structure_veracity(
    real_documents: Sequence[str],
    synthetic_documents: Sequence[str],
    model,
    num_bins: int = 10,
) -> VeracityReport:
    """Compare *topic* structure, the paper's second text dimension.

    The marginal word distribution cannot distinguish an LDA corpus from
    a unigram one; topical concentration can.  Under the fitted LDA
    ``model`` (a :class:`repro.datagen.text.LdaModel`), infer each
    document's topic mixture and compare the distributions of the
    dominant topic's share: real documents concentrate on one topic, and
    faithful synthetic documents must do the same.
    """
    from repro.datagen.text import tokenize

    def dominant_shares(documents: Sequence[str]) -> list[float]:
        shares = []
        for document in documents:
            mixture = model.infer_document_mixture(tokenize(document))
            shares.append(float(mixture.max()))
        return shares

    real_shares = dominant_shares(real_documents)
    synthetic_shares = dominant_shares(synthetic_documents)
    if not real_shares or not synthetic_shares:
        raise MetricError("both corpora must contain documents")
    bins = np.linspace(0.0, 1.0, num_bins + 1)
    real_histogram, _ = np.histogram(real_shares, bins=bins)
    synthetic_histogram, _ = np.histogram(synthetic_shares, bins=bins)
    js = jensen_shannon_divergence(real_histogram, synthetic_histogram)
    return VeracityReport(
        data_type="text-topics",
        score=js,
        metrics={
            "js_dominant_topic_share": js,
            "mean_share_real": float(np.mean(real_shares)),
            "mean_share_synthetic": float(np.mean(synthetic_shares)),
        },
    )


def graph_veracity(
    real_edges: Sequence[tuple[int, int]],
    synthetic_edges: Sequence[tuple[int, int]],
    num_bins: int = 12,
) -> VeracityReport:
    """Compare log-binned degree distributions of two graphs."""
    from repro.datagen.graph import average_degree, log_binned_degree_distribution

    if not real_edges or not synthetic_edges:
        raise MetricError("both graphs must contain at least one edge")
    real = log_binned_degree_distribution(real_edges, num_bins)
    synthetic = log_binned_degree_distribution(synthetic_edges, num_bins)
    js = jensen_shannon_divergence(real, synthetic)
    return VeracityReport(
        data_type="graph",
        score=js,
        metrics={
            "js_degree_distribution": js,
            "kl_degree_distribution": kl_divergence(real, synthetic),
            "total_variation": total_variation(real, synthetic),
            "avg_degree_real": average_degree(real_edges),
            "avg_degree_synthetic": average_degree(synthetic_edges),
        },
    )


def table_veracity(
    real_rows: Sequence[tuple],
    synthetic_rows: Sequence[tuple],
    num_bins: int = 16,
) -> VeracityReport:
    """Compare two tables column by column.

    Numeric columns are histogrammed over the real column's range;
    categorical columns are compared by value frequency.  The headline
    score is the mean per-column JS divergence.
    """
    if not real_rows or not synthetic_rows:
        raise MetricError("both tables must contain at least one row")
    width = min(len(real_rows[0]), len(synthetic_rows[0]))
    per_column: dict[str, float] = {}
    for index in range(width):
        real_values = [row[index] for row in real_rows]
        synthetic_values = [row[index] for row in synthetic_rows]
        per_column[f"js_col_{index}"] = _column_divergence(
            real_values, synthetic_values, num_bins
        )
    score = float(np.mean(list(per_column.values())))
    per_column["js_mean"] = score
    return VeracityReport(data_type="table", score=score, metrics=per_column)


def _column_divergence(
    real_values: list[Any], synthetic_values: list[Any], num_bins: int
) -> float:
    numeric = all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in real_values + synthetic_values
    )
    if numeric:
        low = min(real_values)
        high = max(real_values)
        if low == high:
            high = low + 1.0
        bins = np.linspace(low, high, num_bins + 1)
        real_histogram, _ = np.histogram(real_values, bins=bins)
        synthetic_histogram, _ = np.histogram(
            np.clip(synthetic_values, low, high), bins=bins
        )
        return jensen_shannon_divergence(real_histogram, synthetic_histogram)
    real_frequency = _frequencies(real_values)
    synthetic_frequency = _frequencies(synthetic_values)
    return jensen_shannon_divergence(real_frequency, synthetic_frequency)


def _frequencies(values: list[Any]) -> dict[Any, float]:
    total = len(values)
    counts: dict[Any, float] = {}
    for value in values:
        counts[value] = counts.get(value, 0.0) + 1.0
    return {value: count / total for value, count in counts.items()}


def stream_veracity(
    real_timestamps: Sequence[float],
    synthetic_timestamps: Sequence[float],
    num_bins: int = 16,
) -> VeracityReport:
    """Compare the inter-arrival-time distributions of two event streams."""
    real_gaps = np.diff(np.sort(np.asarray(real_timestamps, dtype=np.float64)))
    synthetic_gaps = np.diff(
        np.sort(np.asarray(synthetic_timestamps, dtype=np.float64))
    )
    if len(real_gaps) == 0 or len(synthetic_gaps) == 0:
        raise MetricError("both streams must contain at least two events")
    high = max(float(real_gaps.max()), 1e-9)
    bins = np.linspace(0.0, high, num_bins + 1)
    real_histogram, _ = np.histogram(real_gaps, bins=bins)
    synthetic_histogram, _ = np.histogram(
        np.clip(synthetic_gaps, 0.0, high), bins=bins
    )
    js = jensen_shannon_divergence(real_histogram, synthetic_histogram)
    return VeracityReport(
        data_type="stream",
        score=js,
        metrics={
            "js_interarrival": js,
            "mean_gap_real": float(real_gaps.mean()),
            "mean_gap_synthetic": float(synthetic_gaps.mean()),
        },
    )


def model_veracity(
    real_distribution: Mapping[Any, float] | Sequence[float] | np.ndarray,
    model_distribution: Mapping[Any, float] | Sequence[float] | np.ndarray,
    data_type: str = "model",
) -> VeracityReport:
    """Metric type (1) of Section 5.1: raw data vs the constructed model."""
    js = jensen_shannon_divergence(real_distribution, model_distribution)
    return VeracityReport(
        data_type=data_type,
        score=js,
        metrics={
            "js_divergence": js,
            "kl_divergence": kl_divergence(real_distribution, model_distribution),
        },
    )
