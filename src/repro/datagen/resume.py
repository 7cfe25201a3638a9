"""Semi-structured resume generation.

Resumes are the paper's third semi-structured example ("web logs,
reviews, and resumes, where reviews and resumes contain both text and
graph data") and part of BigDataBench's variety row in Table 1.  A
generated resume combines:

* structured fields (name, experience, education level),
* a skill set drawn from correlated skill clusters (skills co-occur the
  way real ones do — a "graph" flavour: sampling a neighbourhood of a
  skill co-occurrence graph),
* free-text summaries from a fitted text model (veracity-preserving when
  an LDA/unigram generator is supplied).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

import numpy as np

from repro._util import choice_cdf
from repro.core.errors import GenerationError
from repro.datagen.base import DataGenerator, DataType
from repro.datagen.corpus import FIRST_NAMES

#: Skill clusters: skills within a cluster co-occur strongly.
SKILL_CLUSTERS: dict[str, tuple[str, ...]] = {
    "data-engineering": (
        "hadoop", "mapreduce", "hive", "spark", "kafka", "etl",
    ),
    "databases": (
        "sql", "mysql", "postgres", "query-optimization", "indexing",
        "transactions",
    ),
    "machine-learning": (
        "classification", "clustering", "regression", "neural-networks",
        "feature-engineering", "model-evaluation",
    ),
    "systems": (
        "linux", "networking", "c", "distributed-systems", "profiling",
        "concurrency",
    ),
}

EDUCATION_LEVELS: tuple[str, ...] = ("bsc", "msc", "phd")
#: How often each education level is drawn.
EDUCATION_WEIGHTS: tuple[float, ...] = (0.5, 0.35, 0.15)


class ResumeGenerator(DataGenerator):
    """Generates semi-structured resumes with clustered skills.

    ``text_generator`` (optional, must be fitted) supplies the free-text
    summary so text veracity chains from a real corpus; without one, the
    summary is a deterministic template.
    """

    data_type = DataType.RESUME
    veracity_aware = True

    def __init__(
        self,
        text_generator: DataGenerator | None = None,
        skills_per_resume: int = 5,
        cross_cluster_probability: float = 0.15,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        if skills_per_resume <= 0:
            raise GenerationError(
                f"skills_per_resume must be positive, got {skills_per_resume}"
            )
        if not 0.0 <= cross_cluster_probability <= 1.0:
            raise GenerationError(
                "cross_cluster_probability must be in [0, 1], got "
                f"{cross_cluster_probability}"
            )
        if text_generator is not None and not text_generator.is_fitted:
            raise GenerationError(
                "the resume text generator must be fitted before use"
            )
        self.text_generator = text_generator
        self.skills_per_resume = skills_per_resume
        self.cross_cluster_probability = cross_cluster_probability
        self._fitted = True  # usable without a text model

    def _sample_skills(self, rng: np.random.Generator) -> list[str]:
        """A home cluster plus occasional cross-cluster skills."""
        clusters = sorted(SKILL_CLUSTERS)
        home = clusters[int(rng.integers(len(clusters)))]
        skills: set[str] = set()
        while len(skills) < self.skills_per_resume:
            if rng.random() < self.cross_cluster_probability:
                cluster = clusters[int(rng.integers(len(clusters)))]
            else:
                cluster = home
            pool = SKILL_CLUSTERS[cluster]
            skills.add(pool[int(rng.integers(len(pool)))])
        return sorted(skills)

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        count = self.partition_volume(volume, partition, num_partitions)
        if count == 0:
            return
        rng = self.rng_for_partition(partition, num_partitions)
        education_cdf = choice_cdf(EDUCATION_WEIGHTS)
        start = sum(
            self.partition_volume(volume, p, num_partitions)
            for p in range(partition)
        )
        # Summaries stream from the text model's own partition iterator,
        # so a streaming text generator keeps this generator streaming.
        summaries = None
        if self.text_generator is not None:
            summaries = self.text_generator.iter_partition(
                volume, partition, num_partitions
            )
        for offset in range(count):
            person_id = start + offset
            skills = self._sample_skills(rng)
            if summaries is not None:
                summary = next(summaries)
            else:
                summary = (
                    f"experienced in {', '.join(skills[:3])} and related work"
                )
            yield {
                "person_id": person_id,
                "name": f"{FIRST_NAMES[person_id % len(FIRST_NAMES)]}"
                        f"_{person_id}",
                "education": EDUCATION_LEVELS[
                    bisect_right(education_cdf, rng.random())
                ],
                "experience_years": int(rng.integers(0, 25)),
                "skills": skills,
                "summary": summary,
            }


def skill_cooccurrence(
    resumes: list[dict[str, Any]]
) -> dict[tuple[str, str], int]:
    """Pairwise skill co-occurrence counts over a resume set.

    The "graph data inside resumes" the paper mentions: the skill
    co-occurrence graph used to check that clustered structure survived
    generation.
    """
    counts: dict[tuple[str, str], int] = {}
    for resume in resumes:
        skills = resume["skills"]
        for index, left in enumerate(skills):
            for right in skills[index + 1 :]:
                pair = (left, right) if left < right else (right, left)
                counts[pair] = counts.get(pair, 0) + 1
    return counts


def cluster_cohesion(resumes: list[dict[str, Any]]) -> float:
    """Fraction of skill co-occurrences falling within one cluster.

    Near 1.0 when resumes respect the skill clusters; ~0.25 for random
    skill sets over four clusters.
    """
    cluster_of = {
        skill: cluster
        for cluster, skills in SKILL_CLUSTERS.items()
        for skill in skills
    }
    within = total = 0
    for (left, right), count in skill_cooccurrence(resumes).items():
        total += count
        if cluster_of[left] == cluster_of[right]:
            within += count
    if total == 0:
        return 0.0
    return within / total
