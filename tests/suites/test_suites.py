"""Tests for suite models, classification rules, and table regeneration."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engines.nosql import NoSqlStore
from repro.suites import (
    MINIATURES,
    PAPER_TABLE1,
    PAPER_TABLE2,
    SUITES,
    classify_generator,
    classify_suite,
    generate_table1,
    generate_table2,
    run_miniature,
    suite,
    table1_matches_paper,
    table2_matches_paper,
)
from repro.suites.classify import (
    classify_velocity,
    classify_veracity,
    classify_volume,
)
from repro.suites import miniatures
from repro.suites.registry import GeneratorCapability
from repro.workloads import YcsbWorkload


def capability(**overrides) -> GeneratorCapability:
    defaults = dict(
        data_sources=("Texts",),
        scalable_volume=True,
        fixed_size_inputs=False,
        parallel_generation=False,
        update_frequency_control=False,
        generation_independent_of_apps=True,
        partial_real_data_models=False,
        full_real_data_models=False,
    )
    defaults.update(overrides)
    return GeneratorCapability(**defaults)


class TestClassificationRules:
    def test_volume_scalable(self):
        assert classify_volume(capability()) == "Scalable"

    def test_volume_partially_scalable(self):
        assert classify_volume(capability(fixed_size_inputs=True)) == (
            "Partially scalable"
        )

    def test_volume_fixed(self):
        assert classify_volume(capability(scalable_volume=False)) == "Fixed"

    def test_velocity_uncontrollable(self):
        assert classify_velocity(capability()) == "Un-controllable"

    def test_velocity_semi(self):
        assert classify_velocity(capability(parallel_generation=True)) == (
            "Semi-controllable"
        )

    def test_velocity_fully(self):
        """Section 5.1's goal state: both mechanisms controlled."""
        assert classify_velocity(
            capability(parallel_generation=True, update_frequency_control=True)
        ) == "Fully controllable"

    def test_veracity_unconsidered(self):
        assert classify_veracity(capability()) == "Un-considered"

    def test_veracity_partial(self):
        assert classify_veracity(
            capability(partial_real_data_models=True,
                       generation_independent_of_apps=False)
        ) == "Partially considered"

    def test_veracity_considered(self):
        assert classify_veracity(
            capability(full_real_data_models=True,
                       generation_independent_of_apps=False)
        ) == "Considered"


class TestTable1:
    def test_row_for_row_match(self):
        matches, mismatches = table1_matches_paper()
        assert matches, mismatches

    def test_ten_suites(self):
        assert len(SUITES) == len(PAPER_TABLE1) == 10

    def test_derivation_not_transcription(self):
        """The classification derives from capabilities; flipping a fact
        changes the derived cell (guards against hard-coding)."""
        import dataclasses

        model = suite("GridMix")
        flipped = dataclasses.replace(
            model,
            capability=dataclasses.replace(
                model.capability, parallel_generation=True
            ),
        )
        assert classify_suite(flipped).velocity == "Semi-controllable"
        assert classify_suite(model).velocity == "Un-controllable"

    def test_only_bigdatabench_is_considered(self):
        rows = generate_table1()
        considered = [row.benchmark for row in rows if row.veracity == "Considered"]
        assert considered == ["BigDataBench"]

    def test_no_suite_is_fully_controllable(self):
        """The paper's Section 5.1 gap: none of the surveyed suites
        controls the update frequency."""
        assert all(
            row.velocity != "Fully controllable" for row in generate_table1()
        )


class TestTable2:
    def test_row_for_row_match(self):
        matches, mismatches = table2_matches_paper()
        assert matches, mismatches

    def test_fifteen_category_rows(self):
        assert len(generate_table2()) == len(PAPER_TABLE2) == 15

    def test_bigdatabench_covers_all_three_categories(self):
        rows = [row for row in generate_table2() if row.benchmark == "BigDataBench"]
        assert {row.workload_type for row in rows} == {
            "Online services", "Offline analytics", "Real-time analytics",
        }


class TestOwnGeneratorsClassification:
    def test_repro_generators_are_fully_controllable(self):
        """This framework targets the Section 5.1 goal: every generator is
        scalable and fully controllable."""
        from repro.datagen.text import LdaTextGenerator, RandomTextGenerator

        for generator in (RandomTextGenerator(), LdaTextGenerator()):
            row = classify_generator(generator)
            assert row.volume == "Scalable"
            assert row.velocity == "Fully controllable"

    def test_veracity_follows_awareness(self):
        from repro.datagen.text import LdaTextGenerator, RandomTextGenerator

        assert classify_generator(LdaTextGenerator()).veracity == "Considered"
        assert classify_generator(RandomTextGenerator()).veracity == (
            "Un-considered"
        )


class TestMiniatures:
    def test_every_suite_has_a_miniature(self):
        assert set(MINIATURES) == {model.name for model in SUITES}

    def test_unknown_miniature_rejected(self):
        from repro.core.errors import ExecutionError

        with pytest.raises(ExecutionError):
            run_miniature("SparkBench")

    @pytest.mark.parametrize("name", sorted(MINIATURES))
    def test_miniature_runs_and_reports(self, name):
        report = run_miniature(name, scale=0.3)
        assert report.suite == name
        assert report.runs
        summary = report.summary()
        assert set(summary) == set(report.runs)

    def test_hibench_covers_its_table2_examples(self):
        report = run_miniature("HiBench", scale=0.3)
        for workload in ("sort", "wordcount", "terasort", "pagerank",
                         "kmeans", "bayes", "nutch-indexing"):
            assert workload in report.runs

    def test_pavlo_runs_on_both_system_types(self):
        report = run_miniature("Performance benchmark", scale=0.3)
        assert "select-join-aggregate@dbms" in report.runs
        assert "select-join-aggregate@mapreduce" in report.runs
        dbms = sorted(report.runs["select-join-aggregate@dbms"].output)
        mapreduce = sorted(report.runs["select-join-aggregate@mapreduce"].output)
        assert [category for category, _ in dbms] == [
            category for category, _ in mapreduce
        ]

    def test_ycsb_reports_throughput(self):
        report = run_miniature("YCSB", scale=0.3)
        for run in report.runs.values():
            assert run.records_out / run.simulated_seconds > 0

    @pytest.mark.parametrize(
        ("suite", "prefix"), [("YCSB", ""), ("CloudSuite", "ycsb-")]
    )
    def test_ycsb_runs_are_the_oltp_workload(self, suite, prefix):
        """The miniature runs the one YCSB driver: each mix equals
        ``YcsbWorkload`` on the same store and data, but for wall time."""
        report = run_miniature(suite, scale=0.3)
        records = miniatures._kv_data(0.3)
        for mix in "ABC":
            direct = YcsbWorkload().run(
                NoSqlStore(num_partitions=8, replication=2, seed=31), records,
                workload_mix=mix, operation_count=miniatures._scaled(400, 0.3),
                seed=32,
            )
            run = report.runs[f"{prefix}workload-{mix}"]
            assert replace(run, duration_seconds=0.0) == replace(
                direct, duration_seconds=0.0
            )

    def test_bigdatabench_covers_all_domains(self):
        report = run_miniature("BigDataBench", scale=0.3)
        prefixes = {name.split("-")[0] for name in report.runs}
        assert {"micro", "cloud", "relational", "search", "social",
                "ecommerce"} <= prefixes
