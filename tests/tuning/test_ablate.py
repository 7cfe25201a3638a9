"""The ablation driver: matrix expansion, recording, verdicts."""

from __future__ import annotations

import json

import pytest

import repro  # noqa: F401 - triggers default registration
from repro.analysis.store import RunStore
from repro.core.errors import AnalysisError, TuningError
from repro.tuning import render_ablation, resolve_workloads, run_ablation


class TestResolveWorkloads:
    def test_exact_names_pass_through(self):
        assert resolve_workloads("micro-wordcount") == ["micro-wordcount"]

    def test_aliases_resolve(self):
        assert resolve_workloads("relational,micro") == [
            "database-aggregate-join",
            "micro-wordcount",
        ]

    def test_unique_prefix_resolves(self):
        assert resolve_workloads("search-page") == ["search-pagerank"]

    def test_ambiguous_prefix_rejected(self):
        with pytest.raises(TuningError, match="ambiguous"):
            resolve_workloads("micro-")

    def test_unknown_rejected(self):
        with pytest.raises(TuningError, match="unknown workload"):
            resolve_workloads("tpc-h")

    def test_empty_rejected(self):
        with pytest.raises(TuningError, match="no workloads"):
            resolve_workloads(" , ")

    def test_duplicates_collapse(self):
        assert resolve_workloads("micro,micro-wordcount") == [
            "micro-wordcount"
        ]


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("ablate-store")
    return run_ablation(
        "relational,micro",
        "dbms,mapreduce",
        repeats=7,
        warmup=1,
        volume=500,
        store_dir=str(store_dir),
    )


class TestMatrix:
    def test_every_executed_cell_has_a_record_id(self, small_report):
        executed = [c for c in small_report.cells if c.supported]
        assert executed
        assert all(cell.record_id for cell in executed)
        assert all(cell.series for cell in executed)

    def test_unsupported_cells_are_kept_but_not_run(self, small_report):
        holes = [c for c in small_report.cells if not c.supported]
        assert [(c.prescription, c.engine) for c in holes] == [
            ("micro-wordcount", "dbms")
        ]
        assert holes[0].outcome is None
        assert holes[0].status == "unsupported"

    def test_normal_cells_keep_the_historical_series(self, small_report):
        store = RunStore(small_report.store_dir)
        for cell in small_report.cells:
            if not cell.supported or not cell.profile.is_normal:
                continue
            record = store.get(cell.record_id)
            assert "tuning" not in record.fingerprint

    def test_tuned_cells_fork_their_series(self, small_report):
        store = RunStore(small_report.store_dir)
        normal_series = {
            (c.prescription, c.engine): c.series
            for c in small_report.cells
            if c.supported and c.profile.is_normal
        }
        tuned = [
            c
            for c in small_report.cells
            if c.supported and not c.profile.is_normal
        ]
        assert tuned
        for cell in tuned:
            record = store.get(cell.record_id)
            assert record.fingerprint["tuning"]["profile"] == cell.profile.name
            assert cell.series != normal_series[(cell.prescription, cell.engine)]

    def test_verdicts_reference_record_ids(self, small_report):
        assert small_report.verdicts
        ids = {c.record_id for c in small_report.cells if c.record_id}
        for verdict in small_report.verdicts:
            assert verdict.comparison.baseline in ids
            assert verdict.comparison.candidate in ids
            assert verdict.verdict in (
                "improved", "regressed", "unchanged", "inconclusive",
            )

    def test_optimized_dbms_is_judged_on_the_plan_its_knobs_build(
        self, small_report
    ):
        # Which way a millisecond of wall clock at 500 rows falls is the
        # host's business.  Ours: the verdict sets the optimized cell
        # against the normal one, sample for sample, on the lead metric,
        # each cell ran the plan its knobs ask for (seeded, so exact),
        # and the verdict is the one its own numbers support.
        verdict = small_report.verdict_for(
            "database-aggregate-join", "dbms", "optimized"
        )
        assert verdict is not None
        cells = {
            cell.profile.name: cell
            for cell in small_report.cells
            if (cell.prescription, cell.engine)
            == ("database-aggregate-join", "dbms")
        }
        assert verdict.comparison.baseline == cells["normal"].record_id
        assert verdict.comparison.candidate == cells["optimized"].record_id
        lead = verdict.lead
        assert (lead.metric, lead.direction) == ("duration", "lower")
        assert lead.baseline_n == lead.candidate_n == 7

        store = RunStore(small_report.store_dir)

        def join_of(cell):
            plan = store.get(cell.record_id).result["extra"]["plan"]
            join = plan["child"]["child"]
            return (
                plan["layout"], join["op"],
                join["outer"].get("rows") or join["outer"]["child"]["rows"],
                join["inner"]["rows"],
            )

        # A 500 x 47 nested loop against one hash build and probe.
        assert join_of(cells["normal"]) == ("row", "NestedLoopJoin", 500, 47)
        assert join_of(cells["optimized"]) == (
            "columnar", "BatchHashJoin", 500, 47,
        )
        if verdict.verdict == "improved":
            assert lead.ci_high < 0 and lead.relative_delta < -lead.tolerance
        elif verdict.verdict == "regressed":
            assert lead.ci_low > 0 and lead.relative_delta > lead.tolerance
        else:
            assert verdict.verdict in ("unchanged", "inconclusive")

    def test_attribution_covers_the_one_off_knobs(self, small_report):
        knobs = {
            (row["workload"], row["engine"], row["knob"])
            for row in small_report.attribution_rows()
        }
        # MapReduce's optimized profile is one knob: no one-offs.
        assert knobs == {
            ("database-aggregate-join", "dbms", knob)
            for knob in ("layout", "join_algorithm", "batch_size")
        }

    def test_report_round_trips_to_json(self, small_report):
        payload = json.loads(json.dumps(small_report.as_dict()))
        assert payload["counts"] == small_report.counts()
        assert len(payload["cells"]) == len(small_report.cells)


class TestDeterminism:
    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        kwargs = dict(
            repeats=3,
            volume=60,
            include_one_offs=False,
            seed=0,
        )
        first = run_ablation(
            "relational", "dbms", store_dir=str(tmp_path / "a"), **kwargs
        )
        second = run_ablation(
            "relational", "dbms", store_dir=str(tmp_path / "b"), **kwargs
        )
        # Separate stores, same work: the identity of every cell — its
        # spec fingerprint, and with it the series key — must come out
        # byte for byte identical.  (Wall-clock samples inside the
        # outcomes are measurements and legitimately vary.)
        assert [c.series for c in first.cells] == [
            c.series for c in second.cells
        ]
        first_store = RunStore(first.store_dir)
        second_store = RunStore(second.store_dir)
        for a, b in zip(first.cells, second.cells):
            assert json.dumps(
                first_store.get(a.record_id).fingerprint, sort_keys=True
            ) == json.dumps(
                second_store.get(b.record_id).fingerprint, sort_keys=True
            )
        # And judging is seeded: the same pair of outcomes compared
        # twice yields identical statistics, byte for byte.
        from repro.analysis.compare import compare_records

        base = first.cell("database-aggregate-join", "dbms", "normal")
        cand = first.cell("database-aggregate-join", "dbms", "optimized")
        once = compare_records(
            base.outcome, cand.outcome, metrics=["duration"], seed=0
        ).as_dict()
        twice = compare_records(
            base.outcome, cand.outcome, metrics=["duration"], seed=0
        ).as_dict()
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )


class TestRendering:
    def test_ascii_has_all_sections(self, small_report):
        text = render_ablation(small_report, "ascii")
        assert "matrix" in text
        assert "verdicts (vs normal)" in text
        assert "per-knob attribution" in text
        for cell in small_report.cells:
            if cell.record_id:
                assert cell.record_id in text

    def test_markdown_uses_pipe_tables(self, small_report):
        text = render_ablation(small_report, "markdown")
        assert "## verdicts (vs normal)" in text
        assert "| profile" in text or "profile |" in text

    def test_json_parses(self, small_report):
        payload = json.loads(render_ablation(small_report, "json"))
        assert payload["verdicts"]

    def test_unknown_style_rejected(self, small_report):
        with pytest.raises(TuningError, match="unknown ablation render"):
            render_ablation(small_report, "yaml")


class TestServicePath:
    def test_cells_run_as_queued_jobs(self, tmp_path):
        report = run_ablation(
            "relational",
            "dbms",
            repeats=2,
            volume=60,
            include_one_offs=False,
            store_dir=str(tmp_path),
            service=True,
        )
        executed = [c for c in report.cells if c.supported]
        assert len(executed) == 2  # normal + optimized
        assert all(cell.record_id for cell in executed)
        store = RunStore(str(tmp_path))
        tuned = next(c for c in executed if not c.profile.is_normal)
        assert (
            store.get(tuned.record_id).fingerprint["tuning"]["profile"]
            == "optimized"
        )


class TestStoreReads:
    """The matrix learns its cells' series from one read of the store."""

    ARGS = dict(repeats=2, volume=60, include_one_offs=False)

    def test_the_store_is_read_once_per_matrix(self, tmp_path, monkeypatch):
        reads = []
        records = RunStore.records
        monkeypatch.setattr(
            RunStore, "records",
            lambda store: reads.append(store.path) or records(store),
        )
        report = run_ablation(
            "relational", "dbms", store_dir=str(tmp_path), **self.ARGS
        )
        assert len([c for c in report.cells if c.record_id]) == 2
        assert len(reads) == 1

    def test_a_record_the_store_does_not_hold_is_an_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(RunStore, "records", lambda store: [])
        with pytest.raises(AnalysisError, match="r0001.*does not hold"):
            run_ablation(
                "relational", "dbms", store_dir=str(tmp_path), **self.ARGS
            )
