"""Tests for the repro-bench command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro import bootstrap
from repro.cli import main
from repro.core.prescription import builtin_repository
from repro.datagen.formats import available_formats

#: Generator → the seed data set its builtin prescriptions fit it on.
_REPOSITORY = builtin_repository()
FIT_SOURCES = {
    prescription.data.generator: prescription.data.fit_on
    for prescription in map(_REPOSITORY.get, _REPOSITORY.names())
    if prescription.data.fit_on
}


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_catalogues(self):
        code, output = run_cli("list")
        assert code == 0
        for needle in ("prescriptions:", "micro-wordcount", "engines:",
                       "mapreduce", "generators:", "lda-text",
                       "workloads:", "formats:", "csv"):
            assert needle in output


class TestRun:
    def test_runs_a_prescription(self):
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "40"
        )
        assert code == 0
        assert "five-step process" in output
        assert "data-generation" in output
        assert "mapreduce" in output

    def test_engine_selection(self):
        code, output = run_cli(
            "run", "database-aggregate-join", "--engine", "dbms",
            "--volume", "50",
        )
        assert code == 0
        assert "dbms" in output
        assert "mapreduce" not in output.split("five-step process")[1]

    def test_repeats_and_partitions(self):
        code, output = run_cli(
            "run", "micro-sort", "--volume", "30",
            "--repeats", "2", "--partitions", "3",
        )
        assert code == 0

    def test_params_are_typed(self):
        code, output = run_cli(
            "run", "oltp-read-write", "--engine", "nosql",
            "--volume", "40", "--param", "operation_count=120",
        )
        assert code == 0

    def test_json_output(self):
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "20", "--json"
        )
        assert code == 0
        payload = json.loads(output)
        assert payload[0]["engine"] == "mapreduce"

    def test_fault_tolerance_flags_accepted(self):
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "30",
            "--retries", "2", "--retry-backoff", "0",
            "--on-error", "continue", "--task-timeout", "30",
        )
        assert code == 0
        assert "failures" not in output  # clean run: no failure section

    def test_on_error_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            run_cli("run", "micro-wordcount", "--on-error", "panic")

    def test_unknown_prescription_fails_cleanly(self):
        code, _ = run_cli("run", "does-not-exist")
        assert code == 2

    def test_bad_param_syntax(self, capsys):
        code, _ = run_cli("run", "micro-sort", "--param", "notkeyvalue")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: --param expects KEY=VALUE"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("ablate", "--workloads", "micro", "--param", "foo"),
            ("load", "micro-wordcount", "--param", "foo"),
        ],
    )
    def test_bad_param_syntax_on_every_verb_that_takes_one(
        self, argv, capsys
    ):
        """``--param foo`` used to exit 1 with a bare message; every
        other user error is ``error: ...`` on stderr and exit 2."""
        code, _ = run_cli(*argv)
        assert code == 2
        assert "error: --param expects KEY=VALUE, got 'foo'" in (
            capsys.readouterr().err
        )


class TestTraceFlags:
    STEPS = ("planning", "data-generation", "test-generation",
             "execution", "analysis-evaluation")

    def test_trace_prints_the_span_tree(self):
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "20", "--trace"
        )
        assert code == 0
        assert "span tree:" in output
        tree = output.split("span tree:")[1]
        assert "benchmark-run" in tree
        for step in self.STEPS:
            assert step in tree
        assert "queue_wait_seconds=" in tree
        assert "ms" in tree

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_trace_covers_every_executor_backend(self, executor):
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "20",
            "--executor", executor, "--workers", "2", "--trace",
        )
        assert code == 0
        tree = output.split("span tree:")[1]
        assert "task" in tree
        assert "queue_wait_seconds=" in tree

    def test_trace_out_writes_parseable_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "20",
            "--trace-out", str(path),
        )
        assert code == 0
        # --trace-out alone records but does not print the tree.
        assert "span tree:" not in output
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        root = json.loads(lines[0])
        assert root["name"] == "benchmark-run"
        names = {span["name"] for span in _walk_payload(root)}
        assert set(self.STEPS) <= names
        assert "task" in names and "run" in names

    def test_step_durations_sum_to_the_run_total(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # The first run in a process imports the planner and the runner
        # between the steps: a fact about imports, not about a run.
        assert run_cli("run", "micro-wordcount", "--volume", "20")[0] == 0
        code, _ = run_cli(
            "run", "micro-wordcount", "--volume", "2000",
            "--trace-out", str(path),
        )
        assert code == 0
        root = json.loads(path.read_text().strip())
        # Structure: the root holds the five steps, in order, and nothing
        # else; they ran one after another inside it.
        assert [c["name"] for c in root["children"]] == list(self.STEPS)
        steps = sum(
            child["duration_seconds"] for child in root["children"]
        )
        assert 0 < steps <= root["duration_seconds"]
        # The five steps account for (nearly) the whole run: measured
        # on a run of tens of milliseconds, where the microseconds of
        # book-keeping between the steps cannot reach a tenth of it.
        assert steps >= 0.9 * root["duration_seconds"]


def _walk_payload(node: dict) -> list[dict]:
    spans = [node]
    for child in node.get("children", []):
        spans.extend(_walk_payload(child))
    return spans


class TestGenerate:
    def test_purely_synthetic(self):
        code, output = run_cli(
            "generate", "random-text", "--volume", "10", "--sample", "2"
        )
        assert code == 0
        assert "generated 10 records" in output

    def test_veracity_aware_with_seed_corpus(self):
        code, output = run_cli(
            "generate", "unigram-text", "--volume", "5",
            "--fit-on", "text-corpus",
        )
        assert code == 0
        assert "generated 5 records" in output

    def test_format_conversion(self):
        code, output = run_cli(
            "generate", "mixture-table", "--volume", "5",
            "--format", "csv", "--sample", "3",
        )
        assert code == 0
        assert "x0" in output  # the CSV header line

    def test_unknown_generator(self):
        code, _ = run_cli("generate", "quantum-data")
        assert code == 2

    @pytest.mark.parametrize("format_name", available_formats())
    @pytest.mark.parametrize("generator", sorted(bootstrap.GENERATORS))
    def test_every_generator_in_every_format_prints_or_refuses(
        self, generator, format_name, capsys
    ):
        """Exit 0, or ``error: …`` on stderr with exit 2; an exception
        that escapes ``main`` (a traceback) fails the test."""
        argv = ["generate", generator, "--volume", "12", "--sample", "2",
                "--format", format_name]
        if generator in FIT_SOURCES:
            argv += ["--fit-on", FIT_SOURCES[generator]]
        code, output = run_cli(*argv)
        if code == 0:
            assert output.startswith("generated ")
        else:
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_a_negative_sample_is_refused(self, capsys):
        code, _ = run_cli("generate", "kv-records", "--sample", "-1")
        assert code == 2
        assert "--sample" in capsys.readouterr().err


class TestTables:
    def test_regenerates_both_tables(self):
        code, output = run_cli("tables")
        assert code == 0
        assert "Table 1" in output
        assert "BigDataBench" in output
        assert output.count("matches the paper: yes") == 2


class TestPrescriptionFiles:
    def test_export_then_run_from_file(self, tmp_path):
        """§5.2 reusable prescriptions as shareable files, end to end."""
        path = tmp_path / "prescriptions.json"
        code, output = run_cli("export-prescriptions", str(path))
        assert code == 0
        assert "wrote" in output
        assert path.exists()
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "25",
            "--repository", str(path),
        )
        assert code == 0
        assert "mapreduce" in output

    def test_corrupt_repository_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _ = run_cli(
            "run", "micro-wordcount", "--repository", str(path)
        )
        assert code == 2


class TestResultAnalysis:
    """The record → promote → compare → gate CLI loop on a tmp store."""

    def _record(self, tmp_path, *extra):
        return run_cli(
            "run", "micro-wordcount", "--volume", "30", "--repeats", "2",
            "--record", "--store-dir", str(tmp_path / "store"), *extra,
        )

    def test_record_and_runs_listing(self, tmp_path):
        code, output = self._record(tmp_path)
        assert code == 0
        assert "recorded 1 run(s)" in output
        assert "r0001" in output
        code, output = run_cli(
            "runs", "list", "--store-dir", str(tmp_path / "store")
        )
        assert code == 0
        assert "r0001" in output
        assert "micro-wordcount@mapreduce" in output
        code, output = run_cli(
            "runs", "show", "r0001",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        assert "duration" in output

    def test_store_dir_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
        code, _ = run_cli(
            "run", "micro-wordcount", "--volume", "30", "--record"
        )
        assert code == 0
        assert (tmp_path / "env-store" / "runs.jsonl").exists()

    def test_compare_identical_reruns(self, tmp_path):
        self._record(tmp_path)
        self._record(tmp_path)
        code, output = run_cli(
            "compare", "r0001", "r0002",
            "--store-dir", str(tmp_path / "store"),
            "--metric", "throughput",
        )
        assert code == 0
        assert "unchanged" in output
        code, output = run_cli(
            "compare", "r0001", "r0002", "--json",
            "--store-dir", str(tmp_path / "store"),
            "--metric", "throughput",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["overall"] == "unchanged"

    def test_gate_passes_then_fails_on_injected_slowdown(self, tmp_path):
        self._record(tmp_path)
        code, output = run_cli(
            "baseline", "promote", "latest", "main",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        assert "promoted r0001" in output
        # Identical rerun: deterministic metrics unchanged, gate passes.
        self._record(tmp_path)
        code, output = run_cli(
            "gate", "--baseline", "main",
            "--store-dir", str(tmp_path / "store"),
            "--metric", "throughput",
        )
        assert code == 0
        assert "PASS" in output
        # Injected latency: duration regresses, gate exits nonzero.  The
        # repeats stay the same — repeats are part of the spec
        # fingerprint, and the gate only considers the baseline's series.
        self._record(tmp_path, "--inject-latency", "0.05")
        code, output = run_cli(
            "gate", "--baseline", "main", "--json",
            "--store-dir", str(tmp_path / "store"),
            "--metric", "duration",
        )
        assert code == 1
        payload = json.loads(output)
        assert payload["passed"] is False
        assert payload["comparison"]["metrics"]["duration"]["verdict"] == (
            "regressed"
        )

    def test_baseline_list_and_remove(self, tmp_path):
        self._record(tmp_path)
        run_cli(
            "baseline", "promote", "latest", "main",
            "--store-dir", str(tmp_path / "store"),
        )
        code, output = run_cli(
            "baseline", "list", "--store-dir", str(tmp_path / "store")
        )
        assert code == 0
        assert "main" in output and "r0001" in output
        code, _ = run_cli(
            "baseline", "remove", "main",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0

    def test_history_style_renders_sparkline_and_delta(self, tmp_path):
        self._record(tmp_path)
        run_cli(
            "baseline", "promote", "latest", "main",
            "--store-dir", str(tmp_path / "store"),
        )
        code, output = run_cli(
            "run", "micro-wordcount", "--volume", "30", "--repeats", "2",
            "--history", "--baseline", "main",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        assert "history" in output
        assert "vs baseline" in output

    def test_unknown_record_and_baseline_fail_cleanly(self, tmp_path):
        self._record(tmp_path)
        code, _ = run_cli(
            "runs", "show", "zzzz",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 2
        code, _ = run_cli(
            "gate", "--baseline", "nope",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 2


class TestMiniature:
    def test_runs_a_miniature(self):
        code, output = run_cli("miniature", "GridMix", "--scale", "0.3")
        assert code == 0
        assert "GridMix" in output
        assert "sort" in output

    def test_unknown_suite(self):
        code, _ = run_cli("miniature", "SparkBench")
        assert code == 2


class TestServiceVerbs:
    """submit / serve / jobs against a tmp store."""

    def test_submit_runs_and_logs_a_job(self, tmp_path):
        store = str(tmp_path / "store")
        code, output = run_cli(
            "submit", "micro-wordcount", "--volume", "30",
            "--engine", "mapreduce", "--record", "--store-dir", store,
        )
        assert code == 0
        assert "submitted j0001" in output
        assert "micro-wordcount@mapreduce" in output
        assert "r0001" in output

        code, output = run_cli("jobs", "list", "--store-dir", store)
        assert code == 0
        assert "j0001" in output
        assert "done" in output

        code, output = run_cli("jobs", "show", "j0001",
                               "--store-dir", store)
        assert code == 0
        assert "state:       done" in output
        assert "queued" in output and "running" in output

    def test_jobs_cancel_rejects_terminal_jobs(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli("submit", "micro-wordcount", "--volume", "30",
                "--store-dir", store)
        code, _ = run_cli("jobs", "cancel", "j0001",
                          "--store-dir", store)
        assert code == 2

    def test_serve_spec_file_batch(self, tmp_path):
        store = str(tmp_path / "store")
        spec_file = tmp_path / "batch.json"
        spec_file.write_text(json.dumps([
            {"prescription": "micro-wordcount",
             "engines": ["mapreduce"], "volume": 30, "record": True},
            # A version-1 payload: no spec_version, legacy "engine" key.
            {"prescription": "micro-sort", "engine": "mapreduce",
             "volume": 30, "record": True},
        ]))
        code, output = run_cli(
            "serve", "--spec-file", str(spec_file),
            "--schedulers", "2", "--store-dir", store,
        )
        assert code == 0
        assert "2/2 job(s) done" in output
        code, output = run_cli("runs", "list", "--store-dir", store)
        assert code == 0
        assert "r0001" in output and "r0002" in output

    def test_serve_single_object_spec_file(self, tmp_path):
        spec_file = tmp_path / "one.json"
        spec_file.write_text(json.dumps(
            {"prescription": "micro-wordcount", "volume": 30,
             "engines": ["mapreduce"]}
        ))
        code, output = run_cli(
            "serve", "--spec-file", str(spec_file), "--quiet",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        assert "1/1 job(s) done" in output

    def test_serve_reports_failed_jobs_nonzero(self, tmp_path):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(
            {"prescription": "micro-wordcount", "volume": 30,
             "engines": ["mapreduce"], "task_timeout": 0.01,
             "inject_latency": 0.3}
        ))
        code, output = run_cli(
            "serve", "--spec-file", str(spec_file), "--quiet",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 1
        assert "0/1 job(s) done" in output

    def test_jobs_list_empty_store(self, tmp_path):
        code, output = run_cli(
            "jobs", "list", "--store-dir", str(tmp_path / "store")
        )
        assert code == 0
        assert "no jobs logged" in output

    def test_jobs_cancel_marks_orphaned_job(self, tmp_path):
        # Craft a log whose job never went terminal (the owning service
        # process died); the offline cancel tombstones it.
        from repro.core.spec import BenchmarkSpec
        from repro.service.jobs import Job, JobLog

        store = tmp_path / "store"
        log = JobLog(store)
        log.append(Job(spec=BenchmarkSpec("micro-wordcount"),
                       job_id="j0001"), "queued")
        code, output = run_cli("jobs", "cancel", "j0001",
                               "--store-dir", str(store))
        assert code == 0
        assert "cancelled j0001" in output
        code, output = run_cli("jobs", "list", "--state", "cancelled",
                               "--store-dir", str(store))
        assert code == 0
        assert "j0001" in output


class TestLoad:
    def test_synthetic_run_passes_default_slo(self):
        code, output = run_cli(
            "load", "--rate", "100", "--duration", "2", "--seed", "3",
        )
        assert code == 0
        assert "SLO: PASS" in output
        assert "latency p50" in output
        assert "achieved_rate" in output

    def test_json_report_has_the_acceptance_fields(self):
        code, output = run_cli(
            "load", "--arrival", "poisson", "--rate", "150",
            "--duration", "2", "--slo-p99", "0.1", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        for field in ("offered_rate", "achieved_rate", "shed_fraction",
                      "error_fraction", "latency", "slo"):
            assert field in payload
        for quantile in ("p50", "p95", "p99"):
            assert quantile in payload["latency"]
        assert payload["slo"]["passed"] is True
        assert any(
            check["name"] == "latency_p99"
            for check in payload["slo"]["checks"]
        )

    def test_same_seed_same_verdict(self):
        """Acceptance: same seed → byte-identical report and verdict."""
        outputs = [
            run_cli(
                "load", "--arrival", "bursty", "--rate", "200",
                "--duration", "3", "--seed", "11", "--json",
            )
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]

    def test_violated_slo_exits_nonzero(self):
        code, output = run_cli(
            "load", "--rate", "100", "--duration", "2",
            "--slo-p99", "1e-9",
        )
        assert code == 1
        assert "SLO: FAIL" in output
        assert "VIOLATED" in output

    def test_overload_sheds_and_fails(self):
        code, output = run_cli(
            "load", "--arrival", "constant", "--rate", "200",
            "--duration", "1", "--concurrency", "1",
            "--queue-capacity", "2", "--mean-service", "0.1",
            "--service-distribution", "constant",
        )
        assert code == 1
        assert "shed_fraction" in output

    def test_record_lands_in_run_store(self, tmp_path):
        store = str(tmp_path / "store")
        code, output = run_cli(
            "load", "--rate", "50", "--duration", "1",
            "--record", "--store-dir", store,
        )
        assert code == 0
        assert "recorded r0001" in output
        code, output = run_cli("runs", "list", "--store-dir", store)
        assert code == 0
        assert "load:open-poisson" in output
        assert "loadgen-virtual" in output

    def test_closed_loop_flags(self):
        code, output = run_cli(
            "load", "--sessions", "3", "--think-time", "0.01",
            "--duration", "1", "--seed", "5",
        )
        assert code == 0
        assert "3 sessions (closed loop)" in output

    def test_service_mode_smoke(self, tmp_path):
        code, output = run_cli(
            "load", "--service", "--arrival", "poisson",
            "--rate", "4", "--duration", "1",
            "--slo-min-rate", "0.1", "--slo-p99", "30",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        assert "service:micro-wordcount" in output

    def test_unknown_arrival_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run_cli("load", "--arrival", "sawtooth")


class TestAblate:
    """The tuning-ablation verb: matrix, verdicts, attribution."""

    def test_ascii_report_with_record_ids(self, tmp_path):
        code, output = run_cli(
            "ablate", "--workloads", "relational", "--engines", "dbms",
            "--repeats", "2", "--volume", "60", "--no-one-offs",
            "--store-dir", str(tmp_path),
        )
        assert code == 0
        assert "matrix" in output
        assert "verdicts (vs normal)" in output
        assert "optimized" in output
        assert "r0001" in output  # every cell carries a run-store id

    def test_json_style_parses_and_counts_cells(self, tmp_path):
        code, output = run_cli(
            "ablate", "--workloads", "relational", "--engines", "dbms",
            "--repeats", "2", "--volume", "60", "--no-one-offs",
            "--style", "json", "--store-dir", str(tmp_path),
        )
        assert code == 0
        payload = json.loads(output)
        assert len(payload["cells"]) == 2  # normal + optimized
        assert payload["verdicts"]

    def test_unknown_workload_fails_cleanly(self, tmp_path, capsys):
        code, _ = run_cli(
            "ablate", "--workloads", "tpc-h",
            "--store-dir", str(tmp_path),
        )
        assert code != 0
        assert "unknown workload" in capsys.readouterr().err


class _Reached(Exception):
    """Raised by an API stub once it has recorded its arguments."""


def _stub(monkeypatch, target: str) -> dict:
    """Replace ``target`` with a recorder that stops the verb there."""
    call: dict = {}

    def stub(*args, **kwargs):
        call["args"], call["kwargs"] = args, kwargs
        raise _Reached

    monkeypatch.setattr(target, stub)
    return call


def _stub_service(monkeypatch) -> dict:
    """Replace the service client with one that records its options and
    the first submission, and stops the verb there."""
    seen: dict = {}

    class FakeService:
        def __init__(self, **options):
            seen["options"] = options

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def subscribe(self, callback):
            pass

        def submit(self, spec, **kwargs):
            seen["spec"], seen["submit"] = spec, kwargs
            raise _Reached

    monkeypatch.setattr("repro.api.ServiceClient", FakeService)
    return seen


class TestFlagScoping:
    """Each verb parses exactly the shared flags it honours: a flag it
    would ignore exits 2 from argparse, one it accepts reaches the API."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "r0001", "r0002", "--executor", "thread"],
            ["gate", "--baseline", "main", "--layout", "columnar"],
            ["load", "--workers", "2"],
            ["serve", "--spec-file", "batch.json", "--layout", "columnar"],
            ["ablate", "--workloads", "micro", "--record"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]),
    )
    def test_flags_a_verb_would_ignore_do_not_parse(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compare_flags_reach_api_compare(self, monkeypatch):
        call = _stub(monkeypatch, "repro.api.compare")
        with pytest.raises(_Reached):
            run_cli("compare", "r0001", "r0002", "--store-dir", "S",
                    "--metric", "duration", "--metric", "throughput",
                    "--tolerance", "0.2")
        assert call["args"] == ("r0001", "r0002")
        assert call["kwargs"] == {
            "store_dir": "S", "metrics": ["duration", "throughput"],
            "tolerance": 0.2,
        }

    def test_gate_flags_reach_api_gate(self, monkeypatch):
        call = _stub(monkeypatch, "repro.api.gate")
        with pytest.raises(_Reached):
            run_cli("gate", "r0009", "--baseline", "main",
                    "--store-dir", "S", "--metric", "duration",
                    "--tolerance", "0.3", "--fail-on-inconclusive")
        assert call["args"] == ("main", "r0009")
        assert call["kwargs"] == {
            "store_dir": "S", "metrics": ["duration"], "tolerance": 0.3,
            "fail_on_inconclusive": True,
        }

    def test_unset_tolerance_defers_to_the_api_default(self, monkeypatch):
        call = _stub(monkeypatch, "repro.api.gate")
        with pytest.raises(_Reached):
            run_cli("gate", "--baseline", "main")
        assert call["args"] == ("main", None)
        assert call["kwargs"] == {
            "store_dir": None, "metrics": None,
            "fail_on_inconclusive": False,
        }

    def test_load_flags_reach_api_load(self, monkeypatch):
        call = _stub(monkeypatch, "repro.api.load")
        with pytest.raises(_Reached):
            run_cli("load", "micro-wordcount", "--store-dir", "S",
                    "--record", "--layout", "columnar",
                    "--param", "top_k=3", "--engine", "mapreduce",
                    "--volume", "50", "--rate", "20", "--duration", "2",
                    "--arrival", "bursty", "--burst-factor", "4",
                    "--service", "--schedulers", "3", "--seed", "7")
        assert call["args"] == ("micro-wordcount",)
        kwargs = call["kwargs"]
        assert (kwargs["store_dir"], kwargs["record"]) == ("S", True)
        assert kwargs["layout"] == "columnar"
        assert kwargs["params"] == {"top_k": 3}
        assert (kwargs["engine"], kwargs["volume"]) == ("mapreduce", 50)
        assert (kwargs["arrival"], kwargs["burst_factor"]) == ("bursty", 4.0)
        assert (kwargs["rate"], kwargs["duration"]) == (20.0, 2.0)
        assert (kwargs["service"], kwargs["schedulers"]) == (True, 3)
        assert kwargs["seed"] == 7
        # Arrival options left unset defer to the arrival process.
        assert "period" not in kwargs and "amplitude" not in kwargs

    def test_ablate_flags_reach_api_ablate(self, monkeypatch):
        call = _stub(monkeypatch, "repro.api.ablate")
        with pytest.raises(_Reached):
            run_cli("ablate", "--workloads", "micro", "--engines", "dbms",
                    "--store-dir", "S", "--executor", "thread",
                    "--workers", "2", "--layout", "columnar",
                    "--param", "top_k=3", "--repeats", "2",
                    "--volume", "40", "--alpha", "0.1",
                    "--service", "--schedulers", "3")
        assert call["args"] == ("micro", "dbms")
        kwargs = call["kwargs"]
        assert kwargs["store_dir"] == "S"
        assert (kwargs["executor"], kwargs["max_workers"]) == ("thread", 2)
        assert kwargs["layout"] == "columnar"
        assert kwargs["params"] == {"top_k": 3}
        assert (kwargs["repeats"], kwargs["volume"]) == (2, 40)
        assert (kwargs["service"], kwargs["schedulers"]) == (True, 3)
        assert kwargs["alpha"] == 0.1
        assert "tolerance" not in kwargs

    def test_serve_flags_reach_the_service(self, monkeypatch, tmp_path):
        from repro.api import BenchmarkSpec

        spec_file = tmp_path / "batch.json"
        spec_file.write_text(
            json.dumps(BenchmarkSpec("micro-wordcount", volume=30).as_dict())
        )
        seen = _stub_service(monkeypatch)
        with pytest.raises(_Reached):
            run_cli("serve", "--spec-file", str(spec_file),
                    "--store-dir", "S", "--record", "--executor", "thread",
                    "--workers", "2", "--schedulers", "3",
                    "--client", "nightly")
        assert seen["options"] == {"schedulers": 3, "store_dir": "S"}
        assert seen["submit"] == {"client": "nightly"}
        spec = seen["spec"]
        assert (spec.record, spec.executor, spec.max_workers) == (
            True, "thread", 2
        )
        assert (spec.prescription, spec.volume) == ("micro-wordcount", 30)

    def test_run_and_submit_build_the_same_spec(self, monkeypatch):
        """One spec builder: the flags the two verbs share yield equal
        specs, whichever verb parsed them."""
        shared = ["micro-wordcount", "--engine", "mapreduce",
                  "--volume", "30", "--repeats", "2",
                  "--param", "top_k=3", "--executor", "thread",
                  "--workers", "2", "--record", "--store-dir", "S",
                  "--layout", "columnar", "--tuning", "optimized"]
        run_call = _stub(monkeypatch, "repro.api.run")
        with pytest.raises(_Reached):
            run_cli("run", *shared)
        seen = _stub_service(monkeypatch)
        with pytest.raises(_Reached):
            run_cli("submit", *shared)
        assert seen["spec"] == run_call["args"][0]
        assert seen["spec"].store_dir == "S"
