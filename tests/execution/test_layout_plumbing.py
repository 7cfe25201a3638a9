"""The ``layout`` knob end to end: spec → process → store → CLI → api.

The execution layout (row | columnar) travels from every public
surface down to the engines: :class:`BenchmarkSpec` carries it through
the five-step process, the shared CLI parent exposes ``--layout``,
``api.sweep``/``api.load`` thread it into the harness and load
targets, and the run-store fingerprint includes it only when
non-default so historical row series stay byte-identical.  That every
door runs and records a columnar spec as ``api.run`` does is the plan
product property's (``tests/integration/test_plan_product.py``).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.store import fingerprint_hash, spec_fingerprint
from repro.cli import main
from repro.core.errors import SpecError
from repro.core.process import BenchmarkingProcess
from repro.core.spec import BenchmarkSpec
from repro.execution.config import layout_options
from repro.execution.plan import engine_configuration


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSpec:
    def test_default_is_row(self):
        assert BenchmarkSpec("micro-wordcount").layout == "row"

    def test_invalid_layout_rejected(self):
        from repro.core.prescription import builtin_repository

        with pytest.raises(SpecError):
            BenchmarkSpec("micro-wordcount", layout="diagonal").validate(
                builtin_repository()
            )

    def test_old_serialized_specs_default_to_row(self):
        spec = BenchmarkSpec("micro-wordcount", volume=40)
        payload = spec.as_dict()
        payload.pop("layout", None)  # a pre-layout serialization
        assert BenchmarkSpec.from_dict(payload).layout == "row"

    def test_layout_round_trips(self):
        spec = BenchmarkSpec("micro-wordcount", layout="columnar")
        assert BenchmarkSpec.from_dict(spec.as_dict()).layout == "columnar"


class TestLayoutConfigurations:
    def test_row_needs_no_overrides(self):
        assert layout_options("row") == {}
        assert engine_configuration("dbms", "row") is None

    def test_columnar_is_a_dbms_notion(self):
        assert layout_options("columnar") == {"dbms": {"layout": "columnar"}}

    @pytest.mark.parametrize(
        "engine", ["mapreduce", "nosql", "streaming", "dfs"]
    )
    def test_engines_without_layout_notion_run_bare(self, engine):
        assert engine_configuration(engine, "columnar") is None

    def test_configuration_builds_columnar_engine(self):
        engine = engine_configuration("dbms", "columnar").build()
        assert engine.execution_layout == "columnar"


class TestProcess:
    def test_columnar_spec_reaches_the_engines(self):
        spec = BenchmarkSpec(
            "database-aggregate-join", engines=["dbms"], volume=120,
            layout="columnar",
        )
        report = BenchmarkingProcess().execute(spec)
        assert report.step("execution").detail["layout"] == "columnar"
        [result] = report.results
        assert result.extra["layout"] == "columnar"
        assert result.extra["plan"]["layout"] == "columnar"

    def test_row_spec_stays_row(self):
        spec = BenchmarkSpec(
            "database-aggregate-join", engines=["dbms"], volume=120
        )
        report = BenchmarkingProcess().execute(spec)
        [result] = report.results
        assert result.extra["layout"] == "row"
        assert result.extra["plan"]["layout"] == "row"


class TestFingerprint:
    def test_row_layout_leaves_payload_untouched(self):
        with_default = spec_fingerprint("p", "dbms", layout="row")
        without = spec_fingerprint("p", "dbms")
        assert "layout" not in with_default
        assert fingerprint_hash(with_default) == fingerprint_hash(without)

    def test_columnar_layout_forks_the_series(self):
        row = spec_fingerprint("p", "dbms")
        columnar = spec_fingerprint("p", "dbms", layout="columnar")
        assert columnar["layout"] == "columnar"
        assert fingerprint_hash(row) != fingerprint_hash(columnar)


class TestCli:
    def test_layout_flag_runs_columnar(self):
        code, output = run_cli(
            "run", "database-aggregate-join", "--engine", "dbms",
            "--volume", "100", "--layout", "columnar", "--json",
        )
        assert code == 0
        [payload] = json.loads(output)
        assert payload["extra"]["layout"] == "columnar"

    def test_layout_defaults_to_row(self):
        code, output = run_cli(
            "run", "database-aggregate-join", "--engine", "dbms",
            "--volume", "100", "--json",
        )
        assert code == 0
        [payload] = json.loads(output)
        assert payload["extra"]["layout"] == "row"

    def test_invalid_layout_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run_cli(
                "run", "micro-wordcount", "--layout", "diagonal"
            )


class TestApi:
    def test_param_sweep_threads_layout(self):
        from repro import api

        report = api.sweep(
            "micro-wordcount", "mapreduce",
            parameter="num_reduce_tasks", values=[2, 4],
            layout="columnar",
        )
        assert [point.value for point in report.points] == [2, 4]

    def test_load_workload_target_layout(self):
        from repro.core.spec import BenchmarkSpec
        from repro.loadgen.targets import WorkloadTarget

        target = WorkloadTarget(
            BenchmarkSpec(
                "database-aggregate-join", engines=["dbms"], volume=80,
                layout="columnar",
            )
        )
        target.setup()
        try:
            assert target._test.engine.execution_layout == "columnar"
        finally:
            target.teardown()

    def test_run_accepts_layout_option(self):
        from repro import api

        report = api.run(
            "database-aggregate-join", engines=["dbms"], volume=100,
            layout="columnar",
        )
        [result] = report.results
        assert result.extra["layout"] == "columnar"
