"""The persistent run store: records, series, references, resolution."""

from __future__ import annotations

import pytest

from repro.analysis.store import (
    DEFAULT_STORE_DIR,
    RECORD_ID_EXTRA_KEY,
    STORE_DIR_ENV,
    RunStore,
    environment_fingerprint,
    fingerprint_hash,
    resolve_store_dir,
    spec_fingerprint,
)
from repro.core.errors import AnalysisError
from repro.core.results import MetricStats, RunResult, TaskFailure


def make_result(samples=(1.0, 1.1, 0.9), engine="mapreduce", test="t1"):
    return RunResult(
        test_name=test,
        workload="wordcount",
        engine=engine,
        repeats=len(samples),
        metrics={"duration": MetricStats("duration", list(samples))},
    )


class TestFingerprints:
    def test_hash_is_deterministic_and_order_insensitive(self):
        a = fingerprint_hash({"x": 1, "y": "two"})
        b = fingerprint_hash({"y": "two", "x": 1})
        assert a == b
        assert len(a) == 12

    def test_different_content_different_hash(self):
        assert fingerprint_hash({"volume": 100}) != fingerprint_hash(
            {"volume": 200}
        )

    def test_spec_fingerprint_separates_what_runs_from_environment(self):
        fingerprint = spec_fingerprint(
            "micro-wordcount", "mapreduce", volume=100, repeats=3
        )
        assert fingerprint["prescription"] == "micro-wordcount"
        assert fingerprint["volume"] == 100
        # Environment facts live in the *other* fingerprint.
        assert "python" not in fingerprint
        assert "git_sha" not in fingerprint

    def test_spec_fingerprint_seed_falls_back_to_params(self):
        fingerprint = spec_fingerprint(
            "p", "e", params={"seed": 42, "k": 3}
        )
        assert fingerprint["seed"] == 42

    def test_environment_fingerprint_has_identity_fields(self):
        env = environment_fingerprint()
        assert env["python"]
        assert env["platform"]
        assert env["cpus"] >= 1


class TestPlatformStrings:
    """``platform.platform()`` is asked once per interpreter and kernel,
    then read from the cache (DESIGN.md §3.16)."""

    @pytest.fixture(autouse=True)
    def home(self, empty_cache_home):
        return empty_cache_home

    def test_a_warm_cache_records_what_platform_says(self, tmp_path, monkeypatch):
        import platform

        truth = {
            "python": platform.python_version(), "platform": platform.platform(),
        }
        store = RunStore(tmp_path / "store")
        for _ in range(2):
            environment_fingerprint(refresh=True)
            store.record_outcome(make_result(), spec_fingerprint("p", "e"))
            # The second recording must not ask platform again.
            monkeypatch.setattr(platform, "platform", _unasked)
        for record in store.records():
            assert {key: record.environment[key] for key in truth} == truth

    def test_a_damaged_file_is_asked_again(self, home):
        first = environment_fingerprint(refresh=True)
        (path,) = (home / "repro" / "platform").iterdir()
        path.write_bytes(path.read_bytes()[:-3])
        assert environment_fingerprint(refresh=True) == first
        path.write_bytes(b"not a platform file")
        assert environment_fingerprint(refresh=True) == first

    def test_an_unwritable_home_asks_every_time(self, tmp_path, monkeypatch):
        home = tmp_path / "a-file"
        home.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        assert environment_fingerprint(refresh=True)["platform"]


def _unasked(*args, **kwargs):
    raise AssertionError("platform.platform() was asked with a warm cache")


class TestRunStore:
    def test_record_round_trips_samples_and_status(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        result = make_result()
        record = store.record_outcome(result, {"k": 1})
        assert record.record_id == "r0001"
        assert result.extra[RECORD_ID_EXTRA_KEY] == "r0001"
        loaded = store.records()[0]
        assert loaded.samples("duration") == [1.0, 1.1, 0.9]
        assert loaded.status == "ok"
        assert loaded.ok
        assert loaded.mean("duration") == pytest.approx(1.0)

    def test_identical_fingerprints_share_a_series(self, tmp_path):
        store = RunStore(tmp_path)
        fingerprint = spec_fingerprint("p", "e", volume=10)
        first = store.record_outcome(make_result(), fingerprint)
        second = store.record_outcome(make_result(), fingerprint)
        other = store.record_outcome(
            make_result(), spec_fingerprint("p", "e", volume=20)
        )
        assert first.series == second.series != other.series
        assert [r.record_id for r in store.series(first.series)] == [
            "r0001",
            "r0002",
        ]

    def test_failure_records_carry_no_metrics(self, tmp_path):
        store = RunStore(tmp_path)
        failure = TaskFailure(
            test_name="t1",
            workload="w",
            engine="e",
            error_type="EngineError",
            error_message="boom",
        )
        record = store.record_outcome(failure, {"k": 1})
        assert not record.ok
        assert record.status == "failed"
        assert record.metrics == {}
        with pytest.raises(AnalysisError, match="no samples"):
            record.samples("duration")

    def test_reference_resolution(self, tmp_path):
        store = RunStore(tmp_path)
        fingerprint = spec_fingerprint("p", "e", volume=10)
        store.record_outcome(make_result(), fingerprint)
        store.record_outcome(make_result(), fingerprint)
        assert store.get("latest").record_id == "r0002"
        assert store.get("r0001").record_id == "r0001"
        series = store.records()[0].series
        # A series prefix resolves to that series' newest record.
        assert store.get(series[:6]).record_id == "r0002"
        assert store.latest(series).record_id == "r0002"

    def test_ambiguous_and_missing_references_raise(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(AnalysisError, match="no records"):
            store.get("latest")
        store.record_outcome(make_result(), {"k": 1})
        store.record_outcome(make_result(), {"k": 1})
        with pytest.raises(AnalysisError, match="ambiguous"):
            store.get("r00")  # matches r0001 and r0002
        with pytest.raises(AnalysisError, match="no record matching"):
            store.get("zzzz")

    def test_corrupt_store_raises_with_line_number(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_outcome(make_result(), {"k": 1})
        with store.path.open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(AnalysisError, match="line 2"):
            store.records()

    def test_a_torn_last_line_does_not_stop_recording(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_outcome(make_result(), {"k": 1})
        with store.path.open("a") as handle:
            handle.write('{"record_id": "r00')  # a crash mid-write
        assert [r.record_id for r in store.records()] == ["r0001"]
        assert store.record_outcome(make_result(), {"k": 1}).record_id == "r0002"
        assert [r.record_id for r in store.records()] == ["r0001", "r0002"]

    def test_constructing_a_store_never_touches_the_filesystem(
        self, tmp_path
    ):
        root = tmp_path / "never-created"
        store = RunStore(root)
        assert store.records() == []
        assert not root.exists()


class TestResolveStoreDir:
    def test_explicit_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_store_dir(tmp_path / "arg") == str(tmp_path / "arg")

    def test_environment_then_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_store_dir() == str(tmp_path / "env")
        monkeypatch.delenv(STORE_DIR_ENV)
        assert resolve_store_dir() == DEFAULT_STORE_DIR
