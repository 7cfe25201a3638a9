"""Tuning profiles: knob surfaces, validation, and fingerprints."""

from __future__ import annotations

import pytest

import repro  # noqa: F401 - triggers default registration
from repro.core.errors import ReproError, SpecError, TuningError
from repro.execution.plan import engine_configuration
from repro.tuning.profiles import (
    ENGINE_KNOBS,
    ONE_OFF_PREFIX,
    TuningProfile,
    available_profiles,
    get_profile,
    normal,
    one_off_profiles,
    optimized,
)


class TestErrorHierarchy:
    def test_tuning_error_is_a_spec_error(self):
        assert issubclass(TuningError, SpecError)
        assert issubclass(TuningError, ReproError)


class TestNormalProfile:
    @pytest.mark.parametrize("engine", sorted(ENGINE_KNOBS))
    def test_normal_is_bare(self, engine):
        profile = normal(engine)
        assert profile.is_normal
        assert profile.knobs == {}
        assert profile.fingerprint() is None

    def test_normal_configuration_is_none_on_row_layout(self):
        # Load-bearing: a bare engine is what every historical run
        # used, so normal/row must not wrap the engine at all.
        assert engine_configuration("dbms", "row", normal("dbms")) is None

    def test_normal_configuration_carries_layout_options(self):
        configuration = engine_configuration(
            "dbms", "columnar", normal("dbms")
        )
        assert configuration is not None
        assert configuration.options["layout"] == "columnar"

    def test_unknown_engine_normal_is_allowed(self):
        assert normal("custom-engine").validate().is_normal


class TestOptimizedProfile:
    @pytest.mark.parametrize("engine", ["dbms", "mapreduce", "nosql", "dfs"])
    def test_optimized_is_tuned_and_buildable(self, engine):
        profile = optimized(engine).validate()
        assert not profile.is_normal
        assert profile.fingerprint()["profile"] == "optimized"
        assert set(profile.knobs) <= set(ENGINE_KNOBS[engine])

    def test_streaming_optimized_equals_normal(self):
        assert optimized("streaming").is_normal

    def test_unknown_engine_optimized_equals_normal(self):
        assert optimized("custom-engine").is_normal

    def test_fingerprint_knobs_are_sorted(self):
        fingerprint = optimized("dbms").fingerprint()
        assert list(fingerprint["knobs"]) == sorted(fingerprint["knobs"])

    def test_profile_knobs_win_over_layout_options(self):
        # optimized dbms pins layout=columnar; asking for row layout
        # must not undo the profile's choice.
        configuration = engine_configuration(
            "dbms", "row", optimized("dbms")
        )
        assert configuration.options["layout"] == "columnar"


class TestValidation:
    def test_unknown_knob_rejected(self):
        with pytest.raises(TuningError, match="unknown knob"):
            TuningProfile("dbms", "x", {"turbo": True}).validate()

    def test_unknown_engine_with_knobs_rejected(self):
        with pytest.raises(TuningError, match="no tuning surface"):
            TuningProfile("spark", "x", {"layout": "columnar"}).validate()

    def test_unbuildable_knob_value_rejected(self):
        with pytest.raises(TuningError, match="does not build"):
            TuningProfile("dbms", "x", {"layout": "diagonal"}).validate()


class TestRegistry:
    def test_get_profile_resolves_builtins(self):
        assert get_profile("dbms", "normal").is_normal
        assert get_profile("dbms", "optimized").knobs["layout"] == "columnar"

    def test_get_profile_resolves_one_offs(self):
        profile = get_profile("dbms", "normal+batch_size")
        assert profile.knobs == {"batch_size": 2048}

    def test_one_off_for_wrong_engine_rejected(self):
        with pytest.raises(TuningError, match="no optimized knob"):
            get_profile("mapreduce", "normal+batch_size")

    def test_unknown_profile_rejected(self):
        with pytest.raises(TuningError, match="unknown tuning profile"):
            get_profile("dbms", "hyperspeed")

    def test_one_offs_cover_every_optimized_knob(self):
        knobs = {
            profile.name[len(ONE_OFF_PREFIX):]
            for profile in one_off_profiles("dbms")
        }
        assert knobs == set(optimized("dbms").knobs)

    def test_single_knob_engines_have_no_one_offs(self):
        assert one_off_profiles("mapreduce") == []
        assert one_off_profiles("nosql") == []
        assert one_off_profiles("dfs") == []
        assert one_off_profiles("streaming") == []

    def test_available_profiles_all_resolve(self):
        for engine in sorted(ENGINE_KNOBS):
            for name in available_profiles(engine):
                assert get_profile(engine, name).name == name


class TestSerialization:
    def test_round_trip(self):
        profile = optimized("mapreduce")
        clone = TuningProfile.from_dict(profile.as_dict())
        assert clone == profile

    def test_knobs_do_not_alias(self):
        profile = optimized("dbms")
        payload = profile.as_dict()
        payload["knobs"]["layout"] = "row"
        assert profile.knobs["layout"] == "columnar"
