"""Tests for the open-loop arrival schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import LoadGenError
from repro.datagen.stream import DiurnalArrivals
from repro.loadgen import ARRIVAL_KINDS, arrival_process, arrival_schedule


class TestArrivalProcessFactory:
    def test_every_kind_builds(self):
        for kind in ARRIVAL_KINDS:
            process = arrival_process(kind, 50.0)
            gaps = process.gaps(np.random.default_rng(0), 100)
            assert len(gaps) == 100
            assert np.all(gaps >= 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(LoadGenError, match="unknown arrival kind"):
            arrival_process("sawtooth", 10.0)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(LoadGenError, match="rate must be positive"):
            arrival_process("poisson", 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_and_duration_rejected(self, value):
        with pytest.raises(LoadGenError, match="rate must be positive"):
            arrival_process("poisson", value)
        with pytest.raises(LoadGenError, match="duration must be positive"):
            arrival_schedule("poisson", 10.0, value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "kind, option",
        [("bursty", "burst_factor"), ("bursty", "switch_probability"),
         ("diurnal", "period"), ("diurnal", "amplitude")],
    )
    def test_non_finite_options_rejected(self, kind, option, value):
        with pytest.raises(LoadGenError, match=f"{option} must be finite"):
            arrival_process(kind, 10.0, **{option: value})

    def test_bursty_factor_validated(self):
        with pytest.raises(LoadGenError, match="burst_factor"):
            arrival_process("bursty", 10.0, burst_factor=1.0)

    def test_cli_choices_match_kinds(self):
        """The hardcoded CLI --arrival choices must track ARRIVAL_KINDS."""
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(["load", "--arrival", ARRIVAL_KINDS[-1]])
        assert args.arrival == ARRIVAL_KINDS[-1]


class TestArrivalSchedule:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_schedule_shape(self, kind):
        schedule = arrival_schedule(kind, 100.0, 5.0, seed=3)
        assert schedule == sorted(schedule)
        assert all(0.0 <= t < 5.0 for t in schedule)
        # The offered count lands near rate * duration.
        assert len(schedule) == pytest.approx(500, rel=0.5)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_schedule_is_deterministic(self, kind):
        first = arrival_schedule(kind, 50.0, 2.0, seed=9)
        second = arrival_schedule(kind, 50.0, 2.0, seed=9)
        assert first == second

    def test_seed_changes_schedule(self):
        assert arrival_schedule("poisson", 50.0, 2.0, seed=1) != (
            arrival_schedule("poisson", 50.0, 2.0, seed=2)
        )

    def test_constant_schedule_is_evenly_spaced(self):
        schedule = arrival_schedule("constant", 10.0, 1.0, seed=0)
        gaps = {round(b - a, 9) for a, b in zip(schedule, schedule[1:])}
        assert gaps == {0.1}

    def test_invalid_duration(self):
        with pytest.raises(LoadGenError, match="duration"):
            arrival_schedule("poisson", 10.0, 0.0)


class TestDiurnalArrivals:
    def test_rate_modulates_with_phase(self):
        """Peak-phase arrivals outnumber trough-phase arrivals."""
        process = DiurnalArrivals(rate=200.0, period=10.0, amplitude=0.9)
        stamps = process.timestamps(np.random.default_rng(5), 4000)
        stamps = stamps[stamps < 10.0]
        # sin peaks in the first half-period, troughs in the second.
        peak = np.count_nonzero(stamps < 5.0)
        trough = np.count_nonzero(stamps >= 5.0)
        assert peak > trough * 1.5

    def test_validation(self):
        from repro.core.errors import GenerationError

        with pytest.raises(GenerationError):
            DiurnalArrivals(rate=0.0)
        with pytest.raises(GenerationError):
            DiurnalArrivals(rate=1.0, amplitude=1.0)
        with pytest.raises(GenerationError):
            DiurnalArrivals(rate=1.0, period=0.0)
