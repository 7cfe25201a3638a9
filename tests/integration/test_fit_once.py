"""One process trains one model once, whichever path asks for it.

Figure 3 separates learning a model (step 2) from generating with it
(step 3).  Before the fitted-model cache, every ``select_data`` that
missed the dataset cache trained again: twice in a chunked run (step 2
and the runner), once per point of a volume sweep, once per ``api.run``,
once per pool worker.  Each test counts the trainings (``LdaModel.fit``,
``FittedTableGenerator.fit``) by process, through a file the forked
workers append to as well.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro import api
from repro.datagen.table import FittedTableGenerator
from repro.datagen.text import LdaModel

#: Tests about fitting start from no model on disk either.
pytestmark = pytest.mark.usefixtures("empty_cache_home")


@pytest.fixture
def fits(monkeypatch, tmp_path):
    """``fits()`` → how many models each process has trained so far."""
    log = tmp_path / "fits.log"
    log.touch()

    def counted(original):
        def fit(self, data):
            with log.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(self, data)

        return fit

    for owner in (LdaModel, FittedTableGenerator):
        monkeypatch.setattr(owner, "fit", counted(owner.fit))
    return lambda: Counter(map(int, log.read_text().split()))


def test_a_chunked_run_with_repeats_fits_once(fits):
    report = api.run(
        "micro-grep", volume=60, chunk_size=16, repeats=3, executor="serial"
    )
    assert not report.failures
    assert fits() == {os.getpid(): 1}


def test_a_volume_sweep_fits_once(fits):
    sweep = api.sweep("micro-grep", "mapreduce", volumes=[20, 30, 40, 50])
    assert len(sweep.points) == 4
    assert fits() == {os.getpid(): 1}


def test_a_second_run_of_one_spec_fits_nothing(fits):
    first = api.run("micro-grep", volume=60, executor="serial", chunk_size=None)
    second = api.run("micro-grep", volume=60, executor="serial", chunk_size=None)
    assert fits() == {os.getpid(): 1}
    assert [
        report.step("data-generation").detail["model"]["cache"]
        for report in (first, second)
    ] == ["fitted", "hit"]
    assert (
        first.step("data-generation").detail["bytes"]
        == second.step("data-generation").detail["bytes"]
    )


@pytest.mark.parametrize("chunk_size", [None, 16], ids=["materialized", "chunked"])
def test_forked_workers_inherit_the_parents_model(fits, chunk_size):
    # Three engines, so the batch fans out.  Chunked tasks ship no
    # records: each worker calls select_data itself, and finds the model
    # its parent fitted in step 2.
    report = api.run(
        "database-aggregate-join", volume=60, chunk_size=chunk_size,
        executor="process", max_workers=2,
    )
    assert not report.failures
    assert all(
        result.extra["worker"]["pid"] != os.getpid()
        for result in report.results
    )
    assert fits() == {os.getpid(): 1}
