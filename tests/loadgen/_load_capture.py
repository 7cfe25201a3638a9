"""``LoadReport.summary()`` of the virtual-clock runner over a grid of plans,
with digests of every latency sample and queue-depth sample.

The fixture ``tests/fixtures/loadgen_parent.json`` is this script's output
on the commit before the open and closed loops shared one simulated
queue::

    PYTHONPATH=src python tests/loadgen/_load_capture.py \
        > tests/fixtures/loadgen_parent.json

It is never regenerated: a difference is a load report that changed
(the ``loadgen`` row of ``tests/test_captures.py``).  The
grid crosses every arrival kind, queue capacity 0/4/64, concurrency 1/4,
0/3/20 sessions (0 is the open loop) and think time 0/0.05, against a
seeded synthetic target and one that sheds or raises on chosen request
indexes.  Only public callables that exist on both sides are used, so the
same script measures parent and change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

from repro.core.errors import RequestShed
from repro.loadgen import ARRIVAL_KINDS, LoadPlan, LoadRunner, SyntheticTarget
from repro.loadgen.targets import LoadTarget

QUEUE_CAPACITIES = (0, 4, 64)
CONCURRENCIES = (1, 4)
SESSIONS = (0, 3, 20)
THINK_TIMES = (0.0, 0.05)
RATE = 150.0
DURATION = 1.0
SEED = 11


class FaultyTarget(LoadTarget):
    """A seeded service-time model except on chosen indexes: every 7th
    request (from 3) is shed by the target, every 11th (from 5) raises."""

    name = "faulty"

    def __init__(self) -> None:
        self._model = SyntheticTarget(mean_service=0.01, distribution="exponential")

    @staticmethod
    def _refused(request_index: int) -> bool:
        return request_index % 7 == 3 or request_index % 11 == 5

    def service_time(self, request_index, rng):
        if self._refused(request_index):
            return None
        return self._model.service_time(request_index, rng)

    def execute(self, request_index: int) -> None:
        if request_index % 7 == 3:
            raise RequestShed("target full")
        raise RuntimeError("request failed")


def _digest(values: list) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def targets() -> dict:
    return {
        "synthetic": lambda: SyntheticTarget(mean_service=0.008),
        "faulty": FaultyTarget,
    }


def capture() -> dict:
    out = {}
    for (name, make), arrival, capacity, concurrency, sessions, think in (
        itertools.product(
            targets().items(),
            ARRIVAL_KINDS,
            QUEUE_CAPACITIES,
            CONCURRENCIES,
            SESSIONS,
            THINK_TIMES,
        )
    ):
        plan = LoadPlan(
            arrival=arrival,
            rate=RATE,
            duration=DURATION,
            sessions=sessions,
            think_time=think,
            seed=SEED,
        )
        report = LoadRunner(
            make(), concurrency=concurrency, queue_capacity=capacity
        ).run(plan)
        key = f"{name}/{arrival}/q{capacity}/c{concurrency}/s{sessions}/t{think}"
        out[key] = {
            **report.summary(),
            "latencies": _digest(report.latencies),
            "queue_depth_samples": _digest(report.queue_depth_samples),
        }
    return out


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
