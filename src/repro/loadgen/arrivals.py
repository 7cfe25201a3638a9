"""Open-loop arrival schedules (load generation, piece 1 of 4).

Section 5.1 demands *fully controllable* data velocity; this module is
the request-side half of that control: a seeded schedule of arrival
timestamps at a target offered rate, in one of four shapes —

* ``constant`` — fixed inter-arrival gaps (a perfectly paced client);
* ``poisson``  — memoryless arrivals, the open-system null model;
* ``bursty``   — a two-state on/off process alternating between a quiet
  rate and a burst rate (YCSB-style bursty traffic);
* ``diurnal``  — sinusoidally rate-modulated arrivals (a compressed
  day/night cycle).

The shapes reuse the :class:`~repro.datagen.stream.ArrivalProcess`
machinery the stream generator already has, so the same processes that
*generate* event data also *drive* load.  Schedules are pure functions
of ``(kind, rate, duration, seed)`` — the determinism the SLO verdict
contract rests on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import LoadGenError
from repro.datagen.base import mix_seed
from repro.datagen.stream import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    UniformArrivals,
)

#: The arrival kinds ``arrival_process`` accepts (CLI ``--arrival``).
ARRIVAL_KINDS = ("constant", "poisson", "bursty", "diurnal")

#: Seed-stream tag separating schedule draws from every other consumer
#: of the same user seed.
_SCHEDULE_STREAM = 0x10AD


def arrival_process(kind: str, rate: float, **options) -> ArrivalProcess:
    """Build the arrival process for one named kind at ``rate`` req/s.

    ``bursty`` accepts ``burst_factor`` (the quiet rate is
    ``rate / burst_factor``, the burst rate ``rate * burst_factor``) and
    ``switch_probability``; ``diurnal`` accepts ``period`` and
    ``amplitude``.
    """
    if not 0 < rate < math.inf:
        raise LoadGenError(f"rate must be positive and finite, got {rate}")
    for name, value in options.items():
        if not math.isfinite(float(value)):
            raise LoadGenError(f"{name} must be finite, got {value}")
    if kind == "constant":
        return UniformArrivals(rate)
    if kind == "poisson":
        return PoissonArrivals(rate)
    if kind == "bursty":
        burst_factor = float(options.pop("burst_factor", 4.0))
        if burst_factor <= 1.0:
            raise LoadGenError(
                f"burst_factor must exceed 1.0, got {burst_factor}"
            )
        # The on/off process spends ~half its *events* in each state, so
        # its long-run rate is the harmonic mean of the state rates —
        # naive low=rate/f, high=rate*f would offer well under the
        # nominal rate.  Keep the f² burst-to-quiet ratio but scale both
        # states so the harmonic mean equals `rate`: --rate means what
        # it says for every arrival kind.
        scale = (burst_factor * burst_factor + 1) / (2 * burst_factor)
        return BurstyArrivals(
            low_rate=rate / burst_factor * scale,
            high_rate=rate * burst_factor * scale,
            switch_probability=float(
                options.pop("switch_probability", 0.05)
            ),
        )
    if kind == "diurnal":
        return DiurnalArrivals(
            rate=rate,
            period=float(options.pop("period", 60.0)),
            amplitude=float(options.pop("amplitude", 0.8)),
        )
    raise LoadGenError(
        f"unknown arrival kind {kind!r}; available: "
        f"{', '.join(ARRIVAL_KINDS)}"
    )


def arrival_schedule(
    kind: str,
    rate: float,
    duration: float,
    seed: int = 0,
    **options,
) -> list[float]:
    """Seeded arrival timestamps within ``[0, duration)``, ascending.

    Stateful processes (bursty, diurnal) must draw their gaps in a
    single call to keep phase continuity, so the schedule is drawn with
    a generous count estimate and redrawn from scratch (with a fresh
    sub-seed, keeping determinism) in the rare case the estimate falls
    short of ``duration``.
    """
    if not 0 < duration < math.inf:
        raise LoadGenError(
            f"duration must be positive and finite, got {duration}"
        )
    process = arrival_process(kind, rate, **options)
    count = max(16, int(rate * duration * 1.5) + 16)
    for attempt in range(16):
        rng = np.random.default_rng(
            mix_seed(seed, _SCHEDULE_STREAM, attempt)
        )
        timestamps = process.timestamps(rng, count)
        if len(timestamps) and timestamps[-1] >= duration:
            return [float(t) for t in timestamps[timestamps < duration]]
        count *= 2
    raise LoadGenError(
        f"could not fill a {duration}s schedule at rate {rate} "
        f"(kind {kind!r}); the process stalls far below its nominal rate"
    )
