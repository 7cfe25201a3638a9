"""Typed tuning profiles: documented knob surfaces per engine.

A :class:`TuningProfile` is a named, serializable set of knob values for
one engine.  The contract that keeps historical data comparable:

* ``normal`` is the **bare engine** — no knobs at all.  Every run the
  store recorded before tuning profiles existed was implicitly normal,
  so a normal profile contributes nothing to the spec fingerprint and
  those series stay byte-identical.
* any non-normal profile forks the series: its name and knob values
  join the fingerprint (see
  :func:`repro.analysis.store.spec_fingerprint`), exactly like the
  ``layout`` field before it.

Knob names are validated against each engine's *actual* constructor or
config surface — a profile is proven buildable
(:meth:`TuningProfile.validate` instantiates the configured engine)
before any benchmark spends time on it.  The per-engine surfaces:

======== ==============================================================
engine   knobs
======== ==============================================================
dbms     :class:`~repro.engines.dbms.planner.PlannerConfig` fields:
         ``join_algorithm``, ``use_indexes``, ``predicate_pushdown``,
         ``nested_loop_threshold``, ``layout``, ``batch_size``
mapreduce cluster split/slot shape (``num_nodes``, ``slots_per_node``,
         ``seconds_per_record``, ``network_bytes_per_second``,
         ``speculative_execution``)
nosql    ``num_partitions``, ``replication``
streaming ``service_seconds_per_event``
dfs      ``num_nodes``, ``block_size``, ``replication``,
         ``disk_bytes_per_second``, ``network_bytes_per_second``,
         ``seek_seconds``
======== ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import TuningError

#: Engine → the engine-level knob names a profile may set.  Each name
#: maps one-to-one onto the engine's constructor/config surface, which
#: :meth:`TuningProfile.validate` exercises for real.
ENGINE_KNOBS: dict[str, tuple[str, ...]] = {
    "dbms": (
        "join_algorithm",
        "use_indexes",
        "predicate_pushdown",
        "nested_loop_threshold",
        "layout",
        "batch_size",
    ),
    "mapreduce": (
        "num_nodes",
        "slots_per_node",
        "seconds_per_record",
        "network_bytes_per_second",
        "speculative_execution",
    ),
    "nosql": ("num_partitions", "replication"),
    "streaming": ("service_seconds_per_event",),
    "dfs": (
        "num_nodes",
        "block_size",
        "replication",
        "disk_bytes_per_second",
        "network_bytes_per_second",
        "seek_seconds",
    ),
}

#: The documented optimized knob set per engine.  Chosen to mirror the
#: paper's Table 2 techniques on each substrate: vectorized columnar
#: execution + hash joins on the DBMS, more task slots on MapReduce,
#: finer partitioning on the NoSQL store, larger
#: blocks (fewer seeks) on the DFS.  Streaming has no honest tuning
#: knob beyond its service rate, which *is* the benchmark variable —
#: its optimized profile equals normal and the ablation driver skips
#: the redundant cell.
OPTIMIZED_KNOBS: dict[str, dict[str, Any]] = {
    "dbms": {"layout": "columnar", "join_algorithm": "hash", "batch_size": 2048},
    "mapreduce": {"slots_per_node": 4},
    "nosql": {"num_partitions": 16},
    "streaming": {},
    "dfs": {"block_size": 65536},
}

#: The two named built-in profiles every engine has.
PROFILE_NAMES = ("normal", "optimized")

#: One-off profile names are spelled ``normal+<knob>``: normal with a
#: single knob lifted from the optimized set.
ONE_OFF_PREFIX = "normal+"


@dataclass
class TuningProfile:
    """A named, serializable knob assignment for one engine."""

    engine: str
    name: str
    knobs: dict[str, Any] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        self.knobs = dict(self.knobs)

    @property
    def is_normal(self) -> bool:
        """No knobs set — the bare engine, the historical baseline."""
        return not self.knobs

    def fingerprint(self) -> dict[str, Any] | None:
        """The payload that forks a run-store series, or None.

        Normal profiles return None so pre-tuning series stay
        byte-identical; anything else contributes its name and the
        sorted knob assignment.
        """
        if self.is_normal:
            return None
        return {
            "profile": self.name,
            "knobs": {key: self.knobs[key] for key in sorted(self.knobs)},
        }

    def validate(self) -> "TuningProfile":
        """Prove the profile buildable; raise :class:`TuningError` if not.

        Checks knob names against :data:`ENGINE_KNOBS`, then actually
        instantiates the configured engine — so a type error or
        constraint violation (e.g. ``replication > num_partitions``)
        surfaces at planning time, not mid-benchmark.
        """
        allowed = ENGINE_KNOBS.get(self.engine)
        if allowed is None:
            if self.is_normal:
                return self
            raise TuningError(
                f"engine {self.engine!r} has no tuning surface; "
                f"tunable engines: {sorted(ENGINE_KNOBS)}"
            )
        unknown = sorted(key for key in self.knobs if key not in allowed)
        if unknown:
            raise TuningError(
                f"unknown knob(s) {unknown} for engine {self.engine!r}; "
                f"allowed: {sorted(allowed)}"
            )
        if self.knobs:
            from repro.execution.config import SystemConfiguration

            try:
                SystemConfiguration(self.engine, dict(self.knobs)).build()
            except TuningError:
                raise
            except Exception as error:
                raise TuningError(
                    f"profile {self.name!r} does not build on engine "
                    f"{self.engine!r}: {error}"
                ) from error
        return self

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "name": self.name,
            "knobs": dict(self.knobs),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TuningProfile":
        return cls(
            engine=payload["engine"],
            name=payload["name"],
            knobs=dict(payload.get("knobs", {})),
            description=payload.get("description", ""),
        )


# ---------------------------------------------------------------------------
# Built-in profiles
# ---------------------------------------------------------------------------


def normal(engine: str) -> TuningProfile:
    """Every engine's baseline: the bare registry engine, no knobs."""
    return TuningProfile(
        engine,
        "normal",
        {},
        description="engine defaults (the historical baseline)",
    )


def optimized(engine: str) -> TuningProfile:
    """The documented tuned configuration for ``engine``.

    Engines without a documented optimized knob set (custom registry
    engines, or streaming) get a profile equal to normal — honest, and
    detectable via :attr:`TuningProfile.is_normal`.
    """
    return TuningProfile(
        engine,
        "optimized",
        dict(OPTIMIZED_KNOBS.get(engine, {})),
        description="documented tuned configuration (see ENGINE_KNOBS)",
    )


def one_off_profiles(engine: str) -> list[TuningProfile]:
    """Per-knob one-offs: normal with a single optimized knob applied.

    These are what the attribution table is built from — each isolates
    one knob's contribution to the optimized profile's delta.  Engines
    whose optimized profile has at most one knob get none (the one-off
    would duplicate the optimized cell).
    """
    knobs = OPTIMIZED_KNOBS.get(engine, {})
    if len(knobs) <= 1:
        return []
    return [
        TuningProfile(
            engine,
            f"{ONE_OFF_PREFIX}{knob}",
            {knob: knobs[knob]},
            description=f"normal with only {knob}={knobs[knob]!r}",
        )
        for knob in sorted(knobs)
    ]


def get_profile(engine: str, name: str) -> TuningProfile:
    """Resolve a profile name for one engine, validated.

    Accepts ``normal``, ``optimized``, and the per-knob one-off
    spelling ``normal+<knob>`` (where ``<knob>`` belongs to the
    engine's optimized set).  Raises :class:`TuningError` otherwise —
    which is also how a spec naming a one-off for the wrong engine
    fails at planning time.
    """
    if name == "normal":
        return normal(engine)
    if name == "optimized":
        return optimized(engine).validate()
    if name.startswith(ONE_OFF_PREFIX):
        knob = name[len(ONE_OFF_PREFIX):]
        knobs = OPTIMIZED_KNOBS.get(engine, {})
        if knob in knobs:
            return TuningProfile(
                engine,
                name,
                {knob: knobs[knob]},
                description=f"normal with only {knob}={knobs[knob]!r}",
            ).validate()
        raise TuningError(
            f"engine {engine!r} has no optimized knob {knob!r}; "
            f"available one-offs: "
            f"{[ONE_OFF_PREFIX + key for key in sorted(knobs)]}"
        )
    raise TuningError(
        f"unknown tuning profile {name!r} for engine {engine!r}; "
        f"available: {list(available_profiles(engine))}"
    )


def available_profiles(engine: str) -> list[str]:
    """Every profile name :func:`get_profile` resolves for ``engine``."""
    names = ["normal", "optimized"]
    knobs = OPTIMIZED_KNOBS.get(engine, {})
    if len(knobs) > 1:
        names.extend(f"{ONE_OFF_PREFIX}{knob}" for knob in sorted(knobs))
    return names


def builtin_profiles() -> dict[str, dict[str, TuningProfile]]:
    """engine → name → profile, for every engine with a tuning surface."""
    table: dict[str, dict[str, TuningProfile]] = {}
    for engine in ENGINE_KNOBS:
        table[engine] = {
            name: get_profile(engine, name)
            for name in available_profiles(engine)
        }
    return table
