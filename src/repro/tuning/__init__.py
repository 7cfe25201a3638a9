"""Tuning ablations: per-engine tuned configuration surfaces.

The paper's Table 2 compares implementation techniques — indexes,
combiners, partitioning, caching — across systems, and conclusions are
only meaningful relative to a *documented* tuning state.  This package
gives every engine a first-class, serializable tuned-configuration
surface (:mod:`repro.tuning.profiles`) and an ablation driver
(:mod:`repro.tuning.ablate`) that sweeps workload × engine ×
{normal, optimized, per-knob one-off} with the statistical machinery of
:mod:`repro.analysis.compare` judging every pair.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.tuning.ablate": (
            "AblationCell", "AblationReport", "AblationVerdict",
            "render_ablation", "resolve_workloads", "run_ablation",
        ),
        "repro.tuning.profiles": (
            "ENGINE_KNOBS", "TuningProfile",
            "available_profiles", "builtin_profiles", "get_profile", "normal",
            "one_off_profiles", "optimized",
        ),
    },
)
