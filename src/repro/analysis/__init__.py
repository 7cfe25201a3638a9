"""Result analysis (the Execution Layer's closing component, Figure 2).

The paper names *result analysis* as a first-class piece of the
execution layer, and Section 5 asks for evaluation metrics that let
users **compare** systems.  This package closes the loop from
run → record → comparison → verdict:

* :mod:`repro.analysis.store` — a persistent, append-only run store
  (JSONL records keyed by a spec-fingerprint content hash, so identical
  configurations group into comparable series);
* :mod:`repro.analysis.compare` — statistical comparison of two runs or
  series: bootstrap confidence intervals on the mean, Mann–Whitney U,
  and relative-effect-size thresholds, emitting typed verdicts;
* :mod:`repro.analysis.baselines` — promote recorded runs to named
  baselines;
* :mod:`repro.analysis.gate` — evaluate new runs against a baseline
  with per-metric direction and tolerance: the CI regression gate.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.baselines": ("Baseline", "BaselineManager"),
        "repro.analysis.compare": (
            "Comparison", "MetricComparison", "VERDICTS", "compare_records",
            "compare_samples",
        ),
        "repro.analysis.gate": ("GateReport", "check_regressions"),
        "repro.analysis.store": (
            "RunRecord", "RunStore", "environment_fingerprint",
            "fingerprint_hash", "resolve_store_dir", "spec_fingerprint",
        ),
    },
)
