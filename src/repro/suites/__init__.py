"""Models and runnable miniatures of the ten surveyed benchmark suites.

This package regenerates the paper's evaluation artifacts:

* Table 1 (data-generation techniques) — derived by
  :mod:`repro.suites.classify` from capability facts in
  :mod:`repro.suites.registry`;
* Table 2 (benchmarking techniques) — derived from each suite's workload
  inventory;
* each suite additionally has an executable miniature
  (:mod:`repro.suites.miniatures`) running its workloads on this
  repository's engines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.suites.classify": (
            "Table1Row", "classify_generator", "classify_suite",
        ),
        "repro.suites.miniatures": (
            "MINIATURES", "MiniatureReport", "run_miniature",
        ),
        "repro.suites.registry": ("SUITES", "SuiteModel", "suite"),
        "repro.suites.tables": (
            "PAPER_TABLE1", "PAPER_TABLE2", "Table2Row", "generate_table1",
            "generate_table2", "table1_matches_paper", "table2_matches_paper",
        ),
    },
)
