"""A from-scratch relational engine (the parallel-DBMS substitute)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engines.dbms.catalog": ("Catalog",),
        "repro.engines.dbms.engine": ("DbmsEngine", "QueryResult"),
        "repro.engines.dbms.expressions": ("col", "lit"),
        "repro.engines.dbms.planner": (
            "JoinSpec", "Planner", "PlannerConfig", "Query", "QueryBuilder",
        ),
        "repro.engines.dbms.plans": ("Aggregate",),
        "repro.engines.dbms.storage": ("HeapTable", "SortedIndex"),
    },
)
