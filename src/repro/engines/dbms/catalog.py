"""The system catalog: the tables of one database."""

from __future__ import annotations

from repro.core.errors import EngineError
from repro.engines.dbms.storage import HeapTable


class Catalog:
    """Name → table registry."""

    def __init__(self) -> None:
        self._tables: dict[str, HeapTable] = {}

    def create_table(self, name: str, schema: tuple[str, ...]) -> HeapTable:
        if name in self._tables:
            raise EngineError(f"table {name!r} already exists")
        table = HeapTable(name, schema)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise EngineError(f"cannot drop unknown table {name!r}")
        del self._tables[name]

    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name]
        except KeyError:
            raise EngineError(
                f"unknown table {name!r}; tables: {sorted(self._tables)}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables
