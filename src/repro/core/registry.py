"""Component registries.

The framework wires data generators, workloads, engines, and metrics by
name, so the user-interface layer can offer choices and prescriptions can
reference components declaratively (Figure 2).  A :class:`Registry` is a
typed name → factory map; module-level instances hold the framework-wide
catalogues.  A factory is a callable or a ``"module:attr"`` reference to
one: listing names imports nothing, and a reference is imported the
first time :meth:`Registry.create` asks for it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from importlib import import_module
from typing import Any, Generic, TypeVar

from repro.core.errors import RegistryError

T = TypeVar("T")


def resolve_reference(reference: str) -> Any:
    """Import the object a ``"module:attr"`` reference names."""
    module, _, attribute = reference.partition(":")
    return getattr(import_module(module), attribute)


class Registry(Generic[T]):
    """A name → factory registry with helpful error messages."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[[], T] | str] = {}

    def register(self, name: str, factory: Callable[[], T] | str) -> None:
        """Register a factory (or a ``"module:attr"`` reference to one);
        duplicate names are an error."""
        if name in self._factories:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered"
            )
        self._factories[name] = factory

    def register_instance(self, name: str, instance: T) -> None:
        """Register an already-built instance (returned on every create)."""
        self.register(name, lambda: instance)

    def create(self, name: str) -> T:
        """Instantiate the named component."""
        return self.resolve(name)()

    def resolve(self, name: str) -> Callable[[], T]:
        """The named component's factory (a class, usually), imported if
        it was registered as a reference."""
        factory = self._factories.get(name)
        if factory is None:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        if isinstance(factory, str):
            try:
                factory = self._factories[name] = resolve_reference(factory)
            except (ImportError, AttributeError) as error:
                raise RegistryError(
                    f"{self.kind} {name!r} is registered as {factory!r}, "
                    f"which cannot be loaded: {error}"
                ) from error
        return factory

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def clear(self) -> None:
        """Remove every registration (used by tests)."""
        self._factories.clear()


# ---------------------------------------------------------------------------
# Framework-wide registries.  The built-in entries are the reference tables
# of repro/bootstrap.py, registered when the repro package is imported.
# ---------------------------------------------------------------------------

#: name → DataGenerator factory
generators: Registry = Registry("data generator")
#: name → Workload factory
workloads: Registry = Registry("workload")
#: name → Engine factory
engines: Registry = Registry("engine")
#: name → Metric factory
metrics: Registry = Registry("metric")
