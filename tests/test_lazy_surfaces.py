"""The lazy package surfaces and the ``name → "module:attr"`` catalogue.

Nothing is imported until it is asked for, so nothing proves at import
time that a table entry points anywhere: these tests resolve every
entry of the three tables in :mod:`repro.bootstrap` and every name a
package ``__all__`` promises, pin the registry order ``repro list``
prints, and check the one-idiom rule (every module-level
``__getattr__`` under ``src/repro`` comes from :mod:`repro._lazy`).
"""

from __future__ import annotations

import ast
import importlib
import io
import sys
from pathlib import Path

import pytest

from repro import bootstrap
from repro.cli import main
from repro.core import registry
from repro.core.errors import RegistryError
from repro.core.registry import Registry, resolve_reference
from repro.datagen.base import DataGenerator
from repro.engines.base import Engine
from repro.workloads.base import Workload

ROOT = Path(__file__).resolve().parent
SRC = ROOT.parent / "src" / "repro"

SURFACES = (
    "repro", "repro.api", "repro.analysis", "repro.datagen", "repro.engines",
    "repro.engines.dbms", "repro.engines.dfs", "repro.engines.mapreduce",
    "repro.engines.nosql", "repro.engines.streaming", "repro.execution",
    "repro.loadgen", "repro.observability", "repro.service", "repro.suites",
    "repro.tuning", "repro.workloads",
)

GENERATOR_NAMES = [
    "er-graph", "fitted-table", "kv-records", "lda-text", "mixture-table",
    "pa-graph", "poisson-stream", "random-text", "resumes", "rmat-graph",
    "texture-images", "unigram-text",
]
ENGINE_NAMES = ["dbms", "dfs", "mapreduce", "nosql", "streaming"]
#: Table order; ``names()`` is this, sorted.
WORKLOAD_ORDER = [
    "sort", "cfs", "terasort", "wordcount", "grep", "inverted-index",
    "pagerank", "kmeans", "connected-components", "collaborative-filtering",
    "naive-bayes", "relational-query", "count-url-links", "ycsb",
    "windowed-aggregation", "rolling-update-rate", "hybrid",
    "image-classification", "mlp-classification",
]


@pytest.fixture
def restored_registries():
    """Put the built-in catalogue back, whatever the test did to it."""
    yield
    bootstrap.register_default_components(force=True)


class TestCatalogueTables:
    def test_every_reference_resolves_to_its_kind(self):
        for table, kind in (
            (bootstrap.GENERATORS, DataGenerator),
            (bootstrap.WORKLOADS, Workload),
            (bootstrap.ENGINES, Engine),
        ):
            for name, reference in table.items():
                assert isinstance(resolve_reference(reference)(), kind), name

    def test_each_workload_key_is_the_class_name(self):
        for name, reference in bootstrap.WORKLOADS.items():
            assert resolve_reference(reference).name == name

    def test_names_and_order_are_pinned(self):
        assert registry.generators.names() == GENERATOR_NAMES
        assert registry.engines.names() == ENGINE_NAMES
        assert registry.workloads.names() == sorted(WORKLOAD_ORDER)
        assert list(bootstrap.WORKLOADS) == WORKLOAD_ORDER

    def test_the_parameterised_defaults_keep_their_parameters(self):
        lda = registry.generators.create("lda-text")
        assert lda.model.iterations == 15
        stream = registry.generators.create("poisson-stream")
        assert stream.arrivals.rate == 1000.0
        assert stream.update_fraction == 0.2

    def test_forced_registration_restores_a_cleared_catalogue(
        self, restored_registries
    ):
        for catalogue in (registry.generators, registry.workloads,
                          registry.engines):
            catalogue.clear()
            assert catalogue.names() == []
        bootstrap.register_default_components(force=True)
        assert registry.generators.names() == GENERATOR_NAMES
        assert registry.engines.names() == ENGINE_NAMES
        assert registry.workloads.names() == sorted(WORKLOAD_ORDER)
        assert registry.workloads.create("sort").name == "sort"

    def test_repro_list_is_byte_identical_to_the_pinned_output(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        assert out.getvalue() == (ROOT / "fixtures" / "repro_list.txt").read_text()


class TestRegistryReferences:
    def test_a_reference_is_imported_on_first_create_only(self):
        catalogue: Registry = Registry("thing")
        catalogue.register("decoder", "json:JSONDecoder")
        assert "decoder" in catalogue and list(catalogue) == ["decoder"]
        import json

        assert isinstance(catalogue.create("decoder"), json.JSONDecoder)
        assert catalogue._factories["decoder"] is json.JSONDecoder

    def test_callables_and_instances_register_beside_references(self):
        catalogue: Registry = Registry("thing")
        catalogue.register("reference", "collections:OrderedDict")
        catalogue.register("callable", dict)
        shared = [1]
        catalogue.register_instance("instance", shared)
        assert catalogue.names() == ["callable", "instance", "reference"]
        assert catalogue.create("callable") == {}
        assert catalogue.create("instance") is shared

    @pytest.mark.parametrize(
        "reference",
        ["repro_no_such_module:Thing", "repro.datagen.kv:NoSuchGenerator"],
    )
    def test_a_dangling_reference_names_the_entry_and_its_target(
        self, reference
    ):
        catalogue: Registry = Registry("data generator")
        catalogue.register("broken", reference)
        with pytest.raises(RegistryError) as raised:
            catalogue.create("broken")
        assert "'broken'" in str(raised.value)
        assert repr(reference) in str(raised.value)
        assert isinstance(raised.value.__cause__, (ImportError, AttributeError))

    def test_an_unknown_name_lists_the_others_without_importing_them(self):
        catalogue: Registry = Registry("engine")
        catalogue.register("ghost", "repro_no_such_module:Ghost")
        with pytest.raises(RegistryError, match=r"available: \['ghost'\]"):
            catalogue.create("phantom")
        assert "repro_no_such_module" not in sys.modules

    def test_a_dangling_reference_reaches_the_cli_error_line(
        self, monkeypatch, capsys
    ):
        catalogue: Registry = Registry("data generator")
        catalogue.register("broken", "repro.datagen.kv:NoSuchGenerator")
        monkeypatch.setattr(registry, "generators", catalogue)
        assert main(["generate", "broken"], out=io.StringIO()) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: data generator 'broken'")
        assert "repro.datagen.kv:NoSuchGenerator" in error


class TestPackageSurfaces:
    @pytest.mark.parametrize("package", SURFACES)
    def test_every_promised_name_resolves(self, package):
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__) > 0
        listed = dir(module)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listed, name
            namespace: dict = {}
            exec(f"from {package} import {name}", namespace)
            assert namespace[name] is value

    def test_a_resolved_name_is_cached_in_the_package(self):
        import repro.tuning
        from repro.tuning.profiles import get_profile

        assert repro.tuning.get_profile is get_profile
        assert vars(repro.tuning)["get_profile"] is get_profile

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro.datagen

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.datagen.Nope
        with pytest.raises(ImportError):
            exec("from repro.datagen import Nope", {})

    def test_the_harness_surfaces(self):
        import repro

        assert repro.__version__ == "1.1.0"
        assert repro.api.run is repro.run
        assert repro.api.BenchmarkSpec is repro.BenchmarkSpec

    def test_one_lazy_idiom_in_the_tree(self):
        """Every module-level ``__getattr__`` is ``lazy_exports(...)``'s."""
        hooked = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.parse(path.read_text(), filename=str(path)).body:
                if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
                    pytest.fail(f"hand-written __getattr__ in {path}")
                if isinstance(node, ast.Assign) and "__getattr__" in ast.unparse(
                    node.targets[0]
                ):
                    assert ast.unparse(node.value).startswith("lazy_exports("), path
                    hooked.append(path.relative_to(SRC).as_posix())
        assert len(hooked) == len(SURFACES), hooked
