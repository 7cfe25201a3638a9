"""The bytecode cache (``repro._bytecode``, DESIGN.md §3.16).

When Python will not write ``__pycache__``, ``repro`` keeps its compiled
modules as checked hash-based pycs under ``$XDG_CACHE_HOME/repro/bytecode``.
Every case runs in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``
and a temporary ``XDG_CACHE_HOME``, so the path is exercised on a host
whose Python writes bytecode too.  The interpreter imports a copy of
``src`` without ``__pycache__`` (a fresh checkout, whatever an earlier
run that wrote bytecode left in this one).  Cases that edit a module use
a probe, ``repro.bytecode_probe``, in a directory appended to
``repro.__path__``, so no checkout is ever edited.

Whatever Python writes, ``repro`` also keeps the methods ``dataclasses``
generates for its classes in ``dataclass-methods.<cache tag>`` there
(the method table); its cases count the ``compile`` audit events of
``def __create_fn__`` source, and one runs with Python writing bytecode.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.util import MAGIC_NUMBER, source_hash
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TAG = sys.implementation.cache_tag
CHECKED_HASH = (0b11).to_bytes(4, "little")

PROBE_SOURCE = 'VALUE = 1\n\n\ndef fail():\n    raise RuntimeError("probe")\n'

def _count_compiles(src: Path) -> str:
    """A program that runs ``repro list`` and prints which sources under
    ``src`` the process compiled."""
    return (
        "import json, os\n"
        "from importlib.machinery import SourceFileLoader\n"
        "compiled = []\n"
        "original = SourceFileLoader.source_to_code\n"
        "def counting(self, data, path, *args, **kwargs):\n"
        "    compiled.append(path)\n"
        "    return original(self, data, path, *args, **kwargs)\n"
        "SourceFileLoader.source_to_code = counting\n"
        "from repro.cli import main\n"
        "assert main(['list'], out=open(os.devnull, 'w')) == 0\n"
        f"print(json.dumps([p for p in compiled if p.startswith({str(src)!r})]))\n"
    )


@pytest.fixture(scope="module")
def src(tmp_path_factory) -> Path:
    """A copy of ``src`` without ``__pycache__``."""
    copy = tmp_path_factory.mktemp("checkout") / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _child(
    program: str, cache_home: Path, src: Path, **variables: str
) -> dict | list:
    """The JSON that ``program`` prints last, run in a fresh interpreter
    that imports ``src``, will not write bytecode and caches under
    ``cache_home``."""
    completed = subprocess.run(
        [sys.executable, "-c", program],
        env={
            **os.environ, "PYTHONPATH": str(src),
            "PYTHONDONTWRITEBYTECODE": "1", "XDG_CACHE_HOME": str(cache_home),
            **variables,
        },
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0 and not completed.stderr, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _with_probe(extra: Path, body: str) -> str:
    return (
        "import json\nimport repro\n"
        f"repro.__path__.append({str(extra)!r})\n"
        "import repro.bytecode_probe as probe\n" + body
    )


#: What the probe module says about itself.
DESCRIBE = (
    "print(json.dumps({'value': probe.VALUE, 'cached': probe.__cached__,\n"
    "    'spec_cached': probe.__spec__.cached,\n"
    "    'loader': type(probe.__spec__.loader).__module__}))\n"
)


@pytest.fixture
def probe(tmp_path) -> Path:
    extra = tmp_path / "extra"
    extra.mkdir()
    path = extra / "bytecode_probe.py"
    path.write_text(PROBE_SOURCE)
    return path


def _cache_file(cache_home: Path, source: Path) -> Path:
    """Where the cache keeps ``source``: the ``PYTHONPYCACHEPREFIX`` layout."""
    return (
        cache_home / "repro" / "bytecode"
        / str(source.parent).lstrip(os.sep) / f"{source.stem}.{TAG}.pyc"
    )


def _is_checked_pyc_of(cached: Path, source: Path) -> bool:
    header = MAGIC_NUMBER + CHECKED_HASH + source_hash(source.read_bytes())
    return cached.read_bytes().startswith(header)


def _files(root: Path) -> dict[str, int]:
    return {
        str(path): path.stat().st_mtime_ns
        for path in root.rglob("*") if path.is_file()
    }


def test_a_second_process_compiles_nothing(tmp_path, src):
    cold = _child(_count_compiles(src), tmp_path, src)
    warm = _child(_count_compiles(src), tmp_path, src)
    # The package, the cache and its file rule load before the finder
    # exists (compiled unless a ``__pycache__`` beside them holds them).
    uncached = {
        str(src / "repro" / name)
        for name in ("__init__.py", "_bytecode.py", "_filecache.py")
    }
    assert set(warm) <= uncached
    assert len(set(cold) - uncached) >= 10
    assert all(
        _is_checked_pyc_of(_cache_file(tmp_path, Path(path)), Path(path))
        for path in set(cold) - uncached
    )


def test_nothing_is_written_under_src(tmp_path, src):
    before = _files(src)
    for _ in range(2):
        strays = _child(
            "import json, sys\nfrom repro import api\n"
            "print(json.dumps(sorted(\n"
            "    m.__cached__ for n, m in sys.modules.items()\n"
            "    if n.startswith('repro.')\n"
            "    and n not in ('repro._bytecode', 'repro._filecache')\n"
            f"    and not m.__cached__.startswith({str(tmp_path)!r}))))\n",
            tmp_path, src,
        )
        assert strays == []
    assert _files(src) == before


def test_an_edit_that_keeps_size_and_mtime_is_served(tmp_path, src, probe):
    assert _child(_with_probe(probe.parent, DESCRIBE), tmp_path, src)["value"] == 1
    stat = probe.stat()
    probe.write_text(PROBE_SOURCE.replace("VALUE = 1", "VALUE = 2"))
    os.utime(probe, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert probe.stat().st_size == stat.st_size
    assert _child(_with_probe(probe.parent, DESCRIBE), tmp_path, src)["value"] == 2


def _timestamp_pyc_of_other_code(probe: Path) -> bytes:
    """What ``__pycache__`` would accept for ``probe`` by mtime and size,
    holding the code of another source."""
    import marshal

    stat = probe.stat()
    return (
        MAGIC_NUMBER + bytes(4)
        + (int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
        + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little")
        + marshal.dumps(compile("VALUE = 99", str(probe), "exec"))
    )


@pytest.mark.parametrize(
    "spoil",
    [
        lambda good, probe: good[: len(good) // 2],
        lambda good, probe: b"\0\0\0\0" + good[4:],
        lambda good, probe: _timestamp_pyc_of_other_code(probe),
        lambda good, probe: b"this is no pyc" * 3,
    ],
    ids=["truncated", "wrong-magic", "mtime-flags", "garbage"],
)
def test_a_bad_cache_file_is_recompiled_and_rewritten(tmp_path, src, probe, spoil):
    _child(_with_probe(probe.parent, DESCRIBE), tmp_path, src)
    cached = _cache_file(tmp_path, probe)
    good = cached.read_bytes()
    cached.write_bytes(spoil(good, probe))
    assert _child(_with_probe(probe.parent, DESCRIBE), tmp_path, src)["value"] == 1
    assert cached.read_bytes() == good


@pytest.mark.parametrize("blocker", ["unwritable", "file-in-the-way"])
def test_an_unusable_cache_imports_and_writes_nothing(tmp_path, src, probe, blocker):
    cache_home = tmp_path / "cache"
    if blocker == "unwritable":
        if os.geteuid() == 0:
            pytest.skip("root writes through permission bits")
        cache_home.mkdir(mode=0o500)
    else:
        cache_home.write_text("not a directory")
    before = _files(tmp_path)
    try:
        for _ in range(2):
            described = _child(
                _with_probe(
                    probe.parent,
                    "import os\nfrom repro.cli import main\n"
                    "assert main(['list'], out=open(os.devnull, 'w')) == 0\n"
                    + DESCRIBE,
                ),
                cache_home, src,
            )
            assert described["value"] == 1
            assert described["loader"] == "repro._bytecode"
        assert _files(tmp_path) == before
    finally:
        if cache_home.is_dir():
            cache_home.chmod(0o700)


def test_python_that_writes_bytecode_gets_no_finder(tmp_path, src, probe):
    prefix = tmp_path / "pycache-prefix"
    described = _child(
        _with_probe(
            probe.parent,
            "import sys\n"
            "assert not any(type(f).__name__ == 'BytecodeFinder'\n"
            "               for f in sys.meta_path)\n" + DESCRIBE,
        ),
        tmp_path / "cache", src,
        PYTHONDONTWRITEBYTECODE="", PYTHONPYCACHEPREFIX=str(prefix),
    )
    assert described["loader"] != "repro._bytecode"
    assert described["cached"].startswith(str(prefix))
    assert not (tmp_path / "cache").exists()


def test_concurrent_cold_processes_all_succeed(tmp_path, src, probe):
    program = _with_probe(
        probe.parent,
        "import os\nfrom repro.cli import main\n"
        "assert main(['list'], out=open(os.devnull, 'w')) == 0\n" + DESCRIBE,
    )
    env = {
        **os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
        "XDG_CACHE_HOME": str(tmp_path),
    }
    children = [
        subprocess.Popen(
            [sys.executable, "-c", program], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    outputs = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0] * 4, outputs
    assert all(json.loads(out)["value"] == 1 for out, _ in outputs)
    root = tmp_path / "repro" / "bytecode"
    assert not list(root.rglob("*.tmp"))
    assert _is_checked_pyc_of(_cache_file(tmp_path, probe), probe)
    assert len(list(root.rglob("*.pyc"))) >= 10


def test_code_names_the_source_and_the_file_it_came_from(tmp_path, src, probe):
    body = (
        "import inspect, traceback\n"
        "try:\n    probe.fail()\nexcept RuntimeError:\n"
        "    text = traceback.format_exc()\n"
        "print(json.dumps({'co_filename': probe.fail.__code__.co_filename,\n"
        "    'traceback': text, 'source': inspect.getsource(probe.fail),\n"
        "    'cached': probe.__cached__, 'spec_cached': probe.__spec__.cached}))\n"
    )
    expected = _cache_file(tmp_path, probe)
    for _ in ("cold", "warm"):
        seen = _child(_with_probe(probe.parent, body), tmp_path, src)
        assert seen["co_filename"] == str(probe)
        assert f'File "{probe}", line 5, in fail' in seen["traceback"]
        assert 'raise RuntimeError("probe")' in seen["traceback"]
        assert seen["source"].startswith("def fail():")
        assert seen["cached"] == seen["spec_cached"] == str(expected)
        assert _is_checked_pyc_of(expected, probe)


def test_reload_serves_the_edited_module(tmp_path, src, probe):
    edited = PROBE_SOURCE.replace("VALUE = 1", "VALUE = 3")
    values = _child(
        _with_probe(
            probe.parent,
            "import importlib, pathlib\nbefore = probe.VALUE\n"
            f"pathlib.Path({str(probe)!r}).write_text({edited!r})\n"
            "importlib.reload(probe)\n"
            "print(json.dumps([before, probe.VALUE]))\n",
        ),
        tmp_path, src,
    )
    assert values == [1, 3]
    assert _is_checked_pyc_of(_cache_file(tmp_path, probe), probe)


def test_only_repro_goes_through_the_finder(tmp_path, src):
    seen = _child(
        "import json, sys\nimport repro\nimport numpy\n"
        "print(json.dumps([type(sys.meta_path[0]).__name__,\n"
        "    type(numpy.__spec__.loader).__module__]))\n",
        tmp_path, src,
    )
    assert seen[0] == "BytecodeFinder"
    assert seen[1] != "repro._bytecode"
    assert not list(tmp_path.rglob("numpy*"))


def test_a_compiled_tree_reads_its_pycache(tmp_path, src):
    """A ``compileall``'d tree loads from ``__pycache__`` as it did before
    the cache existed: with the cache home unusable, no ``repro`` source
    is compiled in the process."""
    compiled = tmp_path / "compiled"
    shutil.copytree(src, compiled)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(compiled)], check=True
    )
    cache_home = tmp_path / "cache"
    cache_home.write_text("not a directory")
    assert _child(_count_compiles(compiled), cache_home, compiled) == []
    cached = _child(
        "import json, repro.cli\nprint(json.dumps(repro.cli.__cached__))\n",
        cache_home, compiled,
    )
    assert cached.startswith(str(compiled / "repro" / "__pycache__"))


def test_importing_repro_again_adds_no_second_finder(tmp_path, src):
    finders = _child(
        "import importlib, json, sys\nimport repro\n"
        "importlib.reload(repro)\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'repro']:\n"
        "    del sys.modules[name]\n"
        "import repro.cli\n"
        "print(json.dumps([type(f).__name__ for f in sys.meta_path]))\n",
        tmp_path, src,
    )
    assert finders.count("BytecodeFinder") == 1


# -- the dataclass method table ------------------------------------------------

#: Installed before anything else in a child: counts the method sources
#: compiled in the process (``exec`` of a string raises the event too).
COUNT_METHOD_COMPILES = (
    "import sys\n"
    "method_compiles = []\n"
    "def _audit(event, args):\n"
    "    source = args[0] if event == 'compile' else None\n"
    "    if isinstance(source, str):\n"
    "        source = source.encode()\n"
    "    if isinstance(source, bytes) and source.startswith(b'def __create_fn__'):\n"
    "        method_compiles.append(source)\n"
    "sys.addaudithook(_audit)\n"
)

#: Imports every ``repro`` module and prints every method ``dataclasses``
#: generated for a ``repro`` class: marshalled code, annotations and
#: signature (object addresses blanked), by ``module:qualname.method``.
DESCRIBE_METHODS = COUNT_METHOD_COMPILES + (
    "import base64, dataclasses, importlib, inspect, json, marshal, pkgutil, re\n"
    "import repro\n"
    "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    importlib.import_module(info.name)\n"
    "def classes(namespace, module):\n"
    "    for value in list(namespace.values()):\n"
    "        if isinstance(value, type) and value.__module__ == module:\n"
    "            yield value\n"
    "            yield from classes(vars(value), module)\n"
    "methods = {}\n"
    "for name, module in list(sys.modules.items()):\n"
    "    if name.split('.')[0] != 'repro':\n"
    "        continue\n"
    "    for cls in classes(vars(module), name):\n"
    "        if not dataclasses.is_dataclass(cls):\n"
    "            continue\n"
    "        for attribute, value in vars(cls).items():\n"
    "            function = inspect.unwrap(value) if callable(value) else None\n"
    "            code = getattr(function, '__code__', None)\n"
    "            if code is not None and code.co_filename == '<string>':\n"
    "                methods[f'{name}:{cls.__qualname__}.{attribute}'] = [\n"
    "                    base64.b64encode(marshal.dumps(code)).decode(), *(\n"
    "                    re.sub(' at 0x[0-9a-f]+', '', text) for text in (\n"
    "                        repr(function.__annotations__),\n"
    "                        str(inspect.signature(function)))),\n"
    "                ]\n"
    "print(json.dumps({'compiles': len(method_compiles), 'methods': methods}))\n"
)

#: ``repro list`` in-process, then the number of method sources compiled.
LIST_AND_COUNT = COUNT_METHOD_COMPILES + (
    "import json, os\nfrom repro.cli import main\n"
    "assert main(['list'], out=open(os.devnull, 'w')) == 0\n"
    "print(json.dumps(len(method_compiles)))\n"
)


def _table(cache_home: Path) -> Path:
    return cache_home / "repro" / "bytecode" / f"dataclass-methods.{TAG}"


def _table_entries(data: bytes) -> dict[str, set[str]]:
    """The module → source texts that a table file holds: after the
    magic number, each module's marshalled ``{text: code}``, marshalled."""
    import marshal

    assert data.startswith(MAGIC_NUMBER)
    table = marshal.loads(data[len(MAGIC_NUMBER):])
    return {
        module: set(marshal.loads(entries)) for module, entries in table.items()
    }


def _code(encoded: str):
    import base64
    import marshal

    return marshal.loads(base64.b64decode(encoded))


@pytest.mark.parametrize("dont_write", ["1", ""], ids=["dont-write", "writes"])
def test_warm_methods_equal_what_a_process_without_a_table_builds(
    tmp_path, src, dont_write
):
    """Whether or not Python writes ``__pycache__`` (then under a prefix
    of its own, so nothing lands in the copy), a warm table serves every
    ``repro`` dataclass method, and each equals the stock build: the
    code, its annotations and its signature."""
    variables = {"PYTHONDONTWRITEBYTECODE": dont_write}
    if not dont_write:
        variables["PYTHONPYCACHEPREFIX"] = str(tmp_path / "prefix")
    unusable = tmp_path / "no-cache-home"
    unusable.write_text("a regular file: no cache directory fits under it")
    stock = _child(DESCRIBE_METHODS, unusable, src, **variables)
    home = tmp_path / "home"
    cold = _child(DESCRIBE_METHODS, home, src, **variables)
    warm = _child(DESCRIBE_METHODS, home, src, **variables)
    assert stock["compiles"] == cold["compiles"] >= 300
    assert warm["compiles"] == 0
    assert len(stock["methods"]) >= 300
    assert set(warm["methods"]) == set(stock["methods"])
    for name, (code, annotations, signature) in stock["methods"].items():
        served = warm["methods"][name]
        assert _code(served[0]) == _code(code), name
        assert _code(served[0]).co_filename == "<string>", name
        assert served[1:] == [annotations, signature], name


def test_a_second_process_compiles_no_method_source(tmp_path, src):
    assert _child(LIST_AND_COUNT, tmp_path, src) > 0
    assert _table(tmp_path).is_file()
    assert _child(LIST_AND_COUNT, tmp_path, src) == 0


def test_a_warm_process_leaves_the_table_alone(tmp_path, src):
    _child(LIST_AND_COUNT, tmp_path, src)
    table = _table(tmp_path)
    before = table.read_bytes(), table.stat().st_mtime_ns
    assert _child(LIST_AND_COUNT, tmp_path, src) == 0
    assert (table.read_bytes(), table.stat().st_mtime_ns) == before


def test_a_user_dataclass_is_compiled_as_before(tmp_path, src):
    """A class outside ``repro`` goes to the builtin ``exec``: compiled
    in every process, with no future flag of the hook's module (its
    ``__init__`` annotations are objects, not strings), and never kept."""
    program = COUNT_METHOD_COMPILES + (
        "import dataclasses, json\nimport repro\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Point:\n    x: int\n    y: 'float' = 0.0\n"
        "print(json.dumps({'compiles': len(method_compiles),\n"
        "    'annotations': repr(Point.__init__.__annotations__),\n"
        "    'point': repr(Point(1)), 'hashed': hash(Point(1)) == hash(Point(1)),\n"
        "    'hooked': type(dataclasses.exec.__self__).__name__}))\n"
    )
    for _ in ("cold", "warm"):
        seen = _child(program, tmp_path, src)
        assert seen == {
            "compiles": 6,
            "annotations": "{'x': <class 'int'>, 'y': 'float', 'return': None}",
            "point": "Point(x=1, y=0.0)", "hashed": True,
            "hooked": "MethodTable",
        }
    assert not _table(tmp_path).exists()
    _child(LIST_AND_COUNT, tmp_path, src)
    _child(program, tmp_path, src)
    assert all(
        module.split(".")[0] == "repro"
        for module in _table_entries(_table(tmp_path).read_bytes())
    )


def _with_garbage_entries(good: bytes) -> bytes:
    """The table with every module's entries replaced by bytes that do
    not unmarshal."""
    import marshal

    table = marshal.loads(good[len(MAGIC_NUMBER):])
    return MAGIC_NUMBER + marshal.dumps(dict.fromkeys(table, b"\xff" * 8))


@pytest.mark.parametrize(
    "spoil",
    [
        lambda good: good[: len(good) // 2],
        lambda good: b"\0\0\0\0" + good[4:],
        lambda good: MAGIC_NUMBER + b"\xff" * 64,
        lambda good: b"this is no table" * 3,
        lambda good: _with_garbage_entries(good),
    ],
    ids=[
        "truncated", "wrong-magic", "magic-then-garbage", "garbage",
        "garbage-entries",
    ],
)
def test_a_bad_table_is_ignored_and_rewritten(tmp_path, src, spoil):
    _child(LIST_AND_COUNT, tmp_path, src)
    table = _table(tmp_path)
    good = table.read_bytes()
    table.write_bytes(spoil(good))
    assert _child(LIST_AND_COUNT, tmp_path, src) > 0
    assert _table_entries(table.read_bytes()) == _table_entries(good)
    assert _child(LIST_AND_COUNT, tmp_path, src) == 0


def test_an_unusable_home_compiles_methods_and_writes_nothing(tmp_path, src):
    cache_home = tmp_path / "cache"
    cache_home.write_text("not a directory")
    before = _files(tmp_path)
    for _ in range(2):
        assert _child(LIST_AND_COUNT, cache_home, src) > 0
    assert _files(tmp_path) == before


def test_an_edited_class_leaves_no_stale_entry(tmp_path, src, probe):
    """A module's entries are what the last process that missed
    generated for it; other modules' entries stay."""
    probe.write_text(
        "import dataclasses\n\n\n@dataclasses.dataclass\n"
        "class Probe:\n    a: int\n"
    )
    body = COUNT_METHOD_COMPILES + (
        "import json\nimport repro\n"
        f"repro.__path__.append({str(probe.parent)!r})\n"
        "from repro.cli import main\nimport os\n"
        "assert main(['list'], out=open(os.devnull, 'w')) == 0\n"
        "from repro.bytecode_probe import Probe\n"
        "fields = list(Probe.__dataclass_fields__)\n"
        "print(json.dumps([len(method_compiles), fields,\n"
        "    repr(Probe(*range(1, len(fields) + 1)))]))\n"
    )
    cold = _child(body, tmp_path, src)
    assert cold[1:] == [["a"], "Probe(a=1)"] and cold[0] > 3
    first = _table_entries(_table(tmp_path).read_bytes())
    probe.write_text(probe.read_text() + "    b: int = 0\n")
    assert _child(body, tmp_path, src) == [3, ["a", "b"], "Probe(a=1, b=2)"]
    second = _table_entries(_table(tmp_path).read_bytes())
    assert set(second) == set(first)
    assert second["repro.bytecode_probe"].isdisjoint(first["repro.bytecode_probe"])
    assert all(
        second[module] == entries for module, entries in first.items()
        if module != "repro.bytecode_probe"
    )
    assert _child(body, tmp_path, src)[0] == 0


def test_a_write_keeps_what_another_process_wrote_meanwhile(tmp_path, src, probe):
    """A process reads the table at its first lookup and writes at exit;
    a module another process wrote in between survives that write."""
    extra = probe.parent
    for name in ("probe_a", "probe_b"):
        (extra / f"{name}.py").write_text(
            "import dataclasses\n\n\n@dataclasses.dataclass\n"
            f"class Probe:\n    {name}: int\n"
        )
    prefix = f"import repro\nrepro.__path__.append({str(extra)!r})\n"
    writer = prefix + "import repro.probe_b\n"
    _child(
        "import json, subprocess, sys\n" + prefix + "import repro.probe_a\n"
        f"subprocess.run([sys.executable, '-c', {writer!r}], check=True)\n"
        "print(json.dumps(None))\n",
        tmp_path, src,
    )
    assert set(_table_entries(_table(tmp_path).read_bytes())) == {
        "repro.probe_a", "repro.probe_b",
    }


def test_importing_repro_again_installs_no_second_hook(tmp_path, src):
    program = (
        "import importlib, json, sys\n"
        "def tables():\n"
        "    return [f for f in sys.meta_path\n"
        "            if type(f).__name__ == 'MethodTable']\n"
        "def again():\n"
        "    importlib.reload(sys.modules['repro'])\n"
        "    for name in [n for n in sys.modules if n.split('.')[0] == 'repro']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('repro')\n"
        "import repro\n"
        "pending = tables()\n"
        "again()\n"
        "assert 'dataclasses' not in sys.modules\n"
        "waiting = len(tables())\n"
        "import dataclasses\n"
        "hook = dataclasses.exec\n"
        "again()\n"
        "import repro.cli\n"
        "print(json.dumps([len(pending), waiting, len(tables()),\n"
        "    dataclasses.exec == hook, hook.__self__ is pending[0]]))\n"
    )
    assert _child(program, tmp_path, src) == [1, 1, 0, True, True]
