"""Bytecode that survives the process: modules when Python will not
write it, and the methods ``dataclasses`` compiles for ``repro``'s classes.

With ``PYTHONDONTWRITEBYTECODE`` set, a checkout without ``__pycache__``
recompiles every ``repro`` module it imports in every process, a third
of a CLI command or more.  :func:`install` then puts a
:class:`BytecodeFinder` first on ``sys.meta_path``: for ``repro.*``
names only, it keeps the compiled code in a private cache directory
(``bytecode`` under :func:`repro._filecache.cache_root`, in the
``PYTHONPYCACHEPREFIX`` layout) as checked
hash-based pycs (PEP 552).  A cached file is used only when its magic
number, flags and source hash match the source just read, so an edit
that keeps size and mtime is never served stale.  Any ``OSError`` on
the cache compiles in memory, as Python itself would.  When Python does
write bytecode, ``__pycache__`` does this job and nothing is installed;
a module whose ``__pycache__`` file exists (a ``compileall``'d tree) is
left to the stock loader, which checks and reads that file as before.

``__pycache__`` never holds the code ``dataclasses`` generates for a
class's ``__init__``, ``__repr__``, ``__eq__`` and the rest: it compiles
that source text again in every process.  So :func:`install` always
sets up a :class:`MethodTable` as well, whatever Python writes: the
``exec`` that ``dataclasses`` calls serves the code of source whose
globals are a ``repro`` module's from one file in that directory,
keyed by module and by the exact text, and passes every other call to
the builtin.

Imported first by ``repro/__init__.py``, so everything after it is
cached; it loads nothing a bare interpreter has not already loaded but
``importlib.machinery`` and :mod:`repro._filecache` (the rule every file
that outlives a process follows), and ``dataclasses`` gets the table's
``exec`` when something else imports it (DESIGN.md §3.16, "Bytecode
survives the process").
"""

import _imp
import atexit
import builtins
import marshal
import os
import sys
from importlib.machinery import PathFinder, SourceFileLoader
from importlib.util import MAGIC_NUMBER, cache_from_source, source_hash
from types import CodeType

from repro import _filecache

#: PEP 552 flags of a hash-based pyc whose hash is checked against the source.
CHECKED_HASH = (0b11).to_bytes(4, "little")


def install() -> None:
    """Keep ``repro``'s dataclass methods in the cache's ``bytecode``
    directory, and its modules too when Python will not write
    ``__pycache__``.  Idempotent: a reloaded ``repro`` (whose
    ``_bytecode`` may be a new module with new classes) finds its finder
    and its table by name and adds no second one."""
    root = _filecache.cache_root("bytecode")
    if root is None:
        return
    dataclasses = sys.modules.get("dataclasses")
    if dataclasses is None:
        if not any(map(_is_table, sys.meta_path)):
            sys.meta_path.insert(0, MethodTable(root))
    elif not _is_table(getattr(getattr(dataclasses, "exec", None), "__self__", None)):
        dataclasses.exec = MethodTable(root).exec
    if sys.dont_write_bytecode and not any(
        type(finder).__name__ == "BytecodeFinder" for finder in sys.meta_path
    ):
        sys.meta_path.insert(0, BytecodeFinder(root))


def _is_table(candidate) -> bool:
    return type(candidate).__name__ == "MethodTable"


def _cache_tag() -> str:
    """``sys.implementation.cache_tag``, with ``.opt-N`` under ``-O``."""
    tag = sys.implementation.cache_tag
    if sys.flags.optimize:
        tag += f".opt-{sys.flags.optimize}"
    return tag


class BytecodeFinder:
    """``PathFinder``'s spec of a ``repro.*`` module, with its source
    loader swapped for a :class:`CachedSourceLoader` unless the module's
    ``__pycache__`` file exists: that one the stock loader checks, as it
    would without this finder."""

    def __init__(self, root: str) -> None:
        self.root = root

    def find_spec(self, name, path=None, target=None):
        if not name.startswith("repro."):
            return None
        spec = PathFinder.find_spec(name, path, target)
        if (
            spec is not None and type(spec.loader) is SourceFileLoader
            and not os.path.exists(cache_from_source(spec.origin))
        ):
            spec.loader = CachedSourceLoader(
                name, spec.origin, self.cache_path(spec.origin)
            )
            spec.cached = spec.loader.cached
        return spec

    def cache_path(self, source_path: str) -> str:
        """``<root>/<absolute source dir>/<stem>.<cache tag>.pyc``."""
        directory, filename = os.path.split(os.path.abspath(source_path))
        return os.path.join(
            self.root, directory.lstrip(os.sep),
            f"{filename.rpartition('.')[0]}.{_cache_tag()}.pyc",
        )


class CachedSourceLoader(SourceFileLoader):
    """A source loader whose code comes from a checked pyc at ``cached``."""

    def __init__(self, fullname: str, path: str, cached: str) -> None:
        super().__init__(fullname, path)
        self.cached = cached

    def get_code(self, fullname: str) -> CodeType:
        source_path = self.get_filename(fullname)
        source = self.get_data(source_path)
        header = MAGIC_NUMBER + CHECKED_HASH + source_hash(source)
        data = _filecache.read(self.cached) or b""
        if data.startswith(header):
            try:
                code = marshal.loads(memoryview(data)[len(header):])
            except (EOFError, ValueError, TypeError):
                code = None
            if isinstance(code, CodeType):
                # As Python's own loader does: the process that wrote the
                # file may have spelt the same path differently.
                _imp._fix_co_filename(code, source_path)
                return code
        code = self.source_to_code(source, source_path)
        _filecache.write(self.cached, header + marshal.dumps(code))
        return code


class MethodTable:
    """The code of the methods ``dataclasses`` generates for ``repro``'s
    classes, kept across processes in ``<root>/dataclass-methods.<tag>``.

    :meth:`exec` stands in for the builtin in the ``dataclasses`` module,
    whose method builders look ``exec`` up when they run.  Source whose
    globals are ``repro``'s or a ``repro.*`` module's is looked up by
    module and exact text, and on a miss compiled as the builtin would
    compile it there (``"<string>"``, no inherited future flags); every
    other call goes to the builtin as it was made.  The file maps each
    module to its marshalled entries: it is read at the first lookup, a
    module's entries are decoded at that module's first lookup, and the
    file is written once, at exit, only after a miss.  The write reads
    the file again and replaces the entries of each module this process
    touched with what it generated there, so an edited class leaves no
    stale entry and other modules keep what other processes wrote.
    Until ``dataclasses`` is imported the table waits first on
    ``sys.meta_path``, answering for that name only.
    """

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, f"dataclass-methods.{_cache_tag()}")
        self.stored = None  # module → marshalled entries, read at first use
        self.kept = {}  # module → its stored entries, decoded
        self.generated = {}  # module → what this process generated
        self.missed = False

    def find_spec(self, name, path=None, target=None):
        if name != "dataclasses":
            return None
        spec = PathFinder.find_spec(name, path, target)
        if spec is not None:
            loader = spec.loader

            def exec_module(module):
                del loader.exec_module  # the loader's own again
                loader.exec_module(module)
                module.exec = self.exec
                if self in sys.meta_path:
                    sys.meta_path.remove(self)

            loader.exec_module = exec_module
        return spec

    def exec(self, source, globals=None, locals=None, /, **keywords):
        module = globals.get("__name__") if type(globals) is dict else None
        if (
            type(source) is not str or keywords or type(module) is not str
            or not (module == "repro" or module.startswith("repro."))
        ):
            return builtins.exec(source, globals, locals, **keywords)
        if module not in self.generated:
            self.generated[module] = {}
            self.kept[module] = self._entries(module)
        code = self.kept[module].get(source)
        if type(code) is not CodeType:
            code = compile(source, "<string>", "exec", dont_inherit=True)
            if not self.missed:
                self.missed = True
                atexit.register(self._write)
        self.generated[module][source] = code
        return builtins.exec(code, globals, locals)

    def _entries(self, module: str) -> dict:
        """The file's entries for ``module``, decoded; none when they do
        not decode to a dict."""
        if self.stored is None:
            self.stored = self._read()
        try:
            entries = marshal.loads(self.stored.pop(module))
        except (KeyError, EOFError, ValueError, TypeError):
            return {}
        return entries if type(entries) is dict else {}

    def _read(self) -> dict:
        """The file's table, module → marshalled entries: empty when the
        file is missing, unreadable or damaged, or was not written by
        this interpreter's version."""
        data = _filecache.read(self.path) or b""
        if data.startswith(MAGIC_NUMBER):
            try:
                table = marshal.loads(memoryview(data)[len(MAGIC_NUMBER):])
            except (EOFError, ValueError, TypeError):
                return {}
            if type(table) is dict:
                return table
        return {}

    def _write(self) -> None:
        """The file as other processes left it, with each module this
        process touched replaced by what it generated there."""
        if self.missed:
            self.missed = False
            table = self._read()
            for module, entries in self.generated.items():
                table[module] = marshal.dumps(entries)
            _filecache.write(self.path, MAGIC_NUMBER + marshal.dumps(table))
