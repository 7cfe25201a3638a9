"""What survives the process: files under one private directory.

Everything ``repro`` keeps from one process for the next lives under
:func:`cache_root` (``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro``):
the bytecode of its modules and of its dataclass methods
(:mod:`repro._bytecode`), fitted models (:mod:`repro.datagen.models`)
and the platform string a recording states
(:mod:`repro.analysis.store`).  One rule serves them all:

* a file is named by a content address, so it is the right one or it is
  not found, and nothing ever has to be invalidated;
* it is written whole or not at all (:func:`write`: a temporary file,
  then ``os.replace``), so of two processes writing one address at once
  both succeed and one file wins, and a reader sees the old file, the
  new one or none;
* directories are created at mode ``0o700``;
* any ``OSError`` (no home, a read-only or full disk) reads as "nothing
  kept" and writes nothing: the caller works in memory.

:func:`load` and :func:`store` add a check: a format header, then the
payload's ``importlib.util.source_hash``, so a truncated, foreign or
edited file reads as missing.  The check is a checksum, not a
signature; what makes a file safe to read is what it holds: checked
pycs (Python's own format), JSON and numpy arrays read with
``allow_pickle=False``.  Nothing here is unpickled.  Removing the
directory clears every cache at once (DESIGN.md §3.16).

Imported by :mod:`repro._bytecode` before anything else in ``repro``:
it loads no module a bare interpreter has not already loaded.
"""

import os
from _thread import get_ident
from importlib.util import source_hash


def cache_root(*parts: str) -> "str | None":
    """``$XDG_CACHE_HOME/repro/<parts>``, with ``~/.cache`` when that
    variable is unset or not an absolute path; ``None`` without a home
    directory (``~`` stays unexpanded), rather than a cache relative to
    whatever the working directory is."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    return os.path.join(base, "repro", *parts)


def read(path: str) -> "bytes | None":
    """The file's bytes; ``None`` when it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def write(path: str, data: bytes) -> None:
    """``data`` at ``path``, whole or not at all; an ``OSError`` writes
    nothing.  The temporary file is private to this thread."""
    temporary = f"{path}.{os.getpid()}.{get_ident()}.tmp"
    try:
        _private_dirs(os.path.dirname(path))
        with open(temporary, "wb") as handle:
            handle.write(data)
        os.replace(temporary, path)
    except OSError:
        try:
            os.unlink(temporary)
        except OSError:
            pass


def load(path: str, header: bytes) -> "bytes | None":
    """The payload :func:`store` wrote at ``path`` under ``header``;
    ``None`` when the file is missing, unreadable, of another format or
    fails its check."""
    data = read(path)
    if data is None or not data.startswith(header):
        return None
    start = len(header) + 8
    payload = data[start:]
    return payload if source_hash(payload) == data[len(header):start] else None


def store(path: str, header: bytes, payload: bytes) -> None:
    """``header``, the payload's check and ``payload`` at ``path``."""
    write(path, header + source_hash(payload) + payload)


def _private_dirs(directory: str) -> None:
    """``os.makedirs`` with every directory it creates at mode ``0o700``."""
    if not os.path.isdir(directory):
        _private_dirs(os.path.dirname(directory))
        try:
            os.mkdir(directory, 0o700)
        except FileExistsError:
            pass
