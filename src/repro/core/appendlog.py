"""The append-only log under ``runs.jsonl`` and ``jobs.jsonl``.

One JSON value per ``\\n``-terminated line, nothing else in the file.
The rules (DESIGN.md §3.18) that make that safe to share:

* **Appends are serialized** by a thread lock and then an exclusive
  ``flock`` on the data file itself, so writers in any number of threads
  and processes queue up; the lock is held from reading the tail to the
  end of the write.
* **The writer sees the last complete line** before it builds its own
  (that is how the run store numbers a record), found by reading the
  file's tail, never the whole file.
* **One ``write()`` per line** on an ``O_APPEND`` descriptor; a short
  write is completed under the same lock.
* **A torn tail costs only itself.**  Bytes after the last newline are a
  line whose append never returned: readers skip them, the next append
  truncates them before it writes.
* **Durability** is the kernel's: when :meth:`AppendLog.append` returns
  the line survives a crash of the process, not a power cut (no
  ``fsync``).

Stdlib only; the owner names the exception its callers expect.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

#: How much of the tail the first read takes; doubled until it holds the
#: last complete line.
_TAIL_WINDOW = 4096

#: Threads of one process queue here before they queue on the file lock
#: (process-wide: independent logs may name the same file).
_THREAD_LOCK = threading.Lock()


def _last_line(
    fd: int, size: int, window: int = _TAIL_WINDOW
) -> tuple[bytes | None, int]:
    """The last complete non-blank line of the ``size``-byte file behind
    ``fd`` (None when there is none) and the offset its complete lines
    end at — anything between that and ``size`` is a torn tail."""
    while True:
        start = max(0, size - window)
        chunk = os.pread(fd, size - start, start)
        end = chunk.rfind(b"\n") + 1
        body = chunk[:end].rstrip()
        begin = body.rfind(b"\n") + 1
        if begin or not start:
            return (body[begin:] or None), start + end
        window *= 2


class AppendLog:
    """One shared JSONL file; see the module docstring for the rules.

    ``error`` is raised (naming ``what`` and the path) for an operating
    system failure and for a complete line that does not parse.
    """

    def __init__(
        self, path: Path, error: type[Exception], what: str
    ) -> None:
        self.path = path
        self.error = error
        self.what = what

    def append(self, build: Callable[[bytes | None], str]) -> None:
        """Append the line ``build(last)`` returns, ``last`` being the
        log's last complete line (None for an empty log).  ``build`` runs
        under the lock: what it derives from ``last`` stays true."""
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            with _THREAD_LOCK:
                try:
                    fd = os.open(self.path, flags, 0o666)
                except FileNotFoundError:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    fd = os.open(self.path, flags, 0o666)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    size = os.fstat(fd).st_size
                    last, end = _last_line(fd, size)
                    data = build(last).encode("utf-8") + b"\n"
                    if end < size:
                        os.ftruncate(fd, end)
                    while data:
                        data = data[os.write(fd, data):]
                finally:
                    os.close(fd)  # releases the flock
        except OSError as error:
            raise self.error(
                f"cannot append to {self.what} {self.path}: {error}"
            ) from error

    def lines(self) -> Iterator[tuple[int, bytes]]:
        """``(line number, line)`` of every complete non-blank line,
        oldest first.  Takes no lock: an append in flight is at worst an
        unterminated tail, which is skipped."""
        try:
            with self.path.open("rb") as handle:
                for number, line in enumerate(handle, start=1):
                    if not line.endswith(b"\n"):
                        return
                    line = line.strip()
                    if line:
                        yield number, line
        except FileNotFoundError:
            return
        except OSError as error:
            raise self.error(
                f"cannot read {self.what} {self.path}: {error}"
            ) from error

    def read(self, decode: Callable[[Any], Any] = lambda value: value) -> list:
        """Every complete line parsed and passed through ``decode``; one
        that fails either raises ``error`` with its line number."""
        values = []
        for number, line in self.lines():
            try:
                values.append(decode(json.loads(line)))
            except (ValueError, KeyError, TypeError) as error:
                raise self.error(
                    f"corrupt {self.what} {self.path}: line {number}: {error}"
                ) from None
        return values
