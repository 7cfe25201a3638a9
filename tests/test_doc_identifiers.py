"""Tooling: DESIGN.md and README.md name only what the tree holds.

Every backticked dotted, CamelCase or snake_case name resolves when each
dotted part is a module, a name token or a string-literal word under
``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` (or is listed in
:data:`OUTSIDE`), and every ``*.py`` path when a file there ends with
it.  History is EXPERIMENTS.md's and CHANGES.md's, which are not read.
"""

from __future__ import annotations

import io
import re
import tokenize
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
DOCUMENTS = ("DESIGN.md", "README.md")

#: Names of the standard library and third-party packages the
#: documents cite and the tree does not spell.
OUTSIDE = frozenset({
    "_create_fn", "_process_class", "_FuncBuilder",  # dataclasses internals
})

_SPAN = re.compile(r"`([^`\n]+)`")
_CANDIDATE = re.compile(r"[A-Za-z_][\w]*(?:\.[A-Za-z_]\w*)*")
_CAMEL = re.compile(r"[A-Z][a-z0-9]+[A-Z]")
_PATH = re.compile(r"[\w./-]+\.py\b")
#: String tokens; from Python 3.12 an f-string's text is its own token.
_STRINGS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


@cache
def _tree() -> tuple[frozenset[str], tuple[str, ...]]:
    """Every module, package, name token and string-literal word of the
    tree, and the tree's ``.py`` paths relative to the root."""
    words: set[str] = set()
    paths = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            paths.append(path.relative_to(ROOT).as_posix())
            words.update(path.relative_to(ROOT).with_suffix("").parts)
            source = path.read_text(encoding="utf-8")
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type == tokenize.NAME:
                    words.add(token.string)
                elif token.type in _STRINGS:
                    words.update(re.findall(r"\w+", token.string))
    return frozenset(words), tuple(paths)


def _identifiers(text: str) -> set[str]:
    """The backticked names and paths the guard holds to the tree."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    found = set()
    for span in _SPAN.findall(text):
        found.update(_PATH.findall(span))
        for name in _CANDIDATE.findall(_PATH.sub("", span)):
            if "." in name or "_" in name.strip("_") or _CAMEL.search(name):
                found.add(name)
    return found


def _resolves(identifier: str) -> bool:
    words, paths = _tree()
    if identifier.endswith(".py"):
        return any(("/" + path).endswith("/" + identifier) for path in paths)
    return all(
        part in words or part in OUTSIDE for part in identifier.split(".")
    )


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_backticked_identifier_resolves(document):
    text = (ROOT / document).read_text(encoding="utf-8")
    unresolved = sorted(n for n in _identifiers(text) if not _resolves(n))
    assert not unresolved, f"{document} names what the tree does not hold"
