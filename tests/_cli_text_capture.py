"""What the CLI prints before any verb runs, captured for diffing.

For every verb and nested verb of the full parser: ``--help``, an
unknown flag, and for a verb group its missing and unknown subcommand;
then the top level: ``--help``, no arguments, an unknown verb and an
unknown flag.  Each case goes through :func:`repro.cli.main`, so it
reaches the parser ``main`` builds for that argv.  Output is one JSON
object, ``argv → {code, stdout, stderr}``::

    COLUMNS=80 PYTHONPATH=src python tests/_cli_text_capture.py \
        > tests/fixtures/cli_text_parent.json

``tests/fixtures/cli_text_parent.json`` is this script's output on the
commit before ``main`` built one verb's parser, with the interpreter
version it ran on; argparse formats help differently across Python
versions, so row ``cli-text`` of ``tests/test_captures.py`` compares it
only on that version.  Rewrite it only with a deliberate change to the
CLI's surface, as ``knobs.json``.  Only ``_build_parser`` and ``main``,
which exist on both sides, are used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

from repro.cli import _build_parser, main


def verb_paths(
    parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()
) -> list[tuple[tuple[str, ...], bool]]:
    """``(argv prefix, is a group)`` of every verb, depth first, in
    ``--help`` order."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                path = (*prefix, name)
                nested = verb_paths(subparser, path)
                found.append((path, bool(nested)))
                found.extend(nested)
    return found


def cases() -> list[list[str]]:
    """Every argv this script captures."""
    argvs = [["--help"], [], ["no-such-verb"], ["--no-such-flag"]]
    for path, group in verb_paths(_build_parser()):
        argvs += [[*path, "--help"], [*path, "--no-such-flag"]]
        if group:
            argvs += [list(path), [*path, "no-such-verb"]]
    return argvs


def outcome(argv: list[str]) -> dict[str, object]:
    """Exit code, stdout and stderr of ``main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv, out=stdout)
        except SystemExit as exit_:
            code = exit_.code
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def capture() -> dict[str, object]:
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "cases": {" ".join(argv): outcome(argv) for argv in cases()},
    }


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
