"""Every committed capture, byte for byte, and nothing checked twice.

A row names a script (its docstring says how the fixture is, or is
never, rewritten) and the fixture it printed on the commit it pins.  The
script runs in a fresh interpreter from the repository root with
``PYTHONPATH=src COLUMNS=80`` and no ``REPRO_EXECUTOR`` or
``REPRO_STORE_DIR``; its stdout must be the fixture's bytes, as ``cmp``
would say (one row: ``pytest tests/test_captures.py -k windows``).  CI
runs tier-1 once per Python, so the guards fail on a CI line that runs
tier-1 tests again in the same environment or ``cmp``s a fixture.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: name → (script, fixture, the only Python it is compared on, or None).
#: argparse formats help differently across Python versions.
CAPTURES: dict[str, tuple[str, str, str | None]] = {
    "accounting": ("engines/_accounting_capture.py", "accounting_v2.json", None),
    "cli-text": ("_cli_text_capture.py", "cli_text_parent.json", "3.11"),
    "columnar": ("engines/_columnar_capture.py", "columnar_parent.json", None),
    "generators": ("datagen/_generator_capture.py", "generators_parent.json", None),
    "loadgen": ("loadgen/_load_capture.py", "loadgen_parent.json", None),
    "windows": ("engines/_window_capture.py", "windows_parent.json", None),
}


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_the_capture_is_its_fixture(name):
    script, fixture, python = CAPTURES[name]
    running = "%d.%d" % sys.version_info[:2]
    if python not in (None, running):
        pytest.skip(f"{fixture} was captured on Python {python}, not {running}")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    for variable in ("REPRO_EXECUTOR", "REPRO_STORE_DIR"):
        env.pop(variable, None)
    completed = subprocess.run(
        [sys.executable, f"tests/{script}"], cwd=ROOT, env=env,
        capture_output=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr.decode()[-2000:]
    want = (ROOT / "tests" / "fixtures" / fixture).read_bytes()
    if completed.stdout != want:
        pairs = zip_longest(completed.stdout.split(b"\n"), want.split(b"\n"))
        line, (got, expected) = next(
            (n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1]
        )
        pytest.fail(
            f"tests/{script} differs from {fixture} at line {line}:\n"
            f"  printed: {got!r:.300}\n  fixture: {expected!r:.300}",
            pytrace=False,
        )


def test_no_ci_line_reruns_tier_1_or_compares_a_fixture():
    """A ``pytest tests/…`` line needs something besides ``PYTHONPATH``
    in its environment (a backend, a bytecode setting) to check anything
    tier-1 did not, and the table compares every fixture."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    rerun = re.compile(r"\bpytest\s+[\"']?tests/")
    assert [
        line.strip() for line in ci.replace("\\\n", " ").splitlines()
        if re.search(r"\bcmp\b.*\btests/fixtures/", line)
        or (match := rerun.search(line))
        and set(re.findall(r"\b([A-Z_]+)=", line[: match.start()]))
        <= {"PYTHONPATH"}
    ] == []


def test_every_capture_fixture_is_one_row():
    """What a capture script's docstring says it writes
    (``> tests/fixtures/…``) is the fixture of exactly one row."""
    writes = {}
    for script in (ROOT / "tests").glob("**/_*_capture.py"):
        doc = ast.get_docstring(ast.parse(script.read_text())) or ""
        for fixture in re.findall(r">\s*tests/fixtures/(\S+)", doc):
            writes.setdefault(fixture, []).append(
                script.relative_to(ROOT / "tests").as_posix()
            )
    rows = {}
    for script, fixture, _ in CAPTURES.values():
        rows.setdefault(fixture, []).append(script)
    assert writes == rows
