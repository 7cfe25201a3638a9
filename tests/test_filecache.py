"""The one rule for files that outlive the process (``repro._filecache``)."""

from __future__ import annotations

import os

from repro import _filecache


def test_the_root_follows_xdg_cache_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _filecache.cache_root("models") == str(tmp_path / "repro" / "models")
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/path")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert _filecache.cache_root() == str(tmp_path / ".cache" / "repro")


def test_without_a_home_there_is_no_root(monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(os.path, "expanduser", lambda path: path)
    assert _filecache.cache_root("bytecode") is None


def test_stored_payloads_come_back_and_damage_reads_as_missing(tmp_path):
    path = str(tmp_path / "a" / "b" / "entry")
    _filecache.store(path, b"format 1\n", b"payload")
    assert _filecache.load(path, b"format 1\n") == b"payload"
    assert _filecache.load(path, b"format 2\n") is None
    assert oct(os.stat(tmp_path / "a").st_mode & 0o777) == "0o700"
    data = open(path, "rb").read()
    for damaged in (data[:-1], data[:-1] + b"P", b""):
        with open(path, "wb") as handle:
            handle.write(damaged)
        assert _filecache.load(path, b"format 1\n") is None
    assert _filecache.load(str(tmp_path / "missing"), b"format 1\n") is None


def test_a_write_that_fails_leaves_nothing(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    _filecache.write(str(blocker / "entry"), b"data")  # no exception
    assert sorted(os.listdir(tmp_path)) == ["file"]
    directory = tmp_path / "directory"
    directory.mkdir()
    _filecache.write(str(directory), b"data")  # a directory is not replaced
    assert os.listdir(directory) == []
    assert sorted(os.listdir(tmp_path)) == ["directory", "file"]
