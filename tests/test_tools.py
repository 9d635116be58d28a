"""Smoke tests of ``tools/report_hash.py``, the fingerprint that every
claim of bit-identical output rests on."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SHA = "[0-9a-f]{64}"


def report_hash(monkeypatch):
    """``tools/report_hash.py``, loaded as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    spec = importlib.util.spec_from_file_location("report_hash", TOOLS / "report_hash.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report_hash_lines() -> list[str]:
    """The nine lines one in-process ``report_hash.main(["--seed", "7"])`` prints,
    shared by the tests below that each match their part of the run."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stdout(out):
        assert report_hash(monkeypatch).main(["--seed", "7"]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 9
    return lines


def test_report_hash_residuals_runs_in_process(report_hash_lines):
    every_verify_ok = r"residuals ok \d+ not-ok 0 raised 0 log10 median \S+ max \S+"
    # only order-sweep fits constants, so only it has initial-value checks
    patterns = [rf"order-sweep 68 cases {SHA}", rf"order-sweep {every_verify_ok}",
                r"order-sweep initial values [1-9]\d* checks log10 median \S+ max \S+",
                rf"forcing-sweep 198 cases {SHA}", rf"forcing-sweep {every_verify_ok}",
                rf"sample exit 0 {SHA}"]
    for line, pattern in zip(report_hash_lines[:6], patterns, strict=True):
        assert re.fullmatch(pattern, line), line


def test_report_hash_cli_runs_in_process(report_hash_lines):
    line = report_hash_lines[6]
    assert re.fullmatch(rf"cli 89 runs {SHA}", line), line


def test_report_hash_parse_runs_in_process(report_hash_lines):
    line = report_hash_lines[7]
    assert re.fullmatch(rf"parse 287 sources {SHA}", line), line


def test_report_hash_roots_runs_in_process(report_hash_lines):
    line = report_hash_lines[8]
    match = re.fullmatch(rf"roots 1216 cases landed (\d+) raised (\d+) {SHA}", line)
    assert match, line
    landed, raised = map(int, match.groups())
    assert landed + raised == 1216 and landed > 0


@pytest.mark.parametrize("mode", ["--residuals", "--cli", "--parse", "--roots"])
def test_report_hash_takes_the_seed_only(mode, capsys, monkeypatch):
    with pytest.raises(SystemExit) as stop:
        report_hash(monkeypatch).main(["--seed", "7", mode])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {mode}" in capsys.readouterr().err
