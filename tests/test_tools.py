"""Smoke tests of ``tools/report_hash.py``, the fingerprint that every
claim of bit-identical output rests on."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SHA = "[0-9a-f]{64}"


def report_hash_lines(monkeypatch, capsys, argv: list[str]) -> list[str]:
    """The lines ``report_hash.main(argv)`` prints, run in-process."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    spec = importlib.util.spec_from_file_location("report_hash", TOOLS / "report_hash.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_report_hash_residuals_runs_in_process(capsys, monkeypatch):
    every_verify_ok = r"residuals ok \d+ not-ok 0 raised 0 log10 median \S+ max \S+"
    # only order-sweep fits constants, so only it has initial-value checks
    patterns = [rf"order-sweep 68 cases {SHA}", rf"order-sweep {every_verify_ok}",
                r"order-sweep initial values [1-9]\d* checks log10 median \S+ max \S+",
                rf"forcing-sweep 198 cases {SHA}", rf"forcing-sweep {every_verify_ok}",
                rf"sample exit 0 {SHA}"]
    lines = report_hash_lines(monkeypatch, capsys, ["--seed", "7", "--residuals"])
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_report_hash_cli_runs_in_process(capsys, monkeypatch):
    [line] = report_hash_lines(monkeypatch, capsys, ["--seed", "7", "--cli"])
    assert re.fullmatch(rf"cli 89 runs {SHA}", line), line


def test_report_hash_parse_runs_in_process(capsys, monkeypatch):
    [line] = report_hash_lines(monkeypatch, capsys, ["--seed", "7", "--parse"])
    assert re.fullmatch(rf"parse 287 sources {SHA}", line), line


def test_report_hash_roots_runs_in_process(capsys, monkeypatch):
    [line] = report_hash_lines(monkeypatch, capsys, ["--seed", "7", "--roots"])
    match = re.fullmatch(rf"roots 1216 cases landed (\d+) raised (\d+) {SHA}", line)
    assert match, line
    landed, raised = map(int, match.groups())
    assert landed + raised == 1216 and landed > 0
