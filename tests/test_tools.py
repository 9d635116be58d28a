"""Smoke test of ``tools/report_hash.py``, the fingerprint that every
claim of bit-identical output rests on."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_report_hash_residuals_runs_in_process(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    spec = importlib.util.spec_from_file_location("report_hash", TOOLS / "report_hash.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--seed", "7", "--residuals"]) == 0
    sha = "[0-9a-f]{64}"
    every_verify_ok = r"residuals ok \d+ not-ok 0 raised 0 log10 median \S+ max \S+"
    patterns = [rf"order-sweep 68 cases {sha}", rf"order-sweep {every_verify_ok}",
                rf"forcing-sweep 198 cases {sha}", rf"forcing-sweep {every_verify_ok}",
                rf"sample exit 0 {sha}"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line
