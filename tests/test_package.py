"""Package-level contract: the public names, and what importing loads.

numpy is the only declared runtime dependency, and the library never
reaches into ``tests/`` for its reference modules.  The import check runs
in a fresh interpreter with both ``src`` and ``tests`` on the path, so a
library module that imported a test-only package would succeed there and
show up in ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import confode

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = ("scipy", "sympy", "mpmath", "hypothesis", "pytest",
             "oracle_reference", "vop_reference")


def test_every_exported_name_resolves():
    assert len(confode.__all__) == len(set(confode.__all__))
    for name in confode.__all__:
        assert hasattr(confode, name), name


def test_import_loads_numpy_and_no_test_only_module():
    # every submodule too: the package itself does not import cli
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    probe = ("import importlib, json, pkgutil, sys, confode\n"
             "for mod in pkgutil.iter_modules(confode.__path__):\n"
             "    importlib.import_module('confode.' + mod.name)\n"
             "print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = {name.split(".")[0] for name in json.loads(done.stdout)}
    assert "numpy" in loaded
    assert not loaded & set(TEST_ONLY), sorted(loaded & set(TEST_ONLY))
