"""Package-level contract: the public names, what importing loads, and
read-only records.

confode declares no runtime dependency: numpy and the other installed
packages are for tests and the benchmark only, and the library never
reaches into ``tests/`` for its reference modules.  The import check runs
in a fresh interpreter with both ``src`` and ``tests`` on the path, so a
library module that imported a test-only package would succeed there and
show up in ``sys.modules``; it also runs each command once, so a lazy
import on a command's path shows up too.  Neither ``dataclasses`` nor the
``inspect`` it imports may load either, because they are a large share of
a ``confode`` process's start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confode
from confode import ProblemSpec, SubstMap, UTerm, expr, find_roots, solve_problem

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = ("numpy", "scipy", "sympy", "mpmath", "hypothesis", "pytest",
             "algebra_reference", "oracle_reference", "roots_reference", "vop_reference")

# slow to import; the probe below loads neither itself
START_UP_COST = ("dataclasses", "inspect")

EQUATION = "T2 y + 3 T y + 2 y = exp(t^a)"

COMMANDS = (
    ["solve", "--alpha", "0.5", EQUATION],
    ["solve", "--alpha", "0.5", "--ic", "1:1,0", EQUATION],
    ["verify", "--alpha", "0.5", "--json", "--ic", "1:1,0", EQUATION],
    ["sample", "--alpha", "0.5", "--range", "0.5:2:5", "--columns", "full", EQUATION],
)


def test_every_exported_name_resolves():
    assert len(confode.__all__) == len(set(confode.__all__))
    for name in confode.__all__:
        assert hasattr(confode, name), name


def test_import_and_commands_load_no_numpy_and_no_test_only_module():
    # every submodule too: the package itself does not import cli
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    # os.listdir, not pkgutil.iter_modules, which imports inspect
    probe = ("import contextlib, importlib, io, json, os, sys, confode\n"
             "for name in sorted(os.listdir(confode.__path__[0])):\n"
             "    if name.endswith('.py') and name != '__init__.py':\n"
             "        importlib.import_module('confode.' + name[:-3])\n"
             "from confode.cli import main\n"
             "codes = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        codes.append(main(argv))\n"
             "print(json.dumps([codes, sorted(sys.modules)]))")
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(COMMANDS)], env=env,
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    codes, modules = json.loads(done.stdout)
    assert codes == [0] * len(COMMANDS)
    loaded = {name.split(".")[0] for name in modules}
    assert "numpy" not in loaded
    assert not loaded & set(TEST_ONLY), sorted(loaded & set(TEST_ONLY))
    assert not loaded & set(START_UP_COST), sorted(loaded & set(START_UP_COST))


def test_console_script_reads_sys_argv():
    # the confode script calls main() with no argv, so main reads sys.argv
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    entry = "import sys; from confode.cli import main; sys.exit(main())"
    done = subprocess.run([sys.executable, "-c", entry, "solve", "--json", "T y = 0"], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"]["kind"] == "config error"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_closed_stdout_is_one_config_error_line(json_flag):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    entry = "import sys; from confode.cli import main; sys.exit(main())"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-c", entry, "solve", "--alpha", "0.5",
                               *json_flag, "T y + y = 0"], env=env, cwd=ROOT,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    if json_flag:
        assert json.loads(done.stderr)["error"]["kind"] == "config error"
    else:
        assert done.stderr.startswith("confode: config error: standard output is closed")


def test_records_are_read_only():
    spec = ProblemSpec((3, 4), 0.5, expr(UTerm(1)))
    sol = solve_problem(spec)
    records = [(UTerm(1), "coeff"), (sol.particular, "terms"), (SubstMap(0.5), "alpha"),
               (spec.char_poly(), "coeffs"), (find_roots(spec.char_poly()), "entries"),
               (spec, "forcing"), (sol.basis.origins[0], "root"), (sol.basis, "elements"),
               (sol, "constants")]
    for record, name in records:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_no_runtime_dependencies_are_declared():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])
