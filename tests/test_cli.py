"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` with captured stdout/stderr, so the
exit-code contract (0 ok, 1 usage/config, 2 solver, 3 verification) is
exercised exactly as a shell user would see it.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import pytest

from confode.cli import (
    DEFAULT_GRID_COUNT,
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    DEFAULT_TOL,
    _parse_ic,
    _parse_range,
    _verify_one,
    main,
)
from confode.conformable import log_grid
from confode.eqparse import problem_from_source
from confode.solver import solution_from_doc, solution_to_doc, solve_problem
from confode.ualgebra import SubstMap, eval_expr
from oracle_reference import initial_value_check

FORCED = "T2 y + 4 T y + 3 y = exp(2 t^a)"
HOMOG = "T2 y + 4 T y + 3 y = 0"
MISSING_FILE = str(Path(__file__).with_name("no-such-equation.txt"))
STDIN_TEXT = '{"alpha": 0.5,'


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# exit-code contract


def test_alpha_out_of_range_is_config_error(capsys):
    code, _, err = run_cli(["solve", "--alpha", "1.5", HOMOG], capsys)
    assert code == 1
    assert "alpha" in err


def test_alpha_zero_is_config_error(capsys):
    code, _, _ = run_cli(["solve", "--alpha", "0", HOMOG], capsys)
    assert code == 1


def test_parse_error_exits_one(capsys):
    code, _, err = run_cli(["solve", "--alpha", "0.5", "T y + + y = 0"], capsys)
    assert code == 1
    assert err.startswith("confode: parse error:") and "offset" in err


@pytest.mark.parametrize("argv, named", [
    pytest.param(["solve", "--alpha", "1", "T1000000 y + y = 0"], "limit 256 at offset 0",
                 id="order-limit"),
    # only text starting with '{' is a solution document: this is equation text
    pytest.param(["verify", "--alpha", "0.5", "[1, 2]"], "'[' at offset 0", id="json-array"),
])
def test_parse_error_kind_in_text_and_json(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("confode: parse error:") and named in err
    assert err.count("\n") == 1
    code, out, err = run_cli(argv + ["--json"], capsys)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"]["kind"] == "parse error" and named in payload["error"]["message"]


def test_missing_alpha_is_usage_error(capsys):
    code, _, _ = run_cli(["solve", HOMOG], capsys)
    assert code == 1


def test_missing_equation_is_config_error(capsys):
    code, _, err = run_cli(["solve", "--alpha", "0.5"], capsys)
    assert code == 1
    assert "equation" in err


def test_inline_and_file_conflict(tmp_path, capsys):
    path = tmp_path / "eq.txt"
    path.write_text(HOMOG)
    code, _, _ = run_cli(
        ["solve", "--alpha", "0.5", "--file", str(path), HOMOG], capsys)
    assert code == 1


def test_bad_ic_shape_is_config_error(capsys):
    code, _, err = run_cli(
        ["solve", "--alpha", "0.5", "--ic", "1:1", HOMOG], capsys)
    assert code == 1
    assert "2" in err  # second-order equation wants two targets


def test_bad_range_text_is_config_error(capsys):
    code, _, _ = run_cli(
        ["sample", "--alpha", "0.5", "--range", "1:2", HOMOG], capsys)
    assert code == 1


def test_sample_without_range_is_config_error(capsys):
    code, _, err = run_cli(["sample", "--alpha", "0.5", HOMOG], capsys)
    assert code == 1
    assert "--range" in err


def test_sample_nonpositive_start_is_config_error(capsys):
    code, _, _ = run_cli(
        ["sample", "--alpha", "0.5", "--range", "0:2:5", HOMOG], capsys)
    assert code == 1


def test_solution_json_rejected_outside_verify(capsys):
    code, _, _ = run_cli(["solve", "--alpha", "0.5", '{"alpha": 0.5}'], capsys)
    assert code == 1


def test_corrupted_solution_fails_verification(capsys):
    code, out, _ = run_cli(["solve", "--alpha", "0.75", "--json", FORCED], capsys)
    assert code == 0
    doc = json.loads(out)
    doc["particular"][0]["coeff"] *= 1.01
    code, out, _ = run_cli(
        ["verify", "--alpha", "0.75", json.dumps(doc)], capsys)
    assert code == 3
    assert "FAIL" in out


def _fitted_doc() -> dict:
    """The solve --ic 1:1,0 --json document of FORCED at alpha 0.5."""
    sol = solve_problem(problem_from_source(FORCED, 0.5), t0=1.0, targets=(1.0, 0.0))
    return solution_to_doc(sol)


def _doc_with(path, value) -> str:
    """:func:`_fitted_doc` with the value at ``path`` replaced; json writes a
    non-finite float as NaN or Infinity."""
    doc = _fitted_doc()
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


def _homogeneous_doc(edit) -> str:
    """The solve --json document of T2 y + 3 T y + 2 y = 0 at alpha 0.5,
    passed through ``edit``."""
    sol = solve_problem(problem_from_source("T2 y + 3 T y + 2 y = 0", 0.5))
    return json.dumps(edit(solution_to_doc(sol)))


@pytest.mark.parametrize("text, named", [
    ('{"foo": 1}', "'coeffs'"),
    ('{"coeffs": [1, 2], "alpha": 0.5}', "'forcing'"),
    pytest.param(_doc_with(("coeffs", 0), math.nan), "'coeffs'", id="nan-coefficient"),
    pytest.param(_doc_with(("particular", 0, "coeff"), math.inf), "'particular'",
                 id="infinite-particular-coefficient"),
    pytest.param(_doc_with(("basis", 0, 0, "erate"), math.nan), "'basis'", id="nan-rate"),
    pytest.param(_doc_with(("forcing", 0, "erate"), -math.inf), "'forcing'",
                 id="infinite-forcing-rate"),
    pytest.param(_doc_with(("constants", 1), math.nan), "'constants'", id="nan-constant"),
    pytest.param(_doc_with(("alpha",), math.inf), "'alpha'", id="infinite-alpha"),
    pytest.param(_doc_with(("origins", 0, "root", 0), math.nan), "'origins'", id="nan-root"),
    # documents that are not general solutions
    pytest.param(_homogeneous_doc(lambda d: {**d, "basis": d["basis"][:1],
                                             "origins": d["origins"][:1]}),
                 "'basis'", id="basis-too-short"),
    pytest.param(_homogeneous_doc(lambda d: {**d, "basis": [d["basis"][0]] * 2}),
                 "'basis'", id="basis-repeated"),
    pytest.param(_homogeneous_doc(lambda d: {**d, "origins": [
        {**d["origins"][0], "root": [5.0, 0.0]}, *d["origins"][1:]]}),
                 "'origins'", id="origin-root-differs"),
    # the second element is twice the first, with its origins to match
    pytest.param(_homogeneous_doc(lambda d: {
        **d, "basis": [d["basis"][0], [{**d["basis"][0][0], "coeff": 2.0}]],
        "origins": [d["origins"][0]] * 2}), "'basis'", id="basis-dependent"),
    pytest.param(_doc_with(("particular",), None), "'particular'",
                 id="forced-without-particular"),
    # fitted constants mean something only with the initial values they fit
    pytest.param(json.dumps({k: v for k, v in _fitted_doc().items() if k != "ic"}), "'ic'",
                 id="fitted-without-ic"),
    pytest.param(_doc_with(("constants",), None), "'ic'", id="ic-without-constants"),
    pytest.param(_doc_with(("ic", "targets"), [1.0]), "'ic'", id="ic-target-count"),
    pytest.param(_doc_with(("ic", "t0"), 0.0), "'ic'", id="ic-t0-not-positive"),
    pytest.param(_doc_with(("ic", "targets", 1), math.nan), "'ic'", id="ic-nan-target"),
])
def test_malformed_solution_document_is_config_error(text, named, capsys):
    code, out, err = run_cli(["verify", "--alpha", "0.5", text], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("confode: config error:") and named in err
    assert err.count("\n") == 1
    code, out, err = run_cli(["verify", "--alpha", "0.5", "--json", text], capsys)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"]["kind"] == "config error" and named in payload["error"]["message"]


@pytest.mark.parametrize("doc, named", [
    ([1, 2], "JSON object"),
    ({"foo": 1}, "lacks the key 'coeffs'"),
    ({"coeffs": 3, "alpha": 0.5}, "key 'coeffs' is ill-typed"),
])
def test_solution_from_doc_names_the_bad_key(doc, named):
    with pytest.raises(ValueError, match=named):
        solution_from_doc(doc)


@pytest.mark.parametrize("argv, named", [
    pytest.param(["solve", HOMOG], "--alpha", id="missing-alpha"),
    pytest.param([], "command", id="no-command"),
    pytest.param(["solve", "--alpha", "0.5", "--bogus", "1", HOMOG], "arguments: --bogus",
                 id="unknown-flag"),
    # argparse reads 1e-3 as the positional, and leaves the equation text over
    pytest.param(["solve", "--alpha", "0.5", "--tol", "1e-3", HOMOG], "arguments: --tol",
                 id="solve-tol"),
    pytest.param(["verify", "--alpha", "0.5", "--columns", "full", HOMOG], "--columns",
                 id="verify-columns"),
    pytest.param(["sample", "--alpha-list", "0.5,1", "--range", "1:2:3", HOMOG], "--alpha",
                 id="sample-alpha-list"),
    pytest.param(["sample", "--alpha", "0.5", "--range", "1:2:3", "--columns", "fancy", HOMOG],
                 "--columns", id="columns-fancy"),
    pytest.param(["verify", "--alpha", "0.5", "--tol", "abc", HOMOG], "--tol", id="tol-abc"),
    # flags answer to their full names only
    pytest.param(["sample", "--al", "0.5", "--range", "1:2:3", HOMOG], "arguments: --al",
                 id="abbrev-al"),
    pytest.param(["sample", "--alpha", "0.5", "--ra", "1:2:3", HOMOG], "arguments: --ra",
                 id="abbrev-ra"),
    # named even where argparse would report the required flag missing
    pytest.param(["solve", "--al", "0.5", HOMOG], "arguments: --al", id="solve-abbrev-al"),
    pytest.param(["sample", "--al", "0.5", "--ra", "1:2:3", HOMOG], "arguments: --al --ra",
                 id="abbrev-al-ra"),
    pytest.param(["solve", "--alpha", "0.5", "--ic", "1:a", HOMOG], "--ic",
                 id="ic-not-a-number"),
    pytest.param(["solve", "--alpha", "0.5", "--ic", "0:1,0", HOMOG], "--ic", id="ic-at-zero"),
    pytest.param(["verify", "--alpha", "0.5", "--range", "3:1:5", HOMOG], "--range",
                 id="range-decreasing"),
    pytest.param(["sample", "--alpha", "0.5", "--range", "1:3:1", HOMOG], "--range",
                 id="range-one-point"),
    pytest.param(["solve", "--alpha", "0.5", "--file", MISSING_FILE], "--file",
                 id="file-unreadable"),
    # no source: verify reads STDIN_TEXT, which is not JSON
    pytest.param(["verify", "--alpha", "0.5"], "solution JSON", id="stdin-bad-json"),
])
def test_usage_errors_are_one_line_config_errors(argv, named, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(STDIN_TEXT))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("confode: config error:") and err.count("\n") == 1
    assert named in err and HOMOG not in err
    assert "usage:" not in err
    monkeypatch.setattr("sys.stdin", io.StringIO(STDIN_TEXT))
    code, out, err = run_cli(argv + ["--json"], capsys)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert err.count("\n") == 1 and payload["error"]["kind"] == "config error"
    assert named in payload["error"]["message"]


def test_json_mode_errors_are_json_on_stderr(capsys):
    code, _, err = run_cli(["solve", "--alpha", "1.5", "--json", HOMOG], capsys)
    assert code == 1
    payload = json.loads(err)
    assert "error" in payload and "alpha" in payload["error"]["message"]


# e^{2t} at t = 1000 is beyond binary64, so the first three overflow in
# math.exp.  In the last two the exponential is finite and a coefficient
# near 1e300 takes the product past binary64, so the value becomes inf
# without an exception.  An exception escaping main() would fail run_cli.
GROWING = "T y - 2 y = 0"


def _huge_growing_doc() -> str:
    doc = solution_to_doc(solve_problem(problem_from_source(GROWING, 1.0)))
    doc["basis"][0][0]["coeff"] = 1e300
    return json.dumps(doc)


@pytest.mark.parametrize("argv", [
    ["sample", "--alpha", "1", "--range", "1:1000:3", GROWING],
    ["verify", "--alpha", "1", "--range", "1:1000:3", GROWING],
    ["solve", "--alpha", "1", "--ic", "1000:1", GROWING],
    ["sample", "--alpha", "1", "--range", "1:300:3", "--ic", "1:1e300", GROWING],
    ["verify", "--alpha", "1", "--range", "10:20:3", _huge_growing_doc()],
    # u^2 overflows in the sampled table, an OverflowError with an errno
    ["sample", "--alpha", "1e-200", "--range", "1:2:3", "T3 y = 0"],
])
def test_overflow_is_solver_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("confode: solver error:") and "overflows binary64" in err
    assert "(34, " not in err

    code, out, err = run_cli(argv + ["--json"], capsys)
    assert code == 2
    assert out == ""
    assert "overflows binary64" in json.loads(err)["error"]["message"]
    assert "(34, " not in err


@pytest.mark.parametrize("argv, piped, code", [
    pytest.param(["--alpha", "1", "--range", "800:900:5", "T y + y = 0"], False, 2,
                 id="range-homogeneous"),
    pytest.param(["--alpha", "1", "--range", "800:900:5", "T2 y + 3 T y + 2 y = 1"], False, 2,
                 id="range-forced"),
    # t0 = 1 shares the grid's table, and its values do not count
    pytest.param(["--alpha", "1", "--range", "800:900:5", "--ic", "1:1", "T y + y = 0"], False,
                 2, id="range-fitted"),
    # u = t^a / a is inf, then about 1e300: e^{-u} is 0 at every point
    pytest.param(["--alpha", "1e-310", "T y + y = 0"], True, 2, id="piped-alpha-1e-310"),
    pytest.param(["--alpha", "1e-300", "T y + y = 0"], True, 2, id="piped-alpha-1e-300"),
    # a fitted solution that is 0 everywhere is a real answer
    pytest.param(["--alpha", "0.5", "--ic", "1:0,0", "T2 y + 3 T y + 2 y = 0"], False, 0,
                 id="fitted-zero"),
])
def test_verify_refuses_a_check_whose_values_all_underflow(argv, piped, code, capsys,
                                                           monkeypatch):
    if piped:
        *flags, source = argv
        solved, doc, _ = run_cli(["solve", *flags, "--json", source], capsys)
        assert solved == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        argv = flags
    got, out, err = run_cli(["verify", *argv], capsys)
    assert got == code
    if code:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("confode: solver error: every value of the basis element 1 "
                              "underflows to 0")
    else:
        assert out.endswith("-> ok\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "1e-310", "T y + y = 0"],  # the t rate -1/alpha overflows
    ["solve", "--alpha", "1e-200", "T3 y = 0"],  # alpha^2 underflows to 0
])
def test_text_solution_beyond_binary64_is_solver_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("confode: solver error: a value overflows binary64 (")
    assert err.count("\n") == 1
    # the document holds only the u-domain numbers, which are finite
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 0 and "Infinity" not in out


@pytest.mark.parametrize("argv", [
    ["sample", "--alpha", "0.5", "--range", "nan:3:3", HOMOG],
    ["sample", "--alpha", "0.5", "--range", "1:inf:3", HOMOG],
    ["verify", "--alpha", "0.5", "--tol", "nan", HOMOG],
    ["solve", "--alpha", "0.5", "--ic", "nan:1,0", HOMOG],
    ["solve", "--alpha", "0.5", "--ic", "1:nan,0", HOMOG],
])
def test_non_finite_flag_values_are_config_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "config error" in err and "finite" in err


@pytest.mark.parametrize("source", ["T y + 1e999 y = 0", "T y + y = exp(1e999 t^a)"])
def test_non_finite_literal_is_a_positioned_parse_error(source, capsys):
    code, out, err = run_cli(["solve", "--alpha", "1", source], capsys)
    assert code == 1
    assert out == ""
    assert f"non-finite numeric literal at offset {source.index('1e999')}" in err


# ---------------------------------------------------------------------------
# solve


def _root_levels(source, capsys) -> list[tuple[list[float], int, str | None]]:
    code, out, _ = run_cli(["solve", "--alpha", "1", "--json", source], capsys)
    assert code == 0
    return [(o["root"], o["level"], o["part"]) for o in json.loads(out)["origins"]]


def test_decimal_coefficients_give_exact_decimal_roots(capsys):
    # (r + 0.1)^2 and (r + 0.1)^2 + 0.09, read exactly from the text
    assert _root_levels("T2 y + 0.2 T y + 0.01 y = 0", capsys) == [
        ([-0.1, 0.0], 0, None), ([-0.1, 0.0], 1, None)]
    assert _root_levels("T2 y + 0.2 T y + 0.1 y = 0", capsys) == [
        ([-0.1, 0.3], 0, "cos"), ([-0.1, 0.3], 0, "sin")]


@pytest.mark.parametrize("source", [
    "T4 y + 0.4 T3 y + 0.06 T2 y + 0.004 T y + 0.0001 y = 0",
    "T5 y + 0.5 T4 y + 0.1 T3 y + 0.01 T2 y + 0.0005 T y + 0.00001 y = 0",
], ids=["(r+0.1)^4", "(r+0.1)^5"])
def test_decimal_high_multiplicity_solves_and_verifies(source, capsys):
    n = int(source[1])
    assert _root_levels(source, capsys) == [([-0.1, 0.0], k, None) for k in range(n)]
    code, out, _ = run_cli(["verify", "--alpha", "1", source], capsys)
    assert code == 0 and out.rstrip().endswith("-> ok")


def test_close_simple_roots_stay_simple_or_are_refused(capsys):
    # (r^2 - 2)(r^2 - 2 - 2^-k) to 16 digits: four simple roots, the pairs
    # about 2^-(k+1.5) apart; float clustering reported two double roots
    # for k = 20
    close = "T4 y - 4.000000953674316 T2 y + 4.000001907348633 y = 0"
    levels = _root_levels(close, capsys)
    assert [level for _, level, _ in levels] == [0, 0, 0, 0]
    assert len({tuple(root) for root, _, _ in levels}) == 4
    closer = "T4 y - 4.000000007450581 T2 y + 4.000000014901161 y = 0"
    code, out, err = run_cli(["solve", "--alpha", "1", closer], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "cannot separate the roots" in err


@pytest.mark.parametrize("source", ["T y + y = 0.0000000000001",
                                    "T y + 10000000000000 y = 1"])
def test_tiny_particular_coefficients_are_kept(source, capsys):
    # 1e-13 is a legitimate answer, not cancellation noise to prune
    code, out, _ = run_cli(["solve", "--alpha", "1", source], capsys)
    assert code == 0
    assert "particular: v(t) = 1e-13\n" in out
    code, out, _ = run_cli(["solve", "--alpha", "1", "--json", source], capsys)
    assert json.loads(out)["particular"] == [
        {"coeff": 1e-13, "upow": 0, "erate": 0.0, "trig": None, "tfreq": 0.0}]


def _consecutive_roots_source(n: int) -> str:
    """prod_{k=1..n} (r + k) as an equation forced by exp(t^a)."""
    poly = [1]  # highest first
    for k in range(1, n + 1):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    terms = [f"{c} T{n - i} y" for i, c in enumerate(poly[1:-1], 1)]
    return " + ".join([f"T{n} y", *terms, f"{poly[-1]} y"]) + " = exp(t^a)"


@pytest.mark.parametrize("n", [13, 14])
def test_consecutive_negative_roots_with_exponential_forcing_verify(n, capsys):
    # the oracle derives every level of v in full, so no level loses its tail
    code, out, _ = run_cli(["verify", "--alpha", "0.5", _consecutive_roots_source(n)], capsys)
    assert code == 0 and out.rstrip().endswith("-> ok")


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "1", "T y + 1e-300 y = 1e300"],
    # the first alpha solves and renders; the second overflows in the fit
    ["solve", "--alpha-list", "0.1,1", "--ic", "1000:1", "T y - 2 y = 0"],
])
def test_failing_solve_prints_nothing(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "overflows binary64" in err
    code, out, err = run_cli(argv + ["--json"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "overflows binary64" in json.loads(err)["error"]["message"]


def test_solve_prints_known_particular_coefficient(capsys):
    code, out, _ = run_cli(["solve", "--alpha", "1", FORCED], capsys)
    assert code == 0
    assert "0.06666666667" in out     # 1/15
    assert "y1(t)" in out and "y2(t)" in out


def test_solve_half_alpha_basis_rendering(capsys):
    code, out, _ = run_cli(["solve", "--alpha", "0.5", HOMOG], capsys)
    assert code == 0
    assert "t^0.5" in out
    assert "particular" not in out


def test_solve_alpha_list_emits_each_section(capsys):
    code, out, _ = run_cli(
        ["solve", "--alpha-list", "0.25,0.5,0.75,1.0", HOMOG], capsys)
    assert code == 0
    assert out.count("alpha = ") == 4


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["solve", "--alpha", "0.5", "--ic", "1:1,0", "T2 y + 2 T y + 5 y = 0"], [
        "alpha = 0.5",
        "basis:",
        "  y1(t) = e^{-2·t^0.5}·cos(4·t^0.5)",
        "  y2(t) = e^{-2·t^0.5}·sin(4·t^0.5)",
        "constants: c1 = -2.033781336448894, c2 = -8.006960785275673",
        "y(t) = -2.033781336·e^{-2·t^0.5}·cos(4·t^0.5)"
        " - 8.006960785·e^{-2·t^0.5}·sin(4·t^0.5)",
    ], id="pair-with-ic"),
    pytest.param(["solve", "--alpha", "0.5", "T2 y + 3 T y + 2 y = cos(2 t^a)"], [
        "alpha = 0.5",
        "basis:",
        "  y1(t) = e^{-4·t^0.5}",
        "  y2(t) = e^{-2·t^0.5}",
        "particular: v(t) = 0.1·cos(2·t^0.5) + 0.3·sin(2·t^0.5)",
        "y(t) = c1·e^{-4·t^0.5} + c2·e^{-2·t^0.5} + (0.1·cos(2·t^0.5) + 0.3·sin(2·t^0.5))",
    ], id="two-term-particular"),
])
def test_solve_text_output(argv, expected, capsys):
    assert run_cli(argv, capsys) == (0, "\n".join(expected) + "\n", "")


def test_solve_with_ic_reports_constants(capsys):
    t0 = 1.0
    y0 = math.exp(-3.0) + math.exp(-1.0)
    y1 = -3.0 * math.exp(-3.0) - math.exp(-1.0)
    code, out, _ = run_cli(
        ["solve", "--alpha", "1", "--json",
         "--ic", f"{t0}:{y0!r},{y1!r}", HOMOG], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["constants"] == pytest.approx([1.0, 1.0], abs=1e-9)


def test_solve_from_file(tmp_path, capsys):
    path = tmp_path / "eq.txt"
    path.write_text(FORCED + "\n")
    code, out, _ = run_cli(["solve", "--alpha", "1", "--file", str(path)], capsys)
    assert code == 0
    assert "0.06666666667" in out


def test_solve_json_document_shape(capsys):
    code, out, _ = run_cli(["solve", "--alpha", "0.5", "--json", FORCED], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 0.5
    assert doc["order"] == 2
    assert len(doc["basis"]) == 2
    assert doc["particular"] is not None
    assert doc["constants"] is None


# ---------------------------------------------------------------------------
# verify


def test_verify_forced_equation_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--alpha", "0.75", "T2 y + 4 T y + 3 y = t^(2 a)"], capsys)
    assert code == 0
    assert "ok" in out


def test_verify_homogeneous_quarter_alpha_passes(capsys):
    code, out, _ = run_cli(["verify", "--alpha", "0.25", HOMOG], capsys)
    assert code == 0


def test_verify_alpha_sweep(capsys):
    code, out, _ = run_cli(
        ["verify", "--alpha-list", "0.25,0.5,0.75,1.0", FORCED], capsys)
    assert code == 0
    assert out.count("-> ok") == 4


def test_verify_custom_range_sets_grid(capsys):
    code, out, _ = run_cli(
        ["verify", "--alpha", "0.5", "--json", "--range", "0.5:2:10", HOMOG],
        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["grid"]["count"] == 10
    assert rep["grid"]["t_lo"] == pytest.approx(0.5)
    assert rep["grid"]["t_hi"] == pytest.approx(2.0)


def test_verify_tight_tolerance_fails(capsys):
    # residuals are honest floats, so an absurd tolerance has to lose
    code, out, _ = run_cli(
        ["verify", "--alpha", "0.5", "--tol", "1e-30", HOMOG], capsys)
    assert code == 3
    assert "FAIL" in out


def test_verify_grid_beyond_the_domain_is_config_error(capsys):
    # DomainError is a ValueError, so it reports as a config error, exit 1.
    code, _, err = run_cli(
        ["verify", "--alpha", "0.5", "--range", "1:2000000:5", "T y + y = 0"], capsys)
    assert code == 1
    assert "config error" in err and "not interior" in err


def test_verify_order_ten_distinct_roots_passes(capsys):
    # roots -1..-10: the Laplace/Cramer particular solution missed the
    # default tolerance here (2.7e-6)
    source = ("T10 y + 55 T9 y + 1320 T8 y + 18150 T7 y + 157773 T6 y "
              "+ 902055 T5 y + 3416930 T4 y + 8409500 T3 y + 12753576 T2 y "
              "+ 10628640 T y + 3628800 y = t^(2 a) * exp(t^a) + sin(2 t^a)")
    code, out, _ = run_cli(["verify", "--alpha", "0.5", "--json", source], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("source", [GROWING, "T2 y - 4 y = 0"])
def test_verify_growing_exponential_to_large_t_passes(source, capsys):
    # e^{2t} up to t = 300: a central difference of values near 1e260 left
    # residuals of 1.1e-6 here; the complex step subtracts no values
    code, out, _ = run_cli(["verify", "--alpha", "1", "--range", "1:300:3", source], capsys)
    assert code == 0, out
    assert "-> ok" in out


@pytest.mark.parametrize("source", [
    # the basis rate is tiny but the quotient of e^{-u} keeps its bits
    "T y + y = exp(1e-300 t^a)",
    pytest.param("T y - 1e-290 y = exp(1e-290 t^a)", marks=pytest.mark.xfail(strict=True, reason=(
        "v = -2e290 e^{5e-291 u} is right, but the oracle's step rate * STEP is "
        "subnormal, so v's quotient loses its bits: residual 1.053e-04 on the "
        "particular solution (0.333 at 1e-300)"))),
])
def test_verify_tiny_rates(source, capsys):
    code, out, _ = run_cli(["verify", "--alpha", "0.5", source], capsys)
    assert code == 0, out
    assert out.endswith("-> ok\n")


def test_verify_honours_a_range_start_below_the_default(capsys):
    code, out, _ = run_cli(
        ["verify", "--json", "--alpha", "0.3", "--range", "0.00001:3:50",
         "T3 y + 3 T2 y - 9 T y + 5 y = 1.5 * t^a * sin(1 t^a) - 2 * exp(0.5 t^a)"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["grid"]["t_lo"] == 1e-5


def test_verify_range_below_the_domain_floor_is_config_error(capsys):
    code, _, err = run_cli(
        ["verify", "--alpha", "0.5", "--range", "0.0000001:2:5", "T y + y = 0"], capsys)
    assert code == 1
    assert "config error" in err and "not interior" in err


# two rates that round to the same binary64 value
NEAR_EQUAL_RATES = "T2 y + 3 T y + 2 y = 1.3 * exp(0.9 t^a) - 0.7 * exp(0.90000000000000001 t^a)"


@pytest.mark.parametrize("alpha, args", [
    ("0.75", [FORCED]),
    ("1", ["T3 y + 9 T2 y + 18 T y = 0.5 * exp(1.5 t^a) * sin(1 t^a)"]),
    ("0.3", ["T3 y + 3 T2 y - 9 T y + 5 y = 1.5 * t^a * sin(1 t^a) - 2 * exp(0.5 t^a)"]),
    ("1", [NEAR_EQUAL_RATES]),
    ("0.3", ["--ic", "1:1,0,-1,0.5", "T4 y + 2 T3 y + T2 y = 3 + t^a"]),
], ids=["forced", "trig-forcing", "decimal-alpha-resonance", "near-equal-rates",
        "initial-values"])
def test_solve_json_pipes_to_identical_verify_report(alpha, args, capsys, monkeypatch):
    # the document holds the binary64 lowering, which is what verify
    # evaluates, and the initial values the constants were fitted to
    code, sol_json, _ = run_cli(
        ["solve", "--alpha", alpha, "--json", *args], capsys)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(sol_json))
    code, report_from_doc, _ = run_cli(
        ["verify", "--alpha", alpha, "--json"], capsys)
    assert code == 0
    code, report_from_text, _ = run_cli(
        ["verify", "--alpha", alpha, "--json", *args], capsys)
    assert code == 0
    assert report_from_doc == report_from_text


def test_verify_doc_alpha_wins_over_flag(capsys):
    # The document fixes alpha: a flag that matches it verifies the
    # document, and one that differs is refused rather than ignored.
    code, sol_json, _ = run_cli(
        ["solve", "--alpha", "0.75", "--json", HOMOG], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["verify", "--alpha", "0.75", "--json", sol_json], capsys)
    assert code == 0
    assert json.loads(out)["alpha"] == 0.75
    for flag in (["--alpha", "0.5"], ["--alpha-list", "0.75,0.5"]):
        code, out, err = run_cli(["verify", *flag, "--json", sol_json], capsys)
        assert code == 1
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert "0.5" in message and "0.75" in message


def test_verify_doc_without_optional_keys(capsys):
    text = _homogeneous_doc(
        lambda d: {k: v for k, v in d.items() if k not in ("particular", "constants", "ic")})
    sol = solution_from_doc(json.loads(text))
    assert sol.particular is None and sol.constants is None and sol.ic is None
    code, out, _ = run_cli(["verify", "--alpha", "0.5", text], capsys)
    assert code == 0 and out.endswith("-> ok\n")


def test_verify_doc_refuses_ic(capsys, monkeypatch):
    code, sol_json, _ = run_cli(
        ["solve", "--alpha", "0.9", "--json", "T2 y + 3 T y + 2 y = 0"], capsys)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(sol_json))
    code, out, err = run_cli(["verify", "--alpha", "0.9", "--ic", "1:5"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("confode: config error:") and "--ic" in err


def test_verify_ic_checks_the_fitted_solution(capsys):
    code, out, _ = run_cli(
        ["verify", "--alpha", "0.5", "--json", "--ic", "1:1,0", "T2 y + 3 T y + 2 y = 0"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["combined"] is not None
    assert report["combined"]["max_residual"] < report["tol"]
    # with forcing, v's derivatives at t0 count towards the initial values
    code, out, _ = run_cli(
        ["verify", "--alpha", "0.75", "--json", "--ic", "1:1,0", FORCED], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["particular"] is not None and report["combined"] is not None


def test_verify_refuses_constants_that_miss_the_initial_values(capsys):
    # L[v + sum c_i e_i] = q for any constants, so only the initial values
    # tell a wrong fit: here each constant c is replaced by 3c + 5
    code, out, _ = run_cli(["solve", "--alpha", "0.5", "--ic", "1:1,0", "--json",
                            "T2 y + 3 T y + 2 y = 0"], capsys)
    assert code == 0
    doc = json.loads(out)
    doc["constants"] = [3 * c + 5 for c in doc["constants"]]
    code, out, _ = run_cli(["verify", "--alpha", "0.5", json.dumps(doc)], capsys)
    assert code == 3
    assert "(initial values at t = 1)" in out and out.endswith("-> FAIL\n")
    code, out, _ = run_cli(["verify", "--alpha", "0.5", "--json", json.dumps(doc)], capsys)
    assert code == 3
    report = json.loads(out)
    assert (report["worst_part"], report["worst_t"]) == ("initial values", 1.0)
    assert report["combined"]["max_residual"] == report["max_residual"] > report["tol"]


@pytest.mark.parametrize("alpha, ic, source, named", [
    ("1", "1e7:1", "T y = 0", "t=10000000.0"),
    ("0.5", "1e-7:1,0", "T2 y + 3 T y + 2 y = 0", "t=1e-07"),
])
def test_verify_refuses_t0_outside_the_oracle_domain(alpha, ic, source, named, capsys):
    # solve fits at any t0 > 0; verify evaluates at t0 only inside the domain
    code, _, _ = run_cli(["solve", "--alpha", alpha, "--ic", ic, source], capsys)
    assert code == 0
    code, out, err = run_cli(["verify", "--alpha", alpha, "--ic", ic, source], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("confode: config error:") and named in err
    assert "not interior" in err


@pytest.mark.parametrize("alpha, ic, source", [
    (0.5, (1.0, (1.0, 0.0)), FORCED),
    # roots 0, 0, -1, -1: the forcing resonates with the double root 0
    (0.3, (1.0, (1.0, 0.0, -1.0, 0.5)), "T4 y + 2 T3 y + T2 y = 3 + t^a"),
    # the conjugate pair -1 +- 2i, forced at its own frequency
    (1.0, (0.7, (0.5, -1.0)), "T2 y + 2 T y + 5 y = exp(-t^a) * cos(2 t^a)"),
    # a conjugate pair and a real root, with t0 on the grid's last point
    (0.3, (3.0, (1.0, 2.0, -1.0)), "T3 y + 3 T2 y + 4 T y + 2 y = 0"),
    (1.0, (0.05, (2.0, -3.0)), HOMOG),
])
def test_initial_values_read_the_grid_table_as_a_table_of_their_own(alpha, ic, source):
    # t0 is one more point of verify's table: the record equals the check
    # on a one-point table at t0, bit for bit
    sol = solve_problem(problem_from_source(source, alpha), t0=ic[0], targets=ic[1])
    grid = log_grid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_COUNT)
    report = _verify_one(sol, grid, DEFAULT_TOL)
    assert report["combined"] == initial_value_check(sol)
    assert report["combined"]["max_residual"] < DEFAULT_TOL


def _fitted_doc(doc: dict, t0: float) -> str:
    return json.dumps({**doc, "constants": [1.0] * doc["order"],
                       "ic": {"t0": t0, "targets": [1.0] * doc["order"]}})


@pytest.mark.parametrize("doc, argv, named", [
    # t0 is outside the oracle's domain, and the basis overflows on the grid
    pytest.param(lambda: _fitted_doc(json.loads(_huge_growing_doc()), 1e7),
                 ["--range", "10:20:3"], "overflows binary64", id="t0-beyond-the-domain"),
    # e^u overflows at t0 only, and the particular solution underflows on the grid
    pytest.param(lambda: _fitted_doc(solution_to_doc(solve_problem(
        problem_from_source("T y - y = exp(-20 t^a)", 1.0))), 800.0),
                 ["--range", "80:90:3"], "every value of the particular solution underflows to 0",
                 id="overflow-at-t0-only"),
])
def test_verify_reports_the_grid_before_t0(doc, argv, named, capsys):
    code, out, err = run_cli(["verify", "--alpha", "1", *argv, doc()], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("confode: solver error:") and named in err


def test_verify_ic_on_a_resonant_order_four_equation(capsys):
    # roots 0, 0, -1, -1: the constant and t^a forcing resonate with the
    # double root 0, so v carries u^2 and u^3
    code, out, _ = run_cli(["verify", "--alpha", "0.3", "--json", "--ic", "1:1,0,-1,0.5",
                            "T4 y + 2 T3 y + T2 y = 3 + t^a"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["combined"]["max_residual"] < 1e-8


@pytest.mark.parametrize("t0", ["800", "360"])
def test_singular_constant_fit_is_solver_error(t0, capsys):
    # at t0 = 800 both basis values underflow; at 360 e^{-2t} is subnormal
    code, out, err = run_cli(["solve", "--alpha", "1", "--ic", f"{t0}:1,0",
                              "T2 y + 3 T y + 2 y = 0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("confode: solver error: initial-condition system is")


def test_verify_ic_with_wrong_count_is_config_error(capsys):
    code, out, err = run_cli(
        ["verify", "--alpha", "0.5", "--ic", "1:1,0,5", "T2 y + 3 T y + 2 y = 0"], capsys)
    assert code == 1
    assert out == ""
    assert "--ic needs 2 target values" in err


# ---------------------------------------------------------------------------
# sample


def _fit_ic_for_unit_constants():
    y0 = math.exp(-3.0) + math.exp(-1.0)
    y1 = -3.0 * math.exp(-3.0) - math.exp(-1.0)
    return f"1:{y0!r},{y1!r}"


def test_sample_golden_rows_classical(capsys):
    code, out, _ = run_cli(
        ["sample", "--alpha", "1", "--ic", _fit_ic_for_unit_constants(),
         "--range", "1:2:3", HOMOG], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 4
    for line, t in zip(lines[1:], (1.0, 1.5, 2.0)):
        t_text, y_text = line.split(",")
        assert float(t_text) == t
        want = math.exp(-3.0 * t) + math.exp(-1.0 * t)
        assert float(y_text) == pytest.approx(want, rel=1e-8)


def test_sample_count_two_gives_exact_endpoints(capsys):
    code, out, _ = run_cli(
        ["sample", "--alpha", "0.5", "--range", "1:2.5:2", HOMOG], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1.0"
    assert lines[2].split(",")[0] == "2.5"


def test_sample_full_columns_header_and_consistency(capsys):
    code, out, _ = run_cli(
        ["sample", "--alpha", "1", "--range", "1:2:5", "--columns", "full",
         FORCED], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,y,y_basis_1,y_basis_2,y_particular"
    for line in lines[1:]:
        t, y, b1, b2, part = (float(v) for v in line.split(","))
        # no initial conditions: free constants default to zero
        assert y == pytest.approx(part, rel=1e-12)
        assert part == pytest.approx(math.exp(2.0 * t) / 15.0, rel=1e-9)


def test_sample_full_columns_homogeneous_has_no_particular(capsys):
    code, out, _ = run_cli(
        ["sample", "--alpha", "0.5", "--range", "1:2:2", "--columns", "full",
         HOMOG], capsys)
    assert code == 0
    assert out.splitlines()[0] == "t,y,y_basis_1,y_basis_2"


def test_sample_floats_round_trip(capsys):
    code, out, _ = run_cli(
        ["sample", "--alpha", "0.75", "--range", "1:3:7", "--columns", "full",
         FORCED], capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        for text in line.split(","):
            value = float(text)
            assert repr(value) == text


def _sample_rows_point_by_point(sol, lo, hi, count):
    """The sample CSV body evaluated one row at a time with eval_expr."""
    subst = SubstMap(sol.spec.alpha)
    constants = sol.constants or tuple(0.0 for _ in sol.basis.elements)
    step = (hi - lo) / (count - 1)
    lines = []
    for i in range(count):
        t = hi if i == count - 1 else lo + i * step
        basis_vals = [eval_expr(e, t, subst) for e in sol.basis.elements]
        part_val = (eval_expr(sol.particular, t, subst)
                    if sol.particular is not None else 0.0)
        y = sum(c * v for c, v in zip(constants, basis_vals)) + part_val
        row = [t, y] + basis_vals + ([part_val] if sol.particular is not None else [])
        lines.append(",".join(repr(float(v)) for v in row))
    return lines


@pytest.mark.parametrize("argv", [
    ["--alpha", "0.5", "--range", "0.5:4:997", "T2 y + 2 T y + 5 y = cos(2 t^a)"],
    ["--alpha", "0.3", "--ic", "1:0.5,-2", "--range", "0.2:3:101", FORCED],
    ["--alpha", "0.7", "--range", "0.1:2:64", HOMOG],
])
def test_sample_full_rows_equal_point_by_point_evaluation(argv, capsys):
    code, out, _ = run_cli(["sample", "--columns", "full", *argv], capsys)
    assert code == 0
    alpha, (lo, hi, count) = float(argv[1]), _parse_range(argv[argv.index("--range") + 1])
    ic = _parse_ic(argv[argv.index("--ic") + 1]) if "--ic" in argv else None
    spec = problem_from_source(argv[-1], alpha)
    sol = solve_problem(spec) if ic is None else solve_problem(spec, t0=ic[0], targets=ic[1])
    assert out.splitlines()[1:] == _sample_rows_point_by_point(sol, lo, hi, count)


class _CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_sample_writes_the_csv_in_one_call(monkeypatch):
    stub = _CountingStdout()
    monkeypatch.setattr("sys.stdout", stub)
    code = main(["sample", "--columns", "full", "--alpha", "0.3", "--ic", "1:0.5,-2",
                 "--range", "0.2:3:101", FORCED])
    assert (code, stub.writes) == (0, 1)
    # the reference prints one row per call
    sol = solve_problem(problem_from_source(FORCED, 0.3), t0=1.0, targets=(0.5, -2.0))
    want = io.StringIO()
    print("t,y,y_basis_1,y_basis_2,y_particular", file=want)
    for line in _sample_rows_point_by_point(sol, 0.2, 3.0, 101):
        print(line, file=want)
    assert stub.getvalue() == want.getvalue()


def test_sample_rejects_alpha_list(capsys):
    code, _, _ = run_cli(
        ["sample", "--alpha-list", "0.5,1.0", "--range", "1:2:3", HOMOG],
        capsys)
    assert code == 1
