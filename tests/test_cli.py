from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bps_series import anomaly, cli, goettsche, gvtransform, serialize
from bps_series.gvtransform import InvariantTable, gw_from_gv
from bps_series.laurent import LaurentPoly
from bps_series.modular import divisor_sigma
from bps_series.qseries import QSeries
from strategies import series_cases


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def one_error_line(capsys):
    """The single stderr line of a nonzero exit, which must start with "error: ";
    stdout stays empty (the tests give --out)."""
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), (out, err)
    return err.rstrip("\n")


def write_table(tmp_path, name, table):
    path = tmp_path / name
    path.write_text(json.dumps(serialize.table_to_json(table)))
    return str(path)


def test_eisenstein_json(tmp_path):
    code, text = run(tmp_path, "eisenstein", "--weight", "4", "--order", "3")
    assert code == 0
    doc = json.loads(text)
    assert doc["coeffs"] == ["1", "240", "2160", "6720"]


def test_eisenstein_tsv(tmp_path):
    code, text = run(
        tmp_path, "eisenstein", "--weight", "2", "--order", "2", "--format", "tsv"
    )
    assert code == 0
    assert text == "0\t1\n1\t-24\n2\t-72\n"


def test_goettsche_flag_validation(tmp_path):
    code, _ = run(tmp_path, "goettsche", "--betti", "1,0,22,0,1", "--refined")
    assert code == 2
    code, _ = run(tmp_path, "goettsche")
    assert code == 2


def test_goettsche_betti(tmp_path):
    code, text = run(tmp_path, "goettsche", "--betti", "1,0,22,0,1", "--gmax", "1")
    assert code == 0
    doc = json.loads(text)
    assert doc["coeffs"][1] == [
        {"exps": [-2], "coeff": "1"},
        {"exps": [0], "coeff": "22"},
        {"exps": [2], "coeff": "1"},
    ]


def test_bps_rational_elliptic_run_log(tmp_path):
    code, text = run(tmp_path, "bps-rational-elliptic", "--gmax", "2")
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# convention:")
    assert "2 sin" in lines[0]
    assert "0\t0\t1" in lines
    assert "1\t0\t12" in lines
    assert "1\t1\t-2" in lines


def test_bps_rational_elliptic_deterministic(tmp_path):
    _, first = run(tmp_path, "bps-rational-elliptic", "--gmax", "3")
    _, second = run(tmp_path, "bps-rational-elliptic", "--gmax", "3")
    assert first == second


def test_gw_from_gv_and_back(tmp_path):
    bps = InvariantTable("bps", 1, (1,), 3, 4, {(0, (1,)): 1, (1, (2,)): 2})
    path = write_table(tmp_path, "bps.json", bps)
    code, text = run(tmp_path, "gw-from-gv", "--in", path, "--lambda-order", "6")
    assert code == 0
    gw_doc = json.loads(text)
    gw_path = tmp_path / "gw.json"
    gw_path.write_text(json.dumps(gw_doc))
    code, text = run(tmp_path, "gv-from-gw", "--in", str(gw_path))
    assert code == 0
    recovered = serialize.table_from_json(json.loads(text))
    assert recovered.entries == bps.entries


def test_gv_from_gw_empty_table(tmp_path):
    empty = InvariantTable("gw", 1, (1,), 3, 3)
    path = write_table(tmp_path, "empty.json", empty)
    code, text = run(tmp_path, "gv-from-gw", "--in", path)
    assert code == 0
    assert json.loads(text)["entries"] == []


def test_gv_from_gw_reports_non_integral(tmp_path):
    gw = InvariantTable("gw", 1, (1,), 4, 4, {(0, (1,)): Fraction(1, 2)})
    path = write_table(tmp_path, "gw.json", gw)
    code, text = run(tmp_path, "gv-from-gw", "--in", path, "--lambda-order", "6")
    assert code == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    assert doc["class"] == [1] and doc["h"] == 0 and doc["value"] == "1/2"



def test_non_integral_bps_prints_one_error_line(tmp_path, capsys):
    gw = InvariantTable("gw", 1, (1,), 4, 4, {(0, (1,)): Fraction(1, 2)})
    path = write_table(tmp_path, "gw.json", gw)
    code, _ = run(tmp_path, "gv-from-gw", "--in", path, "--lambda-order", "6")
    assert code == 1
    assert one_error_line(capsys) == "error: n_0(1,) = 1/2 is not an integer"

def test_roundtrip_check_command(tmp_path):
    bps = InvariantTable("bps", 2, (1, 1), 2, 3, {(0, (1, 1)): 4})
    path = write_table(tmp_path, "bps.json", bps)
    code, text = run(tmp_path, "roundtrip-check", "--in", path)
    assert code == 0
    assert json.loads(text) == {"ok": True, "diffs": []}


def test_anomaly_verify_pass_and_fail(tmp_path):
    import bps_series

    refs = bps_series.reference_solutions()
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(serialize.zfunctions_to_json(refs)))
    code, text = run(tmp_path, "anomaly-verify", "--table", str(path))
    assert code == 0
    doc = json.loads(text)
    assert doc["all_ok"] and doc["passed"] == "8/8"
    assert doc["constants"] == {"1": "1/12", "2": "1/24"}

    broken = json.loads(path.read_text())
    broken[2]["poly"]["monomials"][0]["coeff"] = "1"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(broken))
    code, text = run(tmp_path, "anomaly-verify", "--table", str(bad_path))
    assert code == 1
    assert json.loads(text)["all_ok"] is False


def test_anomaly_solve_command(tmp_path):
    import bps_series
    from bps_series.anomaly import realize

    norm = bps_series.verify_anomaly(bps_series.reference_solutions())["normalized"]
    table = [bps_series.ZFunction(n, g, p) for (g, n), p in norm.items()]
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(serialize.zfunctions_to_json(table)))
    target = realize(norm[(2, 1)], 1, 6)
    boundary = ",".join(serialize.frac_str(target[i]) for i in range(3))
    code, text = run(
        tmp_path,
        "anomaly-solve",
        "--n", "1",
        "--g", "2",
        "--table", str(path),
        "--boundary", boundary,
    )
    assert code == 0
    assert serialize.poly_from_json(json.loads(text)) == norm[(2, 1)]


@pytest.mark.parametrize(
    "n, g, boundary", [("-1", "0", "0"), ("1", "-3", "0"), ("0", "0", "1,2,3")]
)
def test_anomaly_solve_refuses_bad_degree_or_genus(tmp_path, capsys, n, g, boundary):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    argv = ["anomaly-solve", "--n", n, "--g", g, "--table", str(path), "--boundary", boundary]
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: need n >= 1 and g >= 0, got n={n}, g={g}\n"


def test_negative_boundary_parses_with_or_without_equals(tmp_path, capsys):
    import bps_series

    path = tmp_path / "z.json"
    path.write_text(json.dumps(serialize.zfunctions_to_json(bps_series.reference_solutions())))
    argv = ["anomaly-solve", "--n", "1", "--g", "0", "--table", str(path)]
    spaced = run(tmp_path, *argv, "--boundary", "-1,-252")
    assert spaced == run(tmp_path, *argv, "--boundary=-1,-252") and spaced[0] == 0
    assert capsys.readouterr().err == ""
    assert serialize.poly_from_json(json.loads(spaced[1])) == -bps_series.GradedPoly.e4()
    # a value that fits no solution exits 1 either way
    assert run(tmp_path, *argv, "--boundary", "-1,0") == run(tmp_path, *argv, "--boundary=-1,0")
    assert run(tmp_path, *argv, "--boundary", "-1,0")[0] == 1


def test_missing_boundary_value_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, text = run(tmp_path, "anomaly-solve", "--n", "1", "--g", "0", "--table", str(path), "--boundary")
    assert code == 2 and text == ""
    assert "--boundary" in one_error_line(capsys)


def write_reference_table(tmp_path):
    import bps_series

    path = tmp_path / "z.json"
    path.write_text(json.dumps(serialize.zfunctions_to_json(bps_series.reference_solutions())))
    return str(path)


def test_product_route_mismatch_payload(tmp_path, monkeypatch, capsys):
    real_u_expand = goettsche.u_expand
    calls = []

    def shifted(w):  # n_1 of the q^1 layer of the product route, plus one
        calls.append(w)
        return {h: n + (len(calls) == 2 and h == 1) for h, n in real_u_expand(w).items()}

    monkeypatch.setattr(goettsche, "u_expand", shifted)
    code, text = run(tmp_path, "bps-rational-elliptic", "--gmax", "2")
    assert code == 1
    assert json.loads(text) == {
        "ok": False,
        "error": "character route and product u-expansion disagree",
        "diffs": [
            {"g": 1, "via_character": {"0": 12, "1": -2}, "via_product": {"0": 12, "1": -1}}
        ],
    }
    assert one_error_line(capsys).startswith(
        "error: character route and product u-expansion disagree: q^1: "
    )


def test_inconsistent_boundary_payload(tmp_path, capsys):
    argv = ["anomaly-solve", "--n", "1", "--g", "0", "--table", write_reference_table(tmp_path)]
    code, text = run(tmp_path, *argv, "--boundary", "1,5,7")
    assert code == 1
    assert json.loads(text) == {
        "ok": False,
        "error": "boundary coefficients do not lie on any solution",
    }
    assert one_error_line(capsys) == "error: boundary coefficients do not lie on any solution"


def test_roundtrip_difference_payload(tmp_path, monkeypatch, capsys):
    real_gv_from_gw = gvtransform.gv_from_gw

    def shifted(gw, lambda_order, degree_order=None):
        back = real_gv_from_gw(gw, lambda_order, degree_order)
        back.entries[(0, (1, 1))] += 1
        return back

    monkeypatch.setattr(gvtransform, "gv_from_gw", shifted)
    bps = InvariantTable("bps", 2, (1, 1), 2, 3, {(0, (1, 1)): 4, (1, (0, 2)): -2})
    code, text = run(tmp_path, "roundtrip-check", "--in", write_table(tmp_path, "bps.json", bps))
    assert code == 1
    assert json.loads(text) == {
        "ok": False,
        "diffs": [{"h": 0, "class": [1, 1], "expected": 4, "got": 5}],
    }
    assert one_error_line(capsys) == "error: BPS -> GW -> BPS round trip changed 1 value(s)"


def test_triple_product_mismatch_payload(tmp_path, monkeypatch, capsys):
    real_rows = anomaly._product_rows

    def shifted(lambda_order, q_order):  # the q^1 lam^2 = y^1 coefficient, plus one
        rows = real_rows(lambda_order, q_order)
        nums, den = rows[1]
        nums[1] += den
        return rows

    monkeypatch.setattr(anomaly, "_product_rows", shifted)
    code, text = run(tmp_path, "triple-product-check", "--lambda-order", "4", "--q-order", "2")
    assert code == 1
    assert json.loads(text) == {
        "ok": False,
        "lambda_order": 4,
        "q_order": 2,
        "first_mismatch": {"lambda": 2, "q": 1, "lhs": "-2", "rhs": "-1"},
    }
    assert one_error_line(capsys) == "error: triple product identity fails; see first_mismatch"


def test_failed_anomaly_report_prints_one_error_line(tmp_path, capsys):
    doc = json.loads(Path(write_reference_table(tmp_path)).read_text())
    doc[2]["poly"]["monomials"][0]["coeff"] = "1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "anomaly-verify", "--table", str(path))
    assert code == 1 and json.loads(text)["passed"] == "5/8"
    assert one_error_line(capsys) == "error: anomaly recursion holds on only 5/8 entries"


def test_genus_series_tsv(tmp_path):
    code, text = run(
        tmp_path, "genus-series", "--gmax", "1", "--q-order", "2", "--format", "tsv"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "# g\tpower\tcoeff"
    assert "0\t1\t252" in lines
    assert "1\t0\t1/12" in lines


def test_triple_product_command(tmp_path):
    code, text = run(
        tmp_path, "triple-product-check", "--lambda-order", "6", "--q-order", "4"
    )
    assert code == 0
    assert json.loads(text)["ok"] is True


def test_float_table_value_is_refused(tmp_path, capsys):
    gw = InvariantTable("gw", 1, (1,), 4, 4, {(0, (1,)): 1, (1, (1,)): Fraction(1, 2)})
    doc = serialize.table_to_json(gw)
    doc["entries"][1]["value"] = 0.5
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "gv-from-gw", "--in", str(path))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: entries[1].value: float not allowed\n"


def test_missing_table_key_is_named(tmp_path, capsys):
    doc = serialize.table_to_json(InvariantTable("bps", 1, (1,), 2, 2, {(0, (1,)): 1}))
    del doc["entries"]
    path = tmp_path / "bps.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "gw-from-gv", "--in", str(path))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: missing key: entries\n"


def test_float_numerator_coefficient_is_refused(tmp_path, capsys):
    import bps_series

    doc = serialize.zfunctions_to_json(bps_series.reference_solutions())
    doc[2]["poly"]["monomials"][1]["coeff"] = 1.0
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "anomaly-verify", "--table", str(path))
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == "error: [2].poly.monomials[1].coeff: float not allowed\n"


def test_decimal_boundary_is_refused(tmp_path, capsys):
    import bps_series

    path = tmp_path / "z.json"
    path.write_text(json.dumps(serialize.zfunctions_to_json(bps_series.reference_solutions())))
    argv = ["anomaly-solve", "--n", "1", "--g", "0", "--table", str(path)]
    code, text = run(tmp_path, *argv, "--boundary", "1.0,252.0")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == "error: --boundary[0]: '1.0' is not an integer or a p/q string\n"
    code, text = run(tmp_path, *argv, "--boundary", "1,0.5e3")
    assert code == 2 and text == ""
    assert "--boundary[1]: '0.5e3'" in capsys.readouterr().err
    code, text = run(tmp_path, *argv, "--boundary", "1,252")
    assert code == 0
    assert serialize.poly_from_json(json.loads(text)) == bps_series.GradedPoly.e4()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("gw-from-gv", "--lambda-order", "-5", "argument --lambda-order: must be >= -2, got -5"),
        ("gv-from-gw", "--lambda-order", "-4", "argument --lambda-order: must be >= -2, got -4"),
        ("gw-from-gv", "--degree", "-2", "argument --degree: must be >= 0, got -2"),
        ("gv-from-gw", "--degree", "-2", "argument --degree: must be >= 0, got -2"),
        ("roundtrip-check", "--degree", "-2", "argument --degree: must be >= 0, got -2"),
        # within the flag's bound, but below what the table's genera need
        ("roundtrip-check", "--lambda-order", "-2", "lambda_order -2 cannot resolve h <= 2"),
    ],
)
def test_negative_windows_are_refused(tmp_path, capsys, command, flag, value, message):
    kind = "gw" if command == "gv-from-gw" else "bps"
    path = write_table(tmp_path, "t.json", InvariantTable(kind, 1, (1,), 2, 3, {(0, (1,)): 1}))
    code, text = run(tmp_path, command, "--in", path, flag, value)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, given, needed",
    [("gv-from-gw", "bps", "gw"), ("gw-from-gv", "gw", "bps"), ("roundtrip-check", "gw", "bps")],
)
def test_table_of_the_wrong_kind_names_its_path(tmp_path, capsys, command, given, needed):
    # an input fault at the path kind, worded for the subcommand, not for
    # the library function behind it
    path = write_table(tmp_path, "t.json", InvariantTable(given, 1, (1,), 2, 3, {(0, (1,)): 1}))
    code, text = run(tmp_path, command, "--in", path)
    assert code == 2 and text == ""
    assert one_error_line(capsys) == f"error: kind: {command} needs a '{needed}' table, got '{given}'"


def check_file_faults(tmp_path, capsys, argv, flag):
    """argv with flag naming a missing file, then a file that is not JSON:
    each run exits 2, writes nothing and names flag on its error line."""
    missing, empty = tmp_path / "missing.json", tmp_path / "empty.json"
    empty.write_text("")
    lines = []
    for path in (missing, empty):
        code, text = run(tmp_path, *argv, flag, str(path))
        assert code == 2 and text == ""
        lines.append(one_error_line(capsys))
    assert lines == [
        f"error: {flag}: [Errno 2] No such file or directory: {str(missing)!r}",
        f"error: {flag}: Expecting value: line 1 column 1 (char 0)",
    ]


@pytest.mark.parametrize("command", ["gw-from-gv", "gv-from-gw", "roundtrip-check"])
def test_table_file_faults_name_in(tmp_path, capsys, command):
    check_file_faults(tmp_path, capsys, [command], "--in")


@pytest.mark.parametrize(
    "argv", [["anomaly-verify"], ["anomaly-solve", "--n", "1", "--g", "0", "--boundary", "1"]]
)
def test_zfunction_file_faults_name_table(tmp_path, capsys, argv):
    check_file_faults(tmp_path, capsys, argv, "--table")


def test_roundtrip_refuses_negative_lambda_order(tmp_path, capsys):
    path = write_table(tmp_path, "t.json", InvariantTable("bps", 1, (1,), 0, 3))
    code, text = run(tmp_path, "roundtrip-check", "--in", path, "--lambda-order", "-3")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: argument --lambda-order: must be >= -2, got -3\n"


def test_input_faults_exit_2_computed_faults_exit_1(tmp_path, capsys):
    # a non-integral BPS value in the input is a schema fault with a path;
    # a non-integral BPS value solved from a GW table is a verification failure
    doc = serialize.table_to_json(InvariantTable("bps", 1, (1,), 2, 2, {(0, (1,)): 1}))
    doc["entries"][0]["value"] = "1/2"
    path = tmp_path / "bps.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "gw-from-gv", "--in", str(path))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: entries[0].value: 1/2 is not an integer in a bps table\n"
    doc["kind"] = "gw"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "gv-from-gw", "--in", str(path), "--lambda-order", "2")
    assert code == 1 and json.loads(text)["value"] == "1/2"


def test_usage_errors():
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["eisenstein", "--weight", "4", "--bogus"]) == 2
    assert cli.main(["gv-from-gw", "--in", "/nonexistent/input.json"]) == 2


SUBCOMMANDS = (
    "eisenstein", "goettsche", "bps-rational-elliptic", "gv-from-gw", "gw-from-gv",
    "roundtrip-check", "anomaly-verify", "anomaly-solve", "genus-series",
    "triple-product-check",
)


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: bps-series") and err == ""
    assert all(name in out for name in SUBCOMMANDS)


# a shortest command line each subcommand parses; the files need not exist
MINIMAL_ARGV = {
    "eisenstein": ["--weight", "4"],
    "goettsche": ["--refined"],
    "bps-rational-elliptic": [],
    "gv-from-gw": ["--in", "gw.json"],
    "gw-from-gv": ["--in", "bps.json"],
    "roundtrip-check": ["--in", "bps.json"],
    "anomaly-verify": ["--table", "z.json"],
    "anomaly-solve": ["--n", "1", "--g", "0", "--table", "z.json", "--boundary", "1"],
    "genus-series": [],
    "triple-product-check": [],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_one_subparser_parses_as_the_full_parser(command, capsys):
    parser = cli.build_parser()
    argv = [command, *MINIMAL_ARGV[command]]
    # the table's own parser takes the line to argparse's namespace
    assert vars(cli._parse(argv)) == vars(parser.parse_args(argv))
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    assert capsys.readouterr().out.startswith(f"usage: bps-series {command} ")


# One fresh interpreter runs cli.main on each command line in turn and
# records, after each, its exit code and whether argparse is imported.
PROBE = r"""
import json, sys
from bps_series import cli
seen = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    seen.append([code, "argparse" in sys.modules])
print(json.dumps(seen))
"""


def probe(*argvs):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(seen) for seen in json.loads(proc.stdout.splitlines()[-1])]


def test_well_formed_jobs_never_import_argparse(tmp_path):
    # the bench's command shapes, every subcommand among them; the fast path
    # parses them all, so argparse (with gettext and locale) stays unloaded
    bps = InvariantTable("bps", 2, (1, 1), 2, 3, {(0, (1, 1)): 4, (1, (0, 2)): -2})
    bps_path = write_table(tmp_path, "bps.json", bps)
    gw_path = write_table(tmp_path, "gw.json", gw_from_gv(bps, 2))
    z_path = write_reference_table(tmp_path)
    out = ["--out", str(tmp_path / "out.txt")]
    jobs = [
        ["bps-rational-elliptic", "--gmax", "3", *out],
        ["goettsche", "--refined", "--gmax", "3", *out],
        ["goettsche", "--betti", "1,2,10,2,1", "--gmax", "3", *out],
        ["gw-from-gv", "--in", bps_path, "--lambda-order", "4", *out],
        ["gv-from-gw", "--in", gw_path, *out],
        ["roundtrip-check", "--in", bps_path, *out],
        ["triple-product-check", "--lambda-order", "4", "--q-order", "4", *out],
        ["genus-series", "--gmax", "2", "--q-order", "3", "--format", "tsv", *out],
        ["eisenstein", "--weight", "4", "--order", "3", "--format", "json", *out],
        ["anomaly-verify", "--table", z_path, *out],
        ["anomaly-solve", "--n", "1", "--g", "0", "--table", z_path, "--boundary", "-1,-252", *out],
    ]
    assert {job[0] for job in jobs} == set(SUBCOMMANDS)
    assert probe(*jobs) == [(0, False)] * len(jobs)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["genus-series", "--help"], 0), (["genus-series", "--gmax", "x"], 2)],
)
def test_help_and_usage_faults_go_through_argparse(argv, code):
    assert probe(argv) == [(code, True)]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["no-such-command"], "invalid choice: 'no-such-command'"),
        (["eisenstein", "--weight", "4", "--bogus"], "unrecognized arguments: --bogus"),
        (
            ["anomaly-solve", "--n", "1", "--g", "0", "--table", "z.json", "--boundary"],
            "argument --boundary: expected one argument",
        ),
        (["anomaly-verify"], "required: --table"),
        (["genus-series", "--gmax", "x"], "argument --gmax: invalid int value: 'x'"),
        (["goettsche", "--betti", "1,0,10"], "argument --betti: need five integers"),
        (["goettsche", "--betti", "1,0,10,0,1,2"], "argument --betti: need five integers"),
        (["goettsche", "--betti", "1,0,10,0,2"], "violates duality"),
        (["goettsche", "--betti", "1,0,22,0,1", "--refined"], "not allowed with argument --betti"),
        (["goettsche"], "one of the arguments --betti --refined is required"),
        (["eisenstein", "--weight", "4", "--order", "-3"], "argument --order: must be >= 0, got -3"),
        (["goettsche", "--refined", "--gmax", "-1"], "argument --gmax: must be >= 0, got -1"),
        (["goettsche", "--betti", "1,0,22,0,1", "--gmax", "-1"], "argument --gmax: must be >= 0"),
        (["bps-rational-elliptic", "--gmax", "-1"], "argument --gmax: must be >= 0, got -1"),
        (["genus-series", "--gmax", "-1"], "argument --gmax: must be >= 0, got -1"),
        (["genus-series", "--q-order", "-1"], "argument --q-order: must be >= 0, got -1"),
        (["triple-product-check", "--q-order", "-2"], "argument --q-order: must be >= 2, got -2"),
        (["triple-product-check", "--lambda-order", "1"], "argument --lambda-order: must be >= 2"),
    ],
    ids=[
        "unknown-subcommand", "unknown-flag", "boundary-without-value", "missing-table",
        "gmax-not-int", "betti-three-values", "betti-six-values", "betti-violates-duality",
        "betti-and-refined", "neither-betti-nor-refined", "eisenstein-order-negative",
        "refined-gmax-negative", "betti-gmax-negative", "rational-elliptic-gmax-negative",
        "genus-series-gmax-negative", "genus-series-q-order-negative",
        "triple-product-q-order-negative", "triple-product-lambda-order-below-2",
    ],
)
def test_usage_faults_exit_2_with_one_line(tmp_path, capsys, argv, fragment):
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    line = one_error_line(capsys)
    assert fragment in line and "Traceback" not in line


# every value flag of the transform subcommands, and --boundary, after the
# flags each subcommand requires
DASH_VALUE_ARGV = [
    *(
        [command, *(["--in", "t.json"] if flag != "--in" else []), flag]
        for command in ("gv-from-gw", "gw-from-gv", "roundtrip-check")
        for flag in ("--in", "--lambda-order", "--degree", "--out")
    ),
    ["anomaly-solve", "--n", "1", "--g", "0", "--table", "z.json", "--boundary"],
]


@pytest.mark.parametrize("argv", DASH_VALUE_ARGV, ids=[f"{a[0]} {a[-1]}" for a in DASH_VALUE_ARGV])
def test_flag_equals_dashes_is_a_missing_value(tmp_path, monkeypatch, capsys, argv):
    # argparse up to 3.12 dropped the "--" of "--in=--" and handed the handler
    # an empty list ("expected str, bytes or os.PathLike object, not list"),
    # and 3.13 took "--" for the value; "--in --" always gave this line
    monkeypatch.chdir(tmp_path)
    *head, flag = argv
    for tail in ([f"{flag}=--"], [flag, "--"], [f"{flag[:4]}=--"]):  # "--la=--" abbreviates
        assert cli.main([*head, *tail]) == 2, tail
        assert capsys.readouterr() == ("", f"error: argument {flag}: expected one argument\n")
    assert not any(tmp_path.iterdir())


def series_doc(s):
    """The series document as a dict: the reference for the bytes of
    serialize.series_to_json."""

    def coeff(c):
        if isinstance(c, LaurentPoly):
            return [{"exps": list(e), "coeff": str(Fraction(c.terms[e]))} for e in sorted(c.terms)]
        return str(Fraction(c))

    return {"var": s.var, "order": s.order, "coeffs": [coeff(c) for c in s.coeffs]}


@given(series_cases())
@example(QSeries([LaurentPoly({(1, -1): Fraction(-3, 7)}, 2), LaurentPoly(nvars=2)], 3, "lam"))
@example(QSeries([LaurentPoly({(2,): -1}), LaurentPoly()], 1))
@example(QSeries([LaurentPoly({(): 2}, 0), LaurentPoly(nvars=0)], 1))
def test_series_text_matches_json_dumps(series):
    assert cli._series_text(series, "json") == json.dumps(series_doc(series), indent=2) + "\n"


@given(st.lists(series_cases(), min_size=1, max_size=3))
def test_genus_series_document_matches_json_dumps(series_list):
    args = argparse.Namespace(gmax=0, q_order=0, format="json")
    with patch.object(anomaly, "genus_series_n1", lambda gmax, q_order: series_list):
        text = cli.cmd_genus_series(args)
    doc = {"genus_series": [series_doc(s) for s in series_list]}
    assert text == json.dumps(doc, indent=2) + "\n"


def refuse_float(text):
    raise AssertionError(f"float {text} in a JSON output")


def test_json_outputs_hold_no_float(tmp_path):
    bps = InvariantTable("bps", 1, (1,), 2, 3, {(0, (1,)): 1, (1, (2,)): -2})
    bps_path = write_table(tmp_path, "bps.json", bps)
    gw_path = write_table(tmp_path, "gw.json", gw_from_gv(bps, 2))
    bad_gw = InvariantTable("gw", 1, (1,), 4, 4, {(0, (1,)): Fraction(1, 2)})
    z_path = write_reference_table(tmp_path)
    commands = [
        (0, "eisenstein", "--weight", "4", "--order", "3"),
        (0, "goettsche", "--refined", "--gmax", "2"),
        (0, "goettsche", "--betti", "1,0,22,0,1", "--gmax", "2"),
        (0, "gw-from-gv", "--in", bps_path, "--lambda-order", "2"),
        (0, "gv-from-gw", "--in", gw_path),
        (0, "roundtrip-check", "--in", bps_path),
        (0, "anomaly-verify", "--table", z_path),
        (0, "anomaly-solve", "--n", "1", "--g", "0", "--table", z_path, "--boundary", "-1,-252"),
        (0, "genus-series", "--gmax", "1", "--q-order", "2"),
        (0, "triple-product-check", "--lambda-order", "4", "--q-order", "2"),
        (1, "gv-from-gw", "--in", write_table(tmp_path, "bad.json", bad_gw), "--lambda-order", "6"),
    ]
    for expected, *argv in commands:
        code, text = run(tmp_path, *argv)
        assert code == expected, argv
        json.loads(text, parse_float=refuse_float)
