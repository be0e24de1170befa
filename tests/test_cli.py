from __future__ import annotations

import json
from fractions import Fraction

import pytest

from bps_series import cli, serialize
from bps_series.gvtransform import InvariantTable, gw_from_gv
from bps_series.modular import divisor_sigma


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


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
        ("gw-from-gv", "--lambda-order", "-5", "lambda_order must be >= -2, got -5"),
        ("gv-from-gw", "--lambda-order", "-4", "lambda_order must be >= -2, got -4"),
        ("gw-from-gv", "--degree", "-2", "degree_order must be >= 0, got -2"),
        ("gv-from-gw", "--degree", "-2", "degree_order must be >= 0, got -2"),
        ("roundtrip-check", "--degree", "-2", "degree_order must be >= 0, got -2"),
    ],
)
def test_negative_windows_are_refused(tmp_path, capsys, command, flag, value, message):
    kind = "gw" if command == "gv-from-gw" else "bps"
    path = write_table(tmp_path, "t.json", InvariantTable(kind, 1, (1,), 2, 3, {(0, (1,)): 1}))
    code, text = run(tmp_path, command, "--in", path, flag, value)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_roundtrip_refuses_negative_lambda_order(tmp_path, capsys):
    path = write_table(tmp_path, "t.json", InvariantTable("bps", 1, (1,), 0, 3))
    code, text = run(tmp_path, "roundtrip-check", "--in", path, "--lambda-order", "-3")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: lambda_order must be >= -2, got -3\n"


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


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    assert "subcommands" in capsys.readouterr().out.lower() or True
