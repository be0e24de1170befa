"""The two internal cross-checks must fire under `python -O`, where bare
asserts are stripped.  Each child process runs with -O, forces one route to
disagree by patching a helper, and then either calls the library (expecting
the typed exception) or the CLI (expecting exit 1, a structured JSON payload
on stdout and no traceback)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import bps_series

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bps_series.__file__)))

CHILD = r"""
import json, os, sys
from bps_series import cli, gvtransform, serialize, sl2
from bps_series.laurent import LaurentPoly

if __debug__:
    sys.exit("expected python -O")
route, mode, workdir = sys.argv[1:4]
if route == "character":
    real_u = sl2.u_expand
    sl2.u_expand = lambda w: {h: n + 1 for h, n in real_u(w).items()}
    call = lambda: sl2.bps_from_character(LaurentPoly({(0, 0): 1}, nvars=2))
    argv = ["bps-rational-elliptic", "--gmax", "2"]
    expected = sl2.RouteDisagreement
else:
    gvtransform._sin_power_cached = lambda exponent, order: (1, ())
    gw = gvtransform.InvariantTable("gw", 1, (1,), 1, 1, {(0, (1,)): 1})
    call = lambda: gvtransform.gv_from_gw(gw, 0, 1)
    path = os.path.join(workdir, "gw.json")
    with open(path, "w") as fh:
        json.dump(serialize.table_to_json(gw), fh)
    argv = ["gv-from-gw", "--in", path]
    expected = gvtransform.UnpeeledResidual
if mode == "cli":
    sys.exit(cli.main(argv))
try:
    call()
except expected as exc:
    print(type(exc).__name__)
"""


def run_child(route, mode, workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", CHILD, route, mode, str(workdir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "route, exc_name",
    [("character", "RouteDisagreement"), ("residual", "UnpeeledResidual")],
)
def test_check_raises_typed_error_under_O(route, exc_name, tmp_path):
    proc = run_child(route, "lib", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == exc_name


# the patched u_expand adds 1 to every n_h of the unit character {0: 1};
# the patched integer sin-power kernel has no terms, so every k = 1 kernel
# row is 0 and the genus-0 GW value 1 of class (1,) stays behind as 1 * lam^-2
PAYLOADS = {
    "character": {
        "ok": False,
        "error": "I-basis peeling and u-expansion disagree",
        "via_character": {"0": 1},
        "via_u": {"0": 2},
    },
    "residual": {
        "ok": False,
        "error": "peeling left a nonzero GW residual",
        "class": [1],
        "residual": {"-2": "1"},
    },
}


@pytest.mark.parametrize("route", ["character", "residual"])
def test_cli_exits_1_under_O(route, tmp_path):
    proc = run_child(route, "cli", tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == PAYLOADS[route]
