"""The bench's layer table must match the package's bindings.

bench/layers.py names every callable the traced benchmark wraps and every
attribute that binds it.  A `from .serialize import f` copy of a listed
callable escapes the wrapper, so resolve(strict=True) refuses it; running
that check here makes a stale table fail the test suite on every
interpreter, not only in a traced benchmark run.

The traced run also requires every layer a workload was chosen for to see a
call and every layer it bypasses to see none.  A few small jobs per workload,
run under the wrapped table, check that here as well, so a change that stops
reaching a chosen layer (or starts reaching a bypassed one) fails tier-1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_layer_table_resolves_strictly():
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import layers; layers.resolve(strict=True)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# Runs cli.main on each job of sys.argv[2:] (JSON argument lists) under the
# traced run's strictly resolved layer table, and prints the exit codes, the
# calls each layer saw and the table's COVERAGE as one JSON object.
_TRACED_JOBS = """
import contextlib, io, json, sys
sys.path[:0] = json.loads(sys.argv[1])
import layers
from bps_series import cli

tracer = layers.Tracer()
tracer.install(layers.resolve(strict=True))
codes = []
for job in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(json.loads(job)))
calls = {}
for span in tracer.spans:
    layer = tracer.keys[span[2]].split(".")[0]
    calls[layer] = calls.get(layer, 0) + 1
print(json.dumps({"codes": codes, "calls": calls, "coverage": layers.COVERAGE}))
"""


def _bps_table(tmp_path):
    doc = {
        "rank": 1,
        "degree_weights": [1],
        "kind": "bps",
        "max_genus": 1,
        "max_degree": 3,
        "entries": [
            {"genus": 0, "class": [d], "value": str(v)} for d, v in ((1, 3), (2, -6), (3, 27))
        ] + [{"genus": 1, "class": [3], "value": "-10"}],
    }
    path = tmp_path / "bps.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _jobs(workload, tmp_path):
    if workload == "hilbert":
        return [
            ["goettsche", "--refined", "--gmax", "3"],
            ["goettsche", "--betti", "1,0,10,0,1", "--gmax", "3"],
            ["bps-rational-elliptic", "--gmax", "3"],
        ]
    if workload == "transform":
        bps, gw = _bps_table(tmp_path), str(tmp_path / "gw.json")
        return [
            ["gw-from-gv", "--in", bps, "--out", gw],
            ["gv-from-gw", "--in", gw],
            ["roundtrip-check", "--in", bps],
        ]
    return [
        ["triple-product-check", "--lambda-order", "4", "--q-order", "3"],
        ["genus-series", "--gmax", "2", "--q-order", "3"],
    ]


@pytest.mark.parametrize("workload", ["hilbert", "transform", "resummation"])
def test_traced_jobs_reach_chosen_layers_only(workload, tmp_path):
    # what tier-1 can check of the traced benchmark run without timing it:
    # every chosen layer of the workload sees a call, and no bypassed one does
    paths = json.dumps([str(ROOT / "src"), str(ROOT / "bench")])
    jobs = [json.dumps(argv) for argv in _jobs(workload, tmp_path)]
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_JOBS, paths, *jobs], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(jobs), result.stderr
    chosen, bypassed = report["coverage"][workload]
    calls = report["calls"]
    assert [layer for layer in chosen if not calls.get(layer)] == []
    assert {layer: calls[layer] for layer in bypassed if calls.get(layer)} == {}
