"""Malformed input documents exit 2 with one `error:` line that names the
faulty key and no traceback, on every table subcommand and on the
Z-function inputs of anomaly-verify and anomaly-solve; valid documents give
the same bytes every time."""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bps_series import cli, serialize
from bps_series.anomaly import reference_solutions
from bps_series.gvtransform import InvariantTable, gw_from_gv

COMMANDS = {"gw-from-gv": "bps", "roundtrip-check": "bps", "gv-from-gw": "gw"}
COUNT_KEYS = ("rank", "max_genus", "max_degree")
ENTRY_KEYS = ("genus", "class", "value")


@st.composite
def table_docs(draw, kind):
    """A valid table document of the given kind with 1 to 3 BPS entries."""
    rank = draw(st.integers(1, 2))
    weights = tuple(draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank)))
    classes = st.lists(st.integers(0, 2), min_size=rank, max_size=rank).filter(any).map(tuple)
    slots = st.tuples(st.integers(0, 2), classes)
    entries = draw(st.dictionaries(slots, st.integers(-5, 5).filter(bool), min_size=1, max_size=3))
    max_degree = max(sum(w * c for w, c in zip(weights, cls)) for _, cls in entries)
    bps = InvariantTable("bps", rank, weights, 2, max_degree + draw(st.integers(0, 2)), entries)
    table = bps if kind == "bps" else gw_from_gv(bps, 2)
    return serialize.table_to_json(table)


# each mutation turns a valid document into an invalid one
REPLACEMENTS = st.sampled_from([0.5, 1.0, "0.5", None, [None], ["x"], [0.5]])
BAD_COUNTS = st.sampled_from([-1, -3, "1", 1.5, True, None])


@st.composite
def mutations(draw, doc):
    """(what, key, mutated copy of doc); the error must name key."""
    doc = copy.deepcopy(doc)
    entries = doc["entries"]
    i = draw(st.integers(0, len(entries) - 1))
    what = draw(st.sampled_from(["drop", "swap", "count", "duplicate"]))
    if what == "drop":
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(doc)))
            del doc[key]
        else:
            key = draw(st.sampled_from(ENTRY_KEYS))
            del entries[i][key]
    elif what == "swap":
        value = draw(REPLACEMENTS)
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(doc)))
            doc[key] = value
        else:
            key = draw(st.sampled_from(ENTRY_KEYS))
            entries[i][key] = value
    elif what == "count":
        value = draw(BAD_COUNTS)
        where = draw(st.sampled_from(["top", "weight", "genus", "class"]))
        if where == "top":
            key = draw(st.sampled_from(COUNT_KEYS))
            doc[key] = value
        elif where == "weight":
            key = "degree_weights"
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = value
        elif where == "genus":
            key = "genus"
            entries[i][key] = value
        else:
            key = "class"
            entries[i][key][draw(st.integers(0, len(entries[i][key]) - 1))] = value
    else:
        key = "entries"
        entries.append(copy.deepcopy(entries[i]))
    return what, key, doc


def run_cli(tmp_dir, argv, doc):
    """(exit code, output bytes or None, stderr text) of argv followed by
    the path of doc."""
    path = tmp_dir / "in.json"
    out = tmp_dir / "out.json"
    path.write_text(json.dumps(doc))
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_tables_exit_2(tmp_dir, command, data):
    doc = data.draw(table_docs(COMMANDS[command]))
    what, key, bad = data.draw(mutations(doc))
    code, out, err = run_cli(tmp_dir, [command, "--in"], bad)
    assert code == 2, (what, key, bad, err)
    assert out is None, what
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (what, err)
    assert key in lines[0], (what, key, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_valid_tables_give_the_same_bytes(tmp_dir, command, data):
    doc = data.draw(table_docs(COMMANDS[command]))
    first = run_cli(tmp_dir, [command, "--in"], doc)
    second = run_cli(tmp_dir, [command, "--in"], doc)
    assert first[0] == 0 and first[2] == "", first
    assert first == second


# -- Z-function lists ------------------------------------------------------------

REFERENCES = sorted(reference_solutions(), key=lambda z: (z.n, z.g))
ITEM_KEYS = ("n", "g", "poly")
POLY_KEYS = ("weight", "monomials")
MONOMIAL_KEYS = ("e2", "e4", "e6", "coeff")
COUNT_KEYS_Z = {"item": ("n", "g"), "poly": ("weight",), "monomial": ("e2", "e4", "e6")}


@st.composite
def zfunction_runs(draw, command):
    """(argv before the table path, table document).  The table is a prefix
    of the reference list, so it holds every recursion step it needs;
    anomaly-solve solves the next reference (n, g) from as many boundary
    coefficients as there are E4/E6 unknowns."""
    k = draw(st.integers(1, len(REFERENCES) - 1))
    doc = serialize.zfunctions_to_json(REFERENCES[:k])
    if command == "anomaly-verify":
        return ["anomaly-verify", "--table"], doc
    target = REFERENCES[k]
    weight = 2 * target.g + 6 * target.n - 2
    unknowns = sum(1 for c in range(weight // 6 + 1) if (weight - 6 * c) % 4 == 0)
    boundary = ",".join(str(draw(st.integers(-9, 9))) for _ in range(unknowns))
    argv = ["anomaly-solve", "--n", str(target.n), "--g", str(target.g), f"--boundary={boundary}"]
    return [*argv, "--table"], doc


@st.composite
def zfunction_mutations(draw, doc):
    """(what, path, mutated copy of doc); the error must name path."""
    doc = copy.deepcopy(doc)
    i = draw(st.integers(0, len(doc) - 1))
    poly = doc[i]["poly"]
    j = draw(st.integers(0, len(poly["monomials"]) - 1))
    levels = {
        "item": (doc[i], f"[{i}]", ITEM_KEYS),
        "poly": (poly, f"[{i}].poly", POLY_KEYS),
        "monomial": (poly["monomials"][j], f"[{i}].poly.monomials[{j}]", MONOMIAL_KEYS),
    }
    level = draw(st.sampled_from(sorted(levels)))
    obj, where, keys = levels[level]
    what = draw(st.sampled_from(["drop", "swap", "count", "range", "duplicate"]))
    if what in ("drop", "swap"):
        key = draw(st.sampled_from(keys))
        if what == "drop":
            del obj[key]
        else:
            obj[key] = draw(REPLACEMENTS)
        where = f"{where}.{key}"
    elif what == "count":
        key = draw(st.sampled_from(COUNT_KEYS_Z[level]))
        obj[key] = draw(BAD_COUNTS)
        where = f"{where}.{key}"
    elif what == "range":
        # counts of the right type that no Z-function has
        if draw(st.booleans()):
            doc[i]["n"] = 0
            where = f"[{i}]"
        else:
            poly["weight"] += 2
            where = f"[{i}].poly"
    elif draw(st.booleans()):
        where = f"[{len(doc)}]"
        doc.append(copy.deepcopy(doc[i]))
    else:
        where = f"[{i}].poly.monomials[{len(poly['monomials'])}]"
        poly["monomials"].append(copy.deepcopy(poly["monomials"][j]))
    return what, where, doc


@pytest.mark.parametrize("command", ["anomaly-solve", "anomaly-verify"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_zfunction_lists_exit_2(tmp_dir, command, data):
    argv, doc = data.draw(zfunction_runs(command))
    what, where, bad = data.draw(zfunction_mutations(doc))
    code, out, err = run_cli(tmp_dir, argv, bad)
    assert code == 2, (what, where, bad, err)
    assert out is None, what
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (what, err)
    assert where in lines[0], (what, where, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["anomaly-solve", "anomaly-verify"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_valid_zfunction_lists_give_the_same_bytes(tmp_dir, command, data):
    argv, doc = data.draw(zfunction_runs(command))
    first = run_cli(tmp_dir, argv, doc)
    second = run_cli(tmp_dir, argv, doc)
    assert first[0] == 0 and first[2] == "", first
    assert first == second
