"""Malformed table documents exit 2 with one `error:` line that names the
faulty key and no traceback on every table subcommand; valid documents give
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


def run_cli(tmp_dir, command, doc):
    """(exit code, output bytes or None, stderr text)."""
    path = tmp_dir / "in.json"
    out = tmp_dir / "out.json"
    path.write_text(json.dumps(doc))
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--in", str(path), "--out", str(out)])
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
    code, out, err = run_cli(tmp_dir, command, bad)
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
    first = run_cli(tmp_dir, command, doc)
    second = run_cli(tmp_dir, command, doc)
    assert first[0] == 0 and first[2] == "", first
    assert first == second
