from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bps_series.anomaly import GradedPoly, ZFunction, reference_solutions
from bps_series.gvtransform import InvariantTable
from bps_series.laurent import LaurentPoly
from bps_series.qseries import QSeries, eta_product
from bps_series.serialize import (
    SchemaError,
    frac_str,
    poly_from_json,
    poly_to_json,
    series_to_json,
    series_to_tsv,
    table_from_json,
    table_to_json,
    zfunctions_from_json,
    zfunctions_to_json,
)


@given(st.fractions(max_denominator=10**6))
def test_fraction_strings_round_trip(x):
    assert Fraction(frac_str(x)) == x


def test_fraction_strings_never_floats():
    assert frac_str(Fraction(1, 3)) == "1/3"
    assert frac_str(5) == "5"


def test_series_round_trip_rational():
    d = series_to_json(eta_product(-12, 8))
    assert d == {
        "var": "q",
        "order": 8,
        "coeffs": ["1", "12", "90", "520", "2535", "10908", "42614", "153960", "521235"],
    }
    assert json.loads(json.dumps(d)) == d


def test_series_round_trip_laurent_coefficients():
    t = LaurentPoly({(1, -1): Fraction(1, 2), (0, 0): 3}, nvars=2)
    s = QSeries([LaurentPoly.const(1, nvars=2), t], var="q")
    d = series_to_json(s)
    # terms sorted by exponent tuple, coefficients as exact strings
    assert d == {
        "var": "q",
        "order": 1,
        "coeffs": [
            [{"exps": [0, 0], "coeff": "1"}],
            [{"exps": [0, 0], "coeff": "3"}, {"exps": [1, -1], "coeff": "1/2"}],
        ],
    }
    assert json.loads(json.dumps(d)) == d


def test_series_tsv_layout():
    s = QSeries([Fraction(1), Fraction(-1, 2)])
    text = series_to_tsv(s)
    assert text == "0\t1\n1\t-1/2\n"


def test_table_round_trip_and_determinism():
    t = InvariantTable(
        "bps", 2, (1, 2), 3, 5, {(1, (1, 2)): -2, (0, (1, 0)): 3}
    )
    d = table_to_json(t)
    assert table_from_json(d) == t
    reordered = InvariantTable(
        "bps", 2, (1, 2), 3, 5, {(0, (1, 0)): 3, (1, (1, 2)): -2}
    )
    assert json.dumps(table_to_json(reordered)) == json.dumps(d)


def test_gw_table_keeps_rationals():
    t = InvariantTable("gw", 1, (1,), 2, 3, {(0, (2,)): Fraction(1, 8)})
    back = table_from_json(table_to_json(t))
    assert back.get(0, (2,)) == Fraction(1, 8)


def test_poly_round_trip():
    p = GradedPoly(8, {(2, 1, 0): Fraction(5, 1440), (0, 2, 0): Fraction(1, 1440)})
    d = poly_to_json(p)
    assert poly_from_json(d) == p
    assert [m["coeff"] for m in d["monomials"]] == ["1/1440", "1/288"]


def test_zfunction_table_round_trip():
    refs = reference_solutions()
    items = zfunctions_to_json(refs)
    assert [(d["n"], d["g"]) for d in items] == sorted((z.n, z.g) for z in refs)
    back = zfunctions_from_json(items)
    assert [(z.n, z.g, z.poly) for z in back] == sorted(
        ((z.n, z.g, z.poly) for z in refs), key=lambda t: (t[0], t[1])
    )


def test_decoders_refuse_off_schema_values():
    good = table_to_json(InvariantTable("gw", 1, (1,), 2, 2, {(0, (1,)): Fraction(1, 3)}))
    cases = [
        (("entries", 0, "value"), 0.5, "entries[0].value: float not allowed"),
        (("entries", 0, "value"), "0.5", "entries[0].value: '0.5' is not an integer or a p/q string"),
        (("entries", 0, "value"), "1/0", "entries[0].value: '1/0' is not an integer or a p/q string"),
        (("entries", 0, "value"), None, "entries[0].value: null not allowed"),
        (("entries", 0, "genus"), 0.0, "entries[0].genus: float not allowed"),
        (("entries", 0, "class", 0), True, "entries[0].class[0]: bool not allowed"),
        (("max_genus",), "2", "max_genus: string not allowed"),
        (("entries",), {}, "entries: object not allowed"),
    ]
    for path, value, message in cases:
        doc = json.loads(json.dumps(good))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SchemaError) as info:
            table_from_json(doc)
        assert str(info.value) == message
    del good["entries"][0]["class"]
    with pytest.raises(SchemaError, match=r"^missing key: entries\[0\]\.class$"):
        table_from_json(good)
    with pytest.raises(SchemaError, match=r"^document: expected an object$"):
        table_from_json([])
    good["entries"][0].update({"class": [1], "value": -7})
    assert table_from_json(good).get(0, (1,)) == -7


def test_poly_decoder_names_nested_paths():
    with pytest.raises(SchemaError, match=r"^missing key: monomials\[0\]\.e6$"):
        poly_from_json({"weight": 4, "monomials": [{"e2": 0, "e4": 1, "coeff": "1"}]})
    with pytest.raises(SchemaError, match=r"^\[0\]\.poly\.weight: float not allowed$"):
        zfunctions_from_json([{"n": 1, "g": 0, "poly": {"weight": 4.0, "monomials": []}}])
    monomial = {"e2": 0, "e4": 1, "e6": 0, "coeff": 3}
    assert poly_from_json({"weight": 4, "monomials": [monomial]}) == GradedPoly(
        4, {(0, 1, 0): 3}
    )


@pytest.mark.parametrize(
    "kind, change, message",
    [
        ("bps", lambda d: d["entries"][0].update(value="1/2"),
         "entries[0].value: 1/2 is not an integer in a bps table"),
        ("bps", lambda d: d["entries"].append(dict(d["entries"][1])),
         "entries[2]: duplicate of entries[1]"),
        ("gw", lambda d: d["entries"].append({"genus": 0, "class": [0, 2], "value": "3"}),
         "entries[2]: duplicate of entries[0]"),
        ("bps", lambda d: d["entries"][1].update(genus=3),
         "entries[1]: (3, (1, 1)) lies outside the table window (max_genus=2, max_degree=3)"),
        ("gw", lambda d: d["entries"][0].update({"class": [2, 2]}),
         "entries[0]: (0, (2, 2)) lies outside the table window (max_genus=2, max_degree=3)"),
        ("bps", lambda d: d["entries"][0].update({"class": [1, 0, 1]}),
         "entries[0]: (1, 0, 1) is not a nonzero class of the rank-2 effective cone"),
        ("bps", lambda d: d["entries"][0].update({"class": [0, 0]}),
         "entries[0]: (0, 0) is not a nonzero class of the rank-2 effective cone"),
        ("bps", lambda d: d["entries"][0]["class"].__setitem__(1, -1),
         "entries[0].class[1]: -1 is negative"),
        ("gw", lambda d: d["entries"][1].update(genus=-1), "entries[1].genus: -1 is negative"),
        ("bps", lambda d: d.update(max_degree=-1), "max_degree: -1 is negative"),
        ("gw", lambda d: d.update(max_genus=-2), "max_genus: -2 is negative"),
        ("bps", lambda d: d.update(rank=0), "rank: 0 is not positive"),
        ("bps", lambda d: d.update(degree_weights=[1, 0]),
         "degree_weights: need 2 positive weights, got [1, 0]"),
        ("gw", lambda d: d.update(degree_weights=[1]),
         "degree_weights: need 2 positive weights, got [1]"),
        ("bps", lambda d: d.update(kind="gv"), "kind: 'gv' is not 'gw' or 'bps'"),
        ("gw", lambda d: d.update(kind=None), "kind: null not allowed"),
    ],
)
def test_table_faults_name_their_path(kind, change, message):
    entries = {(0, (0, 2)): 3, (1, (1, 1)): -2}
    doc = table_to_json(InvariantTable(kind, 2, (1, 1), 2, 3, entries))
    change(doc)
    with pytest.raises(SchemaError) as info:
        table_from_json(doc)
    assert str(info.value) == message


def _monomial(d, i, j):
    return d[i]["poly"]["monomials"][j]


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d[0].update(n=0), "[0]: need n >= 1 and g >= 0, got n=0, g=0"),
        (lambda d: d[1].update(n=-1), "[1].n: -1 is negative"),
        (lambda d: d[2].update(g=-2), "[2].g: -2 is negative"),
        (lambda d: d[3]["poly"].update(weight=-2), "[3].poly.weight: -2 is negative"),
        (lambda d: _monomial(d, 0, 0).update(e2=-1), "[0].poly.monomials[0].e2: -1 is negative"),
        (lambda d: _monomial(d, 2, 1).update(e6=1.0),
         "[2].poly.monomials[1].e6: float not allowed"),
        (lambda d: d[0]["poly"]["monomials"].append({"e2": 1, "e4": 0, "e6": 0, "coeff": "1"}),
         "[0].poly.monomials[1]: monomial (1, 0, 0) has weight 2, declared 4"),
        (lambda d: d[1].update(poly=d[0]["poly"]),
         "[1]: (n=1, g=1) needs weight 6, got 4"),
        (lambda d: d[2]["poly"]["monomials"].append(dict(_monomial(d, 2, 0), coeff="3")),
         "[2].poly.monomials[2]: duplicate of [2].poly.monomials[0]"),
        (lambda d: d.append(json.loads(json.dumps(d[5]))), "[8]: duplicate of [5]"),
    ],
)
def test_zfunction_faults_name_their_path(change, message):
    doc = zfunctions_to_json(reference_solutions())
    change(doc)
    with pytest.raises(SchemaError) as info:
        zfunctions_from_json(doc)
    assert str(info.value) == message


def test_numerator_faults_name_their_path():
    monomial = {"e2": 0, "e4": 1, "e6": 0, "coeff": "1"}
    with pytest.raises(SchemaError, match=r"^monomials\[1\]: duplicate of monomials\[0\]$"):
        poly_from_json({"weight": 4, "monomials": [monomial, monomial]})
    with pytest.raises(SchemaError, match=r"^weight: -4 is negative$"):
        poly_from_json({"weight": -4, "monomials": []})
