"""JSON and TSV codecs: the writers of every CLI output and the decoders of
its inputs.

Rationals cross the wire as exact "p/q" strings (frac_str refuses any value
that is not an int or a Fraction); keys come in a fixed order and terms and
entries sorted, so repeated runs produce byte-identical output.  Series
writers return JSON text; tables and numerators are inputs too, so
*_to_json build their documents.  The decoders of CLI inputs are strict: a
rational is a JSON int or a "p/q" string, a count is a JSON int >= 0, and
any other value or a missing key raises SchemaError naming its JSON path.
A table's entries, a numerator's monomials and a Z-function list's items
are checked one by one with their path, duplicates included.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import mul

from .anomaly import GradedPoly, ZFunction
from .gvtransform import BPS, GW, InvariantTable
from .laurent import LaurentPoly


class SchemaError(ValueError):
    """A JSON input does not follow its schema; the message names the path."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")
_SCALARS = frozenset((int, Fraction))
_JSON_TYPES = {
    bool: "bool", int: "int", float: "float", str: "string", list: "array", dict: "object"
}


def _refuse(v, where):
    raise SchemaError(f"{where}: {_JSON_TYPES.get(type(v), 'null')} not allowed")


def _int(v, where):
    if type(v) is not int:
        _refuse(v, where)
    return v


def _fraction(v):
    """The Fraction of v, a JSON int or a "p/q" string, or None for any other
    value; a string's Fraction is made from the groups the match found."""
    if type(v) is int:
        return Fraction(v)
    if type(v) is str and (match := _RATIONAL.fullmatch(v)):
        return Fraction(int(match[1]), int(match[2] or 1))
    return None


def rational(v, where):
    """A rational given as an int or a "p/q" string; anything else, floats and
    decimal strings included, raises SchemaError naming where."""
    x = _fraction(v)
    if x is None:
        if type(v) is str:
            raise SchemaError(f"{where}: {v!r} is not an integer or a p/q string")
        _refuse(v, where)
    return x


def _list(v, where):
    if type(v) is not list:
        _refuse(v, where)
    return v


def _count(v, where):
    """A JSON int >= 0."""
    if _int(v, where) < 0:
        raise SchemaError(f"{where}: {v} is negative")
    return v


def _counts(v, where):
    return [_count(x, f"{where}[{i}]") for i, x in enumerate(_list(v, where))]


def _kind(v, where):
    if type(v) is not str:
        _refuse(v, where)
    if v not in (GW, BPS):
        raise SchemaError(f"{where}: {v!r} is not {GW!r} or {BPS!r}")
    return v


def _join(path, key):
    return f"{path}.{key}" if path else key


def _get(d, path, key, decode):
    """decode(d[key], its path) for a JSON object d found at path."""
    where = _join(path, key)
    if type(d) is not dict:
        raise SchemaError(f"{path or 'document'}: expected an object")
    if key not in d:
        raise SchemaError(f"missing key: {where}")
    return decode(d[key], where)


def frac_str(x):
    """The "p/q" string of an int or a Fraction; a value of any other type
    (a float or a bool above all) raises TypeError."""
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"{type(x).__name__} {x!r} is not an int or a Fraction")
    return str(x)


def series_to_json(s, pad=""):
    """A str: json.dumps({"var", "order", "coeffs"}, indent=2) without the
    final newline, with pad before every line but the first.  A coefficient
    is its "p/q" string, an int's or a Fraction's str (frac_str only refuses
    any other type); a LaurentPoly one the list of its sorted terms
    {"exps": [...], "coeff": "p/q"}, the whole list written by one %
    format over the flat tuple (exps..., coeff, exps..., coeff, ...).  Its
    keys are sorted alone, one linear pass when the terms were inserted in
    order, as refined_goettsche_res inserts them."""
    i1, i2, i3, i4, i5 = (pad + " " * k for k in (2, 4, 6, 8, 10))
    coeffs = []
    for c in s.coeffs:
        if not isinstance(c, LaurentPoly):
            coeffs.append(f'"{c if type(c) in _SCALARS else frac_str(c)}"')
            continue
        exps = f",\n{i5}".join(["%d"] * c.nvars)
        exps = f"[\n{i5}{exps}\n{i4}]" if exps else "[]"
        term = f'{{\n{i4}"exps": {exps},\n{i4}"coeff": "%s"\n{i3}}}'
        keys = sorted(c.terms)
        # zip(*keys) holds one tuple per variable: the exponent columns
        flat = chain.from_iterable(zip(*zip(*keys), map(c.terms.__getitem__, keys)))
        terms = f",\n{i3}".join([term] * len(keys)) % tuple(flat)
        coeffs.append(f"[\n{i3}{terms}\n{i2}]" if terms else "[]")
    coeffs = f",\n{i2}".join(coeffs)
    return (
        f'{{\n{i1}"var": {encode_basestring_ascii(s.var)},\n{i1}"order": {s.order:d},\n'
        f'{i1}"coeffs": [\n{i2}{coeffs}\n{i1}]\n{pad}}}'
    )


def genus_series_to_json(series_list):
    """json.dumps({"genus_series": [series, ...]}, indent=2) + "\n"."""
    body = ",\n    ".join(series_to_json(s, "    ") for s in series_list)
    return f'{{\n  "genus_series": [\n    {body}\n  ]\n}}\n'


def series_to_tsv(s, prefix=""):
    """One row per power: prefix, power <TAB> coefficient."""
    texts = (
        c if type(c) in _SCALARS else repr(c) if isinstance(c, LaurentPoly) else frac_str(c)
        for c in s.coeffs
    )
    return "".join(f"{prefix}{i}\t{t}\n" for i, t in enumerate(texts))


def _table_values(t):
    """The keys of the table t in (genus, class) order, and the "p/q" text of
    each value: str(n) for a bps int, and for a gw pair (p, q) "p/q", or "p"
    when q = 1, the bytes of str(Fraction(p, q))."""
    keys = sorted(t.entries)
    values = map(t.entries.__getitem__, keys)
    if t.kind == BPS:
        return keys, list(map(str, values))
    return keys, [f"{p}/{q}" if q != 1 else str(p) for p, q in values]


def table_to_json(t):
    entries = [
        {"genus": g, "class": list(cls), "value": v} for (g, cls), v in zip(*_table_values(t))
    ]
    return {
        "rank": t.rank,
        "degree_weights": list(t.degree_weights),
        "kind": t.kind,
        "max_genus": t.max_genus,
        "max_degree": t.max_degree,
        "entries": entries,
    }


_TABLE = """{
  "rank": %d,
  "degree_weights": [
    %s
  ],
  "kind": "%s",
  "max_genus": %d,
  "max_degree": %d,
  "entries": %s
}
"""
# a table_text entry: _ENTRY_GENUS % g, _ENTRY_CLASS % components, value, _ENTRY_TAIL
_ENTRY_GENUS = '    {\n      "genus": %d,\n      "class": [\n        '
_ENTRY_CLASS = '%s\n      ],\n      "value": "'
_ENTRY_TAIL = '"\n    }'


def table_text(t):
    """json.dumps(table_to_json(t), indent=2) + "\n", byte for byte, from one
    per-entry template; the text of each genus and of each class is made
    once per table."""
    genera = [_ENTRY_GENUS % g for g in range(t.max_genus + 1)]
    classes, entries = {}, []
    for (g, cls), v in zip(*_table_values(t)):
        text = classes.get(cls)
        if text is None:
            text = classes[cls] = _ENTRY_CLASS % ",\n        ".join(map(str, cls))
        entries.append(f"{genera[g]}{text}{v}{_ENTRY_TAIL}")
    entries = ",\n".join(entries)
    weights = ",\n    ".join(map(str, t.degree_weights))
    body = f"[\n{entries}\n  ]" if entries else "[]"
    return _TABLE % (t.rank, weights, t.kind, t.max_genus, t.max_degree, body)


_MISSING = object()


def _entry_fault(i, key, v):
    """Raise the SchemaError of entry i's field key holding v: missing, of a
    type off the schema, negative, or a string that is not a rational."""
    if key == "class" and type(v) is list:  # the fault of its first bad component
        j, c = next((j, c) for j, c in enumerate(v) if type(c) is not int or c < 0)
        _entry_fault(i, f"class[{j}]", c)
    where = f"entries[{i}].{key}"
    if v is _MISSING:
        raise SchemaError(f"missing key: {where}")
    if type(v) is str and key == "value":
        raise SchemaError(f"{where}: {v!r} is not an integer or a p/q string")
    if type(v) is int and key != "class":
        raise SchemaError(f"{where}: {v} is negative")
    _refuse(v, where)


def table_from_json(d):
    """An InvariantTable; every fault of the document, header or entry,
    raises SchemaError naming its path (entries[i] for a per-entry fault).

    Each entry is checked in one pass, in the order genus, class, value,
    duplicates, bps integrality, cone and window, and written straight into
    the table: a bps value as an int, a gw value as its reduced int pair
    (num, den), a zero value not at all.  The cone and the degree are tested
    once per distinct class, after its components pass their type checks."""
    kind = _get(d, "", "kind", _kind)
    rank = _get(d, "", "rank", _count)
    weights = _get(d, "", "degree_weights", _counts)
    if not rank:
        raise SchemaError("rank: 0 is not positive")
    if len(weights) != rank or not all(weights):
        raise SchemaError(f"degree_weights: need {rank} positive weights, got {weights}")
    max_genus, max_degree = _get(d, "", "max_genus", _count), _get(d, "", "max_degree", _count)
    table = InvariantTable(kind, rank, weights, max_genus, max_degree)
    entries, seen, degrees, bps = table.entries, {}, {}, kind == BPS
    for i, e in enumerate(_get(d, "", "entries", _list)):
        if type(e) is not dict:
            raise SchemaError(f"entries[{i}]: expected an object")
        g = e.get("genus", _MISSING)
        if type(g) is not int or g < 0:
            _entry_fault(i, "genus", g)
        cls = e.get("class", _MISSING)
        if type(cls) is not list:
            _entry_fault(i, "class", cls)
        for c in cls:
            if type(c) is not int or c < 0:
                _entry_fault(i, "class", cls)
        cls = tuple(cls)
        v = e.get("value", _MISSING)
        if type(v) is int:
            num, den = v, 1
        elif type(v) is str and (match := _RATIONAL.fullmatch(v)):
            num, den = int(match[1]), int(match[2] or 1)
            common = gcd(num, den)
            if common != 1:
                num, den = num // common, den // common
        else:
            _entry_fault(i, "value", v)
        key = (g, cls)
        first = seen.setdefault(key, i)
        if first != i:
            raise SchemaError(f"entries[{i}]: duplicate of entries[{first}]")
        if bps and den != 1:
            raise SchemaError(f"entries[{i}].value: {num}/{den} is not an integer in a bps table")
        degree = degrees.get(cls)
        if degree is None:
            if len(cls) != rank or not any(cls):
                raise SchemaError(
                    f"entries[{i}]: {cls} is not a nonzero class of the rank-{rank} effective cone"
                )
            degree = degrees[cls] = sum(map(mul, weights, cls))
        if g > max_genus or degree > max_degree:
            raise SchemaError(
                f"entries[{i}]: ({g}, {cls}) lies outside the table window "
                f"(max_genus={max_genus}, max_degree={max_degree})"
            )
        if num:
            entries[key] = num if bps else (num, den)
    return table


def poly_to_json(p):
    return {
        "weight": p.weight,
        "monomials": [
            {"e2": a, "e4": b, "e6": c, "coeff": frac_str(p.monomials[(a, b, c)])}
            for a, b, c in sorted(p.monomials)
        ],
    }


def _monomial_fault(path, i, m, weight, seen):
    """Raise the SchemaError of monomial i, m, of the numerator at path: its
    first bad count or coefficient, a repeat of a key in seen (key -> index),
    or a weight off the declared one."""
    monomials = _join(path, "monomials")
    where = f"{monomials}[{i}]"
    key = tuple(_get(m, where, e, _count) for e in ("e2", "e4", "e6"))
    coeff = _get(m, where, "coeff", rational)
    if key in seen:
        raise SchemaError(f"{where}: duplicate of {monomials}[{seen[key]}]")
    try:
        GradedPoly(weight, {key: coeff})
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def poly_from_json(d, path=""):
    """A GradedPoly; a fault of the document or of one monomial (a bad count,
    a weight off the declared one, a repeated monomial) raises SchemaError
    naming its path.  Each monomial is checked in one pass, its path built
    only to raise its fault, and written, if nonzero, into one GradedPoly."""
    weight = _get(d, path, "weight", _count)
    poly, seen = GradedPoly(weight), {}
    for i, m in enumerate(_get(d, path, "monomials", _list)):
        if type(m) is not dict:
            _monomial_fault(path, i, m, weight, seen)
        key = a, b, c = m.get("e2"), m.get("e4"), m.get("e6")
        coeff = _fraction(m.get("coeff"))
        ok = type(a) is type(b) is type(c) is int and min(key) >= 0 and coeff is not None
        if not ok or 2 * a + 4 * b + 6 * c != weight or seen.setdefault(key, i) != i:
            _monomial_fault(path, i, m, weight, seen)
        if coeff:  # checked above as GradedPoly checks it
            poly.monomials[key] = coeff
    return poly


def zfunctions_to_json(zfs):
    return [
        {"n": z.n, "g": z.g, "poly": poly_to_json(z.poly)}
        for z in sorted(zfs, key=lambda z: (z.n, z.g))
    ]


def zfunctions_from_json(items):
    """ZFunctions; a fault of one item (a bad count, n < 1, a weight that
    does not fit (n, g), a repeated (n, g)) raises SchemaError naming [i]."""
    zfs = []
    seen = {}
    for i, d in enumerate(_list(items, "document")):
        where = f"[{i}]"
        n, g = _get(d, where, "n", _count), _get(d, where, "g", _count)
        poly = _get(d, where, "poly", poly_from_json)
        if (n, g) in seen:
            raise SchemaError(f"{where}: duplicate of {seen[n, g]}")
        seen[n, g] = where
        try:
            zfs.append(ZFunction(n, g, poly))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return zfs
