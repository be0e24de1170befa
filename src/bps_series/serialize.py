"""JSON and TSV codecs.

Rationals cross the wire as exact "p/q" strings (never floats); every emitter
sorts its keys so repeated runs produce byte-identical output.  The decoders
of CLI inputs (tables, numerator polynomials, Z-function lists) are strict:
a rational is a JSON int or a "p/q" string, a count is a JSON int, and any
other value or a missing key raises SchemaError naming its JSON path.  Counts
are >= 0.  A table's entries, a numerator's monomials and a Z-function
list's items are checked one by one with their path, duplicates included.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .anomaly import GradedPoly, ZFunction
from .gvtransform import BPS, GW, InvariantTable
from .laurent import LaurentPoly


class SchemaError(ValueError):
    """A JSON input does not follow its schema; the message names the path."""


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?")
_JSON_TYPES = {
    bool: "bool", int: "int", float: "float", str: "string", list: "array", dict: "object"
}


def _refuse(v, where):
    raise SchemaError(f"{where}: {_JSON_TYPES.get(type(v), 'null')} not allowed")


def _int(v, where):
    if type(v) is not int:
        _refuse(v, where)
    return v


def rational(v, where):
    """A rational given as an int or a "p/q" string; anything else, floats and
    decimal strings included, raises SchemaError naming where."""
    if type(v) is int:
        return Fraction(v)
    if type(v) is not str:
        _refuse(v, where)
    if not _RATIONAL.fullmatch(v):
        raise SchemaError(f"{where}: {v!r} is not an integer or a p/q string")
    return Fraction(v)


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


def _no_duplicate(seen, key, where):
    """Record that key appears at where; a second appearance raises SchemaError."""
    if key in seen:
        raise SchemaError(f"{where}: duplicate of {seen[key]}")
    seen[key] = where


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
    return str(Fraction(x))


def coeff_to_json(c):
    """A series coefficient: Fraction -> "p/q"; LaurentPoly -> sorted term list."""
    if isinstance(c, LaurentPoly):
        return [
            {"exps": list(exps), "coeff": frac_str(c.terms[exps])}
            for exps in sorted(c.terms)
        ]
    return frac_str(c)


def series_to_json(s):
    return {
        "var": s.var,
        "order": s.order,
        "coeffs": [coeff_to_json(c) for c in s.coeffs],
    }


def series_to_tsv(s):
    """One row per power: power <TAB> coefficient."""
    lines = []
    for i, c in enumerate(s.coeffs):
        text = repr(c) if isinstance(c, LaurentPoly) else frac_str(c)
        lines.append(f"{i}\t{text}")
    return "\n".join(lines) + "\n"


def table_to_json(t):
    entries = [
        {"genus": g, "class": list(cls), "value": frac_str(t.entries[(g, cls)])}
        for g, cls in sorted(t.entries)
    ]
    return {
        "rank": t.rank,
        "degree_weights": list(t.degree_weights),
        "kind": t.kind,
        "max_genus": t.max_genus,
        "max_degree": t.max_degree,
        "entries": entries,
    }


def table_from_json(d):
    """An InvariantTable; every fault of the document, header or entry,
    raises SchemaError naming its path (entries[i] for a per-entry fault)."""
    kind = _get(d, "", "kind", _kind)
    rank = _get(d, "", "rank", _count)
    weights = _get(d, "", "degree_weights", _counts)
    if not rank:
        raise SchemaError("rank: 0 is not positive")
    if len(weights) != rank or not all(weights):
        raise SchemaError(f"degree_weights: need {rank} positive weights, got {weights}")
    table = InvariantTable(
        kind, rank, weights, _get(d, "", "max_genus", _count), _get(d, "", "max_degree", _count)
    )
    seen = {}
    for i, e in enumerate(_get(d, "", "entries", _list)):
        where = f"entries[{i}]"
        key = (_get(e, where, "genus", _count), tuple(_get(e, where, "class", _counts)))
        value = _get(e, where, "value", rational)
        _no_duplicate(seen, key, where)
        if kind == BPS and value.denominator != 1:
            raise SchemaError(f"{where}.value: {value} is not an integer in a bps table")
        try:
            table.set(*key, value)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return table


def poly_to_json(p):
    return {
        "weight": p.weight,
        "monomials": [
            {"e2": a, "e4": b, "e6": c, "coeff": frac_str(p.monomials[(a, b, c)])}
            for a, b, c in sorted(p.monomials)
        ],
    }


def poly_from_json(d, path=""):
    """A GradedPoly; a fault of the document or of one monomial (a bad count,
    a weight off the declared one, a repeated monomial) raises SchemaError
    naming its path."""
    weight = _get(d, path, "weight", _count)
    poly = GradedPoly(weight)
    seen = {}
    for i, m in enumerate(_get(d, path, "monomials", _list)):
        where = f"{_join(path, 'monomials')}[{i}]"
        key = tuple(_get(m, where, e, _count) for e in ("e2", "e4", "e6"))
        coeff = _get(m, where, "coeff", rational)
        _no_duplicate(seen, key, where)
        try:
            poly = poly + GradedPoly(weight, {key: coeff})
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
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
        _no_duplicate(seen, (n, g), where)
        try:
            zfs.append(ZFunction(n, g, poly))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return zfs
