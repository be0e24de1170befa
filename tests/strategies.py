"""Hypothesis strategies shared by the codec tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from bps_series.laurent import LaurentPoly
from bps_series.qseries import QSeries

BIG = 2**130


@st.composite
def table_cases(draw):
    """(kind, rank, degree_weights, max_genus, max_degree, entries) for an
    InvariantTable of either kind, rank 1-3 and degree weights 1..3.  The
    entries map (genus, class) inside the window to values up to +-2**130,
    zero included: ints for bps, Fractions with denominators up to 2**130
    for gw."""
    kind = draw(st.sampled_from(["bps", "gw"]))
    rank = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank)))
    max_genus = draw(st.integers(min_value=0, max_value=4))
    max_degree = draw(st.integers(min_value=0, max_value=6))
    classes = [
        cls
        for cls in product(range(max_degree + 1), repeat=rank)
        if any(cls) and sum(w * c for w, c in zip(weights, cls)) <= max_degree
    ]
    entries = {}
    if classes:
        numerators = st.integers(min_value=-BIG, max_value=BIG)
        if kind == "bps":
            values = numerators
        else:
            denominators = st.integers(min_value=1, max_value=BIG)
            values = st.builds(Fraction, numerators, denominators)
        slots = st.tuples(st.integers(0, max_genus), st.sampled_from(classes))
        entries = draw(st.dictionaries(slots, values, max_size=8))
    return kind, rank, weights, max_genus, max_degree, entries


rationals = st.integers(min_value=-BIG, max_value=BIG) | st.builds(
    Fraction, st.integers(min_value=-BIG, max_value=BIG), st.integers(min_value=1, max_value=BIG)
)


@st.composite
def series_cases(draw):
    """A QSeries in q or lam whose coefficients are ints and Fractions, or
    LaurentPolys in one or two variables (the zero polynomial included),
    padded with zeros up to an order at most two past its coefficients."""
    nvars = draw(st.integers(min_value=0, max_value=2))
    if nvars:
        exps = st.tuples(*[st.integers(min_value=-4, max_value=4)] * nvars)
        terms = st.dictionaries(exps, rationals, max_size=4)
        values = st.builds(LaurentPoly, terms, st.just(nvars))
    else:
        values = rationals
    coeffs = draw(st.lists(values, min_size=1, max_size=5))
    order = draw(st.integers(min_value=len(coeffs) - 1, max_value=len(coeffs) + 1))
    return QSeries(coeffs, order, draw(st.sampled_from(["q", "lam"])))
