from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bps_series.gvtransform import (
    InsufficientTruncation,
    InvariantTable,
    LambdaSeries,
    NonIntegralBPS,
    gv_from_gw,
    gw_from_gv,
    iter_classes,
    roundtrip_check,
    sin_power_series,
)
from bps_series.modular import divisor_sigma


def test_sin_power_inverse_square():
    s = sin_power_series(1, -2, 6)
    assert s[-2] == 1
    assert s[0] == Fraction(1, 12)
    assert s[2] == Fraction(1, 240)
    assert s[4] == Fraction(1, 6048)


@given(st.integers(min_value=1, max_value=5))
def test_sin_square_matches_cosine_oracle(k):
    s = sin_power_series(k, 2, 10)
    expect = oracles.two_minus_two_cos(k, 10)
    assert {e: c for e, c in s.coeffs.items() if c} == expect


def test_sin_power_zero_is_one():
    s = sin_power_series(3, 0, 8)
    assert {e: c for e, c in s.coeffs.items() if c} == {0: Fraction(1)}


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
def test_sin_power_multiplicativity(k, half_e):
    # s^(2a) * s^(2b) == s^(2a+2b) within the common window
    a, b = 2 * half_e, 2
    lhs = sin_power_series(k, a, 8)
    rhs = sin_power_series(k, b, 8)
    prod = sin_power_series(k, a + b, 8)
    for e in range(a + b, 9, 2):
        acc = Fraction(0)
        for e1, c1 in lhs.coeffs.items():
            c2 = rhs.coeffs.get(e - e1)
            if c2 is not None:
                acc += c1 * c2
        assert acc == prod[e]


def test_sin_power_coefficients_are_fractions():
    # a float slip such as k**e at k = 2, e = -2 still prints "1/4"
    for k in (1, 2, 5):
        for e in (-2, 0, 2, 6):
            for c in sin_power_series(k, e, 10).coeffs.values():
                assert type(c) is Fraction, (k, e, c)
    bps = InvariantTable("bps", 1, (1,), 3, 6, {(0, (1,)): 1, (2, (2,)): -3, (1, (3,)): 2})
    gw = gw_from_gv(bps, 8)
    assert gw.entries
    assert all(type(v) is Fraction for v in gw.entries.values())


@pytest.mark.parametrize("k", [1, 2, 7])
def test_sin_power_is_empty_above_the_window(k):
    for order in range(0, 9):
        for e in range(order + 2 - order % 2, order + 9, 2):
            assert sin_power_series(k, e, order).coeffs == {}, (e, order)
        assert sin_power_series(k, order - order % 2, order).coeffs


def _truncated_power(series, power, order):
    out = {0: Fraction(1)}
    for _ in range(power):
        nxt = {}
        for e1, c1 in out.items():
            for e2, c2 in series.items():
                if e1 + e2 <= order:
                    nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        out = {e: c for e, c in nxt.items() if c}
    return out


@pytest.mark.parametrize("h", [1, 2, 3, 5])
def test_sin_even_powers_match_cosine_powers(h):
    # (2 sin(k lam/2))^(2h-2) = (2 - 2 cos(k lam))^(h-1)
    order = 12
    for k in range(1, 61):
        expect = _truncated_power(oracles.two_minus_two_cos(k, order), h - 1, order)
        assert sin_power_series(k, 2 * h - 2, order).coeffs == expect, k


def test_sin_power_validation():
    with pytest.raises(ValueError):
        sin_power_series(0, 2, 4)
    with pytest.raises(ValueError):
        sin_power_series(1, 1, 4)
    with pytest.raises(ValueError):
        sin_power_series(1, -4, 4)


def test_lambda_series_sum_keeps_the_smaller_order():
    a = LambdaSeries({-2: 1, 0: Fraction(1, 2), 2: 3, 6: 5}, order=6)
    b = LambdaSeries({0: Fraction(-1, 2), 2: 1, 4: 7}, order=4)
    for total in (a + b, b + a):
        assert total.order == 4
        # lam^0 cancels and lam^6 lies above the smaller order
        assert total.coeffs == {-2: 1, 2: 4, 4: 7}
    assert (a + LambdaSeries({-2: -1, 2: -3}, order=2)).coeffs == {0: Fraction(1, 2)}
    with pytest.raises(ValueError, match="float"):
        LambdaSeries({6: 0.5}, order=4)  # refused even above the order


def test_table_validation():
    with pytest.raises(ValueError):
        InvariantTable("nope", 1, (1,), 2, 2)
    with pytest.raises(ValueError):
        InvariantTable("bps", 2, (1,), 2, 2)
    t = InvariantTable("bps", 1, (1,), 2, 4)
    with pytest.raises(ValueError):
        t.set(0, (-1,), 1)
    with pytest.raises(NonIntegralBPS):
        t.set(0, (1,), Fraction(1, 2))


def test_table_refuses_floats():
    bps = InvariantTable("bps", 1, (1,), 2, 4)
    with pytest.raises(ValueError, match=r"^\(0, \(1,\)\): float 0\.7 not allowed"):
        bps.set(0, (1,), 0.7)
    gw = InvariantTable("gw", 2, (1, 1), 2, 4)
    with pytest.raises(ValueError, match=r"^\(1, \(0, 2\)\): float 0\.1 not allowed"):
        gw.set(1, (0, 2), 0.1)
    with pytest.raises(ValueError, match="float"):
        InvariantTable("gw", 1, (1,), 2, 4, {(0, (1,)): 2.0})
    assert not bps.entries and not gw.entries


@pytest.mark.parametrize(
    "kind, g, cls, value, message",
    [
        ("bps", 0, (1,), Decimal("7.5"), r"^\(0, \(1,\)\): Decimal Decimal\('7\.5'\) not allowed"),
        ("gw", 0, (1,), "1e3", r"^\(0, \(1,\)\): str '1e3' not allowed"),
        ("bps", 1, (2,), True, r"^\(1, \(2,\)\): bool True not allowed"),
        ("bps", True, (1,), 1, r"^genus must be an int >= 0, got True$"),
        ("gw", 1.0, (1,), 1, r"^genus must be an int >= 0, got 1\.0$"),
        ("bps", 0, (True,), 1, r"^\(True,\) is not a nonzero class"),
        ("gw", 0, (2.0,), 1, r"^\(2\.0,\) is not a nonzero class"),
    ],
    ids=["decimal", "str", "bool-value", "bool-genus", "float-genus", "bool-class", "float-class"],
)
def test_table_set_refuses_inexact_input(kind, g, cls, value, message):
    # each used to be stored: 7.5 as 7, "1e3" as 1000, True as 1 or as a bool key
    table = InvariantTable(kind, 1, (1,), 2, 4)
    with pytest.raises(ValueError, match=message):
        table.set(g, cls, value)
    assert not table.entries


@pytest.mark.parametrize(
    "args",
    [
        (1, (0.5,), 2, 3),
        (1, (True,), 2, 3),
        (1.0, (1,), 2, 3),
        (True, (1,), 2, 3),
        (1, (1,), 2.0, 3),
        (1, (1,), 2, Fraction(3)),
        (1, (1,), False, 3),
    ],
)
def test_table_header_refuses_non_int(args):
    message = r"^rank, degree weights, max_genus and max_degree must be ints$"
    for kind in ("bps", "gw"):
        with pytest.raises(ValueError, match=message):
            InvariantTable(kind, *args)


def test_window_semantics():
    t = InvariantTable("bps", 1, (1,), 2, 4)
    t.set(0, (1,), 5)
    t.set(1, (2,), Fraction(-3))
    assert t.entries == {(0, (1,)): 5, (1, (2,)): -3}
    assert all(type(v) is int for v in t.entries.values())
    # a BPS table is total: outside the window the invariant vanishes
    assert t.get(0, (5,)) == 0
    assert t.get(3, (1,)) == 0
    with pytest.raises(InsufficientTruncation):
        t.set(0, (5,), 1)
    gw = InvariantTable("gw", 1, (1,), 2, 4)
    gw.set(0, (1,), Fraction(1, 8))
    gw.set(1, (1,), 7)
    assert type(gw.get(1, (1,))) is Fraction
    # a GW table is a truncation: outside the window is unknown, not zero
    with pytest.raises(InsufficientTruncation):
        gw.get(0, (5,))


def test_iter_classes_rank_two():
    classes = list(iter_classes(2, (1, 1), 2))
    assert (0, 0) not in classes
    assert classes == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    weighted = list(iter_classes(2, (1, 2), 4))
    assert weighted[0] == (1, 0)
    assert all(a + 2 * b <= 4 for a, b in weighted)


def test_multicover_contribution():
    bps = InvariantTable("bps", 1, (1,), 2, 6, {(0, (1,)): 1})
    gw = gw_from_gv(bps, 8)
    for k in range(1, 7):
        assert gw.get(0, (k,)) == Fraction(1, k**3)


def test_super_rigid_elliptic_inversion():
    gw = InvariantTable("gw", 1, (1,), 5, 6)
    for n in range(1, 7):
        gw.set(1, (n,), Fraction(divisor_sigma(1, n), n))
    bps = gv_from_gw(gw, 8)
    assert bps.entries == {(1, (n,)): 1 for n in range(1, 7)}


def test_non_integral_input_is_reported():
    gw = InvariantTable("gw", 1, (1,), 4, 4)
    gw.set(0, (1,), Fraction(1, 2))
    with pytest.raises(NonIntegralBPS) as exc_info:
        gv_from_gw(gw, 6)
    err = exc_info.value
    assert err.cls == (1,)
    assert err.h == 0
    assert err.value == Fraction(1, 2)


def test_gv_from_gw_window_preconditions():
    gw = InvariantTable("gw", 1, (1,), 1, 4)
    # lambda order 6 supports genus up to 4, beyond the table's max_genus
    with pytest.raises(InsufficientTruncation):
        gv_from_gw(gw, 6)
    with pytest.raises(InsufficientTruncation):
        gv_from_gw(gw, 0, degree_order=9)


def bps_tables(max_rank=2, max_degree=4, max_genus=3):
    def build(draw_data):
        rank, entries = draw_data
        weights = (1,) * rank
        table = InvariantTable("bps", rank, weights, max_genus, max_degree)
        classes = list(iter_classes(rank, weights, max_degree))
        for (index, h), value in entries.items():
            table.set(h, classes[index % len(classes)], value)
        return table

    return st.tuples(
        st.integers(min_value=1, max_value=max_rank),
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=max_genus),
            ),
            st.integers(min_value=-9, max_value=9),
            max_size=6,
        ),
    ).map(build)


@given(bps_tables())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(table):
    ok, diffs = roundtrip_check(table)
    assert ok, diffs


def test_transform_is_additive():
    # the image of a sum of BPS tables is the coefficientwise sum, so a GW
    # table shifted by the image of another valid BPS table inverts to the
    # summed table rather than failing
    a = InvariantTable("bps", 1, (1,), 3, 4, {(0, (1,)): 2})
    b = InvariantTable("bps", 1, (1,), 3, 4, {(1, (2,)): -3})
    gw_a, gw_b = gw_from_gv(a, 6), gw_from_gv(b, 6)
    merged = InvariantTable("gw", 1, (1,), gw_a.max_genus, gw_a.max_degree)
    for (h, cls) in set(gw_a.entries) | set(gw_b.entries):
        merged.set(h, cls, gw_a.entries.get((h, cls), 0) + gw_b.entries.get((h, cls), 0))
    recovered = gv_from_gw(merged, 6)
    assert recovered.entries == {(0, (1,)): 2, (1, (2,)): -3}


def test_corrupted_gw_table_fails_integrality():
    bps = InvariantTable("bps", 1, (1,), 3, 4, {(0, (1,)): 2})
    gw = gw_from_gv(bps, 6)
    # bumping a single coefficient cannot come from any integer BPS table:
    # the genus-0 bump at (2,) leaves a fractional tail at higher genus
    gw.set(0, (2,), gw.get(0, (2,)) + 1)
    with pytest.raises(NonIntegralBPS) as exc_info:
        gv_from_gw(gw, 6)
    assert exc_info.value.cls == (2,)


def test_empty_table_round_trips():
    bps = InvariantTable("bps", 2, (1, 2), 3, 4)
    gw = gw_from_gv(bps, 6)
    assert gw.entries == {}
    ok, diffs = roundtrip_check(bps)
    assert ok and diffs == []


@st.composite
def weighted_bps_cases(draw):
    """(table, lambda_order, degree_order) over rank 1-3, degree weights 1..3,
    degree_order up to the table's max_degree, odd and even lambda orders,
    and BPS entries whose h lies above the lambda window."""
    rank = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank)))
    max_degree = draw(st.integers(min_value=0, max_value=7))
    max_genus = draw(st.integers(min_value=0, max_value=5))
    classes = [
        cls
        for cls in product(range(max_degree + 1), repeat=rank)
        if any(cls) and sum(w * c for w, c in zip(weights, cls)) <= max_degree
    ]
    entries = {}
    if classes:
        slots = st.tuples(st.integers(0, max_genus), st.sampled_from(classes))
        values = st.integers(-9, 9).filter(bool)
        entries = draw(st.dictionaries(slots, values, max_size=8))
    table = InvariantTable("bps", rank, weights, max_genus, max_degree, entries)
    lambda_order = draw(st.integers(min_value=-2, max_value=2 * max_genus + 1))
    degree_order = draw(st.integers(min_value=0, max_value=max_degree))
    return table, lambda_order, degree_order


@given(weighted_bps_cases())
@settings(max_examples=80, deadline=None)
def test_transform_matches_multicover_oracle(case):
    bps, lambda_order, degree_order = case
    gw = gw_from_gv(bps, lambda_order, degree_order)
    assert (gw.max_genus, gw.max_degree) == ((lambda_order + 2) // 2, degree_order)
    assert gw.entries == oracles.gw_from_bps(
        bps.entries, bps.degree_weights, lambda_order, degree_order
    )
    # the inverse recovers every entry inside both windows, and only those
    h_max = (lambda_order + 2) // 2
    kept = {
        (h, cls): n
        for (h, cls), n in bps.entries.items()
        if h <= h_max and bps.degree(cls) <= degree_order
    }
    expected = InvariantTable("bps", bps.rank, bps.degree_weights, h_max, degree_order, kept)
    assert gv_from_gw(gw, lambda_order, degree_order) == expected


def test_oracle_case_with_rows_above_the_window():
    # n_3 at lambda order 1 (window h <= 1) contributes nothing; n_0 and n_1
    # of a weight-2 class cover it twice at degree_order 4 but not at 3
    bps = InvariantTable("bps", 2, (1, 2), 3, 4, {(0, (0, 1)): 2, (1, (0, 1)): -1, (3, (1, 0)): 5})
    for degree_order in (3, 4):
        gw = gw_from_gv(bps, 1, degree_order)
        want = oracles.gw_from_bps(bps.entries, (1, 2), 1, degree_order)
        assert gw.entries == want
        assert ((0, (0, 2)) in want) == (degree_order == 4)
    # k = 2: n_0 = 2 gives 2 (1/2) (2 sin lam)^(-2) = 1/4 lam^-2 + 1/12 + ...,
    # n_1 = -1 gives -1/2 lam^0
    assert want[(0, (0, 2))] == Fraction(1, 4)
    assert want[(1, (0, 2))] == Fraction(1, 12) - Fraction(1, 2)
    assert not any(cls == (1, 0) for _, cls in want)
