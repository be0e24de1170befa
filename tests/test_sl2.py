from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bps_series.laurent import LaurentPoly
from bps_series.sl2 import (
    NonIntegerCoefficient,
    NotSymmetric,
    bi_decompose,
    bps_from_character,
    decompose_spins,
    i_basis_char,
    i_basis_layers,
    signed_char,
    spin_char,
    spin_to_I_basis,
    u_expand,
)

spin_multisets = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=4),
    max_size=4,
)


def test_spin_char_values():
    assert spin_char(0) == LaurentPoly({(0,): 1}, nvars=1)
    assert spin_char(1) == LaurentPoly({(1,): -1, (-1,): -1}, nvars=1)
    assert spin_char(2) == LaurentPoly({(2,): 1, (0,): 1, (-2,): 1}, nvars=1)


def test_spin_char_dimension_signs():
    # signed dimension at t = 1 is (-1)^(2j) (2j + 1)
    for two_j in range(7):
        assert spin_char(two_j).eval_ones() == (-1) ** two_j * (two_j + 1)


def test_i_basis_char_small():
    assert i_basis_char(0) == LaurentPoly({(0,): 1}, nvars=1)
    assert i_basis_char(1) == LaurentPoly({(0,): 2, (1,): -1, (-1,): -1}, nvars=1)
    # top coefficient of I_h is (-1)^h at t^h
    for h in range(6):
        assert i_basis_char(h).terms[(h,)] == (-1) ** h


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: spin_char(-2), "spins must be >= 0"),
        (lambda: spin_char(True), "two_j must be an int, got bool True"),
        (lambda: spin_char(1.0), "two_j must be an int, got float 1.0"),
        # spin_char's cache is typed too, and caches no refusal
        (lambda: (spin_char(1), spin_char(True)), "two_j must be an int, got bool True"),
        (lambda: (spin_char(1), spin_char(-2)), "spins must be >= 0"),
        (lambda: i_basis_char(-1), "I-basis levels must be >= 0"),
        (lambda: i_basis_char(2.0), "h must be an int, got float 2.0"),
        # the cache is typed: True is refused after the equal int 1 is cached
        (lambda: (i_basis_char(1), i_basis_char(True)), "h must be an int, got bool True"),
        (lambda: signed_char({-1: 1}), "spins must be >= 0"),
        (lambda: signed_char({True: 1}), "two_j must be an int, got bool True"),
        (lambda: signed_char({1: 1.5}), "multiplicity must be an int, got float 1.5"),
        (lambda: signed_char({1: True}), "multiplicity must be an int, got bool True"),
        (
            lambda: spin_to_I_basis({0: Fraction(1, 2)}),
            "multiplicity must be an int, got Fraction Fraction(1, 2)",
        ),
    ],
    ids=[
        "spin-negative", "spin-bool", "spin-float", "spin-bool-after-int",
        "spin-negative-after-int", "level-negative", "level-float",
        "level-bool-after-int", "signed-negative-spin", "signed-bool-spin",
        "signed-float-multiplicity", "signed-bool-multiplicity", "I-basis-fraction-multiplicity",
    ],
)
def test_bad_spins_levels_and_multiplicities_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_spin_to_I_basis_table():
    assert spin_to_I_basis({0: 1}) == {0: 1}
    assert spin_to_I_basis({1: 1}) == {1: 1, 0: -2}
    assert spin_to_I_basis({2: 1}) == {2: 1, 1: -4, 0: 3}


virtual_decomps = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-4, max_value=4).filter(bool),
    max_size=5,
)


@given(virtual_decomps)
def test_spin_to_I_basis_round_trip(decomp):
    combo = spin_to_I_basis(decomp)
    total = LaurentPoly(nvars=1)
    for h, c in combo.items():
        total = total + c * i_basis_char(h)
    assert total == signed_char(decomp)


@given(spin_multisets)
def test_decompose_spins_round_trip(mult):
    assert decompose_spins(signed_char(mult)) == {k: v for k, v in mult.items() if v}


def test_decompose_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        decompose_spins(LaurentPoly({(1,): 1}, nvars=1))


def test_decompose_rejects_fractional():
    with pytest.raises(NonIntegerCoefficient):
        decompose_spins(LaurentPoly({(0,): Fraction(1, 2)}, nvars=1))


@pytest.mark.parametrize(
    "decompose, nvars",
    [(decompose_spins, 2), (u_expand, 2), (bi_decompose, 1), (i_basis_layers, 1), (bps_from_character, 1)],
)
def test_wrong_variable_count_is_refused(decompose, nvars):
    with pytest.raises(ValueError, match="variable"):
        decompose(LaurentPoly.const(1, nvars))


HALF = Fraction(1, 2)

# (case, terms in tL and tR, expected error, message after "<entry>: ")
REFUSALS = [
    ("asymmetric-tL", {(1, 0): 1}, NotSymmetric, "not symmetric in variable 0: "),
    ("unequal-tL-pair", {(1, 0): 1, (-1, 0): 2}, NotSymmetric, "not symmetric in variable 0: "),
    ("asymmetric-tR", {(0, 1): 1}, NotSymmetric, "not symmetric in variable 1: "),
    ("unequal-tR-pair", {(2, 1): 1, (-2, 1): 1, (2, -1): 3, (-2, -1): 3}, NotSymmetric,
     "not symmetric in variable 1: "),
    ("asymmetric-both", {(1, 1): 1}, NotSymmetric, "not symmetric in variable 0: "),
    ("half-on-symmetric-pair", {(1, 0): HALF, (-1, 0): HALF}, NonIntegerCoefficient,
     "non-integer coefficients in "),
    ("half-and-asymmetric-tL", {(1, 0): HALF, (0, 0): 1}, NonIntegerCoefficient,
     "non-integer coefficients in "),
    ("half-and-asymmetric-tR", {(0, 1): 1, (0, 0): HALF}, NonIntegerCoefficient,
     "non-integer coefficients in "),
]


def refusal_cases():
    # one-variable entry points take the tL part of the cases without tR exponents
    for entry in (decompose_spins, u_expand, bi_decompose, i_basis_layers, bps_from_character):
        one_variable = entry in (decompose_spins, u_expand)
        for case, terms, error, message in REFUSALS:
            if one_variable and any(er for _, er in terms):
                continue
            if one_variable:
                p = LaurentPoly({(el,): c for (el, _), c in terms.items()}, nvars=1)
            else:
                p = LaurentPoly(terms, nvars=2)
            yield pytest.param(entry, p, error, message, id=f"{entry.__name__}-{case}")


@pytest.mark.parametrize("entry, p, error, message", refusal_cases())
def test_checks_refuse_with_typed_error(entry, p, error, message):
    with pytest.raises(error, match=f"^{entry.__name__}: {message}{re.escape(repr(p))}$"):
        entry(p)


def test_i_basis_char_matches_repeated_products():
    base = LaurentPoly({(0,): 2, (1,): -1, (-1,): -1}, nvars=1)
    power = LaurentPoly.const(1, nvars=1)
    for h in range(25):
        assert i_basis_char(h) == power
        power = power * base


@given(st.integers(min_value=0, max_value=8))
def test_u_expand_on_i_basis_powers(h):
    assert u_expand(i_basis_char(h)) == {h: 1}


@given(spin_multisets)
def test_u_expand_reconstructs(mult):
    p = signed_char(mult)
    combo = u_expand(p)
    total = LaurentPoly(nvars=1)
    for h, c in combo.items():
        total = total + c * i_basis_char(h)
    assert total == p


def bi_char(left_right):
    total = LaurentPoly(nvars=2)
    for (two_jl, two_jr), m in left_right.items():
        lchar = spin_char(two_jl).embed(2, 0)
        rchar = spin_char(two_jr).embed(2, 1)
        total = total + m * (lchar * rchar)
    return total


# virtual bi-spin multisets: multiplicities of either sign
bi_multisets = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
    ),
    st.integers(min_value=-3, max_value=3).filter(bool),
    min_size=1,
    max_size=4,
)


@given(bi_multisets)
def test_bi_decompose_round_trip(mult):
    assert bi_decompose(bi_char(mult)) == mult


@given(bi_multisets)
def test_bps_dual_routes_agree_on_characters(mult):
    # bps_from_character internally checks the I_h-peel route against the
    # tR = 1 + u-expansion route; any disagreement would raise.
    p = bi_char(mult)
    result = bps_from_character(p)
    # n_h at the top left spin: peeling is triangular, so the largest h with
    # a nonzero entry is the largest 2jL present.
    if result:
        assert max(result) <= max(two_jl for two_jl, _ in mult)


@given(bi_multisets)
def test_i_basis_layers_round_trip(mult):
    p = bi_char(mult)
    total = LaurentPoly(nvars=2)
    for h, layer in i_basis_layers(p).items():
        total = total + i_basis_char(h).embed(2, 0) * signed_char(layer).embed(2, 1)
    assert total == p


def test_blowup_fixture_decomposition():
    # exceptional-curve character: trivial left spin times (1)_R + (0)_R
    p = LaurentPoly({(0, 2): 1, (0, 0): 2, (0, -2): 1}, nvars=2)
    assert i_basis_layers(p) == {0: {2: 1, 0: 1}}
    assert bps_from_character(p) == {0: 4}
    assert bi_decompose(p) == {(0, 2): 1, (0, 0): 1}


def test_i_basis_layers_product_character():
    # char(I_1)(tL) * char((1/2))(tR)
    p = i_basis_char(1).embed(2, 0) * spin_char(1).embed(2, 1)
    assert i_basis_layers(p) == {1: {1: 1}}
    # n_1 = signed dimension of (1/2) = -2
    assert bps_from_character(p) == {1: -2}


# multiplicities beyond 64 bits, of either sign
big_bi_multisets = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    st.integers(min_value=2**64, max_value=2**80) | st.integers(min_value=-(2**80), max_value=-(2**64)),
    min_size=1,
    max_size=4,
)


def all_ints(values):
    return all(type(v) is int for v in values)


@given(big_bi_multisets)
def test_big_characters_round_trip_over_int(mult):
    p = bi_char(mult)
    assert bi_decompose(p) == mult and all_ints(bi_decompose(p).values())

    layers = i_basis_layers(p)
    assert all(all_ints(layer.values()) for layer in layers.values())
    total = LaurentPoly(nvars=2)
    for h, layer in layers.items():
        total = total + i_basis_char(h).embed(2, 0) * signed_char(layer).embed(2, 1)
    assert total == p

    n = bps_from_character(p)
    assert all_ints(n.values())
    expected = {h: signed_char(layer).eval_ones() for h, layer in layers.items()}
    assert n == {h: v for h, v in expected.items() if v}
    # n_h is the signed dimension of the layer's spins: sum (-1)^(2j) (2j + 1) m
    dims = {
        h: sum((-1) ** two_j * (two_j + 1) * m for two_j, m in layer.items())
        for h, layer in layers.items()
    }
    assert n == {h: v for h, v in dims.items() if v}
    assert u_expand(p.subs_one(1)) == n and all_ints(u_expand(p.subs_one(1)).values())

    right = p.subs_one(0)
    spins = decompose_spins(right)
    assert all_ints(spins.values()) and signed_char(spins) == right


@pytest.mark.parametrize(
    "terms, n",
    [
        # tR digits of 2^70 that cancel to 3 at tR = 1
        ({(0, 2): 2**70, (0, 0): 3 - 2**71, (0, -2): 2**70}, {0: 3}),
        # one digit as large as its l1 majorant, of either sign
        ({(0, 0): 2**64}, {0: 2**64}),
        ({(0, 0): -(2**64)}, {0: -(2**64)}),
        # char(I_1)(tL) * char((1/2))(tR): a negative n_1
        ({(0, 1): -2, (0, -1): -2, (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}, {1: -2}),
        # 3M + M (tL + 1/tL)(tR^2 + 1/tR^2) is 7M - 2M u at tR = 1, M = 2^80
        ({(0, 0): 3 * 2**80, (1, 2): 2**80, (-1, 2): 2**80, (1, -2): 2**80, (-1, -2): 2**80},
         {0: 7 * 2**80, 1: -(2**81)}),
    ],
    ids=["cancelling-digits", "big-positive", "big-negative", "negative-n1", "big-negative-n1"],
)
def test_packed_rows_read_back_exactly(terms, n):
    p = LaurentPoly(terms, nvars=2)
    assert bps_from_character(p) == n
    layers = i_basis_layers(p)
    total = LaurentPoly(nvars=2)
    for h, layer in layers.items():
        total = total + i_basis_char(h).embed(2, 0) * signed_char(layer).embed(2, 1)
    assert total == p
    assert bi_char(bi_decompose(p)) == p
