from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bps_series.goettsche import (
    BettiVector,
    GradedCharacter,
    _partition_multiplicities,
    bps_rational_elliptic,
    goettsche_series,
    nakajima_assembly,
    rational_elliptic_character,
    refined_goettsche_res,
    sym_power_series,
)
from bps_series.laurent import LaurentPoly
from bps_series.qseries import eta_product


def test_betti_vector_validation():
    BettiVector(1, 0, 10, 0, 1)
    with pytest.raises(ValueError):
        BettiVector(1, 0, 10, 0, 2)
    with pytest.raises(ValueError):
        BettiVector(1, 2, 10, 3, 1)
    with pytest.raises(ValueError):
        BettiVector(-1, 0, 10, 0, -1)
    # the Euler kernel takes int exponents only, so the vector refuses the rest
    for b0 in (1.0, Fraction(1), True):
        with pytest.raises(ValueError, match="^Betti numbers must be nonnegative integers"):
            BettiVector(b0, 0, 10, 0, 1)


def test_k3_hilbert_scheme_layers():
    series = goettsche_series(BettiVector(1, 0, 22, 0, 1), 3)
    assert series[1] == LaurentPoly({(-2,): 1, (0,): 22, (2,): 1}, nvars=1)
    # Euler characteristics of K3^[n]
    assert [series[g].eval_ones() for g in range(4)] == [1, 24, 324, 3200]


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=20, deadline=None)
def test_goettsche_coefficients_are_nonnegative_integers(b1, b2):
    series = goettsche_series(BettiVector(1, b1, b2, b1, 1), 4)
    for g in range(5):
        for coeff in series[g].terms.values():
            assert coeff.denominator == 1
            assert coeff >= 0


@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_goettsche_series_matches_nakajima_with_odd_classes(b0, b1, b2, g):
    # odd-degree classes enter the product as (1 + t^(+-1) q^n)^b1 and the
    # assembly as exterior powers; the two routes share no code
    char = GradedCharacter(
        LaurentPoly({(-2,): b0, (-1,): b1, (0,): b2, (1,): b1, (2,): b0}, nvars=1)
    )
    assert goettsche_series(BettiVector(b0, b1, b2, b1, b0), g) == nakajima_assembly(
        char, g
    )


def test_refined_first_layer_character():
    series = refined_goettsche_res(2)
    assert series[1] == rational_elliptic_character().poly
    assert series[0] == LaurentPoly({(0, 0): 1}, nvars=2)


def test_rational_elliptic_character_contents():
    p = rational_elliptic_character().poly
    assert p == LaurentPoly(
        {(1, 1): 1, (-1, -1): 1, (1, -1): 1, (-1, 1): 1, (0, 0): 8}, nvars=2
    )
    assert p.eval_ones() == 12


def test_diagonal_specialization_matches_classical():
    refined = refined_goettsche_res(6)
    classical = goettsche_series(BettiVector(1, 0, 10, 0, 1), 6)
    for g in range(7):
        assert refined[g].diagonal() == classical[g]


def test_euler_specialization_matches_eta_power():
    refined = refined_goettsche_res(10)
    euler = eta_product(-12, 10)
    for g in range(11):
        assert refined[g].eval_ones() == euler[g]


def test_refined_layer_symmetries():
    refined = refined_goettsche_res(5)
    for g in range(6):
        layer = refined[g]
        assert {(-a, b): c for (a, b), c in layer.terms.items()} == layer.terms
        assert {(a, -b): c for (a, b), c in layer.terms.items()} == layer.terms
        swapped = LaurentPoly(
            {(b, a): c for (a, b), c in layer.terms.items()}, nvars=2
        )
        assert swapped == layer


def test_sym_powers_of_a_point():
    point = GradedCharacter(LaurentPoly({(0, 0): 1}, nvars=2))
    series = sym_power_series(point, 6)
    for n in range(7):
        assert series[n] == LaurentPoly({(0, 0): 1}, nvars=2)


def test_sym_powers_reject_fractional_dimensions():
    ragged = GradedCharacter(LaurentPoly({(0, 0): Fraction(1, 2)}, nvars=2))
    with pytest.raises(ValueError):
        sym_power_series(ragged, 2)


def character_strategy():
    exps = st.tuples(
        st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)
    )
    return st.dictionaries(
        exps, st.integers(min_value=1, max_value=3), min_size=1, max_size=3
    ).map(lambda d: GradedCharacter(LaurentPoly(d, nvars=2)))


@given(character_strategy())
@settings(max_examples=30, deadline=None)
def test_sym_powers_match_brute_force(char):
    n_max = 4
    series = sym_power_series(char, n_max)
    generators = []
    for exps, coeff in sorted(char.poly.terms.items()):
        generators.extend([(exps, sum(exps) % 2)] * int(coeff))
    expect = oracles.super_sym_layers(generators, n_max)
    for n in range(n_max + 1):
        got = {e: int(c) for e, c in series[n].terms.items()}
        assert got == expect[n]


@given(st.integers(min_value=0, max_value=12))
def test_partition_enumeration_counts(n):
    parts = list(_partition_multiplicities(n))
    assert len(parts) == oracles.partition_count_simple(n)
    assert len({tuple(sorted(m.items())) for m in parts}) == len(parts)
    assert all(count > 0 for m in parts for count in m.values())
    assert all(sum(size * count for size, count in m.items()) == n for m in parts)


def test_nakajima_assembly_matches_refined_product():
    assembled = nakajima_assembly(rational_elliptic_character(), 5)
    refined = refined_goettsche_res(5)
    for g in range(6):
        assert assembled[g] == refined[g]


def test_bps_table_matches_independent_expansion():
    table = bps_rational_elliptic(4)
    expect = oracles.res_product_u_layers(4)
    for g in range(5):
        row = {h: n for (gg, h), n in table.items() if gg == g}
        assert row == expect[g]

