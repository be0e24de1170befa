from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bps_series.modular import (
    BadWeight,
    _eisenstein_row,
    bernoulli,
    divisor_sigma,
    eisenstein,
    zeta_even_ratio,
)


def test_bernoulli_values():
    expect = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, value in expect.items():
        assert bernoulli(n) == value
    for n in (3, 5, 7, 9, 11):
        assert bernoulli(n) == 0


def test_bernoulli_matches_recurrence_oracle():
    # the tangent-number batch against the binomial recurrence, B_1 and the
    # odd zeros included
    expect = oracles._bernoulli_list(80)
    assert [bernoulli(n) for n in range(81)] == expect


@pytest.mark.parametrize(
    "arg, message",
    [
        (True, "n must be an int, got bool True"),
        (2.0, "n must be an int, got float 2.0"),
        (-2, "n must be >= 0"),
    ],
)
def test_bernoulli_refusals_survive_the_cache(arg, message):
    bernoulli(24)
    with pytest.raises(ValueError) as info:
        bernoulli(arg)
    assert str(info.value) == message


@pytest.mark.parametrize("weight", range(2, 31, 2))
def test_eisenstein_row_matches_oracles(weight):
    # (D, V) with V[n] / D the q^n coefficient: against the divisor-sum
    # oracle, and its sieve against divisor_sigma, at every order up to 60
    expect = oracles.eisenstein_coeffs(weight, 60)
    factor = -Fraction(2 * weight) / bernoulli(weight)
    for order in range(61):
        d, v = _eisenstein_row(weight, order)
        assert d > 0 and gcd(d, *v) == 1
        assert [Fraction(x, d) for x in v] == expect[: order + 1]
        sigmas = [Fraction(x, d) / factor for x in v[1:]]
        assert sigmas == [divisor_sigma(weight - 1, n) for n in range(1, order + 1)]


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=2000))
def test_divisor_sigma_matches_enumeration(power, n):
    assert divisor_sigma(power, n) == oracles.divisor_sum(power, n)


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_divisor_sigma_multiplicative(power, m, n):
    if gcd(m, n) == 1:
        assert divisor_sigma(power, m * n) == divisor_sigma(power, m) * divisor_sigma(
            power, n
        )


def test_divisor_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisor_sigma(1, 0)


def test_divisor_sigma_rejects_negative_power():
    # sigma_{-1}(6) = 2 is not an int
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        divisor_sigma(-1, 6)


# perfect squares, whose root pairs with itself, and 1001^2 = 7^2 11^2 13^2
@pytest.mark.parametrize("n", [1, 4, 36, 1764, 1_002_001])
@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_divisor_sigma_counts_square_roots_once(power, n):
    assert divisor_sigma(power, n) == oracles.divisor_sum(power, n)


def test_eisenstein_expansions():
    e2 = eisenstein(2, 4)
    assert [e2[i] for i in range(5)] == [1, -24, -72, -96, -168]
    e4 = eisenstein(4, 4)
    assert [e4[i] for i in range(5)] == [1, 240, 2160, 6720, 17520]
    e6 = eisenstein(6, 4)
    assert [e6[i] for i in range(5)] == [1, -504, -16632, -122976, -532728]


def test_eisenstein_matches_divisor_sum_oracle():
    # every coefficient stays a Fraction, whole numbers and the q^0 term too
    for weight, order in ((2, 0), (2, 20), (4, 20), (6, 20), (8, 20), (10, 20), (24, 20)):
        series = eisenstein(weight, order)
        assert series.coeffs == oracles.eisenstein_coeffs(weight, order)
        assert all(type(c) is Fraction for c in series.coeffs)


def test_eisenstein_rejects_bad_weight():
    for weight in (0, 1, 3, -2):
        with pytest.raises(BadWeight):
            eisenstein(weight, 4)


REFUSALS = [
    (eisenstein, (4.0, 3), "weight"),
    (eisenstein, (True, 3), "weight"),
    (eisenstein, (4, True), "order"),
    (eisenstein, (4, Fraction(3)), "order"),
    (bernoulli, (2.0,), "n"),
    (bernoulli, (True,), "n"),
    (zeta_even_ratio, (1.0,), "k"),
    (zeta_even_ratio, (True,), "k"),
    (divisor_sigma, (1.5, 4), "k"),
    (divisor_sigma, (True, 4), "k"),
    (divisor_sigma, (1, 4.0), "n"),
]


@pytest.mark.parametrize(
    "func, args, name", REFUSALS, ids=[f"{f.__name__}{a}" for f, a, _ in REFUSALS]
)
def test_entry_points_refuse_non_int_arguments(func, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        func(*args)


@pytest.mark.parametrize(
    "func, arg, message", [(bernoulli, -1, "n must be >= 0"), (zeta_even_ratio, 0, "k must be >= 1")]
)
def test_entry_points_refuse_out_of_range_arguments(func, arg, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        func(arg)


def test_zeta_even_ratio_values():
    # zeta(2k) / (2 pi)^(2k) for k = 1, 2, 3
    assert zeta_even_ratio(1) == Fraction(1, 24)
    assert zeta_even_ratio(2) == Fraction(1, 1440)
    assert zeta_even_ratio(3) == Fraction(1, 60480)


@given(st.integers(min_value=1, max_value=8))
def test_zeta_even_ratio_from_bernoulli(k):
    from math import factorial

    expect = Fraction((-1) ** (k + 1) * bernoulli(2 * k), 2 * factorial(2 * k))
    assert zeta_even_ratio(k) == expect
