from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bps_series.laurent import LaurentPoly
from bps_series.qseries import (
    BadConstantTerm,
    NonUnitConstantTerm,
    QSeries,
    binomial_coeff,
    eta_product,
    euler_int_layers,
    geom_factor_product,
)

fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_series = st.lists(fractions, min_size=1, max_size=9).map(
    lambda cs: QSeries(cs)
)
unit_series = st.tuples(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]),
    st.lists(fractions, min_size=0, max_size=8),
).map(lambda t: QSeries([t[0], *t[1]]))


def test_indexing_and_order():
    s = QSeries([1, 2, 3])
    assert s.order == 2
    assert s[0] == 1 and s[2] == 3
    with pytest.raises(IndexError):
        s[3]


def test_truncation_takes_min_order():
    a = QSeries([1, 1, 1, 1])
    b = QSeries([1, -1])
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a * b)[1] == 0


def test_scalar_coefficients_promote():
    s = QSeries([1, 2]) * Fraction(1, 2)
    assert s[1] == Fraction(1)
    assert (2 + QSeries([0, 1]))[0] == 2


@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    # every binary operation truncates to the smaller order, so both sides
    # end at min(a.order, b.order, c.order)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(unit_series)
def test_inverse_round_trip(s):
    one = QSeries.constant(1, s.order)
    assert s * s.inv() == one
    assert s**-2 * s**2 == one


def test_inverse_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        QSeries([0, 1]).inv()
    # inversion takes rational constant terms only, even a unit of another ring
    with pytest.raises(NonUnitConstantTerm):
        QSeries([LaurentPoly({(1,): 1})]).inv()
    with pytest.raises(NonUnitConstantTerm):
        QSeries([LaurentPoly.const(1)], 2) ** -1


@given(st.lists(fractions, min_size=1, max_size=8))
def test_exp_log_round_trip(tail):
    s = QSeries([Fraction(0), *tail])
    assert s.exp().log() == s
    assert (QSeries([Fraction(1), *tail])).log().exp() == QSeries(
        [Fraction(1), *tail]
    )


def test_exp_log_constant_term_preconditions():
    with pytest.raises(BadConstantTerm):
        QSeries([Fraction(1), Fraction(2)]).exp()
    with pytest.raises(BadConstantTerm):
        QSeries([Fraction(0), Fraction(2)]).log()


def test_exp_additivity():
    a = QSeries([Fraction(0), Fraction(1), Fraction(1, 3)])
    b = QSeries([Fraction(0), Fraction(-2), Fraction(1, 5)])
    assert (a + b).exp() == a.exp() * b.exp()


def test_eta_product_partitions():
    series = eta_product(-1, 20)
    for n in range(21):
        assert series[n] == oracles.partition_count_simple(n)


@given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
@settings(max_examples=25)
def test_eta_product_exponent_additivity(a, b):
    order = 10
    lhs = eta_product(a, order) * eta_product(b, order)
    assert lhs == eta_product(a + b, order)


def test_eta_product_euler_pentagonal():
    # prod (1-q^n) has sparse +-1 coefficients at generalized pentagonal numbers
    series = eta_product(1, 15)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(16):
        assert series[n] == expect.get(n, 0)


factor_specs = st.lists(
    st.tuples(
        st.tuples(st.integers(min_value=-2, max_value=2)),
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=3,
)


@given(factor_specs)
@settings(max_examples=30, deadline=None)
def test_geom_factor_product_matches_factor_by_factor_product(specs):
    order = 5
    # each factor (1 - m q^n)^e, m = c x^exps, from the binomial series:
    # C(e, j) (-m)^j at q^(nj)
    expect = QSeries([LaurentPoly.const(1, nvars=1)], order)
    for exps, c, e in specs:
        for n in range(1, order + 1):
            coeffs = [LaurentPoly(nvars=1)] * (order + 1)
            for j in range(order // n + 1):
                power = tuple(j * a for a in exps)
                coeffs[n * j] = LaurentPoly({power: binomial_coeff(e, j) * (-c) ** j}, nvars=1)
            expect = expect * QSeries(coeffs, order)
    assert geom_factor_product(specs, order, 1) == expect


def test_geom_factor_product_scalar_and_arity():
    assert geom_factor_product([], 3, 0) == QSeries([Fraction(1)], 3)
    assert geom_factor_product([((), 1, -1)], 0, 0) == QSeries([Fraction(1)], 0)
    with pytest.raises(ValueError):
        geom_factor_product([((1,), 1, 1)], 3, 2)


@pytest.mark.parametrize(
    "build, index",
    [
        (lambda: eta_product(Fraction(1, 2), 4), 0),
        (lambda: eta_product(0.5, 4), 0),
        (lambda: eta_product(True, 4), 0),
        (lambda: eta_product(Fraction(-1), 4), 0),
        (lambda: euler_int_layers([((0.5,), 1, 1)], 2, 1), 0),
        (lambda: euler_int_layers([((1,), 1, 1), ((0,), 2.0, 1)], 2, 1), 1),
        (lambda: euler_int_layers([((1,), 1, 1), ((0,), False, 1)], 2, 1), 1),
        (lambda: geom_factor_product([((0, 0), 1, -1), ((1, 1), Fraction(3), 1)], 3, 2), 1),
    ],
)
def test_euler_kernel_refuses_non_int_specs(build, index):
    # the int recurrence would take these without an error and build a wrong product
    message = rf"^specs\[{index}\] = .*: exponents, c and e must be int$"
    with pytest.raises(ValueError, match=message):
        build()


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=6))
def test_binomial_coeff_matches_comb(e, j):
    from math import comb

    if e >= 0:
        assert binomial_coeff(e, j) == comb(e, j)
    else:
        assert binomial_coeff(e, j) == (-1) ** j * comb(-e + j - 1, j)


def test_laurent_coefficients():
    t = LaurentPoly({(1,): Fraction(1)}, nvars=1)
    s = QSeries([LaurentPoly.const(1, nvars=1), t]) ** 2
    assert s[1] == LaurentPoly({(1,): Fraction(2)}, nvars=1)


def test_nested_series_orientation():
    # multiplying a q-major series by a lambda-series scalar must keep the
    # q-major layout: the scalar acts on every q-coefficient.
    lam = QSeries([Fraction(0), Fraction(1)], var="lam")
    qmajor = QSeries([Fraction(1), Fraction(2)], var="q")
    prod = qmajor * lam
    assert prod.var == "q"
    assert prod[1] == Fraction(2) * lam
