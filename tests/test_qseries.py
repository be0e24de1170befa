from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bps_series import qseries
from bps_series.anomaly import GradedPoly
from bps_series.goettsche import (
    BettiVector,
    bps_rational_elliptic,
    goettsche_series,
    refined_goettsche_res,
)
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
from bps_series.serialize import series_to_json

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


WIDE = 2**64
# coefficients of the integer-convolution product: ints, Fractions with
# denominators up to 2**64, and zero as an int and as a Fraction
rational_entries = (
    st.integers(min_value=-WIDE, max_value=WIDE)
    | st.builds(
        Fraction,
        st.integers(min_value=-WIDE, max_value=WIDE),
        st.integers(min_value=1, max_value=WIDE),
    )
    | st.sampled_from([0, Fraction(0)])
)
int_entries = st.integers(min_value=-WIDE, max_value=WIDE) | st.just(0)


@given(
    st.lists(rational_entries, min_size=1, max_size=10),
    st.lists(rational_entries, min_size=1, max_size=10),
)
def test_rational_product_matches_schoolbook(a, b):
    got = QSeries(a) * QSeries(b)
    expect = oracles.series_mul_fractions(a, b)
    assert got.order == min(len(a), len(b)) - 1 == len(expect) - 1
    assert got.coeffs == expect
    assert series_to_json(got) == series_to_json(QSeries(expect))


@given(
    st.lists(int_entries, min_size=1, max_size=10),
    st.lists(int_entries, min_size=1, max_size=10),
)
def test_integer_product_stays_integer(a, b):
    got = QSeries(a) * QSeries(b)
    expect = oracles.series_mul_fractions(a, b)
    assert got.coeffs == expect
    assert all(type(c) is int for c in got.coeffs)
    assert series_to_json(got) == series_to_json(QSeries(expect))


def _spy_rational_product(monkeypatch):
    """Record the operands of every integer-convolution product."""
    seen = []
    real = qseries._rational_product

    def spy(a, b, int_only):
        seen.append((a, b))
        return real(a, b, int_only)

    monkeypatch.setattr(qseries, "_rational_product", spy)
    return seen


def test_laurent_coefficient_product_takes_the_generic_loop(monkeypatch):
    seen = _spy_rational_product(monkeypatch)
    one = LaurentPoly.const(1, nvars=1)
    x = LaurentPoly({(1,): 1}, nvars=1)
    x_inv = LaurentPoly({(-1,): Fraction(1, 2)}, nvars=1)
    # (1 + x q)(1 - x^-1 q / 2) = 1 + (x - x^-1 / 2) q - q^2 / 2
    got = QSeries([one, x, one * 0]) * QSeries([one, -x_inv, one * 0])
    assert got.coeffs == [one, x - x_inv, LaurentPoly.const(Fraction(-1, 2), nvars=1)]
    assert seen == []


def test_nested_series_product_takes_the_generic_loop(monkeypatch):
    seen = _spy_rational_product(monkeypatch)
    a = [QSeries([1, Fraction(2, 3)], var="y"), QSeries([Fraction(-1, 5), 7], var="y")]
    b = [QSeries([Fraction(1, 2), 0], var="y"), QSeries([3, Fraction(1, 4)], var="y")]
    got = QSeries(a) * QSeries(b)
    for i in range(2):
        terms = [oracles.series_mul_fractions(a[j].coeffs, b[i - j].coeffs) for j in range(i + 1)]
        assert got[i].coeffs == [sum(column) for column in zip(*terms)]
    # only the three inner y-series products are convolutions
    assert len(seen) == 3
    for operands in seen:
        assert {type(c) for side in operands for c in side} <= {int, Fraction}


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QSeries([1, 0.1], 3) * eta_product(-1, 3), "coefficient 1: float 0.1"),
        (lambda: QSeries([1, 0.1]) ** 2, "coefficient 1: float 0.1"),
        (lambda: QSeries([True]), "coefficient 0: bool True"),
        (lambda: QSeries([1, 2]) * 0.5, "coefficient 0: float 0.5"),
        (lambda: QSeries([Fraction(1), 2, "3"]), "coefficient 2: str '3'"),
    ],
    ids=["float-times-eta", "float-squared", "bool", "times-float", "str"],
)
def test_constructor_refuses_inexact_coefficients(build, message):
    with pytest.raises(ValueError, match=f"^{message} is not exact"):
        build()


@pytest.mark.parametrize("e", [True, 2.0, Fraction(2), "2"])
def test_power_refuses_non_int_exponents(e):
    with pytest.raises(ValueError, match="exponent must be an int"):
        QSeries([1, 1]) ** e


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


def test_exp_log_round_trip_over_nested_series():
    # log's recurrence subtracts coefficients of the coefficient ring; here
    # those are y-series, so it runs QSeries.__sub__ and __neg__
    def y(*cs):
        return QSeries([Fraction(c) for c in cs], var="y")

    s = QSeries([y(0, 0, 0), y(1, -2, 3), y(0, Fraction(1, 2), 0), y(5, 0, Fraction(-1, 3))])
    assert s.exp().log() == s
    assert s - s == 0 and -s + s == 0
    assert (s - y(1, 1, 1))[0] == y(-1, -1, -1) and (-s)[1] == y(-1, 2, -3)


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


def _binomial_layers(specs, order, nvars):
    """prod_n prod_specs (1 - c x^exps q^n)^e as {exps: nonzero int} per q-power,
    multiplied out factor by factor from the binomial series
    C(e, j) (-c)^j x^(j exps) q^(n j), with no recurrence."""
    layers = [{(0,) * nvars: 1}] + [{} for _ in range(order)]
    for exps, c, e in specs:
        for n in range(1, order + 1):
            terms = [
                (n * j, tuple(j * a for a in exps), binomial_coeff(e, j) * (-c) ** j)
                for j in range(order // n + 1)
            ]
            out = [{} for _ in range(order + 1)]
            for big_n, layer in enumerate(layers):
                for dq, dx, b in terms:
                    if big_n + dq > order:
                        break
                    target = out[big_n + dq]
                    for key, v in layer.items():
                        key = tuple(x + y for x, y in zip(key, dx))
                        target[key] = target.get(key, 0) + b * v
            layers = [{k: v for k, v in layer.items() if v} for layer in out]
    return layers


@st.composite
def kernel_inputs(draw):
    nvars = draw(st.integers(min_value=0, max_value=2))
    spec = st.tuples(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * nvars),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-40, max_value=40),
    )
    return draw(st.lists(spec, max_size=3)), draw(st.integers(min_value=0, max_value=10)), nvars


@given(kernel_inputs())
@settings(max_examples=60, deadline=None)
def test_euler_kernel_matches_binomial_product(inputs):
    # coefficients up to |c|^order C(|e| + order, order) test the packing width
    specs, order, nvars = inputs
    assert euler_int_layers(specs, order, nvars) == _binomial_layers(specs, order, nvars)


def test_euler_kernel_width_holds_a_coefficient_equal_to_its_majorant():
    # all of P_N sits on x^0 and equals the l1 majorant m_N, so a digit fills
    # its width whenever bits(m_N) is a multiple of 8 (e = 1, 9, 18, ...); the
    # c = 0 factor moves x^0 into a middle slot, where an overflow would carry
    # on silently
    for e in range(1, 41):
        expect = [{(0,): v} for layer in _binomial_layers([((), 9, -e)], 10, 0) for v in layer.values()]
        assert euler_int_layers([((0,), 9, -e), ((1,), 0, 1)], 10, 1) == expect


@pytest.mark.parametrize(
    "specs, order, nvars, power, bits",
    [
        ([((), 1, -1)], 40, 0, 300, 128),
        ([((1,), 9, -1), ((-2,), -1, 1)], 10, 1, 40, 64),
        ([((1,), 9, -3), ((-1,), 8, -2)], 16, 1, 60, 128),
        ([((1, 0), 9, -1), ((0, 1), 9, -1)], 12, 2, 40, 64),
    ],
)
def test_euler_kernel_big_coefficients_match_series_power(specs, order, nvars, power, bits):
    # the power of the product goes through QSeries.__pow__, not the kernel's
    # recurrence; eta_product(-1, 40) ** 300 == eta_product(-300, 40) is the first case
    scaled = [(x, c, e * power) for x, c, e in specs]
    layers = euler_int_layers(scaled, order, nvars)
    assert max(abs(v) for layer in layers for v in layer.values()).bit_length() > bits
    assert geom_factor_product(specs, order, nvars) ** power == geom_factor_product(scaled, order, nvars)


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


SIZE_REFUSALS = [
    ("refined-bool", lambda: refined_goettsche_res(True), "order must be an int, got bool True"),
    ("refined-float", lambda: refined_goettsche_res(2.0), "order must be an int, got float 2.0"),
    ("refined-negative", lambda: refined_goettsche_res(-1), "order must be >= 0, got -1"),
    ("bps-negative", lambda: bps_rational_elliptic(-1), "order must be >= 0, got -1"),
    ("eta-float", lambda: eta_product(-1, 2.0), "order must be an int, got float 2.0"),
    (
        "goettsche-float",
        lambda: goettsche_series(BettiVector(1, 0, 10, 0, 1), 2.0),
        "order must be an int, got float 2.0",
    ),
    ("kernel-negative", lambda: euler_int_layers([], -1, 0), "order must be >= 0, got -1"),
    ("series-float", lambda: QSeries([1], order=2.0), "order must be an int, got float 2.0"),
    ("series-bool", lambda: QSeries([1], order=True), "order must be an int, got bool True"),
    ("poly-weight", lambda: GradedPoly(4.0, {(0, 1, 0): 1}), "weight must be an int, got float 4.0"),
    (
        "poly-exponent",
        lambda: GradedPoly(4, {(0.0, 1, 0): 1}),
        "E2 exponent of (0.0, 1, 0) must be an int, got float 0.0",
    ),
    (
        "poly-exponent-bool",
        lambda: GradedPoly(6, {(1, True, 0): 1}),
        "E4 exponent of (1, True, 0) must be an int, got bool True",
    ),
]


@pytest.mark.parametrize(
    "build, message", [c[1:] for c in SIZE_REFUSALS], ids=[c[0] for c in SIZE_REFUSALS]
)
def test_series_kernels_refuse_inexact_or_negative_sizes(build, message):
    # each was accepted, or failed with an unrelated error, before the size checks
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
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
