"""Cost bounds that do not depend on the machine: the number of Fraction
objects a call makes, and the number of C functions it calls.

A count is fixed for a given call and interpreter.  Caches only lower it, so
each bound, set above the count with cold caches, holds in any test order.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from operator import add, mul

import pytest
from costs import c_calls_made, counting_fractions, fractions_made

from bps_series.anomaly import GradedPoly, genus_series_n1, realize, triple_product_check
from bps_series import anomaly, gvtransform, modular, sl2
from bps_series.goettsche import (
    BettiVector,
    bps_rational_elliptic,
    goettsche_series,
    refined_goettsche_res,
)
from bps_series.gvtransform import (
    InvariantTable,
    gv_from_gw,
    gw_from_gv,
    iter_classes,
    roundtrip_check,
)
from bps_series.modular import eisenstein, zeta_even_ratio
from bps_series.qseries import QSeries, eta_product, euler_int_layers
from bps_series.serialize import poly_from_json, table_from_json, table_text, table_to_json


def test_counter_sees_every_maker_and_restores_it():
    saved = dict(vars(Fraction))
    assert fractions_made(Fraction, 1, 3) == 1
    # arithmetic makes its result through __new__ up to CPython 3.11 and
    # through _from_coprime_ints from 3.12 on
    assert fractions_made(mul, Fraction(1, 3), Fraction(3, 5)) == 1
    assert fractions_made(add, Fraction(1, 3), Fraction(1, 5)) == 1
    assert fractions_made(add, 1, 2) == 0
    with counting_fractions() as count:
        Fraction(2, 4) + Fraction(1, 2)
    assert count == [3]
    assert dict(vars(Fraction)) == saved


def test_c_call_counter_sees_each_builtin_call_and_restores_the_hook():
    def hook(frame, event, arg):
        pass

    saved = sys.getprofile()
    sys.setprofile(hook)
    try:
        # the counter's own sys.setprofile on the way out is the one extra call
        assert c_calls_made(lambda: None) == 1
        assert c_calls_made(lambda: [abs(-1) for _ in range(5)]) == 6
        assert sys.getprofile() is hook
    finally:
        sys.setprofile(saved)


@pytest.mark.parametrize(
    "build, args, bound",
    [
        # goettsche_series's specs for BettiVector(2, 4, 22, 4, 2): 1,040 C
        # calls on CPython 3.11; the recurrence over dict terms made 52,950
        (
            euler_int_layers,
            ([((-2,), 1, -2), ((-1,), -1, 4), ((0,), 1, -22), ((1,), -1, 4), ((2,), 1, -2)], 20, 1),
            2_500,
        ),
        # refined_goettsche_res's half A(x): 428; 9,182 over dict terms
        (euler_int_layers, ([((1,), 1, -1), ((-1,), 1, -1), ((0,), 1, -4)], 16, 1), 1_000),
        # 82; 1,091 over dict terms
        (eta_product, (-12, 24), 250),
    ],
    ids=["betti_spec", "refined_half", "eta_product"],
)
def test_euler_kernel_c_call_counts(build, args, bound):
    # one big-int multiply per recurrence term; the dict recurrence made one
    # dict.get per product of terms and fails every bound
    assert c_calls_made(build, *args) <= bound


@pytest.mark.parametrize(
    "build, args",
    [
        (bps_rational_elliptic, (16,)),
        (refined_goettsche_res, (16,)),
        (goettsche_series, (BettiVector(2, 4, 22, 4, 2), 20)),
    ],
)
def test_hilbert_pipeline_makes_no_fraction(build, args):
    # the integer Euler kernel's layers are stored and peeled as ints; wrapping
    # them in Fractions made 6,851, 3,281 and 861 here
    assert fractions_made(build, *args) == 0


def _bps_from_character_of_layer(g):
    layer = refined_goettsche_res(g)[g]
    sl2.i_basis_char.cache_clear()
    return c_calls_made(sl2.bps_from_character, layer)


def _bi_decompose_of_layer(g):
    layer = refined_goettsche_res(g)[g]
    sl2.spin_char.cache_clear()
    return c_calls_made(sl2.bi_decompose, layer)


def _bps_rational_elliptic(g):
    sl2.i_basis_char.cache_clear()
    return c_calls_made(bps_rational_elliptic, g)


@pytest.mark.parametrize(
    "count, arg, bound",
    [
        # 1,196 on CPython 3.10-3.13, one sum per symmetry class; the loop
        # over pairs of half-layer terms made 16,159
        (partial(c_calls_made, refined_goettsche_res), 16, 2_000),
        # with a cold i_basis_char cache: 3,225; peeling dict rows of tR
        # exponents made 9,368
        (_bps_from_character_of_layer, 14, 5_000),
        # 16,263; the pair loop and the dict-row peel made 50,737
        (_bps_rational_elliptic, 14, 25_000),
        # with a cold spin_char cache: 3,242; building every spin character
        # anew on each call made 7,027
        (_bi_decompose_of_layer, 16, 4_000),
    ],
    ids=["refined_goettsche_res", "bps_from_character", "bps_rational_elliptic", "bi_decompose"],
)
def test_hilbert_pipeline_c_call_counts(count, arg, bound):
    # one dot product per symmetry class of refined coefficients, and one
    # packed int per tR row in the peel
    assert count(arg) <= bound


def _empty_resummation_caches():
    # emptied caches give the count of a fresh process, not a lower one
    gvtransform._sin_power_cached.cache_clear()
    modular._eisenstein_row.cache_clear()
    del modular._even_bernoulli[1:]
    anomaly._monomial.cache_clear()


@pytest.mark.parametrize(
    "build, args, bound",
    [
        # the even ones from the tangent numbers, one Fraction each: 12; the
        # binomial recurrence over Fraction made 672 on CPython 3.10/3.11 and
        # 996 on 3.12/3.13
        (modular.bernoulli, (24,), 15),
        # one per coefficient from the integer row, plus the Bernoulli
        # numbers and the series' zero: 34 and 35; a Fraction scaled per
        # coefficient made 697 and 1,042
        (eisenstein, (24, 20), 40),
    ],
    ids=["bernoulli", "eisenstein"],
)
def test_modular_fraction_counts(build, args, bound):
    _empty_resummation_caches()
    assert fractions_made(build, *args) <= bound


# the weight-40 numerator with each of its 44 monomials at coefficient 1
WEIGHT_40 = GradedPoly(
    40,
    {(a, b, c): 1 for a in range(21) for b in range(11) for c in range(7) if a + 2 * b + 3 * c == 20},
)


def test_realize_fraction_count():
    # with cold caches: 171 on CPython 3.10/3.11 and 175 on 3.12/3.13, the
    # E2, E4 and E6 series read from eisenstein, the Bernoulli numbers behind
    # them and one per output coefficient; summing QSeries products of
    # Eisenstein powers over Fraction made 21,863 and 22,852
    _empty_resummation_caches()
    assert len(WEIGHT_40.monomials) == 44
    assert fractions_made(realize, WEIGHT_40, 4, 40) <= 200


def test_triple_product_check_fraction_count():
    _empty_resummation_caches()
    # with cold caches: 30 on CPython 3.10/3.11 and 50 on 3.12/3.13 (see
    # costs.py for why they differ), all from zeta_even_ratio and the
    # Bernoulli numbers behind it; the Eisenstein series as Fraction series
    # and the Bernoulli recurrence made 750 and 1,210, the h = 0
    # kernel row over Fraction 937 and 1,472, both sides as Fraction
    # series, the exponential one from one exp, 5,844 and 8,083, the
    # exponential side as exp of its q^0 part times exp of the rest 9,803 and
    # 13,340, inverting a cosine series for the prefactor 10,012 and 13,506,
    # adding each exponent term into its own series 15,515 and 19,852, and
    # the term-by-term Fraction product 133,300
    bound = 40 if sys.version_info < (3, 12) else 60
    assert fractions_made(triple_product_check, 20, 20) <= bound


def test_genus_series_fraction_count():
    # with cold caches: 266 on CPython 3.10/3.11 and 278 on 3.12/3.13; Z_0
    # from realize's QSeries products made 404 and 426, the Bernoulli
    # recurrence 470 and 579, the h = 0 kernel row over Fraction 657 and 841,
    # and the product side as a Fraction series times Z_0 1,185 and 1,435
    _empty_resummation_caches()
    bound = 300
    assert fractions_made(genus_series_n1, 10, 20) <= bound


def test_nested_exp_fraction_count():
    # the exponential of the triple product's y-series at (20, 20): 3,136 on
    # CPython 3.10/3.11 and 3,742 on 3.12/3.13; scaling j * a_j once per
    # pair (n, j) instead of once per j made 4,126 and 5,722
    exponent = [(2 * zeta_even_ratio(k) / k) * eisenstein(2 * k, 20) for k in range(1, 11)]
    series = QSeries([QSeries.zero(20), *exponent], var="y")
    assert fractions_made(series.exp) <= 3_900


# rank 2, degree weights (1, 1), genus <= 3, degree <= 8, every slot 1
RANK_TWO = InvariantTable(
    "bps", 2, (1, 1), 3, 8, {(h, cls): 1 for cls in iter_classes(2, (1, 1), 8) for h in range(4)}
)


@pytest.mark.parametrize(
    "transform, table",
    [
        # with Fraction GW entries and the sin-power kernel over Fraction, 396
        # on CPython 3.10/3.11 and 461 on 3.12/3.13
        (gw_from_gv, RANK_TWO),
        # 176 and 241 with the Fraction kernel; the peel over Fraction made
        # 1,774 and 1,814
        (gv_from_gw, gw_from_gv(RANK_TWO, 6)),
        # 482 and 572; 2,080 and 2,145 with the Fraction peel
        (roundtrip_check, RANK_TWO),
    ],
    ids=["gw_from_gv", "gv_from_gw", "roundtrip_check"],
)
def test_transform_fraction_counts(transform, table):
    # emptied caches give the count of a fresh process, not a lower one; GW
    # values are reduced int pairs and the kernel rows ints, so none is made
    gvtransform._sin_power_cached.cache_clear()
    assert fractions_made(transform, table, 6) == 0


RANK_TWO_GW = json.loads(table_text(gw_from_gv(RANK_TWO, 6)))


@pytest.mark.parametrize(
    "codec",
    [
        table_from_json,
        # the writers alone make none from a table of either form, so each
        # is pinned on what it writes in a job: the decoded document
        lambda doc: table_text(table_from_json(doc)),
        lambda doc: table_to_json(table_from_json(doc)),
    ],
    ids=["table_from_json", "table_text", "table_to_json"],
)
def test_table_codecs_make_no_fraction(codec):
    # decoding each GW value of the RANK_TWO document into a Fraction made 220
    assert fractions_made(codec, RANK_TWO_GW) == 0


# a weight-72 numerator with every one of its 127 monomials, coefficients
# i/7 for i = 1..127
NUMERATOR = {
    "weight": 72,
    "monomials": [
        {"e2": a, "e4": b, "e6": c, "coeff": f"{i}/7"}
        for i, (a, b, c) in enumerate(
            ((a, b, (36 - a - 2 * b) // 3) for a in range(37) for b in range(19)
             if 36 - a - 2 * b >= 0 and (36 - a - 2 * b) % 3 == 0),
            start=1,
        )
    ],
}


def test_numerator_decoder_makes_one_graded_poly(monkeypatch):
    # adding each monomial's own GradedPoly into the running sum made 255
    # (one per monomial and one per sum), and quadratic work in collect
    made = [0]
    init = GradedPoly.__init__

    def counted(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(GradedPoly, "__init__", counted)
    poly = poly_from_json(NUMERATOR)
    assert made == [1]
    assert len(NUMERATOR["monomials"]) == len(poly.monomials) == 127
