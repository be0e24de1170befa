from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bps_series.anomaly import GradedPoly
from bps_series.gvtransform import LambdaSeries
from bps_series.laurent import LaurentPoly, digit_sum, pack_width, unpack


def poly_strategy(nvars):
    exps = st.tuples(*([st.integers(min_value=-3, max_value=3)] * nvars))
    coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
    return st.dictionaries(exps, coeffs, max_size=6).map(
        lambda d: LaurentPoly(d, nvars=nvars)
    )


def test_construction_drops_zeros():
    p = LaurentPoly({(1,): Fraction(0), (0,): 2}, nvars=1)
    assert p.terms == {(0,): Fraction(2)}
    assert not LaurentPoly({}, nvars=1)


def test_var_and_const():
    t = LaurentPoly({(1,): 1}, nvars=1)
    assert t.terms == {(1,): Fraction(1)}
    assert LaurentPoly.const(3, nvars=2).terms == {(0, 0): Fraction(3)}


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPoly({(1, 2): 1}, nvars=1)
    a = LaurentPoly({(1,): 1}, nvars=1)
    b = LaurentPoly({(1, 0): 1}, nvars=2)
    with pytest.raises(ValueError):
        a + b


@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == LaurentPoly({}, nvars=2)


def test_subs_one_and_diagonal_and_eval():
    p = LaurentPoly({(1, -1): 1, (0, 1): 3}, nvars=2)
    assert p.subs_one(1) == LaurentPoly({(1,): 1, (0,): 3}, nvars=1)
    assert p.diagonal() == LaurentPoly({(0,): 1, (1,): 3}, nvars=1)
    assert p.eval_ones() == 4


@given(poly_strategy(1))
def test_embed_then_project_round_trips(p):
    wide = p.embed(2, 0)
    assert wide.subs_one(1) == p
    assert wide.nvars == 2


# each builder stores one coefficient x under the key it is paired with
CONSTRUCTORS = [
    (lambda x: LaurentPoly({(0,): x}, nvars=1), "(0,)"),
    (lambda x: LaurentPoly.const(x, nvars=2), "(0, 0)"),
    (lambda x: GradedPoly(4, {(0, 1, 0): x}), "(0, 1, 0)"),
    (lambda x: LambdaSeries({0: x}, 4), "0"),
]


@pytest.mark.parametrize("build, key", CONSTRUCTORS)
def test_constructors_refuse_floats(build, key):
    # the shared core stores exact coefficients as given: an int stays an int
    for exact in (3, Fraction(1, 4)):
        (stored,) = next(v for v in vars(build(exact)).values() if isinstance(v, dict)).values()
        assert type(stored) is type(exact) and stored == exact
    for bad in (0.1, 0.25, 1.0):
        with pytest.raises(ValueError, match=rf"^coefficient at {re.escape(key)}: float "):
            build(bad)


@pytest.mark.parametrize("build, key", CONSTRUCTORS)
def test_constructors_refuse_bools(build, key):
    # bool is a subclass of int, but True is no coefficient: it used to be stored as 1
    for bad in (True, False):
        with pytest.raises(ValueError, match=rf"^coefficient at {re.escape(key)}: bool {bad}"):
            build(bad)


@pytest.mark.parametrize(
    "bound, w", [(0, 8), (127, 8), (128, 16), (2**15 - 1, 16), (2**15, 24), (2**63, 72)]
)
def test_pack_width_at_each_byte_edge(bound, w):
    assert pack_width(bound) == w


@pytest.mark.parametrize("w", [8, 16, 64])
def test_codec_reads_back_the_largest_digits_and_trailing_zeros(w):
    # every digit and every digit sum is inside (-2^(w-1), 2^(w-1)), as the
    # callers' majorants prove; the trailing zero digits are counted but absent
    top = (1 << (w - 1)) - 1
    for digits in (
        [top], [-top], [top, 0, 0], [-top, 0, 0, 0], [0, top, -top, top, 0], [-top, top, -top, 0], [0, 0],
    ):
        packed = sum(d << w * i for i, d in enumerate(digits))
        assert unpack(packed, w, len(digits)) == {i: d for i, d in enumerate(digits) if d}
        assert digit_sum(packed, w) == sum(digits)
