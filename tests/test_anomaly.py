from __future__ import annotations

import json
import re
import time
from fractions import Fraction
from math import gcd

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bps_series import anomaly, cli
from bps_series.anomaly import (
    GradedPoly,
    InconsistentBoundary,
    MissingPrerequisite,
    UnderdeterminedBoundary,
    WeightMismatch,
    ZFunction,
    anomaly_rhs,
    d_E2,
    genus_series_n1,
    integrate_e2,
    realize,
    reference_solutions,
    solve_anomaly,
    triple_product_check,
    triple_product_rhs,
    verify_anomaly,
)
from bps_series.modular import eisenstein, zeta_even_ratio
from bps_series.qseries import QSeries
from bps_series.serialize import poly_to_json


def weight_monomials(weight):
    out = []
    for c in range(weight // 6 + 1):
        for b in range((weight - 6 * c) // 4 + 1):
            rest = weight - 4 * b - 6 * c
            if rest % 2 == 0:
                out.append((rest // 2, b, c))
    return out


def graded_polys(weight):
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=8)
    return st.dictionaries(
        st.sampled_from(weight_monomials(weight)), coeffs, max_size=4
    ).map(lambda d: GradedPoly(weight, d))


def test_constructor_validation():
    GradedPoly(6, {(1, 1, 0): 1})
    with pytest.raises(WeightMismatch):
        GradedPoly(6, {(1, 0, 1): 1})
    with pytest.raises(ValueError):
        GradedPoly(2, {(-1, 1, 0): 1})


def test_generators():
    assert GradedPoly.e2().weight == 2
    assert GradedPoly.e4().weight == 4
    assert GradedPoly.e6().weight == 6
    assert GradedPoly.e2().monomials == {(1, 0, 0): Fraction(1)}


def test_arithmetic_weights():
    p = GradedPoly.e2() * GradedPoly.e4()
    assert p.weight == 6
    assert p.monomials == {(1, 1, 0): Fraction(1)}
    with pytest.raises(WeightMismatch):
        p + GradedPoly.e2()
    assert (p - p) == GradedPoly(6, {})
    assert 3 * GradedPoly.e6() == GradedPoly(6, {(0, 0, 1): 3})


def test_d_e2_frozen_example():
    p = GradedPoly(8, {(2, 1, 0): Fraction(5, 1440)})
    assert d_E2(p) == GradedPoly(6, {(1, 1, 0): Fraction(1, 144)})


@given(
    st.sampled_from([0, 2, 4, 6, 8]).flatmap(lambda w: st.tuples(*[graded_polys(w)] * 2)),
    st.sampled_from([0, 2, 4, 6]).flatmap(graded_polys),
    st.sampled_from([2, 4, 6]).flatmap(graded_polys),
)
def test_graded_ring_axioms(same_weight, c, d):
    a, b = same_weight
    assert c * (a + b) == c * a + c * b
    assert (a * c) * d == a * (c * d)
    assert a + b == b + a
    assert not (a - a) and (a - a).monomials == {}
    product = a * c
    assert not product or product.weight == a.weight + c.weight
    assert all(2 * x + 4 * y + 6 * z == product.weight for x, y, z in product.monomials)
    if c and d and c.weight != d.weight:
        with pytest.raises(WeightMismatch):
            c + d


@given(st.sampled_from([4, 6, 8, 10, 12]).flatmap(graded_polys))
def test_integrate_then_differentiate(p):
    assert d_E2(integrate_e2(p)) == p


def test_rhs_first_examples():
    known = {(0, 1): GradedPoly.e4()}
    assert anomaly_rhs(1, 1, known) == GradedPoly(4, {(0, 1, 0): Fraction(1, 12)})
    assert anomaly_rhs(2, 0, known) == GradedPoly(
        8, {(0, 2, 0): Fraction(1, 24)}
    )


def test_rhs_missing_prerequisite():
    with pytest.raises(MissingPrerequisite) as exc_info:
        anomaly_rhs(2, 1, {(0, 1): GradedPoly.e4()})
    assert exc_info.value.key in {(1, 1), (0, 2), (1, 2)}


def test_reference_table_passes_verification():
    report = verify_anomaly(reference_solutions())
    assert report["all_ok"]
    assert report["constants"] == {1: Fraction(1, 12), 2: Fraction(1, 24)}
    assert all(entry["ok"] for entry in report["entries"])
    scaled = {
        (e["n"], e["g"]): e["scaled_by"]
        for e in report["entries"]
        if e["scaled_by"] is not None
    }
    assert scaled == {(1, 1): Fraction(1, 12), (2, 0): Fraction(1, 24)}


def test_verification_fails_on_perturbed_table():
    table = []
    for z in reference_solutions():
        if (z.n, z.g) == (1, 2):
            bad = dict(z.poly.monomials)
            bad[(2, 1, 0)] += 1
            table.append(ZFunction(z.n, z.g, GradedPoly(z.poly.weight, bad)))
        else:
            table.append(z)
    report = verify_anomaly(table)
    assert not report["all_ok"]
    failed = [(e["n"], e["g"]) for e in report["entries"] if not e["ok"]]
    # the broken equation itself plus every equation consuming its numerator
    assert failed == [(1, 2), (1, 3), (2, 2), (2, 3)]
    first = next(e for e in report["entries"] if (e["n"], e["g"]) == (1, 2))
    assert first["difference"] is not None


def test_verification_reports_a_family_with_no_constant():
    # d_E2(E2^3) = 3 E2^2 is no multiple of the right side E4 / 12, so the
    # family gets no constant and its entry fails, unscaled
    table = [ZFunction(1, 0, GradedPoly.e4()), ZFunction(1, 1, GradedPoly(6, {(3, 0, 0): 1}))]
    report = verify_anomaly(table)
    assert report["all_ok"] is False
    assert report["constants"] == {1: None}
    entry = report["entries"][1]
    assert (entry["ok"], entry["scaled_by"]) == (False, None)
    assert entry["difference"] == GradedPoly(4, {(2, 0, 0): 3, (0, 1, 0): Fraction(-1, 12)})
    assert report["normalized"][(1, 1)] is table[1].poly


def _normalized_reference():
    return verify_anomaly(reference_solutions())["normalized"]


def test_solver_recovers_reference_numerators():
    norm = _normalized_reference()
    for n, g, q_count in [(1, 2, 2), (1, 3, 3), (2, 1, 4), (2, 2, 5), (2, 3, 6)]:
        expect = norm[(g, n)]
        target = realize(expect, n, q_count + 2)
        known = {k: v for k, v in norm.items() if k != (g, n)}
        solved = solve_anomaly(n, g, known, [target[i] for i in range(q_count)])
        assert solved == expect, (n, g)


@pytest.mark.parametrize(
    "boundary, index", [([0.1], 0), (["1e3"], 0), ([1, 2.0], 1), ([True], 0), ([0, False], 1)]
)
def test_solver_refuses_non_exact_boundary(boundary, index):
    # Fraction(0.1) is the binary fraction 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match=rf"^coefficient at boundary\[{index}\]: "):
        solve_anomaly(1, 0, {}, boundary)
    assert solve_anomaly(1, 0, {}, [Fraction(3, 2)]) == GradedPoly(4, {(0, 1, 0): Fraction(3, 2)})


def test_solver_boundary_diagnostics():
    norm = _normalized_reference()
    with pytest.raises(UnderdeterminedBoundary):
        solve_anomaly(1, 2, norm, [])
    target = realize(norm[(2, 1)], 1, 6)
    bad = [target[0], target[1], target[2] + 1]
    with pytest.raises(InconsistentBoundary):
        solve_anomaly(1, 2, norm, bad)


# The shared core stores an int coefficient as an int, so every division the
# recursion makes must be exact: a float there is stored, and poly_to_json
# refuses it.


def _exact_coefficients(poly):
    return all(type(c) in (int, Fraction) for c in poly.monomials.values())


def _with_fractions(poly):
    return GradedPoly(poly.weight, {k: Fraction(c) for k, c in poly.monomials.items()})


def _json_bytes(poly):
    return json.dumps(poly_to_json(poly))


def test_integrate_e2_divides_int_coefficients_exactly():
    assert integrate_e2(GradedPoly(6, {(1, 1, 0): 1})).monomials == {(2, 1, 0): Fraction(1, 2)}
    p = GradedPoly(10, {(2, 0, 1): 3, (1, 2, 0): 1, (0, 1, 1): 2})
    got = integrate_e2(p)
    assert got.monomials == {(3, 0, 1): 1, (2, 2, 0): Fraction(1, 2), (1, 1, 1): 2}
    assert _exact_coefficients(got)
    assert _json_bytes(got) == _json_bytes(integrate_e2(_with_fractions(p)))


def test_verify_anomaly_divides_int_coefficients_exactly():
    given = reference_solutions()
    assert any(type(c) is int for z in given for c in z.poly.monomials.values())
    report = verify_anomaly(given)
    want = verify_anomaly([ZFunction(z.n, z.g, _with_fractions(z.poly)) for z in given])
    assert report["all_ok"]
    assert report["constants"] == {1: Fraction(1, 12), 2: Fraction(1, 24)}
    assert all(type(c) in (int, Fraction) for c in report["constants"].values())
    assert report["normalized"].keys() == want["normalized"].keys()
    for key, poly in report["normalized"].items():
        assert _exact_coefficients(poly), key
        assert _json_bytes(poly) == _json_bytes(want["normalized"][key]), key
    # an all-int family: its constant and its failed entry's difference
    family = [
        ZFunction(1, 0, GradedPoly(4, {(0, 1, 0): 1})),
        ZFunction(1, 1, GradedPoly(6, {(1, 1, 0): 12})),
        ZFunction(1, 2, GradedPoly(8, {(2, 1, 0): 1, (0, 2, 0): 3})),
    ]
    report = verify_anomaly(family)
    want = verify_anomaly([ZFunction(z.n, z.g, _with_fractions(z.poly)) for z in family])
    assert report["constants"] == {1: Fraction(1, 144)}
    assert [e["ok"] for e in report["entries"]] == [True, True, False]
    got_diff, want_diff = report["entries"][2]["difference"], want["entries"][2]["difference"]
    assert _exact_coefficients(got_diff) and _json_bytes(got_diff) == _json_bytes(want_diff)
    # a zero right side: the ratio's numerator is the int 0
    report = verify_anomaly(family[1:2] + [ZFunction(1, 0, GradedPoly(4))])
    assert report["constants"] == {1: 0} and type(report["constants"][1]) in (int, Fraction)


def test_solve_anomaly_divides_int_boundary_exactly():
    assert solve_anomaly(1, 0, {}, [2]).monomials == {(0, 1, 0): 2}
    norm = _normalized_reference()
    # one int boundary value per E4/E6 monomial: a square system
    for n, g, boundary in [(1, 0, [3]), (1, 2, [-1]), (2, 1, [1, 5]), (2, 3, [2, -7])]:
        known = {k: v for k, v in norm.items() if k != (g, n)}
        got = solve_anomaly(n, g, known, boundary)
        want = solve_anomaly(n, g, known, [Fraction(x) for x in boundary])
        assert realize(got, n, len(boundary) - 1).coeffs == boundary, (n, g)
        assert _exact_coefficients(got), (n, g)
        assert _json_bytes(got) == _json_bytes(want), (n, g)


def test_zfunction_weight_validation():
    ZFunction(1, 1, GradedPoly(6, {(1, 1, 0): 1}))
    with pytest.raises(ValueError):
        ZFunction(1, 1, GradedPoly(8, {(2, 1, 0): 1}))


def test_realized_base_expansion():
    series = realize(GradedPoly.e4(), 1, 4)
    assert [series[i] for i in range(5)] == [1, 252, 5130, 54760, 419895]


def test_zfunction_realize_matches_module_function():
    # a ZFunction's n fixes the eta power: its series is poly(E2, E4, E6)
    # times the 12n-th power of the partition series, built here from counts
    z = ZFunction(2, 0, GradedPoly(10, {(0, 1, 1): 1}))
    partitions = QSeries([oracles.partition_count_simple(k) for k in range(5)])
    expect = eisenstein(4, 4) * eisenstein(6, 4) * partitions ** (12 * z.n)
    assert realize(z.poly, z.n, 4) == expect


def _realized_by_fractions(poly, n, order):
    """poly(E2, E4, E6) / prod (1 - q^k)^(12 n) for n >= 0, every product a
    schoolbook Fraction product of the divisor-sum oracle's series."""
    e = {w: oracles.eisenstein_coeffs(w, order) for w in (2, 4, 6)}
    total = [Fraction(0)] * (order + 1)
    for (a, b, c), coeff in poly.monomials.items():
        term = [Fraction(coeff)] + [Fraction(0)] * order
        for w in [2] * a + [4] * b + [6] * c:
            term = oracles.series_mul_fractions(term, e[w])
        total = [x + y for x, y in zip(total, term)]
    partitions = [oracles.partition_count_simple(k) for k in range(order + 1)]
    for _ in range(12 * n):
        total = oracles.series_mul_fractions(total, partitions)
    return total


# every monomial of weight 24, the coefficients over distinct denominators
FULL_24 = GradedPoly(24, {key: Fraction(i, 7 + i) for i, key in enumerate(weight_monomials(24), 1)})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=9).flatmap(lambda h: graded_polys(2 * h)),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10),
)
@example(FULL_24, 2, 8)
@example(GradedPoly(0, {(0, 0, 0): 3}), 0, 2)
@example(GradedPoly(6), 1, 3)
def test_realize_matches_fraction_product(poly, n, order):
    # the integer numerator over one denominator, from cached monomials,
    # against a Fraction product built monomial by monomial
    got = realize(poly, n, order)
    assert got.order == order
    assert got.coeffs == _realized_by_fractions(poly, n, order)
    assert all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("key", [(1200, 0, 0), (0, 300, 700), (2, 300, 700)])
def test_realize_takes_exponents_past_the_recursion_limit(key):
    # a power is made from its halves, so the depth grows with log k and a
    # monomial of degree above the default limit of 1000 frames still builds
    a, b, c = key
    poly = GradedPoly(2 * a + 4 * b + 6 * c, {key: 1})
    assert realize(poly, 1, 2).coeffs == _realized_by_fractions(poly, 1, 2)


def test_genus_series_matches_realized_polynomials():
    norm = _normalized_reference()
    series = genus_series_n1(3, 8)
    for g in range(4):
        expect = realize(norm[(g, 1)], 1, 8)
        assert series[g] == expect, g


@pytest.mark.parametrize("g_max, q_order", [(0, 5), (6, 10), (12, 8)])
def test_genus_series_matches_resummation_exponential(g_max, q_order):
    # the exponential built lam-major from eisenstein and zeta_even_ratio,
    # independent of the product side genus_series_n1 reads its layers from
    exponent = [QSeries.zero(q_order) for _ in range(2 * g_max + 1)]
    for k in range(1, g_max + 1):
        exponent[2 * k] = (2 * zeta_even_ratio(k) / k) * eisenstein(2 * k, q_order)
    factor = QSeries(exponent, var="lam").exp()
    z0 = realize(GradedPoly.e4(), 1, q_order)
    series = genus_series_n1(g_max, q_order)
    assert len(series) == g_max + 1
    for g in range(g_max + 1):
        assert series[g] == z0 * factor[2 * g], g


def test_triple_product_identity():
    result = triple_product_check(6, 4)
    assert result["ok"]
    assert result["first_mismatch"] is None
    assert result["lambda_order"] == 6 and result["q_order"] == 4


def test_triple_product_rejects_tiny_orders():
    with pytest.raises(ValueError):
        triple_product_check(0, 4)
    with pytest.raises(ValueError):
        triple_product_check(6, 1)


@pytest.mark.parametrize("lambda_order, q_order", [(7, 5), (9, 4)])
def test_triple_product_identity_at_odd_lambda_order(lambda_order, q_order):
    result = triple_product_check(lambda_order, q_order)
    assert result["ok"], result["first_mismatch"]
    assert (result["lambda_order"], result["q_order"]) == (lambda_order, q_order)


REFUSALS = [
    (triple_product_check, (6.0, 4), "lambda_order must be an int, got float"),
    (triple_product_check, (6, True), "q_order must be an int, got bool"),
    (triple_product_rhs, (True, 4), "lambda_order must be an int, got bool"),
    (triple_product_rhs, (6, 4.0), "q_order must be an int, got float"),
    (genus_series_n1, (1.0, 4), "g_max must be an int, got float"),
    (genus_series_n1, (1, Fraction(4)), "q_order must be an int, got Fraction"),
    # a negative order is refused, not read as an order-0 product side
    (triple_product_rhs, (4, -1), "need lambda_order >= 0 and q_order >= 0, got 4 and -1"),
    (triple_product_rhs, (-1, 3), "need lambda_order >= 0 and q_order >= 0, got -1 and 3"),
    (genus_series_n1, (-1, 4), "need g_max >= 0 and q_order >= 0, got -1 and 4"),
    (genus_series_n1, (1, -1), "need g_max >= 0 and q_order >= 0, got 1 and -1"),
]


@pytest.mark.parametrize(
    "func, args, message", REFUSALS, ids=[f"{f.__name__}{a}" for f, a, _ in REFUSALS]
)
def test_resummation_refuses_bad_orders(func, args, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        func(*args)


E4 = GradedPoly.e4()
ARGUMENT_REFUSALS = {
    "realize-n-bool": (realize, (E4, True, 2), "n must be an int, got bool True"),
    "realize-n-float": (realize, (E4, 1.5, 2), "n must be an int, got float 1.5"),
    "realize-order-float": (realize, (E4, 1, 2.0), "order must be an int, got float 2.0"),
    "realize-order-negative": (realize, (E4, 1, -1), "truncation order must be >= 0"),
    "ZFunction-n-bool": (ZFunction, (True, 0, E4), "n must be an int, got bool True"),
    "ZFunction-g-float": (ZFunction, (1, 0.0, E4), "g must be an int, got float 0.0"),
    "anomaly_rhs-n-bool": (anomaly_rhs, (True, 0, {}), "n must be an int, got bool True"),
    "anomaly_rhs-g-float": (anomaly_rhs, (1, 1.5, {}), "g must be an int, got float 1.5"),
    "solve_anomaly-g-bool": (solve_anomaly, (1, True, {}, [1]), "g must be an int, got bool True"),
    "solve_anomaly-n-Fraction": (
        solve_anomaly, (Fraction(1), 0, {}, [1]), "n must be an int, got Fraction Fraction(1, 1)"
    ),
}


@pytest.mark.parametrize(
    "func, args, message", list(ARGUMENT_REFUSALS.values()), ids=list(ARGUMENT_REFUSALS)
)
def test_anomaly_entry_points_refuse_non_int_arguments(func, args, message):
    # a bool is not read as 0 or 1, and a float fails naming its argument,
    # not an internal call
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        func(*args)


@pytest.mark.parametrize(
    "lambda_order, q_order", [(8, 6), (10, 8), (12, 4), (7, 5), (9, 4), (0, 2), (2, 2), (7, 2)]
)
def test_triple_product_rhs_matches_generic_construction(lambda_order, q_order):
    expect = oracles.triple_product_rhs(lambda_order, q_order)
    got = triple_product_rhs(lambda_order, q_order)
    assert got.order == q_order
    for m in range(q_order + 1):
        assert got[m].order == lambda_order // 2
        for j in range(lambda_order // 2 + 1):
            assert got[m][j] == expect[m][2 * j], (m, j)
        assert not any(expect[m][1::2]), m


@pytest.mark.parametrize("lambda_order, q_order", [(0, 2), (2, 2), (7, 2), (9, 5), (12, 6)])
def test_exponential_rows_match_one_exp(lambda_order, q_order):
    # the exponential side as one QSeries.exp of the y-series of w_k E_{2k}
    half = lambda_order // 2
    exponent = [(2 * zeta_even_ratio(k) / k) * eisenstein(2 * k, q_order) for k in range(1, half + 1)]
    expect = QSeries([QSeries.zero(q_order), *exponent], var="y").exp()
    rows = anomaly._exponential_rows(lambda_order, q_order)
    assert len(rows) == half + 1
    for j, (nums, den) in enumerate(rows):
        assert [Fraction(x, den) for x in nums] == expect[j].coeffs, j
        assert gcd(den, *nums) == 1, j  # each row reduced by its content


def test_resummation_sides_stay_independent(monkeypatch):
    def refuse(*args):
        raise RuntimeError("one side of the resummation called the other's kernels")

    for name in ("euler_int_layers", "_sin_power_cached"):
        monkeypatch.setattr(anomaly, name, refuse)
    anomaly._exponential_rows(8, 4)
    monkeypatch.undo()
    for name in ("eisenstein", "zeta_even_ratio"):
        monkeypatch.setattr(anomaly, name, refuse)
    anomaly._product_rows(8, 4)


def test_triple_product_check_is_fast():
    start = time.monotonic()
    assert triple_product_check(20, 20)["ok"]
    assert time.monotonic() - start < 0.5


def _corrupt_zeta_ratio(monkeypatch):
    real = anomaly.zeta_even_ratio
    monkeypatch.setattr(
        anomaly, "zeta_even_ratio", lambda k: real(k) + (1 if k == 2 else 0)
    )


def _corrupt_product_layer(monkeypatch, m):
    real = anomaly.euler_int_layers

    def perturbed(specs, order, nvars):
        layers = real(specs, order, nvars)
        layers[m][(1,)] = layers[m].get((1,), 0) + 1
        return layers

    monkeypatch.setattr(anomaly, "euler_int_layers", perturbed)


def test_triple_product_check_catches_left_side_fault(monkeypatch):
    _corrupt_zeta_ratio(monkeypatch)
    result = triple_product_check(8, 6)
    assert result["ok"] is False
    mismatch = result["first_mismatch"]
    assert (mismatch["lambda"], mismatch["q"]) == (4, 0)
    assert mismatch["lhs"] - mismatch["rhs"] == 1


@pytest.mark.parametrize("m", [1, 3, 6])
def test_triple_product_check_catches_product_side_fault(monkeypatch, m):
    _corrupt_product_layer(monkeypatch, m)
    result = triple_product_check(8, 6)
    assert result["ok"] is False
    mismatch = result["first_mismatch"]
    assert (mismatch["lambda"], mismatch["q"]) == (0, m)
    assert mismatch["rhs"] - mismatch["lhs"] == 1


def test_triple_product_command_reports_mismatch(monkeypatch, tmp_path):
    _corrupt_zeta_ratio(monkeypatch)
    out = tmp_path / "out.json"
    argv = ["triple-product-check", "--lambda-order", "8", "--q-order", "4"]
    assert cli.main([*argv, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    assert (doc["lambda_order"], doc["q_order"]) == (8, 4)
    mismatch = doc["first_mismatch"]
    assert (mismatch["lambda"], mismatch["q"]) == (4, 0)
    for side in ("lhs", "rhs"):
        assert re.fullmatch(r"-?[0-9]+(/[0-9]+)?", mismatch[side])
    assert Fraction(mismatch["lhs"]) - Fraction(mismatch["rhs"]) == 1
