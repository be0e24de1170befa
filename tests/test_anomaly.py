from __future__ import annotations

import json
import re
import time
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
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


@pytest.mark.parametrize("lambda_order, q_order", [(8, 6), (10, 8), (12, 4)])
def test_triple_product_rhs_matches_generic_construction(lambda_order, q_order):
    expect = oracles.triple_product_rhs(lambda_order, q_order)
    got = triple_product_rhs(lambda_order, q_order)
    assert got.order == q_order
    for m in range(q_order + 1):
        assert got[m].order == lambda_order
        for e in range(lambda_order + 1):
            assert got[m][e] == expect[m][e], (m, e)


def test_triple_product_check_is_fast():
    start = time.monotonic()
    assert triple_product_check(20, 20)["ok"]
    assert time.monotonic() - start < 5.0


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
