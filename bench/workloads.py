"""Seeded job lists for the three workloads, with one output check per job.

A workload is a list of bps-series command lines.  The sizes of its jobs are
a fixed multiset spanning the ranges each workload is meant to cover, so the
amount of work per run barely depends on the seed; the seed picks the job
order and the inputs (Betti vectors, BPS tables, off-image entries, anomaly
boundary lengths, output formats).

Each check returns None when the output is right and a one-line reason
otherwise.  Expected values come from oracle.py, never from bps_series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import oracle


@dataclass
class Job:
    kind: str
    argv: list
    check: Callable  # (exit code, output bytes) -> None | str


def _expect_bytes(code, payload, exit_code, out):
    if exit_code != code:
        return f"exit {exit_code}, expected {code}"
    if out != (json.dumps(payload, indent=2) + "\n").encode():
        return f"output differs from {payload}"
    return None


def _load(exit_code, out):
    if exit_code != 0:
        raise ValueError(f"exit {exit_code}, expected 0")
    return json.loads(out)


def _checked(fn):
    """Turn a ValueError or malformed output inside a check into its reason."""

    def check(*args):
        try:
            return fn(*args)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return check


@lru_cache(maxsize=None)
def _euler(factors, order):
    return oracle.euler_product(factors, order)


# -- hilbert -------------------------------------------------------------------

RATIONAL_ELLIPTIC_G = (6, 7, 8, 9, 10, 11, 12, 13, 14, 8, 9, 10, 12, 14)
REFINED_G = (8, 9, 10, 11, 12, 13, 14, 15, 16, 10, 12, 14, 16)
BETTI_G = (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)

# prod 1/(1-q^n)^12: every variable at 1.  prod 1/((1+q^n)^4 (1-q^n)^8): the
# refined product at tL = 1, tR = -1, equal to the u-expansion at t = -1.
_ALL_ONES = ((-1, -12),)
_TWISTED = ((1, -4), (-1, -8))


@_checked
def _check_rational_elliptic(g_max, exit_code, out):
    """n_0(C+gF) is the q^g coefficient at t = 1 (u = 0); sum_h n_h 4^h is the
    coefficient at t = -1 (u = 4)."""
    if exit_code != 0:
        return f"exit {exit_code}, expected 0"
    lines = out.decode().splitlines()
    if not lines[0].startswith("# convention: ") or lines[1] != "# g\th\tn_h":
        return "bad TSV header"
    layers = {}
    for line in lines[2:]:
        g, h, n = (int(x) for x in line.split("\t"))
        layers.setdefault(g, {})[h] = n
    if set(layers) != set(range(g_max + 1)):
        return f"layers {sorted(layers)} for g_max {g_max}"
    at_one, at_minus = _euler(_ALL_ONES, g_max), _euler(_TWISTED, g_max)
    for g, layer in layers.items():
        if layer.get(0, 0) != at_one[g]:
            return f"n_0 at g={g} is {layer.get(0)}, expected {at_one[g]}"
        if sum(n * 4**h for h, n in layer.items()) != at_minus[g]:
            return f"sum n_h 4^h at g={g} differs from {at_minus[g]}"
    return None


def _laurent_layers(doc, order):
    if doc["var"] != "q" or doc["order"] != order or len(doc["coeffs"]) != order + 1:
        raise ValueError("bad series header")
    return [
        {tuple(t["exps"]): Fraction(t["coeff"]) for t in terms} for terms in doc["coeffs"]
    ]


@_checked
def _check_refined(g_max, exit_code, out):
    layers = _laurent_layers(_load(exit_code, out), g_max)
    at_one, at_minus = _euler(_ALL_ONES, g_max), _euler(_TWISTED, g_max)
    for n, p in enumerate(layers):
        if sum(p.values()) != at_one[n]:
            return f"q^{n} at tL = tR = 1 differs"
        if sum(c * (-1) ** b for (a, b), c in p.items()) != at_minus[n]:
            return f"q^{n} at tL = 1, tR = -1 differs"
        if p != {(b, a): c for (a, b), c in p.items()} or p != {
            (-a, -b): c for (a, b), c in p.items()
        }:
            return f"q^{n} is not symmetric"
    return None


@_checked
def _check_betti(betti, g_max, exit_code, out):
    """At t = 1 the product is prod (1+q^n)^(b1+b3) / (1-q^n)^(b0+b2+b4); at
    t = -1 it is prod (1-q^n)^(b1+b3-b0-b2-b4)."""
    b0, b1, b2, b3, b4 = betti
    layers = _laurent_layers(_load(exit_code, out), g_max)
    at_one = _euler(((1, b1 + b3), (-1, -(b0 + b2 + b4))), g_max)
    at_minus = _euler(((-1, b1 + b3 - b0 - b2 - b4),), g_max)
    for n, p in enumerate(layers):
        if sum(p.values()) != at_one[n]:
            return f"q^{n} at t = 1 differs"
        if sum(c * (-1) ** e for (e,), c in p.items()) != at_minus[n]:
            return f"q^{n} at t = -1 differs"
        if p != {(-e,): c for (e,), c in p.items()}:
            return f"q^{n} is not symmetric"
    return None


def hilbert(rng, files):
    jobs = [
        Job(
            "bps-rational-elliptic",
            ["bps-rational-elliptic", "--gmax", str(g)],
            partial(_check_rational_elliptic, g),
        )
        for g in RATIONAL_ELLIPTIC_G
    ]
    jobs += [
        Job(
            "goettsche-refined",
            ["goettsche", "--refined", "--gmax", str(g)],
            partial(_check_refined, g),
        )
        for g in REFINED_G
    ]
    for g in BETTI_G:
        b0, b1, b2 = rng.randint(1, 2), rng.randint(1, 4), rng.randint(1, 22)
        betti = (b0, b1, b2, b1, b0)
        jobs.append(
            Job(
                "goettsche-betti",
                ["goettsche", "--betti", ",".join(map(str, betti)), "--gmax", str(g)],
                partial(_check_betti, betti, g),
            )
        )
    rng.shuffle(jobs)
    return jobs


# -- transform -----------------------------------------------------------------

# (rank, max_degree, max_genus) of the seeded BPS tables; degree weights are 1.
TABLE_SHAPES = (
    (1, 60, 10), (1, 45, 7), (1, 30, 10), (1, 60, 4),
    (2, 24, 10), (2, 18, 7), (2, 12, 10), (2, 24, 4),
    (3, 12, 10), (3, 10, 7), (3, 8, 10), (3, 12, 4),
)
# Shapes whose GW table is also pushed off the integer image (5 jobs in 41).
OFF_IMAGE_SHAPES = (0, 3, 5, 8, 10)
DENSITY = 0.3
MAX_VALUE = 10**6


def _classes(rank, max_degree):
    """Nonzero classes of Z_{>=0}^rank with degree <= max_degree."""
    out = [()]
    for _ in range(rank):
        out = [c + (i,) for c in out for i in range(max_degree + 1)]
    return [c for c in out if 0 < sum(c) <= max_degree]


def _table_doc(kind, rank, max_genus, max_degree, entries):
    return {
        "rank": rank,
        "degree_weights": [1] * rank,
        "kind": kind,
        "max_genus": max_genus,
        "max_degree": max_degree,
        "entries": [
            {"genus": g, "class": list(cls), "value": str(v)}
            for (g, cls), v in sorted(entries.items())
        ],
    }


@_checked
def _check_table(header, expected, exit_code, out):
    doc = _load(exit_code, out)
    got_header = {k: doc[k] for k in header}
    if got_header != header:
        return f"header {got_header}, expected {header}"
    got = {(e["genus"], tuple(e["class"])): Fraction(e["value"]) for e in doc["entries"]}
    if len(got) != len(doc["entries"]):
        return "duplicate entries"
    if got != expected:
        wrong = sorted(set(got.items()) ^ set(expected.items()))[:3]
        return f"{len(set(got.items()) ^ set(expected.items()))} entries differ, e.g. {wrong}"
    return None


def _random_bps(rng, classes, max_genus):
    """A DENSITY share of the (h, class) slots, drawn at random, gets a
    nonzero value in [-MAX_VALUE, MAX_VALUE]."""
    slots = [(h, cls) for cls in classes for h in range(max_genus + 1)]
    return {
        slot: rng.choice((-1, 1)) * rng.randint(1, MAX_VALUE)
        for slot in rng.sample(slots, round(DENSITY * len(slots)))
    }


def _off_image(rng, classes, max_degree, max_genus, bps, gw):
    """A GW table shifted by a non-integral amount at (h, beta) for a class
    beta of top degree.  gv_from_gw solves every earlier class and every lower
    h exactly, then meets n_h(beta) + shift: the exit-1 payload is known."""
    beta = rng.choice([c for c in classes if sum(c) == max_degree])
    h = rng.randint(0, max_genus)
    den = rng.randint(2, 9)
    shift = Fraction(rng.choice([x for x in range(1, 3 * den) if x % den]), den)
    off = dict(gw)
    off[(h, beta)] = off.get((h, beta), 0) + shift
    payload = {
        "ok": False,
        "error": "non-integral BPS invariant",
        "class": list(beta),
        "h": h,
        "value": str(bps.get((h, beta), 0) + shift),
    }
    return off, payload


def transform(rng, files):
    jobs = []
    for index, (rank, max_degree, max_genus) in enumerate(TABLE_SHAPES):
        classes = _classes(rank, max_degree)
        bps = _random_bps(rng, classes, max_genus)
        gw = oracle.gw_from_bps(bps, max_genus, max_degree)

        def write(name, kind, entries):
            return files.write(f"{name}{index}.json", _table_doc(kind, rank, max_genus, max_degree, entries))

        bps_path, gw_path = write("bps", "bps", bps), write("gw", "gw", gw)
        header = {"rank": rank, "degree_weights": [1] * rank, "max_genus": max_genus, "max_degree": max_degree}
        lambda_order = str(2 * max_genus - 2)
        jobs += [
            Job(
                "gw-from-gv",
                ["gw-from-gv", "--in", bps_path, "--lambda-order", lambda_order],
                partial(_check_table, {**header, "kind": "gw"}, gw),
            ),
            Job(
                "gv-from-gw",
                ["gv-from-gw", "--in", gw_path],
                partial(_check_table, {**header, "kind": "bps"}, {k: Fraction(v) for k, v in bps.items()}),
            ),
            Job(
                "roundtrip-check",
                ["roundtrip-check", "--in", bps_path],
                partial(_expect_bytes, 0, {"ok": True, "diffs": []}),
            ),
        ]
        if index in OFF_IMAGE_SHAPES:
            off, payload = _off_image(rng, classes, max_degree, max_genus, bps, gw)
            jobs.append(
                Job(
                    "gv-from-gw-off-image",
                    ["gv-from-gw", "--in", write("off", "gw", off)],
                    partial(_expect_bytes, 1, payload),
                )
            )
    rng.shuffle(jobs)
    return jobs


# -- resummation ---------------------------------------------------------------

TRIPLE_ORDERS = tuple((lam, q) for lam in (8, 10, 12) for q in (8, 10, 12))
GENUS_ORDERS = ((12, 24), (10, 20), (8, 16), (6, 24), (12, 12), (4, 8), (2, 24))
# (weight, order): the heaviest coefficients meet the shortest series.
EISENSTEIN_SIZES = (
    (2, 200), (4, 180), (6, 160), (8, 140), (10, 120),
    (12, 100), (16, 80), (18, 60), (22, 40), (24, 20),
)
# Prefix-closed subsets of the numerator table: fiber degree 1 up to genus a,
# fiber degree 2 up to genus b <= a (-1: none).
VERIFY_SUBSETS = ((0, -1), (1, 0), (2, -1), (2, 1), (3, 2), (3, 3))


def _series_coeffs(doc, order):
    if doc["var"] != "q" or doc["order"] != order or len(doc["coeffs"]) != order + 1:
        raise ValueError("bad series header")
    return [Fraction(c) for c in doc["coeffs"]]


@_checked
def _check_eisenstein(weight, order, fmt, exit_code, out):
    if fmt == "json":
        coeffs = _series_coeffs(_load(exit_code, out), order)
    else:
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        rows = [line.split("\t") for line in out.decode().splitlines()]
        if [int(i) for i, _ in rows] != list(range(order + 1)):
            return "bad TSV rows"
        coeffs = [Fraction(c) for _, c in rows]
    if coeffs != oracle.eisenstein(weight, order):
        return "coefficients differ from sigma / Bernoulli"
    return None


@_checked
def _check_genus_series(g_max, q_order, fmt, exit_code, out):
    """Z_0 = E4 / prod (1-q^n)^12, and the q^0 term of Z_g is [y^g] of
    lam^2 / (2 sin(lam/2))^2 = S(y)^(-2)."""
    if fmt == "json":
        series = [_series_coeffs(s, q_order) for s in _load(exit_code, out)["genus_series"]]
    else:
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        lines = out.decode().splitlines()
        if lines[0] != "# g\tpower\tcoeff":
            return "bad TSV header"
        series = [[None] * (q_order + 1) for _ in range(g_max + 1)]
        for line in lines[1:]:
            g, i, c = line.split("\t")
            series[int(g)][int(i)] = Fraction(c)
        if len(lines) != 1 + (g_max + 1) * (q_order + 1):
            return "bad TSV row count"
    if len(series) != g_max + 1:
        return f"{len(series)} genus series, expected {g_max + 1}"
    z0 = oracle.series_mul(oracle.eisenstein(4, q_order), _euler(((-1, -12),), q_order))
    if series[0] != z0:
        return "Z_0 differs from E4 / eta^12"
    if [s[0] for s in series] != oracle.sinc_power(-2, g_max):
        return "q^0 terms differ from (lam/2 / sin(lam/2))^2"
    return None


@_checked
def _check_solve(n, g, expected, exit_code, out):
    doc = _load(exit_code, out)
    got = {(m["e2"], m["e4"], m["e6"]): Fraction(m["coeff"]) for m in doc["monomials"]}
    if doc["weight"] != 2 * g + 6 * n - 2 or got != expected:
        return f"numerator (n={n}, g={g}) differs"
    return None


def _verify_report(keys):
    constants, entries = {}, []
    for key in keys:
        scaled = None
        for family, (first, c) in oracle.FAMILY_CONSTANTS.items():
            if key == first:
                constants[str(family)] = scaled = str(c)
        entries.append({"n": key[0], "g": key[1], "ok": True, "scaled_by": scaled, "difference": None})
    return {
        "all_ok": True,
        "passed": f"{len(keys)}/{len(keys)}",
        "constants": dict(sorted(constants.items())),
        "entries": entries,
    }


@_checked
def _check_verify(keys, exit_code, out):
    expected = _verify_report(keys)
    if _load(exit_code, out) != expected:
        return f"report differs from {expected}"
    return None


def _zfunction_doc(numerators):
    return [
        {"n": n, "g": g, "poly": oracle.numerator_to_json(n, g, numerators[(n, g)])}
        for n, g in sorted(numerators)
    ]


def resummation(rng, files):
    jobs = [
        Job(
            "triple-product-check",
            ["triple-product-check", "--lambda-order", str(lam), "--q-order", str(q)],
            partial(
                _expect_bytes,
                0,
                {"ok": True, "lambda_order": lam, "q_order": q, "first_mismatch": None},
            ),
        )
        for lam, q in TRIPLE_ORDERS
    ]
    for g_max, q_order in GENUS_ORDERS:
        fmt = rng.choice(["json", "tsv"])
        jobs.append(
            Job(
                "genus-series",
                ["genus-series", "--gmax", str(g_max), "--q-order", str(q_order), "--format", fmt],
                partial(_check_genus_series, g_max, q_order, fmt),
            )
        )
    for weight, order in EISENSTEIN_SIZES:
        fmt = rng.choice(["json", "tsv"])
        jobs.append(
            Job(
                "eisenstein",
                ["eisenstein", "--weight", str(weight), "--order", str(order), "--format", fmt],
                partial(_check_eisenstein, weight, order, fmt),
            )
        )
    for index, (a, b) in enumerate(VERIFY_SUBSETS):
        keys = [(1, g) for g in range(a + 1)] + [(2, g) for g in range(b + 1)]
        path = files.write(
            f"verify{index}.json", _zfunction_doc({k: oracle.NUMERATORS[k] for k in keys})
        )
        jobs.append(
            Job(
                "anomaly-verify",
                ["anomaly-verify", "--table", path],
                partial(_check_verify, keys),
            )
        )
    normalized = oracle.normalized_numerators()
    norm_path = files.write("normalized.json", _zfunction_doc(normalized))
    for n, g in sorted(normalized):
        count = oracle.e2_free_basis_size(n, g) + rng.randint(0, 3)
        boundary = oracle.realize(normalized[(n, g)], n, count - 1)
        jobs.append(
            Job(
                "anomaly-solve",
                [
                    "anomaly-solve", "--n", str(n), "--g", str(g), "--table", norm_path,
                    "--boundary", ",".join(str(c) for c in boundary),
                ],
                partial(_check_solve, n, g, normalized[(n, g)]),
            )
        )
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"hilbert": hilbert, "transform": transform, "resummation": resummation}
