"""Independent exact oracles for the benchmark's output checks.

Nothing here imports bps_series.  Every expected value is rebuilt from ints
and Fractions by a route that differs from the package's own: Euler products
by repeated multiplication or division by a single (1 + s q^n), powers of the
sine series by J.C.P. Miller's recurrence, Bernoulli numbers by the
Akiyama-Tanigawa algorithm and divisor sums by enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def euler_product(factors, order):
    """Integer coefficients of prod_{n>=1} prod_{(s, e) in factors} (1 + s q^n)^e
    up to q^order, for signs s = +-1 and integer exponents e of either sign."""
    a = [1] + [0] * order
    for n in range(1, order + 1):
        for s, e in factors:
            for _ in range(abs(e)):
                if e > 0:
                    for i in range(order, n - 1, -1):
                        a[i] += s * a[i - n]
                else:
                    for i in range(n, order + 1):
                        a[i] -= s * a[i - n]
    return a


def series_mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(n)]


# -- the BPS <-> GW multicover expansion ---------------------------------------


def sinc_power(e, m_max):
    """[y^m] S(y)^e for m <= m_max, where 2 sin(x/2) = x S(x^2).

    Miller's recurrence for g = f^e with f_0 = 1:
    n g_n = sum_{k=1}^{n} ((e + 1) k - n) f_k g_{n-k}.
    """
    f = [Fraction((-1) ** m, 4**m * factorial(2 * m + 1)) for m in range(m_max + 1)]
    g = [Fraction(1)]
    for n in range(1, m_max + 1):
        g.append(sum(((e + 1) * k - n) * f[k] * g[n - k] for k in range(1, n + 1)) / n)
    return g


def gw_from_bps(bps, max_genus, max_degree):
    """{(g, class): N_g(class)} for g <= max_genus and degree <= max_degree,
    with every degree weight 1.

    N_g(k beta) collects n_h(beta) (1/k) [lam^(2g-2)] (2 sin(k lam/2))^(2h-2)
    = n_h(beta) k^(2g-3) [y^(g-h)] S(y)^(2h-2) over h <= g and k >= 1.
    bps maps (h, class) -> nonzero int.
    """
    s = {h: sinc_power(2 * h - 2, max_genus) for h in range(max_genus + 1)}
    out = {}
    for (h, beta), n in bps.items():
        if h > max_genus:
            continue
        k = 1
        while k * sum(beta) <= max_degree:
            target = tuple(k * c for c in beta)
            for g in range(h, max_genus + 1):
                c = s[h][g - h]
                if c:
                    key = (g, target)
                    out[key] = out.get(key, 0) + n * Fraction(k) ** (2 * g - 3) * c
            k += 1
    return {key: v for key, v in out.items() if v}


# -- Eisenstein series and the anomaly numerators ------------------------------


def bernoulli(n):
    """B_n by the Akiyama-Tanigawa algorithm (B_1 = +1/2; even n agree with
    every convention)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def eisenstein(weight, order):
    """E_weight = 1 - (2k / B_2k) sum sigma_{2k-1}(n) q^n with weight = 2k."""
    factor = -Fraction(2 * weight) / bernoulli(weight)
    out = [Fraction(1)]
    for n in range(1, order + 1):
        sigma = sum(d ** (weight - 1) for d in range(1, n + 1) if n % d == 0)
        out.append(factor * sigma)
    return out


def realize(monomials, n, order):
    """q-expansion of P(E2, E4, E6) / prod_k (1 - q^k)^(12 n) for a numerator
    {(a, b, c): Fraction}."""
    e = {w: eisenstein(w, order) for w in (2, 4, 6)}
    total = [Fraction(0)] * (order + 1)
    for (a, b, c), coeff in monomials.items():
        term = [coeff] + [Fraction(0)] * order
        for w, power in ((2, a), (4, b), (6, c)):
            for _ in range(power):
                term = series_mul(term, e[w])
        total = [x + y for x, y in zip(total, term)]
    return series_mul(total, euler_product([(-1, -12 * n)], order))


def _f(text):
    return Fraction(text)


# The bundled numerator table {(n, g): {(a, b, c): coeff}} in its customary
# normalization (the package's reference_solutions).
NUMERATORS = {
    (1, 0): {(0, 1, 0): _f("1")},
    (1, 1): {(1, 1, 0): _f("1")},
    (1, 2): {(2, 1, 0): _f("5/1440"), (0, 2, 0): _f("1/1440")},
    (1, 3): {(3, 1, 0): _f("35/362880"), (1, 2, 0): _f("21/362880"), (0, 1, 1): _f("4/362880")},
    (2, 0): {(1, 2, 0): _f("1"), (0, 1, 1): _f("2")},
    (2, 1): {
        (2, 2, 0): _f("10/1152"),
        (0, 3, 0): _f("9/1152"),
        (1, 1, 1): _f("24/1152"),
        (0, 0, 2): _f("5/1152"),
    },
    (2, 2): {
        (3, 2, 0): _f("190/207360"),
        (1, 3, 0): _f("417/207360"),
        (2, 1, 1): _f("540/207360"),
        (0, 2, 1): _f("356/207360"),
        (1, 0, 2): _f("225/207360"),
    },
    (2, 3): {
        (4, 2, 0): _f("2275/34836480"),
        (2, 3, 0): _f("8925/34836480"),
        (0, 4, 0): _f("3540/34836480"),
        (3, 1, 1): _f("7560/34836480"),
        (1, 2, 1): _f("14984/34836480"),
        (2, 0, 2): _f("4725/34836480"),
        (0, 1, 2): _f("4071/34836480"),
    },
}

# The one constant per fiber-degree family that reconciles the customary
# normalization with the recursion, and the member it scales: the family's
# first numerator that depends on E2.
FAMILY_CONSTANTS = {1: ((1, 1), Fraction(1, 12)), 2: ((2, 0), Fraction(1, 24))}


def normalized_numerators():
    """NUMERATORS with each family's first E2-dependent member rescaled."""
    out = {key: dict(mono) for key, mono in NUMERATORS.items()}
    for key, c in FAMILY_CONSTANTS.values():
        out[key] = {m: c * x for m, x in out[key].items()}
    return out


def numerator_to_json(n, g, monomials):
    a_b_c = sorted(monomials)
    return {
        "weight": 2 * g + 6 * n - 2,
        "monomials": [
            {"e2": a, "e4": b, "e6": c, "coeff": str(monomials[(a, b, c)])}
            for a, b, c in a_b_c
        ],
    }


def e2_free_basis_size(n, g):
    """Number of E4^b E6^c monomials of the numerator's weight."""
    weight = 2 * g + 6 * n - 2
    return sum(
        1
        for b in range(weight // 4 + 1)
        for c in range(weight // 6 + 1)
        if 4 * b + 6 * c == weight
    )
