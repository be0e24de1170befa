"""Independent reference implementations used as ground truth.

Everything here is written against plain ints, Fractions, and dicts on
purpose: none of it shares code with the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb


@lru_cache(maxsize=None)
def partition_count(n: int, largest: int = 0) -> int:
    """Number of partitions of n; parts capped at `largest` when nonzero."""
    if largest == 0 or largest > n:
        largest = n
    if n == 0:
        return 1
    return sum(partition_count(n - part, part) for part in range(1, largest + 1))


def partition_count_simple(n: int) -> int:
    """p(n) by direct dynamic programming over part sizes."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def divisor_sum(power: int, n: int) -> int:
    """sigma_power(n) by direct enumeration of all divisors."""
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def eisenstein_coeffs(weight: int, order: int) -> list[Fraction]:
    """E_weight q-expansion from scratch: Bernoulli by the defining sum."""
    k = weight // 2
    bern = _bernoulli_list(weight)
    factor = Fraction(-4 * k, 1) / bern[weight]
    out = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(factor * divisor_sum(weight - 1, n))
    return out


def _bernoulli_list(top: int) -> list[Fraction]:
    """B_0..B_top via sum_{j<m} C(m+1,j) B_j = 0 for m >= 1."""
    bern = [Fraction(1)]
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    return bern


def two_minus_two_cos(k: int, order: int) -> dict[int, Fraction]:
    """(2 sin(k*lam/2))^2 = 2 - 2cos(k*lam) as {lambda exponent: coeff}."""
    out: dict[int, Fraction] = {}
    fact = 1
    for m in range(1, order // 2 + 1):
        fact *= (2 * m - 1) * (2 * m)
        out[2 * m] = Fraction(-2 * (-1) ** m * k ** (2 * m), fact)
    return {e: c for e, c in out.items() if c}


def res_product_u_layers(q_order: int) -> dict[int, dict[int, int]]:
    """u-coefficients of prod_n 1/((1-y q^n)^2 (1-y^-1 q^n)^2 (1-q^n)^8).

    Returns {g: {h: n_h}} where layer g is rewritten in u = 2 - y - 1/y.
    The 1/u prefactor of the full generating function shifts u-powers by
    -1 uniformly, so this table *is* the BPS table of the product side.
    """
    layers: list[dict[int, int]] = [{0: 1}] + [dict() for _ in range(q_order)]

    def mul_in(factor: list[dict[int, int]]) -> None:
        nonlocal layers
        out: list[dict[int, int]] = [dict() for _ in range(q_order + 1)]
        for i, ai in enumerate(layers):
            if not ai:
                continue
            for j, bj in enumerate(factor):
                if i + j > q_order:
                    break
                tgt = out[i + j]
                for e1, c1 in ai.items():
                    for e2, c2 in bj.items():
                        tgt[e1 + e2] = tgt.get(e1 + e2, 0) + c1 * c2
        layers = [{e: c for e, c in lay.items() if c} for lay in out]

    def geom_square(y_exp: int, n: int) -> list[dict[int, int]]:
        # 1/(1 - y^y_exp q^n)^2 = sum_m (m+1) y^(m y_exp) q^(mn)
        fac = [dict() for _ in range(q_order + 1)]
        m = 0
        while m * n <= q_order:
            fac[m * n][m * y_exp] = m + 1
            m += 1
        return fac

    def geom_eighth(n: int) -> list[dict[int, int]]:
        fac = [dict() for _ in range(q_order + 1)]
        m = 0
        while m * n <= q_order:
            fac[m * n][0] = comb(m + 7, 7)
            m += 1
        return fac

    for n in range(1, q_order + 1):
        mul_in(geom_square(1, n))
        mul_in(geom_square(-1, n))
        mul_in(geom_eighth(n))

    return {g: _y_layer_to_u(lay) for g, lay in enumerate(layers)}


def _y_layer_to_u(layer: dict[int, int]) -> dict[int, int]:
    """Rewrite a y<->1/y symmetric Laurent layer in powers of u = 2-y-1/y."""
    layer = dict(layer)
    out: dict[int, int] = {}
    while layer:
        top = max(layer)
        if top == 0:
            out[0] = layer[0]
            break
        coeff = layer[top] * (-1) ** top
        out[top] = coeff
        upow = {0: 1}
        for _ in range(top):
            nxt: dict[int, int] = {}
            for e1, c1 in upow.items():
                for e2, c2 in {0: 2, 1: -1, -1: -1}.items():
                    nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
            upow = nxt
        for e, c in upow.items():
            layer[e] = layer.get(e, 0) - coeff * c
        layer = {e: c for e, c in layer.items() if c}
    return {e: c for e, c in out.items() if c}


def super_sym_layers(
    generators: list[tuple[tuple[int, ...], int]],
    n_max: int,
) -> list[dict[tuple[int, ...], int]]:
    """Graded dimensions of the free supercommutative algebra, layer by layer.

    `generators` lists (multidegree exponents, parity) with parity 0 for
    even (polynomial) generators and 1 for odd (exterior) generators; each
    generator has q-weight 1.  Layer d of the result maps multidegree ->
    dimension of the degree-d piece of Sym(even) (x) Lambda(odd).
    """
    nvars = len(generators[0][0]) if generators else 1
    layers: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n_max + 1)]
    layers[0][(0,) * nvars] = 1
    for exps, parity in generators:
        powers = range(2) if parity else range(n_max + 1)
        fac: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n_max + 1)]
        for m in powers:
            if m > n_max:
                break
            fac[m][tuple(m * e for e in exps)] = 1
        out: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n_max + 1)]
        for i, ai in enumerate(layers):
            for j, bj in enumerate(fac):
                if i + j > n_max:
                    break
                tgt = out[i + j]
                for e1, c1 in ai.items():
                    for e2, c2 in bj.items():
                        key = tuple(a + b for a, b in zip(e1, e2))
                        tgt[key] = tgt.get(key, 0) + c1 * c2
        layers = out
    return [{e: c for e, c in lay.items() if c} for lay in layers]


def refined_product_layers(q_order: int) -> list[dict[tuple[int, int], int]]:
    """q-layers {(tL exponent, tR exponent): coefficient} of
    prod_n 1/((1 - (tL tR)^(+-1) q^n)(1 - (tL/tR)^(+-1) q^n)(1 - q^n)^8),
    multiplied out one geometric factor at a time."""
    monomials = [(1, 1), (-1, -1), (1, -1), (-1, 1)] + [(0, 0)] * 8
    layers: list[dict[tuple[int, int], int]] = [{(0, 0): 1}] + [{} for _ in range(q_order)]
    for n in range(1, q_order + 1):
        for x, y in monomials:
            # times 1/(1 - m q^n): P_d += m * P_(d-n), with P_(d-n) already updated
            for d in range(n, q_order + 1):
                for (a, b), c in layers[d - n].items():
                    layers[d][a + x, b + y] = layers[d].get((a + x, b + y), 0) + c
    return layers


def series_mul_fractions(a: list, b: list) -> list[Fraction]:
    """The schoolbook product of two truncated series given by their int or
    Fraction coefficient lists, through the shorter one's last power; every
    term is a Fraction product and every coefficient a Fraction sum."""
    n = min(len(a), len(b))
    return [
        sum((Fraction(a[j]) * Fraction(b[i - j]) for j in range(i + 1)), Fraction(0))
        for i in range(n)
    ]


def triple_product_rhs(lambda_order: int, q_order: int) -> list[list[Fraction]]:
    """(lam^2 / (2 - 2 cos lam)) prod_n (1-q^n)^4 / (1 - 2 cos(lam) q^n + q^(2n))^2.

    Returns rows[m][e], the coefficient of q^m lam^e.  Built generically in
    Q[[lam]][[q]]: each factor 1 - 2 cos(lam) q^n + q^(2n) is inverted as a
    q-series over lam-series and squared, with no use of t = e^(i lam).
    """
    zero = [Fraction(0)] * (lambda_order + 1)

    def lam_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        return [
            sum((a[i] * b[e - i] for i in range(e + 1)), Fraction(0))
            for e in range(lambda_order + 1)
        ]

    def lam_inv(a: list[Fraction]) -> list[Fraction]:
        out = [1 / a[0]]
        for e in range(1, lambda_order + 1):
            out.append(-sum((a[i] * out[e - i] for i in range(1, e + 1)), Fraction(0)) / a[0])
        return out

    def q_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
        out = []
        for m in range(q_order + 1):
            acc = zero
            for i in range(m + 1):
                acc = [x + y for x, y in zip(acc, lam_mul(a[i], b[m - i]))]
            out.append(acc)
        return out

    def q_inv(a: list[list[Fraction]]) -> list[list[Fraction]]:
        c0 = lam_inv(a[0])
        out = [c0]
        for m in range(1, q_order + 1):
            acc = zero
            for i in range(1, m + 1):
                acc = [x + y for x, y in zip(acc, lam_mul(a[i], out[m - i]))]
            out.append([-x for x in lam_mul(c0, acc)])
        return out

    one = [Fraction(1)] + zero[1:]
    cos_lam = list(zero)
    fact = 1
    for e in range(lambda_order + 1):
        if e % 2 == 0:
            cos_lam[e] = Fraction((-1) ** (e // 2), fact)
        fact *= e + 1
    rows = [one] + [zero] * q_order
    for n in range(1, q_order + 1):
        for _ in range(4):  # times (1 - q^n)
            for m in range(q_order, n - 1, -1):
                rows[m] = [x - y for x, y in zip(rows[m], rows[m - n])]
        factor = [one] + [zero] * q_order
        factor[n] = [-2 * x for x in cos_lam]
        if 2 * n <= q_order:
            factor[2 * n] = one
        inv = q_inv(factor)
        rows = q_mul(q_mul(rows, inv), inv)
    # (2 - 2 cos lam) / lam^2 from the lam^(e+2) coefficients of 2 - 2 cos lam
    shifted = two_minus_two_cos(1, lambda_order + 2)
    prefactor = lam_inv([shifted.get(e + 2, Fraction(0)) for e in range(lambda_order + 1)])
    return [lam_mul(row, prefactor) for row in rows]


def _multicover_kernel(k: int, h: int, lambda_order: int) -> dict[int, Fraction]:
    """The k-th multicover kernel without its 1/k, (2 - 2 cos(k lam))^(h-1), as
    {lambda exponent: coeff} up to lam^lambda_order.  (2 - 2cos)^(-1) comes
    from a series division, higher powers from repeated multiplication."""
    if h == 0:
        # 2 - 2cos(k lam) = k^2 lam^2 (1 + a_1 lam^2 + ...): invert the bracket
        t = two_minus_two_cos(k, lambda_order + 4)
        a = [t.get(2 * j + 2, Fraction(0)) / k**2 for j in range(lambda_order // 2 + 2)]
        b = [Fraction(1)]
        for m in range(1, len(a)):
            b.append(-sum((a[j] * b[m - j] for j in range(1, m + 1)), Fraction(0)))
        return {2 * m - 2: c / k**2 for m, c in enumerate(b) if 2 * m - 2 <= lambda_order}
    out = {0: Fraction(1)}
    for _ in range(h - 1):
        nxt: dict[int, Fraction] = {}
        for e1, c1 in out.items():
            for e2, c2 in two_minus_two_cos(k, lambda_order).items():
                if e1 + e2 <= lambda_order:
                    nxt[e1 + e2] = nxt.get(e1 + e2, Fraction(0)) + c1 * c2
        out = nxt
    return {e: c for e, c in out.items() if e <= lambda_order}


def pair_fractions(
    entries: dict[tuple[int, tuple[int, ...]], tuple[int, int]],
) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """{key: Fraction(num, den)} for the entries of a GW table, which hold
    each value as its reduced int pair (num, den).  A value that is not a
    pair of ints with num != 0, den >= 1 and gcd(num, den) == 1 raises
    ValueError, so comparing through this map also pins the stored form."""
    out = {}
    for key, pair in entries.items():
        if type(pair) is not tuple or len(pair) != 2 or {type(x) for x in pair} != {int}:
            raise ValueError(f"{key}: {pair!r} is not a pair of ints")
        if pair[1] < 1:
            raise ValueError(f"{key}: {pair!r} has a denominator below 1")
        value = Fraction(*pair)
        if pair != (value.numerator, value.denominator) or not value:
            raise ValueError(f"{key}: {pair!r} is not a reduced nonzero pair")
        out[key] = value
    return out


def gw_from_bps(
    entries: dict[tuple[int, tuple[int, ...]], int],
    degree_weights: tuple[int, ...],
    lambda_order: int,
    degree_order: int,
) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """{(g, class): N_g} from BPS numbers {(h, class): n_h} by the direct
    multicover sum

        sum_{k >= 1} n_h(beta) (1/k) (2 - 2 cos(k lam))^(h-1) at class k beta,

    read at lam^(2g-2) for 2g - 2 <= lambda_order and deg(k beta) <=
    degree_order, one (h, k) kernel at a time."""
    total: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for (h, beta), n in entries.items():
        degree = sum(w * c for w, c in zip(degree_weights, beta))
        k = 1
        while k * degree <= degree_order:
            for e, c in _multicover_kernel(k, h, lambda_order).items():
                key = ((e + 2) // 2, tuple(k * x for x in beta))
                total[key] = total.get(key, Fraction(0)) + Fraction(n, k) * c
            k += 1
    return {key: v for key, v in total.items() if v}


def gv_from_gw_fractions(
    entries: dict[tuple[int, tuple[int, ...]], Fraction],
    degree_weights: tuple[int, ...],
    lambda_order: int,
    degree_order: int,
) -> tuple:
    """Invert the multicover sum over Fraction: the BPS numbers {(h, class):
    n_h} for h <= h_max = (lambda_order + 2) // 2 whose image is the GW values
    {(g, class): N_g}, read for g <= h_max and deg <= degree_order.

    Classes are solved in increasing (degree, components).  The genus vector
    r_g = N_g(beta) loses k^(2g-3) times the pre-peel vector of beta/k for
    every k >= 2 dividing beta; then h = 0, 1, ... are peeled against the
    k = 1 kernel rows (2 - 2 cos lam)^(h-1), whose leading term is lam^(2h-2).

    Returns ("table", {(h, class): n_h}); or ("non-integral", class, h,
    value) at the first n_h that is not an integer; or ("residual", class,
    {lambda exponent: value}) when the peel leaves a nonzero vector."""
    rank = len(degree_weights)
    h_max = (lambda_order + 2) // 2
    kernels = [_multicover_kernel(1, h, lambda_order) for h in range(h_max + 1)]
    rows = [[kernel.get(2 * g - 2, Fraction(0)) for g in range(h_max + 1)] for kernel in kernels]
    classes = sorted(
        (sum(w * c for w, c in zip(degree_weights, cls)), cls)
        for cls in product(range(degree_order + 1), repeat=rank)
        if any(cls) and sum(w * c for w, c in zip(degree_weights, cls)) <= degree_order
    )
    bps: dict[tuple[int, tuple[int, ...]], int] = {}
    solved: dict[tuple[int, ...], list[Fraction]] = {}
    for _, beta in classes:
        r = [Fraction(entries.get((g, beta), 0)) for g in range(h_max + 1)]
        for k in range(2, max(beta) + 1):
            if all(c % k == 0 for c in beta):
                source = solved[tuple(c // k for c in beta)]
                r = [a - Fraction(k) ** (2 * g - 3) * b for g, (a, b) in enumerate(zip(r, source))]
        solved[beta] = r
        for h, row in enumerate(rows):
            c = r[h]
            if not c:
                continue
            if c.denominator != 1:
                return ("non-integral", beta, h, c)
            bps[(h, beta)] = int(c)
            r = r[:h] + [a - c * b for a, b in zip(r[h:], row[h:])]
        if any(r):
            return ("residual", beta, {2 * g - 2: c for g, c in enumerate(r) if c})
    return ("table", bps)
