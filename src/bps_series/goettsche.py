"""Hilbert-scheme-of-points generating functions for surfaces.

Three ways to produce the same objects, kept deliberately independent so they
can be checked against each other:

  * goettsche_series: the classical Goettsche product built from a Betti
    vector, tracking a single Lefschetz weight t;
  * refined_goettsche_res: the bigraded (t_L, t_R) product for the rational
    elliptic surface;
  * nakajima_assembly: the partition-indexed sum of symmetric-power
    characters that the product formulas resum.

goettsche_series and the one-variable product in bps_rational_elliptic are
spec lists handed to the single Euler-product kernel
qseries.geom_factor_product.  The refined product is not: with a = tL tR and
b = tL / tR it factors as A(a) A(b), where

    A(x) = prod_n 1 / ((1 - x q^n)(1 - x^(-1) q^n)(1 - q^n)^4),

so refined_goettsche_res takes the integer layers of A from one call of the
kernel's core qseries.euler_int_layers and makes each coefficient of A(a) A(b)
as one dot product of two of A's columns, once per symmetry class.
sym_power_series and nakajima_assembly expand their factors by the binomial
series instead and never call the kernel, so the assembly stays an
independent check of it.

All characters are dimension-normalized: a class of cohomological degree d on
an m-fold sits at weight t^(d-m) (so 2H = d - m), which makes every product
factor independent of the q-power n.  With that normalization the stratum
characters assemble with no extra weight twist -- the top of the Sym^nu
stratum lands at (t_L t_R)^(l(nu)) inside the degree-n coefficient, exactly
where the bigraded product puts it.

bps_rational_elliptic turns the q^g layers of the refined product into BPS
multiplicities n_h(C + gF) and cross-checks them against the u-expansion of
the diagonal (one-variable) product, u = 2 - y - y^(-1).  Sign convention:
the prefactor multiplying the product side is +1/u, the expansion of
(2 sin(lam/2))^(-2) with leading term +lam^(-2).
"""

from __future__ import annotations

from operator import mul

from .laurent import LaurentPoly
from .qseries import QSeries, binomial_coeff, euler_int_layers, geom_factor_product
from .sl2 import bps_from_character, u_expand

SIGN_CONVENTION = (
    "prefactor +1/u with u = 2 - y - 1/y, i.e. (2 sin(lam/2))^(-2) "
    "with leading term +lam^(-2); n_h(C+gF) is the u^h coefficient "
    "of the q^g layer of the product"
)


class MismatchAgainstProduct(ArithmeticError):
    """The two independent BPS extraction routes disagree."""

    def __init__(self, diffs):
        super().__init__(
            "character route and product u-expansion disagree: "
            + "; ".join(
                f"q^{g}: {via_char} vs {via_u}" for g, via_char, via_u in diffs
            )
        )
        self.diffs = diffs


class BettiVector:
    """Betti numbers (b0, b1, b2, b3, b4) of a surface, each a nonnegative int;
    duality enforced."""

    def __init__(self, b0, b1, b2, b3, b4):
        bs = (b0, b1, b2, b3, b4)
        if any(type(b) is not int or b < 0 for b in bs):
            raise ValueError(f"Betti numbers must be nonnegative integers: {bs}")
        if b0 != b4 or b1 != b3:
            raise ValueError(f"violates duality b0=b4, b1=b3: {bs}")
        self.b0, self.b1, self.b2, self.b3, self.b4 = bs

    def __repr__(self):
        return f"BettiVector{(self.b0, self.b1, self.b2, self.b3, self.b4)}"


class GradedCharacter:
    """A weight-graded character: poly is a LaurentPoly whose coefficients
    are the dimensions of its weight spaces.  The super-parity of a monomial
    is its total weight mod 2 (its cohomological degree mod 2 on an
    even-dimensional variety)."""

    def __init__(self, poly):
        self.poly = poly

    def __repr__(self):
        return f"GradedCharacter({self.poly!r})"


def rational_elliptic_character():
    """Bigraded character of a rational elliptic surface: the four corner
    classes (point, fiber, section, top) plus eight middle classes."""
    poly = LaurentPoly(
        {(-1, -1): 1, (1, 1): 1, (1, -1): 1, (-1, 1): 1, (0, 0): 8}, nvars=2
    )
    return GradedCharacter(poly)


def _partition_multiplicities(n, largest=None):
    """Yield {part size: number of parts of that size} for every partition
    of n into parts of size at most largest (default n)."""
    if n == 0:
        yield {}
        return
    for p in range(min(n, largest or n), 0, -1):
        for mult in _partition_multiplicities(n - p, p):
            mult[p] = mult.get(p, 0) + 1
            yield mult


def goettsche_series(b, g_max):
    """Generating series of single-graded Hilbert scheme characters.

    prod_n (1 + t^(-1) q^n)^b1 (1 + t q^n)^b3
         / ((1 - t^(-2) q^n)^b0 (1 - q^n)^b2 (1 - t^2 q^n)^b4)
    as a q-series with one-variable Laurent coefficients.
    """
    return geom_factor_product(
        [
            ((-2,), 1, -b.b0),
            ((-1,), -1, b.b1),
            ((0,), 1, -b.b2),
            ((1,), -1, b.b3),
            ((2,), 1, -b.b4),
        ],
        g_max,
        nvars=1,
    )


def refined_goettsche_res(g_max):
    """Bigraded Hilbert scheme series for the rational elliptic surface:

    prod_n 1 / ((1 - (tL tR)^(-1) q^n)(1 - tL tR q^n)
                (1 - tL tR^(-1) q^n)(1 - tL^(-1) tR q^n)(1 - q^n)^8),

    built as A(a) A(b) with a = tL tR and b = tL / tR, where a^x b^y =
    tL^(x+y) tR^(x-y).  With the column a_x(q) = sum_i [x^x]A_i q^i, the
    coefficient of q^N a^x b^y is [q^N] a_x a_y, one integer dot product.
    A(x) = A(1/x) gives a_x = a_(-x), and the product is commutative, so that
    coefficient depends only on {|x|, |y|}: it is computed once for each
    x >= y >= 0 with x + y <= N and stored once, at dom[X][Y] with X = x + y
    and Y = x - y.  [x^x]A_i is 0 for |x| > i and positive otherwise (every
    factor of A has positive coefficients), so the nonzero terms tL^a tR^b
    are exactly those with a = b mod 2 and |a|, |b| <= N.  They are written
    in sorted (a, b) order, each read from dom at its class, so that the
    series writer's sort of a layer is one linear pass.
    """
    half = euler_int_layers([((1,), 1, -1), ((-1,), 1, -1), ((0,), 1, -4)], g_max, 1)
    cols = [[0] * (g_max + 1) for _ in range(g_max + 1)]
    for i, layer in enumerate(half):
        for (x,), c in layer.items():
            if x >= 0:
                cols[x][i] = c
    rcols = [col[::-1] for col in cols]
    layers = []
    for n in range(g_max + 1):
        dom = [[0] * (X + 1) for X in range(n + 1)]
        for x in range(n + 1):
            col = cols[x]
            # [q^n] a_x a_y = sum_(i = x)^(n - y) a_x[i] a_y[n - i]
            for y in range(min(x, n - x) + 1):
                dom[x + y][x - y] = sum(
                    map(mul, col[x : n - y + 1], rcols[y][g_max - n + x : g_max - y + 1])
                )
        terms = {}
        for a in range(-n, n + 1):
            abs_a = -a if a < 0 else a
            row = dom[abs_a]
            for b in range(-n + ((a + n) & 1), n + 1, 2):
                abs_b = -b if b < 0 else b
                terms[a, b] = row[abs_b] if abs_b <= abs_a else dom[abs_b][abs_a]
        layers.append(LaurentPoly._of(terms, 2))
    return QSeries(layers, g_max)


def sym_power_series(c, n_max):
    """sum_n char(Sym^n V) q^n for a graded super vector space V.

    A monomial m of dimension kappa is even when its total weight is even
    and contributes (1 - m q)^(-kappa); an odd one contributes
    (1 + m q)^kappa (its symmetric algebra is exterior).
    """
    nvars = c.poly.nvars
    result = QSeries([LaurentPoly.const(1, nvars)], n_max)
    for exps, coeff in sorted(c.poly.terms.items()):
        if coeff.denominator != 1:
            raise ValueError(f"weight-space dimension {coeff} is not an integer")
        kappa = int(coeff)
        if sum(exps) % 2 == 0:
            sign, exponent = -1, -kappa
        else:
            sign, exponent = 1, kappa
        m = LaurentPoly({exps: sign}, nvars)
        factor_coeffs = [LaurentPoly.const(1, nvars)]
        power = LaurentPoly.const(1, nvars)
        for j in range(1, n_max + 1):
            power = power * m
            factor_coeffs.append(binomial_coeff(exponent, j) * power)
        result = result * QSeries(factor_coeffs, n_max)
    return result


def nakajima_assembly(c, g_max):
    """Assemble the Hilbert scheme series stratum by stratum.

    The degree-n coefficient is the sum over partitions nu of n of
    prod_i char(Sym^(alpha_i) V) where alpha_i counts the parts of size i.
    With dimension-normalized characters no weight twist is needed; the
    result must match the bigraded product coefficientwise.
    """
    sym = sym_power_series(c, g_max)
    nvars = c.poly.nvars
    layers = []
    for n in range(g_max + 1):
        total = LaurentPoly(nvars=nvars)
        for mult in _partition_multiplicities(n):
            term = LaurentPoly.const(1, nvars)
            for alpha in mult.values():
                term = term * sym[alpha]
            total = total + term
        layers.append(total)
    return QSeries(layers, g_max)


def bps_rational_elliptic(g_max):
    """BPS multiplicities {(g, h): n_h(C + gF)} for the rational elliptic
    surface, extracted from the bigraded product layers and verified against
    the u-expansion of the one-variable product

        u^(-1) prod_n 1/((1 - y q^n)^2 (1 - y^(-1) q^n)^2 (1 - q^n)^8).

    Raises MismatchAgainstProduct if the two routes disagree anywhere.
    """
    refined = refined_goettsche_res(g_max)
    product = geom_factor_product(
        [((1,), 1, -2), ((-1,), 1, -2), ((0,), 1, -8)], g_max, nvars=1
    )
    table = {}
    diffs = []
    for g in range(g_max + 1):
        via_char = bps_from_character(refined[g])
        via_u = u_expand(product[g])
        if via_char != via_u:
            diffs.append((g, via_char, via_u))
            continue
        for h, n in sorted(via_char.items()):
            table[(g, h)] = n
    if diffs:
        raise MismatchAgainstProduct(diffs)
    return table
