"""Holomorphic anomaly recursion in the graded ring Q[E2, E4, E6].

Generating functions Z_{g;n}(q) for fiber degree n and genus g are realized
as P(E2, E4, E6) / prod_k (1 - q^k)^(12n) with P homogeneous of weight
2g + 6n - 2 (E2, E4, E6 carrying weights 2, 4, 6).  The recursion fixes the
E2-dependence of P:

    dP/dE2 = (1/24) sum_{g'+g''=g} sum_{s=1}^{n-1} s(n-s) P_{g',s} P_{g'',n-s}
             + (n(n+1)/24) P_{g-1,n}.

The classically tabulated solutions satisfy this only after the first
E2-sensitive member of each fiber-degree family is rescaled by one constant
per family (1/12 for n=1, 1/24 for n=2); verify_anomaly determines that
constant from the family's own first equation and reports it rather than
assuming it.  All remaining equations must then hold literally and exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import factorial, gcd, lcm
from operator import mul, sub

from .gvtransform import _sin_power_cached
from .laurent import coefficient, collect, mul_terms
from .modular import _eisenstein_row, eisenstein, zeta_even_ratio
from .qseries import QSeries, _int_convolution, _scaled, eta_product, euler_int_layers, require_int


class WeightMismatch(ValueError):
    """Graded arithmetic mixing distinct homogeneous weights."""


class MissingPrerequisite(ValueError):
    """The recursion needs a polynomial the caller did not supply."""

    def __init__(self, g, n):
        super().__init__(f"recursion needs the (genus={g}, degree={n}) polynomial")
        self.key = (g, n)


class UnderdeterminedBoundary(ValueError):
    """Boundary data cannot pin down the E2-free part."""


class InconsistentBoundary(ValueError):
    """No polynomial in the ansatz matches the boundary data."""


class GradedPoly:
    """Homogeneous polynomial in E2, E4, E6: {(a, b, c): coeff} of weight
    2a + 4b + 6c, all equal to the declared weight."""

    def __init__(self, weight, monomials=None):
        if type(weight) is not int:  # the common case costs one type test
            require_int(weight=weight)
        if weight < 0:
            raise WeightMismatch(f"weight must be >= 0, got {weight}")
        self.weight = weight
        pairs = []
        for key, coeff in (monomials or {}).items():
            a, b, c = key
            if not type(a) is type(b) is type(c) is int:
                names = (f"E{w} exponent of {key}" for w in (2, 4, 6))
                require_int(**dict(zip(names, key)))
            if min(a, b, c) < 0:
                raise ValueError(f"negative exponent in monomial {key}")
            if 2 * a + 4 * b + 6 * c != weight:
                raise WeightMismatch(
                    f"monomial {key} has weight {2*a + 4*b + 6*c}, declared {weight}"
                )
            pairs.append((key, coefficient(coeff, key)))
        self.monomials = collect(pairs)

    @classmethod
    def e2(cls):
        return cls(2, {(1, 0, 0): 1})

    @classmethod
    def e4(cls):
        return cls(4, {(0, 1, 0): 1})

    @classmethod
    def e6(cls):
        return cls(6, {(0, 0, 1): 1})

    def __bool__(self):
        return bool(self.monomials)

    def __eq__(self, other):
        if isinstance(other, GradedPoly):
            if not self.monomials and not other.monomials:
                return True
            return self.weight == other.weight and self.monomials == other.monomials
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.weight != other.weight and self.monomials and other.monomials:
            raise WeightMismatch(
                f"cannot add weight {self.weight} to weight {other.weight}"
            )
        out = GradedPoly(self.weight if self.monomials else other.weight)
        out.monomials = collect(chain(self.monomials.items(), other.monomials.items()))
        return out

    def __neg__(self):
        out = GradedPoly(self.weight)
        out.monomials = {k: -c for k, c in self.monomials.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = GradedPoly(self.weight)
            if other:
                out.monomials = {k: c * other for k, c in self.monomials.items()}
            return out
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out = GradedPoly(self.weight + other.weight)
        out.monomials = mul_terms(self.monomials, other.monomials)
        return out

    __rmul__ = __mul__

    def __repr__(self):
        if not self.monomials:
            return f"GradedPoly(weight={self.weight}, 0)"
        parts = []
        for (a, b, c), coeff in sorted(self.monomials.items(), reverse=True):
            mono = "".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in (("E2", a), ("E4", b), ("E6", c))
                if e
            )
            parts.append(f"{coeff}*{mono}" if mono else str(coeff))
        return f"GradedPoly(weight={self.weight}, {' + '.join(parts)})"


def _check_degree_genus(n, g):
    require_int(n=n, g=g)
    if n < 1 or g < 0:
        raise ValueError(f"need n >= 1 and g >= 0, got n={n}, g={g}")


class ZFunction:
    """One generating function: fiber degree n >= 1, genus g >= 0, and the
    weight-(2g+6n-2) numerator polynomial."""

    def __init__(self, n, g, poly):
        _check_degree_genus(n, g)
        expected = 2 * g + 6 * n - 2
        if poly.monomials and poly.weight != expected:
            raise WeightMismatch(
                f"(n={n}, g={g}) needs weight {expected}, got {poly.weight}"
            )
        self.n = n
        self.g = g
        self.poly = poly

    def __repr__(self):
        return f"ZFunction(n={self.n}, g={self.g}, {self.poly!r})"


def d_E2(p):
    """Formal partial derivative with respect to E2 (weight drops by 2)."""
    out = GradedPoly(max(p.weight - 2, 0))
    for (a, b, c), coeff in p.monomials.items():
        if a:
            out.monomials[(a - 1, b, c)] = coeff * a
    return out


def integrate_e2(p):
    """E2-antiderivative with no E2-free part (weight rises by 2)."""
    out = GradedPoly(p.weight + 2)
    for (a, b, c), coeff in p.monomials.items():
        out.monomials[(a + 1, b, c)] = Fraction(coeff, a + 1)
    return out


def _lookup(known, g, n):
    try:
        return known[(g, n)]
    except KeyError:
        raise MissingPrerequisite(g, n) from None


def anomaly_rhs(n, g, known):
    """Right side of the recursion for (n, g), weight 2g + 6n - 4.

    known maps (genus, fiber degree) -> GradedPoly and must contain every
    polynomial with fiber degree < n and genus <= g, plus (g-1, n) when
    g >= 1.
    """
    require_int(n=n, g=g)
    total = GradedPoly(max(2 * g + 6 * n - 4, 0))
    for s in range(1, n):
        for g1 in range(g + 1):
            p1 = _lookup(known, g1, s)
            p2 = _lookup(known, g - g1, n - s)
            total = total + Fraction(s * (n - s), 24) * (p1 * p2)
    if g >= 1:
        total = total + Fraction(n * (n + 1), 24) * _lookup(known, g - 1, n)
    return total


def _scalar_ratio(numerator, denominator):
    """The constant c with numerator == c * denominator, or None; the
    denominator must be nonzero."""
    key, coeff = next(iter(sorted(denominator.monomials.items())))
    c = Fraction(numerator.monomials.get(key, 0), coeff)
    return c if numerator == c * denominator else None


def verify_anomaly(table):
    """Check d_E2(P) == anomaly_rhs for every entry of a ZFunction list.

    Entries are processed in increasing (n, g).  Within each fiber-degree
    family, the first entry whose E2-derivative is nonzero is allowed one
    multiplicative constant, solved from its own equation; that scaled value
    (and everything else unscaled) then feeds all later right sides.  Returns
    {"all_ok", "constants": {n: c or None}, "entries": [...],
    "normalized": {(g, n): poly as used}}.
    """
    values = {}
    constants = {}
    attempted = set()
    entries = []
    for zf in sorted(table, key=lambda z: (z.n, z.g)):
        lhs = d_E2(zf.poly)
        rhs = anomaly_rhs(zf.n, zf.g, values)
        scaled_by = None
        if zf.n not in attempted and lhs:
            attempted.add(zf.n)
            c = _scalar_ratio(rhs, lhs)
            constants[zf.n] = c
            if c is None:
                ok, used = False, zf.poly
            else:
                ok, used, scaled_by = True, c * zf.poly, c
        else:
            ok, used = lhs == rhs, zf.poly
        values[(zf.g, zf.n)] = used
        entries.append(
            {
                "n": zf.n,
                "g": zf.g,
                "ok": ok,
                "scaled_by": scaled_by,
                "difference": None if ok else lhs - rhs,
            }
        )
    return {
        "all_ok": all(e["ok"] for e in entries),
        "constants": constants,
        "entries": entries,
        "normalized": values,
    }


def realize(poly, n, order):
    """q-expansion of poly(E2, E4, E6) / prod_k (1 - q^k)^(12 n), from _realize_ints."""
    require_int(n=n, order=order)
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    d, v = _realize_ints(poly, n, order)
    return QSeries([Fraction(x, d) for x in v], order)


def _realize_ints(poly, n, order):
    """(D, V) over int, V[m] / D the q^m coefficient of realize: the numerator
    summed over D, the lcm of its coefficient denominators, from the cached
    integer monomials, then one product with the integer eta product."""
    d, scales = _scaled(poly.monomials.values())
    rows = [_monomial(key, order) for key in poly.monomials] or [(0,) * (order + 1)]
    numerator = [sum(map(mul, scales, col)) for col in zip(*rows)]
    return d, _int_convolution(numerator, eta_product(-12 * n, order).coeffs)


@lru_cache(maxsize=None)
def _monomial(key, order):
    """E2^a E4^b E6^c through q^order as a tuple of ints, key = (a, b, c).

    E2, E4 and E6 are read from eisenstein, whose coefficients are integers
    at these weights.  A mixed monomial is E2^a times E4^b E6^c, or E4^b
    times E6^c, and a power X^k of one of them X^(k//2) times X^(k - k//2),
    so the recursion is O(log k) deep and a numerator's monomials share
    their parts."""
    a, b, c = key
    if a and (b or c):
        return tuple(_int_convolution(_monomial((a, 0, 0), order), _monomial((0, b, c), order)))
    if b and c:
        return tuple(_int_convolution(_monomial((0, b, 0), order), _monomial((0, 0, c), order)))
    if a + b + c == 1:
        return tuple(x.numerator for x in eisenstein(2 * a + 4 * b + 6 * c, order).coeffs)
    if not any(key):
        return (1,) + (0,) * order
    half = (a // 2, b // 2, c // 2)
    rest = tuple(map(sub, key, half))
    return tuple(_int_convolution(_monomial(half, order), _monomial(rest, order)))


def solve_anomaly(n, g, known, boundary_q_coeffs):
    """Integrate the recursion and fix the E2-free part from boundary data.

    boundary_q_coeffs lists the leading q-coefficients of the realized
    Z_{g;n}; at least as many as there are weight-(2g+6n-2) monomials in
    E4, E6 alone, each an int or a Fraction.  Returns the unique matching
    GradedPoly; n < 1, g < 0 or any other boundary value raises ValueError.
    """
    _check_degree_genus(n, g)
    weight = 2 * g + 6 * n - 2
    particular = integrate_e2(anomaly_rhs(n, g, known))
    basis = [
        (0, b, c)
        for b in range(weight // 4 + 1)
        for c in range(weight // 6 + 1)
        if 4 * b + 6 * c == weight
    ]
    boundary = [coefficient(x, f"boundary[{i}]") for i, x in enumerate(boundary_q_coeffs)]
    if len(boundary) < len(basis):
        raise UnderdeterminedBoundary(
            f"{len(basis)} unknown E4/E6 monomials need at least "
            f"{len(basis)} boundary coefficients, got {len(boundary)}"
        )
    order = len(boundary) - 1
    part_series = realize(particular, n, order)
    basis_series = [
        realize(GradedPoly(weight, {key: 1}), n, order) for key in basis
    ]
    rows = [
        [bs[t] for bs in basis_series] + [boundary[t] - part_series[t]]
        for t in range(len(boundary))
    ]
    solution = _solve_exact(rows, len(basis))
    return particular + GradedPoly(weight, dict(zip(basis, solution)))


def _solve_exact(rows, nvars):
    """Gaussian elimination over Fraction for an augmented system with a
    unique required solution."""
    pivots = []
    r = 0
    for col in range(nvars):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            raise UnderdeterminedBoundary(
                f"boundary data leaves basis column {col} free"
            )
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = rows[r][col]
        rows[r] = [Fraction(x, scale) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][nvars]:
            raise InconsistentBoundary(
                "boundary coefficients do not lie on any solution"
            )
    return [rows[pivots.index(col)][nvars] for col in range(nvars)]


def reference_solutions():
    """The known low-genus solutions for fiber degrees 1 and 2, in their
    customary normalization (see verify_anomaly for the per-family constant
    that reconciles them with the recursion)."""
    f = Fraction
    return [
        ZFunction(1, 0, GradedPoly(4, {(0, 1, 0): 1})),
        ZFunction(1, 1, GradedPoly(6, {(1, 1, 0): 1})),
        ZFunction(
            1, 2, GradedPoly(8, {(2, 1, 0): f(5, 1440), (0, 2, 0): f(1, 1440)})
        ),
        ZFunction(
            1,
            3,
            GradedPoly(
                10,
                {
                    (3, 1, 0): f(35, 362880),
                    (1, 2, 0): f(21, 362880),
                    (0, 1, 1): f(4, 362880),
                },
            ),
        ),
        ZFunction(2, 0, GradedPoly(10, {(1, 2, 0): 1, (0, 1, 1): 2})),
        ZFunction(
            2,
            1,
            GradedPoly(
                12,
                {
                    (2, 2, 0): f(10, 1152),
                    (0, 3, 0): f(9, 1152),
                    (1, 1, 1): f(24, 1152),
                    (0, 0, 2): f(5, 1152),
                },
            ),
        ),
        ZFunction(
            2,
            2,
            GradedPoly(
                14,
                {
                    (3, 2, 0): f(190, 207360),
                    (1, 3, 0): f(417, 207360),
                    (2, 1, 1): f(540, 207360),
                    (0, 2, 1): f(356, 207360),
                    (1, 0, 2): f(225, 207360),
                },
            ),
        ),
        ZFunction(
            2,
            3,
            GradedPoly(
                16,
                {
                    (4, 2, 0): f(2275, 34836480),
                    (2, 3, 0): f(8925, 34836480),
                    (0, 4, 0): f(3540, 34836480),
                    (3, 1, 1): f(7560, 34836480),
                    (1, 2, 1): f(14984, 34836480),
                    (2, 0, 2): f(4725, 34836480),
                    (0, 1, 2): f(4071, 34836480),
                },
            ),
        ),
    ]


def genus_series_n1(g_max, q_order):
    """Genus-by-genus q-expansions for fiber degree 1 via resummation:

        sum_g Z_g lam^(2g) = Z_0(q) exp(2 sum_k (zeta_ratio(k)/k) E_{2k} lam^(2k))

    with Z_0 = E4 / prod (1-q^k)^12.  Returns [Z_0, ..., Z_{g_max}].

    The exponential is read off its product form, the integer y-rows of
    _product_rows (y = lam^2), which triple_product_check verifies: Z_g is the
    integer Z_0 convolved with row g, one Fraction made per coefficient.
    """
    require_int(g_max=g_max, q_order=q_order)
    if g_max < 0 or q_order < 0:
        raise ValueError(f"need g_max >= 0 and q_order >= 0, got {g_max} and {q_order}")
    dz, z0 = _realize_ints(GradedPoly.e4(), 1, q_order)
    rows = _product_rows(2 * g_max, q_order)
    return [QSeries([Fraction(x, dz * d) for x in _int_convolution(z0, r)]) for r, d in rows]


def triple_product_rhs(lambda_order, q_order):
    """The product side of triple_product_check as a q-series (order q_order)
    of y-series in y = lam^2 (order lambda_order // 2), whose y^j coefficient
    is that of lam^(2j): the rows of _product_rows, one Fraction per entry."""
    require_int(lambda_order=lambda_order, q_order=q_order)
    if lambda_order < 0 or q_order < 0:
        raise ValueError(
            f"need lambda_order >= 0 and q_order >= 0, got {lambda_order} and {q_order}"
        )
    nums, dens = zip(*_product_rows(lambda_order, q_order))
    return QSeries([QSeries(list(map(Fraction, col, dens)), var="y") for col in zip(*nums)])


def _product_rows(lambda_order, q_order):
    """[(r_j, d_j) for j <= lambda_order // 2]: the product side's q^m y^j
    coefficient is r_j[m] / d_j, with d_j = D (2j)! and r_j the sum over i <= j
    of (-1)^i (2j)!/(2i)! P_{j-i} M_i, for the prefactor's y^j coefficient
    P_j / D and the moments M_i[m] = sum_k c_{m,k} k^(2i) (triple_product_check);
    (D, P) is the integer h = 0 kernel row of _sin_power_cached."""
    half = lambda_order // 2
    # lam^2 / (2 - 2 cos lam) = lam^2 (2 sin(lam/2))^(-2): the transform's h = 0 row
    # (D, V) over int, its lam^(2j-2) coefficient V[j] / D the y^j one here
    d_p, p = _sin_power_cached(-2, 2 * half - 2)
    moments = []  # moments[m] = [M_0[m], ..., M_half[m]], by running powers of k^2
    for layer in euler_int_layers([((0,), 1, 4), ((1,), 1, -2), ((-1,), 1, -2)], q_order, 1):
        squares, terms = [k * k for (k,) in layer], list(layer.values())
        moments.append([sum(terms)])
        for _ in range(half):
            terms = list(map(mul, terms, squares))
            moments[-1].append(sum(terms))
    rows = []
    for j in range(half + 1):
        top = factorial(2 * j)
        weights = [(-1) ** i * (top // factorial(2 * i)) * p[j - i] for i in range(j + 1)]
        rows.append(([sum(map(mul, weights, mo)) for mo in moments], d_p * top))
    return rows


def _exponential_rows(lambda_order, q_order):
    """[(l_n, e_n) for n <= lambda_order // 2]: the exponential side's q^m y^n
    coefficient is l_n[m] / e_n.  With A_k = w_k E_{2k} the exponent's y^k
    term, L_0 = 1 and n L_n = sum_{k<=n} k A_k L_{n-k}, over one denominator
    reduced by the gcd of its content.  Each E_{2k} is read as the integer
    row (D, V) of modular's kernel, no Fraction made."""
    scaled = []  # k A_k = 2 zeta_ratio(k) E_{2k} for k >= 1, over int
    for k in range(1, lambda_order // 2 + 1):
        z = zeta_even_ratio(k)
        d, e = _eisenstein_row(2 * k, q_order)
        scaled.append(([2 * z.numerator * x for x in e], z.denominator * d))
    rows = [([1] + [0] * q_order, 1)]
    for n in range(1, len(scaled) + 1):
        pairs = list(zip(scaled, reversed(rows)))  # (k A_k, L_{n-k}) for k = 1..n
        common = lcm(*[d * e for (_, d), (_, e) in pairs])
        weights = [common // (d * e) for (_, d), (_, e) in pairs]
        convolved = [_int_convolution(a, b) for (a, _), (b, _) in pairs]
        acc = [sum(map(mul, weights, col)) for col in zip(*convolved)]
        g = gcd(n * common, *acc)
        rows.append(([x // g for x in acc], n * common // g))
    return rows


def triple_product_check(lambda_order, q_order):
    """Verify the resummation exponential against its infinite-product form:

        exp(2 sum_k zeta_ratio(k) E_{2k}(q) lam^(2k) / k)
            = (lam^2 / (2 - 2 cos lam)) prod_n (1-q^n)^4 / (1 - 2 cos(lam) q^n + q^(2n))^2

    as an identity in Q[[lam^2, q]].  Returns {"ok", "first_mismatch", ...}.

    The right side (_product_rows) is built over Z in t = e^(i lam), where
    1 - 2 cos(lam) q^n + q^(2n) = (1 - t q^n)(1 - t^-1 q^n), so that
    P(t, q) = prod_n (1-q^n)^4 / ((1 - t q^n)(1 - t^-1 q^n))^2 is one call of
    the integer Euler kernel.  P is symmetric under t <-> t^-1, so with
    c_{m,k} its q^m t^k coefficient, P at t = e^(i lam) has no odd powers of
    lam and its q^m lam^(2j) coefficient is (-1)^j/(2j)! sum_k c_{m,k} k^(2j).
    The prefactor is lam^2 times the h = 0 row (2 sin(lam/2))^(-2) of the
    BPS/GW transform's kernel.  The left side (_exponential_rows) is the exp
    of sum_k w_k E_{2k}(q) y^k, w_k = 2 zeta_ratio(k) / k.  Both sides are
    y-rows in y = lam^2 to order lambda_order // 2, one integer q-series over
    one denominator per y^j, compared by cross-multiplication, m-major;
    Fractions are made only for the first mismatch, reported at its power 2j
    of lam.  The left side comes from modular's integer Eisenstein rows
    (tangent numbers and a divisor sieve) and zeta_even_ratio, the right one
    from the Euler and sin-power kernels, and neither calls the other's, so a
    fault in either shows up as a mismatch.  At q^0 the product is the
    prefactor alone, so every call also checks the transform's h = 0 kernel
    row against the Bernoulli numbers behind zeta_even_ratio.
    """
    require_int(lambda_order=lambda_order, q_order=q_order)
    if lambda_order < 2 or q_order < 2:
        raise ValueError("orders must be >= 2")
    lhs, rhs = _exponential_rows(lambda_order, q_order), _product_rows(lambda_order, q_order)
    first_mismatch = None
    for m, j in product(range(q_order + 1), range(len(lhs))):
        (l, dl), (r, dr) = lhs[j], rhs[j]
        if l[m] * dr != r[m] * dl:
            lhs_m, rhs_m = Fraction(l[m], dl), Fraction(r[m], dr)
            first_mismatch = {"lambda": 2 * j, "q": m, "lhs": lhs_m, "rhs": rhs_m}
            break
    return {
        "ok": first_mismatch is None,
        "first_mismatch": first_mismatch,
        "lambda_order": lambda_order,
        "q_order": q_order,
    }
