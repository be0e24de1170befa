"""The BPS <-> Gromov-Witten transform over a lattice of curve classes.

The defining identity, as an equality of formal series in lambda and q,

    sum_{g, beta} N_g(beta) q^beta lam^(2g-2)
        = sum_{h, beta, k>=1} n_h(beta) (1/k) (2 sin(k lam/2))^(2h-2) q^(k beta),

is used in both directions: gw_from_gv assembles the right side; gv_from_gw
inverts it class by class in increasing degree, peeling h upward at k = 1 and
checking that every solved n_h(beta) is an integer.

Curve classes are nonzero tuples in the cone Z_{>=0}^rank with a positive
degree functional (componentwise weights).  Table windows: a BPS table's
window is a support bound (entries outside are zero); a GW table's window is
a truncation (entries outside are unknown, and reading them raises
InsufficientTruncation).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm

from .laurent import coefficient, collect
from .qseries import require_int

GW = "gw"
BPS = "bps"


class InsufficientTruncation(ValueError):
    """A value outside a table's truncation window was required."""


class NonIntegralBPS(ValueError):
    """gv_from_gw solved a BPS invariant that is not an integer."""

    def __init__(self, cls, h, value):
        super().__init__(f"n_{h}{cls} = {value} is not an integer")
        self.cls = cls
        self.h = h
        self.value = value


class UnpeeledResidual(ArithmeticError):
    """Peeling the BPS numbers of a class left a nonzero GW residual."""

    def __init__(self, cls, residual):
        super().__init__(f"unpeeled residual at {cls}: {residual!r}")
        self.cls = cls
        self.residual = residual


class LambdaSeries:
    """Even Laurent series in lambda with exponents -2, 0, 2, ..., <= order.

    Stored as {even exponent: Fraction}; absent exponents are zero.  The
    kernels of sin_power_series and the residual of UnpeeledResidual are
    LambdaSeries; the transforms themselves work on genus vectors.
    """

    def __init__(self, coeffs=None, order=0):
        self.order = order
        pairs = []
        for e, c in (coeffs or {}).items():
            if e < -2 or e % 2:
                raise ValueError(f"lambda exponent {e} out of range")
            pairs.append((e, coefficient(c, e)))
        self.coeffs = collect((e, c) for e, c in pairs if e <= order)

    def __getitem__(self, e):
        return self.coeffs.get(e, Fraction(0))

    def __add__(self, other):
        order = min(self.order, other.order)
        out = LambdaSeries(order=order)
        terms = chain(self.coeffs.items(), other.coeffs.items())
        out.coeffs = collect((e, c) for e, c in terms if e <= order)
        return out

    def __repr__(self):
        parts = [f"{c}*lam^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _sin_power_cached(exponent, lambda_order):
    """(D, V) over int, gcd(D, *V) == 1: V[m] / D is the x^(exponent + 2m)
    coefficient of (2 sin(x/2))^exponent for exponent + 2m <= lambda_order
    (V is empty when exponent > lambda_order)."""
    # 2 sin(x/2) = x * u(x^2) with u(y) = sum_j (-1)^j y^j / (4^j (2j+1)!),
    # u(0) = 1, so with v = u^exponent
    #     (2 sin(x/2))^exponent = sum_m v_m x^(exponent + 2m).
    # v comes from the power recurrence (Knuth, TAOCP vol. 2, 4.7)
    #     v_0 = 1,  m v_m = sum_{j=1}^{m} ((exponent+1) j - m) u_j v_{m-j},
    # over int: u_j = u[j] / top and v_i = w[i] / d, one running denominator.
    m_max = (lambda_order - exponent) // 2
    if m_max < 0:
        return 1, ()
    top = 4**m_max * factorial(2 * m_max + 1)
    u = [(-1) ** j * top // (4**j * factorial(2 * j + 1)) for j in range(m_max + 1)]
    d, w = 1, [1]
    for m in range(1, m_max + 1):
        s = sum(((exponent + 1) * j - m) * u[j] * w[m - j] for j in range(1, m + 1))
        scale = m * top // gcd(s, m * top)  # v_m = s / (m top d)
        d, w = d * scale, [x * scale for x in w] + [s * scale // (m * top)]
    common = gcd(d, *w)
    return d // common, tuple(x // common for x in w)


def sin_power_series(k, exponent, lambda_order):
    """Exact lambda-expansion of (2 sin(k lam/2))^exponent up to lam^lambda_order.

    exponent = 2h - 2 is even; for h = 0 the series starts at lam^(-2), and
    the series is empty when exponent > lambda_order.  The coefficients of
    (2 sin(x/2))^exponent come from the integer kernel _sin_power_cached; with
    x = k lam the lam^n coefficient is k^n times that of x^n.
    """
    require_int(k=k, exponent=exponent, lambda_order=lambda_order)
    if k < 1:
        raise ValueError("k must be >= 1")
    if exponent % 2 or exponent < -2:
        raise ValueError("exponent must be even and >= -2")
    d, v = _sin_power_cached(exponent, lambda_order)
    out = LambdaSeries(order=lambda_order)
    # n = exponent + 2m >= -2, so k^n c / d = k^(n+2) c / (k^2 d)
    terms = ((exponent + 2 * m, c) for m, c in enumerate(v) if c)
    out.coeffs = {n: Fraction(c * k ** (n + 2), d * k * k) for n, c in terms}
    return out


def _kernel_rows(h_top, lambda_order):
    """rows[h] = (D_h, [a_0, ..., a_{h_top}]) over int for h = 0..h_top, from
    _sin_power_cached: c_{h,g} = a_g / D_h is the lam^(2g-2) coefficient of
    the k = 1 kernel (2 sin(lam/2))^(2h-2); row h starts at g = h with D_h."""
    width = h_top + 1
    kernels = [_sin_power_cached(2 * h - 2, lambda_order) for h in range(width)]
    return [(d, ([0] * h + list(v) + [0] * width)[:width]) for h, (d, v) in enumerate(kernels)]


def _check_windows(lambda_order, degree_order):
    if lambda_order < -2:
        raise ValueError(f"lambda_order must be >= -2, got {lambda_order}")
    if degree_order is not None and degree_order < 0:
        raise ValueError(f"degree_order must be >= 0, got {degree_order}")


class InvariantTable:
    """Map (genus-or-h, curve class) -> value, with truncation metadata.

    kind "gw": entries hold each value as its reduced int pair (num, den),
    den >= 1, so equal values are equal pairs, and get returns a Fraction;
    entries outside the window are unknown.
    kind "bps": entries hold ints; entries outside the window are zero (the
    window is a support bound).

    Input must be exact: rank, degree weights, windows, genera and class
    components of type int, values of type int or Fraction (integral ones
    for bps); anything else raises ValueError.
    """

    def __init__(self, kind, rank, degree_weights, max_genus, max_degree, entries=None):
        if kind not in (GW, BPS):
            raise ValueError(f"kind must be {GW!r} or {BPS!r}")
        degree_weights = tuple(degree_weights)
        if any(type(x) is not int for x in (rank, *degree_weights, max_genus, max_degree)):
            raise ValueError("rank, degree weights, max_genus and max_degree must be ints")
        if rank < 1 or len(degree_weights) != rank or any(w <= 0 for w in degree_weights):
            raise ValueError("need rank >= 1 and one positive degree weight per lattice direction")
        if max_genus < 0 or max_degree < 0:
            raise ValueError("max_genus and max_degree must be >= 0")
        self.kind = kind
        self.rank = rank
        self.degree_weights = degree_weights
        self.max_genus = max_genus
        self.max_degree = max_degree
        self.entries = {}
        for (g, cls), v in (entries or {}).items():
            self.set(g, cls, v)

    def degree(self, cls):
        return sum(w * c for w, c in zip(self.degree_weights, cls))

    def _check_class(self, cls):
        cls = tuple(cls)
        if len(cls) != self.rank or any(type(c) is not int or c < 0 for c in cls) or not any(cls):
            raise ValueError(f"{cls} is not a nonzero class of the rank-{self.rank} effective cone")
        return cls

    def set(self, g, cls, value):
        cls = self._check_class(cls)
        if type(g) is not int or g < 0:
            raise ValueError(f"genus must be an int >= 0, got {g!r}")
        if g > self.max_genus or self.degree(cls) > self.max_degree:
            raise InsufficientTruncation(
                f"({g}, {cls}) lies outside the table window "
                f"(max_genus={self.max_genus}, max_degree={self.max_degree})"
            )
        if type(value) not in (int, Fraction):
            what = f"{type(value).__name__} {value!r}"
            raise ValueError(f"({g}, {cls}): {what} not allowed; use an int or a Fraction")
        n, d = value.numerator, value.denominator
        if self.kind == BPS and d != 1:
            raise NonIntegralBPS(cls, g, value)
        if n:
            self.entries[(g, cls)] = n if self.kind == BPS else (n, d)
        else:
            self.entries.pop((g, cls), None)

    def get(self, g, cls):
        """Value at (g, cls); zero when absent inside the window.  Outside the
        window: zero for BPS tables (support bound), InsufficientTruncation
        for GW tables (unknown)."""
        cls = self._check_class(cls)
        inside = g <= self.max_genus and self.degree(cls) <= self.max_degree
        if self.kind == BPS:
            return self.entries.get((g, cls), 0) if inside else 0
        if inside:
            return Fraction(*self.entries.get((g, cls), (0, 1)))
        raise InsufficientTruncation(
            f"N_{g}{cls} is outside the computed window "
            f"(max_genus={self.max_genus}, max_degree={self.max_degree})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, InvariantTable)
            and self.kind == other.kind
            and self.rank == other.rank
            and self.degree_weights == other.degree_weights
            and self.max_genus == other.max_genus
            and self.max_degree == other.max_degree
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"InvariantTable({self.kind}, rank={self.rank}, "
            f"max_genus={self.max_genus}, max_degree={self.max_degree}, "
            f"{len(self.entries)} entries)"
        )


def iter_classes(rank, degree_weights, max_degree):
    """Yield every nonzero class in Z_{>=0}^rank with degree <= max_degree,
    ordered by (degree, components)."""
    out = []

    def rec(prefix, remaining_budget):
        i = len(prefix)
        if i == rank:
            if any(prefix):
                out.append(tuple(prefix))
            return
        w = degree_weights[i]
        for c in range(remaining_budget // w + 1):
            rec(prefix + [c], remaining_budget - c * w)

    rec([], max_degree)
    out.sort(key=lambda cls: (sum(w * c for w, c in zip(degree_weights, cls)), cls))
    return out


def _genus_denominators(rows, max_k):
    """(E_g for each genus g): one common denominator per genus that makes
    every E_g c_{h,g} an int and every k-th multicover of it exact for
    k <= max_k, for the integer rows of _kernel_rows.  E_g = D_g L^3 at
    g = 0, D_g L at g = 1 and D_g at g >= 2, with D_g the lcm of the reduced
    c_{h,g} denominators and L = lcm(1..max_k): the multicover scale
    k^(2g-3) divides by k^3 at g = 0 and by k at g = 1."""
    big_l = lcm(*range(1, max_k + 1))
    reduced = [[d // gcd(d, a) for a in row] for d, row in rows]
    out = [lcm(*column) for column in zip(*reduced)]
    out[0] *= big_l**3
    if len(out) > 1:
        out[1] *= big_l
    return out


def _add_multicover(t, s, k):
    """t += the k-th multicover of the genus vector s, both scaled as in
    _genus_denominators: the lam^(2g-2) coefficient of (1/k) f(k lam) is
    k^(2g-3) times that of f(lam), and the scale makes g = 0, 1 exact."""
    t[0] += s[0] // k**3
    if len(s) > 1:
        t[1] += s[1] // k
    for g in range(2, len(s)):
        t[g] += k ** (2 * g - 3) * s[g]


def gw_from_gv(bps, lambda_order, degree_order=None):
    """Assemble the Gromov-Witten table from a BPS table.

    Each class beta gets one genus vector s_g(beta) = sum_h n_h(beta) c_{h,g},
    where c_{h,g} is the lam^(2g-2) coefficient of the k = 1 kernel
    (2 sin(lam/2))^(2h-2).  Since the lam^n coefficient of f(k lam) is k^n
    times that of f(lam), the k-th multicover adds k^(2g-3) s_g(beta) to
    N_g(k beta) for every k with deg(k beta) <= degree_order.  Exact for
    every genus with 2g - 2 <= lambda_order.

    The sums run over int: genus g is carried as E_g N_g with the common
    denominator E_g of _genus_denominators, so the k-th multicover divides
    exactly by k^3 at g = 0 and by k at g = 1, and each entry becomes its
    reduced int pair at the end, through one gcd.
    """
    if degree_order is None:
        degree_order = bps.max_degree
    _check_windows(lambda_order, degree_order)
    if bps.kind != BPS:
        raise ValueError("gw_from_gv expects a BPS table")
    if degree_order > bps.max_degree:
        raise InsufficientTruncation(
            f"BPS table only covers degree <= {bps.max_degree}, need {degree_order}"
        )
    max_genus = (lambda_order + 2) // 2
    rows = _kernel_rows(max_genus, lambda_order)
    denominators = _genus_denominators(rows, degree_order // min(bps.degree_weights))
    rows = [[e * a // d for e, a in zip(denominators, row)] for d, row in rows]
    vectors = {}  # class -> E_g s_g(beta)
    for (h, beta), n in bps.entries.items():
        # rows of h > max_genus are empty inside the lambda window
        if h <= max_genus and bps.degree(beta) <= degree_order:
            s = vectors.setdefault(beta, [0] * (max_genus + 1))
            for g in range(h, max_genus + 1):
                s[g] += n * rows[h][g]
    acc = {}  # class -> E_g N_g
    for beta, s in vectors.items():
        for k in range(1, degree_order // bps.degree(beta) + 1):
            _add_multicover(acc.setdefault(tuple(k * c for c in beta), [0] * (max_genus + 1)), s, k)
    # every (g, k beta) lies in the window: write the entries unchecked, in
    # (genus, class) order
    gw = InvariantTable(GW, bps.rank, bps.degree_weights, max_genus, degree_order)
    by_class = sorted(acc.items())
    for g, e in enumerate(denominators):
        for beta, t in by_class:
            if t[g]:
                common = gcd(t[g], e)
                gw.entries[(g, beta)] = (t[g] // common, e // common)
    return gw


def gv_from_gw(gw, lambda_order, degree_order=None):
    """Invert the transform: the unique BPS table reproducing gw.

    Proceeds in increasing degree of beta.  The genus vector r_g = N_g(beta)
    loses k^(2g-3) s_g(beta/k) for every k >= 2 dividing gcd(beta), where s
    is the vector the smaller class had before peeling; then h = 0, 1, ... are
    peeled against the k = 1 kernel rows c_{h,g} of (2 sin(lam/2))^(2h-2),
    whose leading term is lam^(2h-2).

    The peel runs over int: genus g is carried as F_g r_g, with F_g the lcm
    of the E_g of _genus_denominators and the denominators of the genus-g
    input entries, so each multicover and each F_g c_{h,g} is an int, and
    n_h(beta) is integral exactly when F_h divides F_h r_h.  A remainder
    raises NonIntegralBPS carrying the exact rational; a nonzero vector left
    after the peel raises UnpeeledResidual.
    """
    if gw.kind != GW:
        raise ValueError("gv_from_gw expects a GW table")
    if degree_order is None:
        degree_order = gw.max_degree
    _check_windows(lambda_order, degree_order)
    h_max = (lambda_order + 2) // 2
    if gw.max_degree < degree_order or gw.max_genus < h_max:
        raise InsufficientTruncation(
            f"GW table window (max_genus={gw.max_genus}, max_degree={gw.max_degree}) "
            f"does not cover genus <= {h_max}, degree <= {degree_order}"
        )
    rows = _kernel_rows(h_max, lambda_order)
    scales = _genus_denominators(rows, degree_order // min(gw.degree_weights))
    entries = [(g, beta, num, den) for (g, beta), (num, den) in gw.entries.items() if g <= h_max]
    denominators = [set() for _ in scales]
    for g, _, _, den in entries:
        denominators[g].add(den)
    scales = [lcm(f, *ds) for f, ds in zip(scales, denominators)]
    rows = [[f * a // d for f, a in zip(scales, row)] for d, row in rows]
    vectors = {}  # class -> F_g N_g
    for g, beta, num, den in entries:
        vectors.setdefault(beta, [0] * (h_max + 1))[g] = num * (scales[g] // den)
    bps = InvariantTable(BPS, gw.rank, gw.degree_weights, h_max, degree_order)
    solved = {}  # class -> -F_g r_g before peeling, so adding a multicover subtracts it
    # the window check above covers every (g, beta) written below
    for beta in iter_classes(gw.rank, gw.degree_weights, degree_order):
        r = vectors.get(beta, [0] * (h_max + 1))
        # remove multicovers k >= 2 of strictly smaller classes
        d = gcd(*beta)
        for k in range(2, d + 1):
            if d % k == 0:
                _add_multicover(r, solved[tuple(c // k for c in beta)], k)
        solved[beta] = [-x for x in r]
        for h, row in enumerate(rows):
            if r[h]:
                n, rest = divmod(r[h], scales[h])
                if rest:
                    raise NonIntegralBPS(beta, h, Fraction(r[h], scales[h]))
                bps.entries[(h, beta)] = n
                for g in range(h, h_max + 1):
                    r[g] -= n * row[g]
        if any(r):
            residual = {2 * g - 2: Fraction(c, f) for g, (c, f) in enumerate(zip(r, scales))}
            raise UnpeeledResidual(beta, LambdaSeries(residual, lambda_order))
    return bps


def roundtrip_check(bps, lambda_order=None, degree_order=None):
    """gv_from_gw(gw_from_gv(bps)) == bps within the windows.

    Returns (ok, diffs) where diffs lists (h, class, expected, got).
    """
    if lambda_order is None:
        lambda_order = 2 * bps.max_genus + 2
    if degree_order is None:
        degree_order = bps.max_degree
    _check_windows(lambda_order, degree_order)
    if lambda_order < 2 * bps.max_genus - 2:
        raise InsufficientTruncation(
            f"lambda_order {lambda_order} cannot resolve h <= {bps.max_genus}"
        )
    gw = gw_from_gv(bps, lambda_order, degree_order)
    back = gv_from_gw(gw, lambda_order, degree_order)
    diffs = []
    h_window = min(bps.max_genus, back.max_genus)
    # both tables are bps tables, so an absent entry is zero
    for beta in iter_classes(bps.rank, bps.degree_weights, degree_order):
        for h in range(h_window + 1):
            want, got = bps.entries.get((h, beta), 0), back.entries.get((h, beta), 0)
            if want != got:
                diffs.append((h, beta, want, got))
    return not diffs, diffs
