"""Exact q-expansions of Eisenstein series and their rational constants.

Normalizations:
  E_{2k}(q) = 1 - (4k/B_{2k}) sum_{n>=1} sigma_{2k-1}(n) q^n   (constant term 1),
so E2 = 1 - 24 sum sigma_1 q^n, E4 = 1 + 240 sum sigma_3 q^n,
E6 = 1 - 504 sum sigma_5 q^n.  Bernoulli numbers use the B_1 = -1/2
convention (only even indices are consumed downstream); the even ones come
from the integer tangent numbers.  Each E_{2k} is built as one integer row
over one denominator, its sigma values from one divisor sieve.  zeta(2k)
never appears as a real number; only the exact rational zeta(2k)/(2pi)^{2k}
does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt

from .qseries import QSeries, require_int


class BadWeight(ValueError):
    """Eisenstein weight must be a positive even integer."""


_even_bernoulli = [Fraction(1)]  # _even_bernoulli[k] = B_2k


def _tangent_numbers(n):
    """[0, T_1, ..., T_n], tan x = sum_k T_k x^(2k-1) / (2k-1)!, over int by
    the in-place recurrence of Brent and Harvey (Fast computation of
    Bernoulli, tangent and secant numbers, 2011)."""
    t = [0, 1]
    for k in range(2, n + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def bernoulli(n):
    """Bernoulli number B_n (convention B_1 = -1/2; B_n = 0 for odd n > 1).

    The even ones up to B_n come in one batch from the tangent numbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    require_int(n=n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    top = n // 2
    if top >= len(_even_bernoulli):
        t = _tangent_numbers(top)
        for k in range(len(_even_bernoulli), top + 1):
            four = 4**k
            _even_bernoulli.append(Fraction((-1) ** (k - 1) * 2 * k * t[k], four * (four - 1)))
    return _even_bernoulli[top]


def divisor_sigma(k, n):
    """sum of d**k over the divisors d of n, for ints k >= 0 and n >= 1.

    The divisors pair up as (d, n // d) with d <= isqrt(n); a square's root
    pairs with itself and is counted once."""
    require_int(k=k, n=n)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n < 1:
        raise ValueError("n must be >= 1")
    root = isqrt(n)
    total = sum(d**k + (n // d) ** k for d in range(1, root + 1) if n % d == 0)
    return total - root**k if root * root == n else total


@lru_cache(maxsize=None)
def _eisenstein_row(weight, order):
    """(D, V) over int, gcd(D, *V) == 1, D > 0: V[n] / D is the q^n
    coefficient of E_weight for n <= order and an even int weight >= 2 (the
    callers check it).  With B_weight = p / r, E_weight is (p - 2 weight r
    sum sigma(n) q^n) / p, every sigma_{weight-1}(n) from one divisor sieve
    with d^(weight-1) made once per d, already scaled by -2 weight r."""
    b = bernoulli(weight)
    row = [b.numerator] + [0] * order
    scale = -2 * weight * b.denominator
    for d in range(1, order + 1):
        power = scale * d ** (weight - 1)
        for m in range(d, order + 1, d):
            row[m] += power
    common = gcd(*row) if b.numerator > 0 else -gcd(*row)
    return row[0] // common, tuple(x // common for x in row)


def eisenstein(weight, order):
    """E_weight(q) truncated at q^order, over exact rationals."""
    require_int(weight=weight, order=order)
    if weight % 2 or weight < 2:
        raise BadWeight(f"weight must be even and >= 2, got {weight}")
    d, v = _eisenstein_row(weight, order)
    return QSeries([Fraction(x, d) for x in v], order)


def zeta_even_ratio(k):
    """The exact rational zeta(2k)/(2pi)^{2k} = (-1)^{k+1} B_{2k} / (2 (2k)!)."""
    require_int(k=k)
    if k < 1:
        raise ValueError("k must be >= 1")
    return (-1) ** (k + 1) * bernoulli(2 * k) / (2 * factorial(2 * k))
