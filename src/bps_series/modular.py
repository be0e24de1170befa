"""Exact q-expansions of Eisenstein series and their rational constants.

Normalizations:
  E_{2k}(q) = 1 - (4k/B_{2k}) sum_{n>=1} sigma_{2k-1}(n) q^n   (constant term 1),
so E2 = 1 - 24 sum sigma_1 q^n, E4 = 1 + 240 sum sigma_3 q^n,
E6 = 1 - 504 sum sigma_5 q^n.  Bernoulli numbers use the B_1 = -1/2
convention (only even indices are consumed downstream).  zeta(2k) never
appears as a real number; only the exact rational zeta(2k)/(2pi)^{2k} does.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt

from .qseries import QSeries, require_int


class BadWeight(ValueError):
    """Eisenstein weight must be a positive even integer."""


_bernoulli_cache = [Fraction(1)]  # B_0


def bernoulli(n):
    """Bernoulli number B_n (convention B_1 = -1/2), by the recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0."""
    require_int(n=n)
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * _bernoulli_cache[k]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


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


def eisenstein(weight, order):
    """E_weight(q) truncated at q^order, over exact rationals."""
    require_int(weight=weight, order=order)
    if weight % 2 or weight < 2:
        raise BadWeight(f"weight must be even and >= 2, got {weight}")
    k = weight // 2
    factor = -Fraction(4 * k) / bernoulli(weight)
    coeffs = [Fraction(1)]
    coeffs += [factor * divisor_sigma(weight - 1, n) for n in range(1, order + 1)]
    return QSeries(coeffs, order)


def zeta_even_ratio(k):
    """The exact rational zeta(2k)/(2pi)^{2k} = (-1)^{k+1} B_{2k} / (2 (2k)!)."""
    require_int(k=k)
    if k < 1:
        raise ValueError("k must be >= 1")
    return (-1) ** (k + 1) * bernoulli(2 * k) / (2 * factorial(2 * k))
