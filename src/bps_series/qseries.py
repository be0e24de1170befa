"""Truncated formal power series in one variable over an exact coefficient ring.

A QSeries stores the coefficients of q^0 .. q^order densely.  Coefficients may
live in any exact commutative ring that supports +, -, * among themselves and
with int/Fraction scalars: Fraction itself, LaurentPoly, or another QSeries in
a different variable (nested series).  All arithmetic is exact; there is no
floating point anywhere.  Inversion (inv, negative powers) is the exception:
it needs a nonzero int or Fraction constant term, whatever the ring.

Truncation is explicit: binary operations truncate to the minimum of the two
operand orders and never extend a series silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .laurent import LaurentPoly


class NonUnitConstantTerm(ArithmeticError):
    """Inversion of a series whose constant term is not a unit."""


class BadConstantTerm(ArithmeticError):
    """exp of a series with nonzero constant term, or log of one not equal 1."""


class QSeries:
    """sum(coeffs[i] * var**i for i <= order), an element of R[[var]]/var^(order+1)."""

    def __init__(self, coeffs, order=None, var="q"):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient to fix the ring")
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        zero = coeffs[0] * 0
        if len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        while len(coeffs) < order + 1:
            coeffs.append(zero)
        self.coeffs = coeffs
        self.order = order
        self.var = var

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order, var="q"):
        return cls([value], order, var)

    @classmethod
    def zero(cls, order, var="q"):
        return cls.constant(Fraction(0), order, var)

    # -- basics ------------------------------------------------------------

    def _ring_zero(self):
        return self.coeffs[0] * 0

    def __getitem__(self, i):
        """Coefficient of var**i (0 for i < 0; IndexError beyond the order)."""
        if i < 0:
            return self._ring_zero()
        if i > self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def is_same_ring(self, other):
        return isinstance(other, QSeries) and other.var == self.var

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)

    def __eq__(self, other):
        if self.is_same_ring(other):
            if self.order != other.order:
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        if isinstance(other, QSeries):
            return NotImplemented
        # scalar: equal iff constant series with that constant term
        return self.coeffs[0] == other and not any(bool(c) for c in self.coeffs[1:])

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"QSeries({self.var}; order={self.order}; [{shown}{tail}])"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if self.is_same_ring(other):
            n = min(self.order, other.order)
            return QSeries(
                [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n, self.var
            )
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + other
        return QSeries(coeffs, self.order, self.var)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.order, self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.is_same_ring(other):
            return QSeries([c * other for c in self.coeffs], self.order, self.var)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for i in range(n + 1):
            acc = a[0] * b[i]
            for j in range(1, i + 1):
                acc = acc + a[j] * b[i - j]
            out.append(acc)
        return QSeries(out, n, self.var)

    def __rmul__(self, other):
        return QSeries([other * c for c in self.coeffs], self.order, self.var)

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("series powers must be integers")
        if e < 0:
            return self.inv() ** (-e)
        result = QSeries([self._ring_zero() + 1], self.order, self.var)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def inv(self):
        """Multiplicative inverse; requires a nonzero int or Fraction constant
        term, whatever the coefficient ring (NonUnitConstantTerm otherwise)."""
        a = self.coeffs
        if not isinstance(a[0], (int, Fraction)) or a[0] == 0:
            raise NonUnitConstantTerm(f"constant term {a[0]!r} is not a nonzero rational")
        c0inv = Fraction(1) / a[0]
        out = [c0inv]
        for n in range(1, self.order + 1):
            acc = a[1] * out[n - 1]
            for j in range(2, n + 1):
                acc = acc + a[j] * out[n - j]
            out.append(-(c0inv * acc))
        return QSeries(out, self.order, self.var)

    def exp(self):
        """Formal exponential; requires constant term 0 and a ring containing Q."""
        a = self.coeffs
        if bool(a[0]):
            raise BadConstantTerm("exp needs constant term 0")
        one = self._ring_zero() + 1
        out = [one]
        for n in range(1, self.order + 1):
            acc = self._ring_zero()
            for j in range(1, n + 1):
                acc = acc + (j * a[j]) * out[n - j]
            out.append(Fraction(1, n) * acc)
        return QSeries(out, self.order, self.var)

    def log(self):
        """Formal logarithm; requires constant term 1."""
        a = self.coeffs
        if not a[0] == 1:
            raise BadConstantTerm("log needs constant term 1")
        out = [self._ring_zero()]
        for n in range(1, self.order + 1):
            acc = n * a[n]
            for j in range(1, n):
                acc = acc - (j * out[j]) * a[n - j]
            out.append(Fraction(1, n) * acc)
        return QSeries(out, self.order, self.var)


def binomial_coeff(e, j):
    """C(e, j) for integer e of either sign and j >= 0, as an exact integer."""
    if j < 0:
        return 0
    if e >= 0:
        return comb(e, j) if j <= e else 0
    # C(-m, j) = (-1)^j C(m+j-1, j)
    return (-1) ** j * comb(-e + j - 1, j)


def eta_product(exponent, order):
    """prod_{n=1}^{order} (1 - q^n)^exponent over Fraction coefficients.

    exponent = -1 gives the partition-number generating function.
    """
    return geom_factor_product([((), 1, exponent)], order, 0)


def geom_factor_product(specs, order, nvars):
    """prod_{n=1}^{order} prod_{(exps, c, e) in specs} (1 - c * x^exps * q^n)^e
    as a QSeries truncated at order.

    The coefficients are LaurentPoly in nvars variables, or Fraction when
    nvars == 0 (every exps is then ()); euler_int_layers computes them.
    """
    layers = euler_int_layers(specs, order, nvars)
    if nvars == 0:
        return QSeries([Fraction(layer.get((), 0)) for layer in layers], order)
    return QSeries([LaurentPoly(layer, nvars) for layer in layers], order)


def euler_int_layers(specs, order, nvars):
    """The integer core of geom_factor_product: [P_0, ..., P_order] with P_N
    the q^N coefficient of prod_n prod_specs (1 - c * x^exps * q^n)^e as
    {exponent tuple: nonzero int}.

    Each spec is (exps, c, e): an exponent tuple of length nvars, an integer
    coefficient c and an integer exponent e of either sign, so the factor's
    monomial is m = c * x^exps; an entry whose type is not int (a bool, a
    float or a Fraction) raises ValueError naming the spec.  The layers come
    from the log-derivative recurrence (Knuth, TAOCP vol. 2, 4.7)

        N * P_N = sum_{K=1}^{N} b_K * P_{N-K},
        b_K = -sum_{(exps, c, e)} e * sum_{n | K} n * m^(K/n),

    where q d/dq log P = sum_K b_K q^K.  P has integer coefficients, so the
    division by N is exact and no Fraction is ever made.  Each exponent tuple
    is packed into the int sum_i exps[i] * base^i: all exponents stay within
    span = order * max|exps| of 0, so with base = 2 * span + 1 monomial
    products are int additions; the tuples are unpacked once at the end.
    """
    for i, (exps, c, e) in enumerate(specs):
        if len(exps) != nvars:
            raise ValueError(f"every exponent tuple must have {nvars} entries")
        if any(type(x) is not int for x in (*exps, c, e)):
            raise ValueError(f"specs[{i}] = {(exps, c, e)!r}: exponents, c and e must be int")
    span = order * max((abs(a) for exps, _, _ in specs for a in exps), default=0)
    base = 2 * span + 1
    b = [{} for _ in range(order + 1)]
    for exps, c, e in specs:
        key = sum(a * base**i for i, a in enumerate(exps))
        for n in range(1, order + 1):
            for j in range(1, order // n + 1):
                b[n * j][j * key] = b[n * j].get(j * key, 0) - e * n * c**j
    p = [{0: 1}]
    for big_n in range(1, order + 1):
        acc = {}
        get = acc.get
        for k in range(1, big_n + 1):
            prev = p[big_n - k].items()
            for kb, cb in b[k].items():
                for kp, cp in prev:
                    acc[kb + kp] = get(kb + kp, 0) + cb * cp
        p.append({key: v // big_n for key, v in acc.items() if v})

    # adding span to every digit puts them all in [0, base)
    offset = sum(span * base**i for i in range(nvars))

    def unpack(key):
        key += offset
        return tuple(key // base**i % base - span for i in range(nvars))

    return [{unpack(k): v for k, v in layer.items()} for layer in p]
