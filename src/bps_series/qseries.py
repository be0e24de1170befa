"""Truncated formal power series in one variable over an exact coefficient ring.

A QSeries stores the coefficients of q^0 .. q^order densely.  Coefficients
live in an exact commutative ring: int or Fraction, LaurentPoly, or another
QSeries in a different variable (nested series); a coefficient of any other
type, a float or a bool included, raises ValueError.  All arithmetic is
exact; there is no floating point anywhere.  Inversion (inv, negative powers)
needs a nonzero int or Fraction constant term, whatever the ring.

Truncation is explicit: binary operations truncate to the minimum of the two
operand orders and never extend a series silently.  The product of two
series whose coefficients are all int or Fraction is one integer
convolution (_rational_product: _scaled, then _int_convolution, both reused
by the resummation in anomaly); every other ring multiplies term by term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul

from .laurent import LaurentPoly, pack_width, unpack


class NonUnitConstantTerm(ArithmeticError):
    """Inversion of a series whose constant term is not a unit."""


class BadConstantTerm(ArithmeticError):
    """exp of a series with nonzero constant term, or log of one not equal 1."""


class QSeries:
    """sum(coeffs[i] * var**i for i <= order), an element of R[[var]]/var^(order+1).

    Every coefficient must be an int, a Fraction, a LaurentPoly or a QSeries
    (exactly those types, so bools are refused); anything else raises
    ValueError naming its index.
    """

    def __init__(self, coeffs, order=None, var="q"):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient to fix the ring")
        if not _EXACT.issuperset(map(type, coeffs)):
            i, c = next((i, c) for i, c in enumerate(coeffs) if type(c) not in _EXACT)
            raise ValueError(
                f"coefficient {i}: {type(c).__name__} {c!r} is not exact; "
                "use an int, a Fraction, a LaurentPoly or a QSeries"
            )
        if order is None:
            order = len(coeffs) - 1
        elif type(order) is not int:  # the common case costs one type test
            require_int(order=order)
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
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        types = {*map(type, a), *map(type, b)}
        if _RATIONAL.issuperset(types):
            return QSeries(_rational_product(a, b, types == {int}), n, self.var)
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
        require_int(exponent=e)
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
        scaled = a[:1] + [j * a[j] for j in range(1, self.order + 1)]  # j * a_j; a_0 = 0
        out = [self._ring_zero() + 1]
        for n in range(1, self.order + 1):
            acc = self._ring_zero()
            for j in range(1, n + 1):
                acc = acc + scaled[j] * out[n - j]
            out.append(Fraction(1, n) * acc)
        return QSeries(out, self.order, self.var)

    def log(self):
        """Formal logarithm; requires constant term 1."""
        a = self.coeffs
        if not a[0] == 1:
            raise BadConstantTerm("log needs constant term 1")
        out, scaled = [self._ring_zero()], [self._ring_zero()]  # scaled[j] = j * out_j
        for n in range(1, self.order + 1):
            acc = n * a[n]
            for j in range(1, n):
                acc = acc - scaled[j] * a[n - j]
            out.append(Fraction(1, n) * acc)
            scaled.append(n * out[n])
        return QSeries(out, self.order, self.var)


# the coefficient types a QSeries takes; one set test per construction
_EXACT = frozenset((int, Fraction, LaurentPoly, QSeries))
_RATIONAL = frozenset((int, Fraction))


def _rational_product(a, b, int_only):
    """The coefficients of sum_i a_i q^i * sum_j b_j q^j through q^(len(a)-1),
    for two equally long lists of ints and Fractions.

    _scaled puts each side over the lcm of its denominators (da, db),
    _int_convolution convolves the integers, and each output coefficient is
    made once as Fraction(acc, da * db), or left an int when both are all int.
    """
    (da, ia), (db, ib) = _scaled(a), _scaled(b)
    sums = _int_convolution(ia, ib)
    if int_only:
        return sums
    d = da * db
    return [Fraction(acc, d) for acc in sums]


def _scaled(a):
    """(d, [x * d for x in a]) for ints and Fractions a, d the lcm of their denominators."""
    d = lcm(*[x.denominator for x in a])
    return d, [x.numerator * (d // x.denominator) for x in a]


def _int_convolution(a, b):
    """sum_i a_i q^i * sum_j b_j q^j through q^(len(a)-1), for ints, len(b) >= len(a)."""
    n = len(a) - 1
    rb = b[n::-1]
    return [sum(map(mul, a[: i + 1], rb[n - i :])) for i in range(n + 1)]


def require_int(**named):
    """Raise ValueError naming the first keyword whose value's type is not
    int (a bool, a float or a Fraction, say)."""
    for name, value in named.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {type(value).__name__} {value!r}")


def binomial_coeff(e, j):
    """C(e, j) for integer e of either sign and j >= 0, as an exact integer."""
    if j < 0:
        return 0
    if e >= 0:
        return comb(e, j) if j <= e else 0
    # C(-m, j) = (-1)^j C(m+j-1, j)
    return (-1) ** j * comb(-e + j - 1, j)


def eta_product(exponent, order):
    """prod_{n=1}^{order} (1 - q^n)^exponent over int coefficients.

    exponent = -1 gives the partition-number generating function.
    """
    return geom_factor_product([((), 1, exponent)], order, 0)


def geom_factor_product(specs, order, nvars):
    """prod_{n=1}^{order} prod_{(exps, c, e) in specs} (1 - c * x^exps * q^n)^e
    as a QSeries truncated at order.

    The coefficients are LaurentPoly in nvars variables, or int when
    nvars == 0 (every exps is then ()): the layers of euler_int_layers, as
    they come.
    """
    layers = euler_int_layers(specs, order, nvars)
    if nvars == 0:
        return QSeries([layer.get((), 0) for layer in layers], order)
    return QSeries([LaurentPoly._of(layer, nvars) for layer in layers], order)


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

    where q d/dq log P = sum_K b_K q^K, run over Kronecker-packed ints.  With
    s = max|exps|, every exponent of b_K and P_K has its digits in [-K s, K s],
    so with base = 2 * order * s + 1 and shift = sum_i s * base^i an exponent
    tuple packs into key = sum_i exps[i] * base^i and key + K * shift has all
    its digits in [0, base).  P_N is stored as one int, its value at X = 2^w
    with each term at X^(key + N * shift), and b_K likewise at K * shift, so
    each recurrence term b_K * P_{N-K} is one big-int multiply.  P has integer
    coefficients, so N divides the packed sum and P_N = acc // N exactly; no
    layer is unpacked before the end and no Fraction is ever made.

    The l1 majorant m_N = [q^N] prod_n prod_specs (1 - |c| q^n)^(-|e|), run
    through the same recurrence over plain ints, bounds every |coefficient|
    of P_N, so w = pack_width(max m), and each layer is unpacked once (see
    the codec in laurent).  With nvars == 0 every key is 0, so each layer is
    one plain int, with no width and no unpacking.
    """
    require_int(order=order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    for i, (exps, c, e) in enumerate(specs):
        if len(exps) != nvars:
            raise ValueError(f"every exponent tuple must have {nvars} entries")
        if any(type(x) is not int for x in (*exps, c, e)):
            raise ValueError(f"specs[{i}] = {(exps, c, e)!r}: exponents, c and e must be int")
    s = max((abs(a) for exps, _, _ in specs for a in exps), default=0)
    base = 2 * order * s + 1
    shift = sum(s * base**i for i in range(nvars))
    keys = [(sum(a * base**i for i, a in enumerate(exps)), c, e) for exps, c, e in specs]
    if nvars == 0:
        return [{(): v} if v else {} for v in _packed_layers(keys, order, 0, 0)]
    w = pack_width(max(_packed_layers([(0, abs(c), -abs(e)) for _, c, e in specs], order, 0, 0)))
    # the exponent tuples of the keys -span..span, in slot order
    span = order * shift
    powers = [base**i for i in range(nvars)]
    tuples = [tuple([j // p % base - order * s for p in powers]) for j in range(2 * span + 1)]
    layers = []
    for big_n, packed in enumerate(_packed_layers(keys, order, w, shift)):
        lo, slots = (order - big_n) * shift, 2 * big_n * shift + 1
        layers.append({tuples[lo + i]: d for i, d in unpack(packed, w, slots).items()})
    return layers


def _packed_layers(keys, order, w, shift):
    """[P_0, ..., P_order] of euler_int_layers as ints at X = 2^w, for specs
    (packed key, c, e), each term of P_N at X^(key + N * shift)."""
    b = [0] * (order + 1)
    for key, c, e in keys:
        for j in range(1, order + 1):
            cj = c**j
            for n in range(1, order // j + 1):
                b[n * j] -= e * n * cj << w * j * (key + n * shift)
    p = [1]
    for big_n in range(1, order + 1):
        p.append(sum(map(mul, b[1 : big_n + 1], reversed(p))) // big_n)
    return p
