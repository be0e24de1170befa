"""Finite-support Laurent polynomials in one or two variables over the rationals.

Exponents are integer tuples (one entry per variable); by convention a single
variable prints as t and two variables print as tL, tR.  The exponent of a
variable encodes twice the Lefschetz weight 2H, so spin-m weight spaces sit at
integer exponents even for half-integer m.  Zero coefficients are never
stored, and each coefficient is kept as given, an int or a Fraction.

The module also holds the sparse-term core (coefficient, collect, mul_terms)
that LaurentPoly, anomaly.GradedPoly and gvtransform.LambdaSeries share, and
the packed-digit codec (pack_width, unpack, digit_sum) through which the
integer Euler kernel and the sl2 peel read back their Kronecker-packed ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add

_VAR_NAMES = {1: ("t",), 2: ("tL", "tR")}


# -- the sparse-term core ------------------------------------------------------
# A term dict maps a key (an exponent tuple, or an int) to a nonzero exact
# coefficient.  The shared classes do all merging and multiplying of term
# dicts through collect and mul_terms.  The core is module functions, not a
# base class: bench/layers.py counts LaurentPoly methods as the laurent
# layer, which the anomaly and transform workloads must not enter.


def coefficient(c, key):
    """c unchanged if its type is int or Fraction; anything else (a float or
    a bool above all) raises ValueError naming key."""
    if type(c) in (int, Fraction):
        return c
    raise ValueError(f"coefficient at {key}: {type(c).__name__} {c!r} is not an int or a Fraction")


def collect(pairs):
    """{key: sum of its coefficients} over (key, coefficient) pairs, zeros dropped."""
    out = {}
    get = out.get
    for key, c in pairs:
        s = get(key)
        out[key] = c if s is None else s + c
    return {key: c for key, c in out.items() if c}


def mul_terms(a, b):
    """The product of two term dicts whose keys are exponent tuples, added
    componentwise."""
    return collect(
        (tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()
    )


# -- the packed-digit codec ----------------------------------------------------
# A finite family of ints d_i is Kronecker-packed as the one int
# sum_i d_i * 2^(w i): the polynomial sum_i d_i X^i at X = 2^w.  Sums and int
# multiples of packed ints are the packed sums and multiples, and so is the
# product by X^k, a shift.  The family reads back exactly while every digit,
# and for digit_sum every digit sum, lies in (-2^(w-1), 2^(w-1)): the caller
# proves that with a majorant of the digits' absolute values and passes it
# to pack_width, so no assert guards the width and python -O runs the same
# code.  Widths are whole bytes, so that unpack reads digits with to_bytes.


def pack_width(bound):
    """The least multiple of 8, w, with 2^(w-1) > bound."""
    return 8 * (bound.bit_length() // 8 + 1)


def unpack(packed, w, count):
    """{i: d_i} for the nonzero balanced digits d_0 .. d_(count-1) of packed,
    a packed int of width w: 2^(w-1) added to each digit makes them all
    nonnegative, and the bytes of the sum are cut into w/8-byte digits."""
    width = w >> 3
    half = 1 << (w - 1)
    zero = half.to_bytes(width, "little")  # a zero digit once half is added
    data = (packed + int.from_bytes(zero * count, "little")).to_bytes(width * count, "little")
    digits = [data[i : i + width] for i in range(0, width * count, width)]
    return {i: int.from_bytes(d, "little") - half for i, d in enumerate(digits) if d != zero}


def digit_sum(packed, w):
    """The sum of the digits of packed, a packed int of width w: its value at
    X = 1, read as the balanced residue mod 2^w - 1 (where 2^w = 1)."""
    modulus = (1 << w) - 1
    n = packed % modulus
    return n - modulus if n >= 1 << (w - 1) else n


class LaurentPoly:
    """Exact Laurent polynomial: {exponent tuple: nonzero int or Fraction}."""

    def __init__(self, terms=None, nvars=1):
        self.nvars = nvars
        pairs = []
        for exps, c in (terms or {}).items():
            exps = (exps,) if isinstance(exps, int) else tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent {exps} has wrong arity for {nvars} vars")
            pairs.append((exps, coefficient(c, exps)))
        self.terms = collect(pairs)

    @classmethod
    def _of(cls, terms, nvars):
        """Wrap a term dict that already has nonzero int or Fraction values."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, nvars=1):
        return cls({(0,) * nvars: value}, nvars)

    # -- basics ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.nvars: other}
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "0"
        names = _VAR_NAMES.get(self.nvars) or tuple(
            f"x{i}" for i in range(self.nvars)
        )
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other, self.nvars)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._of(collect(chain(self.terms.items(), o.terms.items())), self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return LaurentPoly._of(terms, self.nvars)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._of(mul_terms(self.terms, o.terms), self.nvars)

    __rmul__ = __mul__

    # -- structure queries ---------------------------------------------------

    def subs_one(self, var):
        """Set x_var = 1, returning a polynomial in the remaining variables
        (a Fraction if no variable remains)."""
        if not 0 <= var < self.nvars:
            raise ValueError("no such variable")
        if self.nvars == 1:
            return self.eval_ones()
        collected = collect((e[:var] + e[var + 1 :], c) for e, c in self.terms.items())
        return LaurentPoly._of(collected, self.nvars - 1)

    def diagonal(self):
        """Set all variables equal, returning a one-variable polynomial in the
        total exponent (tL = tR = t)."""
        return LaurentPoly._of(collect(((sum(e),), c) for e, c in self.terms.items()), 1)

    def eval_ones(self):
        """Evaluate every variable at 1."""
        return sum(self.terms.values(), Fraction(0))

    def embed(self, nvars, var):
        """View a one-variable polynomial as living in variable `var` of an
        nvars-variable ring."""
        if self.nvars != 1:
            raise ValueError("embed expects a one-variable polynomial")
        terms = {}
        for (e,), c in self.terms.items():
            exps = [0] * nvars
            exps[var] = e
            terms[tuple(exps)] = c
        return LaurentPoly(terms, nvars)
