"""Finite-support Laurent polynomials in one or two variables over Fraction.

Exponents are integer tuples (one entry per variable); by convention a single
variable prints as t and two variables print as tL, tR.  The exponent of a
variable encodes twice the Lefschetz weight 2H, so spin-m weight spaces sit at
integer exponents even for half-integer m.  Zero coefficients are never
stored.

The module also holds the sparse-term core (coefficient, collect, mul_terms)
that LaurentPoly, anomaly.GradedPoly and gvtransform.LambdaSeries share.
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
    """c as a Fraction; an int or a Fraction passes, anything else (a float
    above all) raises ValueError naming key."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
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


class LaurentPoly:
    """Exact Laurent polynomial: {exponent tuple: nonzero Fraction}."""

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
        """Wrap a term dict that already has nonzero Fraction values."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, nvars=1):
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def var(cls, index=0, nvars=1, power=1, coeff=1):
        exps = [0] * nvars
        exps[index] = power
        return cls({tuple(exps): coeff}, nvars)

    # -- basics ------------------------------------------------------------

    def coeff(self, exps):
        if isinstance(exps, int):
            exps = (exps,)
        return self.terms.get(tuple(exps), Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.nvars: Fraction(other)}
        return NotImplemented

    def __hash__(self):
        raise TypeError("LaurentPoly is unhashable")

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

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e < 0:
            return self.inverse() ** (-e)
        result = LaurentPoly.const(1, self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

    def inverse(self):
        """Inverse of a unit (a single monomial)."""
        if len(self.terms) != 1:
            raise ArithmeticError("only monomials are invertible Laurent polynomials")
        (exps, c), = self.terms.items()
        return LaurentPoly({tuple(-e for e in exps): Fraction(1) / c}, self.nvars)

    # -- structure queries ---------------------------------------------------

    def max_exp(self, var=0):
        """Largest exponent of the given variable (polynomial must be nonzero)."""
        return max(e[var] for e in self.terms)

    def flip(self, var=0):
        """Substitute x_var -> x_var^(-1)."""
        flipped = {
            tuple(-x if i == var else x for i, x in enumerate(e)): c
            for e, c in self.terms.items()
        }
        return LaurentPoly._of(flipped, self.nvars)

    def is_symmetric(self, var=0):
        return self.flip(var) == self

    def has_integer_coeffs(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def coeff_of_var_power(self, var, power):
        """Collect the coefficient of x_var^power as a polynomial in the others.

        With one variable the result is a Fraction; with two it is a one-variable
        LaurentPoly in the remaining variable.
        """
        if self.nvars == 1:
            return self.coeff((power,))
        rest = {}
        for exps, c in self.terms.items():
            if exps[var] == power:
                key = tuple(x for i, x in enumerate(exps) if i != var)
                rest[key] = c
        return LaurentPoly(rest, self.nvars - 1)

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
