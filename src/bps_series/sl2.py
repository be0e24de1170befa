"""Character algebra of virtual sl2 and sl2 x sl2 representations.

Spins j are stored as doubled integers 2j >= 0; multiplicities are integers
and may be negative (virtual representations are first-class).  The signed
character of the spin-j irreducible is
    (-1)^(2j) * (t^(2j) + t^(2j-2) + ... + t^(-2j)),
matching the trace Tr (-1)^(2H) t^(2H).  I_h denotes [(1/2) + 2(0)]^(tensor h),
whose signed character is (2 - t - t^(-1))^h; expansion in the I-basis and all
decompositions work by peeling the top exponent, which is triangular and stays
in integers.  Each entry point checks and slices its input in one pass over
int (_slices) and peels the slices without making a Fraction (_peel).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .laurent import LaurentPoly


class NotSymmetric(ValueError):
    """Input polynomial is not symmetric under t <-> t^(-1)."""


class NonIntegerCoefficient(ValueError):
    """Multiplicities must be integers; got a non-integer coefficient."""


class RouteDisagreement(ArithmeticError):
    """I-basis peeling and the u-expansion give different BPS numbers."""

    def __init__(self, via_character, via_u):
        super().__init__(
            f"I-basis peeling gave {via_character} but u-expansion gave {via_u}"
        )
        self.via_character = via_character
        self.via_u = via_u


def spin_char(two_j):
    """Signed character of the single spin-(two_j/2) irreducible."""
    sign = -1 if two_j % 2 else 1
    return LaurentPoly({(e,): sign for e in range(-two_j, two_j + 1, 2)}, 1)


def signed_char(mult):
    """Signed character of a virtual spin decomposition {2j: multiplicity}."""
    total = LaurentPoly(nvars=1)
    for two_j, m in mult.items():
        if two_j < 0:
            raise ValueError("spins must be >= 0")
        total = total + m * spin_char(two_j)
    return total


@lru_cache(maxsize=None)
def i_basis_char(h):
    """Signed character of I_h = [(1/2) + 2(0)]^(tensor h): (2 - t - t^(-1))^h.
    As 2 - t - t^(-1) = -(t^(1/2) - t^(-1/2))^2, its t^k coefficient is
    (-1)^k C(2h, h + k) for |k| <= h."""
    return LaurentPoly(
        {(k,): -comb(2 * h, h + k) if k % 2 else comb(2 * h, h + k) for k in range(-h, h + 1)}, 1
    )


def _slices(p, nvars, caller):
    """The tL-slices {e: coefficient of tL^e} of p over int: an int for one
    variable, a dict {tR exponent: int} for two.

    One read of p.terms refuses what no peel decomposes, naming the public
    caller: a wrong number of variables, then a non-integer coefficient,
    then asymmetry under tL <-> tL^(-1), then under tR <-> tR^(-1).
    """
    if p.nvars != nvars:
        raise ValueError(f"{caller} expects a polynomial in {nvars} variable(s), got {p.nvars}")
    ints = {}
    for e, c in p.terms.items():
        if c.denominator != 1:
            raise NonIntegerCoefficient(f"{caller}: non-integer coefficients in {p!r}")
        ints[e] = c.numerator
    for var in range(nvars):
        if any(ints.get(e[:var] + (-e[var],) + e[var + 1 :]) != c for e, c in ints.items()):
            raise NotSymmetric(f"{caller}: not symmetric in variable {var}: {p!r}")
    if nvars == 1:
        return {e: c for (e,), c in ints.items()}
    rows = {}
    for (el, er), c in ints.items():
        rows.setdefault(el, {})[er] = c
    return rows


def _peel(rest, char_of_level):
    """{level: r} with sum char_of_level(level)(tL) * r equal to the slices
    rest, which it consumes: the checked slices of _slices, or a layer r of
    an earlier peel; r is an int for one-variable slices and a dict
    {tR exponent: int} for two.

    char_of_level(m) must have top term (-1)^m t^m and integer coefficients.
    Each step pops the top slice c, records r = (-1)^top c and subtracts
    a * r from the slice at every other exponent e of char_of_level(top), a
    its coefficient there; the top exponent strictly falls, and all of it is
    int arithmetic.  Slices left only at negative exponents mean the input
    was not symmetric, and raise NotSymmetric.
    """
    out = {}
    while rest:
        top = max(rest)
        if top < 0:
            raise NotSymmetric(f"peeling left only negative tL exponents: {rest}")
        c = rest.pop(top)
        steps = [(e, -a) for (e,), a in char_of_level(top).terms.items() if e != top]
        if isinstance(c, int):
            r = -c if top % 2 else c
            for e, k in steps:
                s = rest.get(e, 0) + k * r
                if s:
                    rest[e] = s
                else:
                    del rest[e]
        else:
            r = {x: -v for x, v in c.items()} if top % 2 else c
            for e, k in steps:
                row = rest.setdefault(e, {})
                for x, v in r.items():
                    s = row.get(x, 0) + k * v
                    if s:
                        row[x] = s
                    else:
                        del row[x]
                if not row:
                    del rest[e]
        out[top] = r
    return out


def decompose_spins(p):
    """The unique virtual multiset {2j: m} with signed_char(result) == p.

    Peels from the top exponent downward; requires p symmetric with integer
    coefficients.
    """
    return _peel(_slices(p, 1, "decompose_spins"), spin_char)


def spin_to_I_basis(decomp):
    """Integers {h: c_h} with sum c_h * char(I_h) == signed_char(decomp),
    for a (possibly virtual) spin decomposition {2j: multiplicity}.

    Always solvable: char(I_h) has top term (-1)^h t^h, so peeling the top
    exponent is triangular over the integers.
    """
    return u_expand(signed_char(decomp))


def bi_decompose(p):
    """Virtual bi-spin multiplicities {(2jL, 2jR): m} reproducing p.

    Decomposes in tL first (with tR-slice coefficients), then decomposes
    each layer in tR.
    """
    out = {}
    for two_jl, layer in _peel(_slices(p, 2, "bi_decompose"), spin_char).items():
        for two_jr, m in _peel(layer, spin_char).items():
            out[(two_jl, two_jr)] = m
    return out


def i_basis_layers(p):
    """Write a bigraded signed character as sum_h char(I_h)(tL) * char(R_h)(tR)
    and decompose each right factor into spins: {h: {2j: multiplicity}}."""
    layers = _peel(_slices(p, 2, "i_basis_layers"), i_basis_char)
    return {h: _peel(r, spin_char) for h, r in layers.items()}


def bps_from_character(p):
    """{h: n_h} from a bigraded signed character: write p as
    sum_h char(I_h)(tL) * r_h(tR) and take n_h = r_h at tR = 1.

    Two independent routes are computed and must agree: (a) peel I_h layers in
    tL, then evaluate each r_h at tR = 1; (b) set tR = 1 first and expand the
    result in powers of u = 2 - tL - tL^(-1).
    """
    via_layers = {}
    for h, r in _peel(_slices(p, 2, "bps_from_character"), i_basis_char).items():
        n = sum(r.values())
        if n:
            via_layers[h] = n

    via_u = u_expand(p.subs_one(1))

    if via_layers != via_u:
        raise RouteDisagreement(via_layers, via_u)
    return via_layers


def u_expand(w):
    """Expand a symmetric one-variable Laurent polynomial in powers of
    u = 2 - t - t^(-1): returns {h: integer} with w == sum n_h * u^h."""
    return _peel(_slices(w, 1, "u_expand"), i_basis_char)
