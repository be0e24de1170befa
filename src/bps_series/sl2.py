"""Character algebra of virtual sl2 and sl2 x sl2 representations.

Spins j are stored as doubled integers 2j >= 0; multiplicities are integers
and may be negative (virtual representations are first-class).  The signed
character of the spin-j irreducible is
    (-1)^(2j) * (t^(2j) + t^(2j-2) + ... + t^(-2j)),
matching the trace Tr (-1)^(2H) t^(2H).  I_h denotes [(1/2) + 2(0)]^(tensor h),
whose signed character is (2 - t - t^(-1))^h; expansion in the I-basis and all
decompositions work by peeling the top exponent, which is triangular and stays
in integers.  Each entry point checks and slices its input in one pass over
int (_slices) and peels the slices without making a Fraction (_peel).  A
slice is one int: a coefficient of t for one variable, and for two the tR row
of one power of tL, packed by the codec in laurent with a width proved by an
l1 majorant, so one peel serves one and two variables.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .laurent import LaurentPoly, digit_sum, pack_width, unpack
from .qseries import require_int


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


@lru_cache(maxsize=None, typed=True)
def spin_char(two_j):
    """Signed character of the single spin-(two_j/2) irreducible, cached by
    typed argument as i_basis_char is."""
    require_int(two_j=two_j)
    if two_j < 0:
        raise ValueError("spins must be >= 0")
    sign = -1 if two_j % 2 else 1
    return LaurentPoly({(e,): sign for e in range(-two_j, two_j + 1, 2)}, 1)


def signed_char(mult):
    """Signed character of a virtual spin decomposition {2j: multiplicity}."""
    total = LaurentPoly(nvars=1)
    for two_j, m in mult.items():
        char = spin_char(two_j)
        require_int(multiplicity=m)
        total = total + m * char
    return total


@lru_cache(maxsize=None, typed=True)
def i_basis_char(h):
    """Signed character of I_h = [(1/2) + 2(0)]^(tensor h): (2 - t - t^(-1))^h.
    As 2 - t - t^(-1) = -(t^(1/2) - t^(-1/2))^2, its t^k coefficient is
    (-1)^k C(2h, h + k) for |k| <= h.  The cache is typed, so a bool is
    refused even after the int it equals is cached."""
    require_int(h=h)
    if h < 0:
        raise ValueError("I-basis levels must be >= 0")
    return LaurentPoly(
        {(k,): -comb(2 * h, h + k) if k % 2 else comb(2 * h, h + k) for k in range(-h, h + 1)}, 1
    )


def _slices(p, nvars, caller, char_of_level):
    """The tL-slices {e: int} of p and their packing (w, s), for a peel by
    char_of_level.

    One read of p.terms refuses what no peel decomposes, naming the public
    caller: a wrong number of variables, then a non-integer coefficient,
    then asymmetry under tL <-> tL^(-1), then under tR <-> tR^(-1).

    For one variable the slice at e is the coefficient of t^e (w = s = 0).
    For two, the row {x: c} of tR exponents at tL^e is packed into the one
    int sum_x c * 2^(w (x + s)), s the largest |tR exponent|: the row at
    tR = 2^w, shifted by s.  The same peel run on the rows' l1 norms with the
    absolute coefficients of char_of_level bounds the l1 norm of every row
    the peel holds, and so every digit and digit sum; w is the pack_width of
    its largest value.
    """
    if p.nvars != nvars:
        raise ValueError(f"{caller} expects a polynomial in {nvars} variable(s), got {p.nvars}")
    if nvars == 1:
        ints = {}
        for (e,), c in p.terms.items():
            if c.denominator != 1:
                raise NonIntegerCoefficient(f"{caller}: non-integer coefficients in {p!r}")
            ints[e] = c.numerator
        if any(ints.get(-e) != c for e, c in ints.items()):
            raise NotSymmetric(f"{caller}: not symmetric in variable 0: {p!r}")
        return ints, 0, 0
    rows = {}
    for (e, x), c in p.terms.items():
        if c.denominator != 1:
            raise NonIntegerCoefficient(f"{caller}: non-integer coefficients in {p!r}")
        row = rows.get(e)
        if row is None:
            rows[e] = row = {}
        row[x] = c.numerator
    if any(rows.get(-e) != row for e, row in rows.items()):
        raise NotSymmetric(f"{caller}: not symmetric in variable 0: {p!r}")
    if any({-x: c for x, c in row.items()} != row for row in rows.values()):
        raise NotSymmetric(f"{caller}: not symmetric in variable 1: {p!r}")
    bound = {e: sum(map(abs, row.values())) for e, row in rows.items()}
    for top in range(max(rows, default=-1), -1, -1):
        r = bound.get(top)
        if r:
            for (e,), a in char_of_level(top).terms.items():
                if e != top:
                    bound[e] = bound.get(e, 0) + abs(a) * r
    w = pack_width(max(bound.values(), default=0))
    s = max((max(row) for row in rows.values()), default=0)  # rows are symmetric in tR
    return {e: sum(c << w * (x + s) for x, c in row.items()) for e, row in rows.items()}, w, s


def _unpack(r, w, s):
    """The row {tR exponent: nonzero int} that _slices packed into r with
    width w and shift s."""
    return {i - s: d for i, d in unpack(r, w, 2 * s + 1).items()}


def _peel(rest, char_of_level):
    """{level: r} with sum char_of_level(level)(tL) * r equal to the slices
    rest {e: int}, which it consumes: the slices of _slices (packed rows for
    two variables), or an unpacked layer of an earlier peel.

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
        r = -c if top % 2 else c
        for (e,), a in char_of_level(top).terms.items():
            if e != top:
                s = rest.get(e, 0) - a * r
                if s:
                    rest[e] = s
                else:
                    del rest[e]
        out[top] = r
    return out


def decompose_spins(p):
    """The unique virtual multiset {2j: m} with signed_char(result) == p.

    Peels from the top exponent downward; requires p symmetric with integer
    coefficients.
    """
    slices, _, _ = _slices(p, 1, "decompose_spins", spin_char)
    return _peel(slices, spin_char)


def spin_to_I_basis(decomp):
    """Integers {h: c_h} with sum c_h * char(I_h) == signed_char(decomp),
    for a (possibly virtual) spin decomposition {2j: multiplicity}.

    Always solvable: char(I_h) has top term (-1)^h t^h, so peeling the top
    exponent is triangular over the integers.
    """
    return u_expand(signed_char(decomp))


def bi_decompose(p):
    """Virtual bi-spin multiplicities {(2jL, 2jR): m} reproducing p.

    Decomposes in tL first (with packed tR rows as slices), then unpacks
    each layer once and decomposes it in tR.
    """
    slices, w, s = _slices(p, 2, "bi_decompose", spin_char)
    out = {}
    for two_jl, r in _peel(slices, spin_char).items():
        for two_jr, m in _peel(_unpack(r, w, s), spin_char).items():
            out[(two_jl, two_jr)] = m
    return out


def i_basis_layers(p):
    """Write a bigraded signed character as sum_h char(I_h)(tL) * char(R_h)(tR)
    and decompose each right factor into spins: {h: {2j: multiplicity}}."""
    slices, w, s = _slices(p, 2, "i_basis_layers", i_basis_char)
    return {h: _peel(_unpack(r, w, s), spin_char) for h, r in _peel(slices, i_basis_char).items()}


def bps_from_character(p):
    """{h: n_h} from a bigraded signed character: write p as
    sum_h char(I_h)(tL) * r_h(tR) and take n_h = r_h at tR = 1.

    Two independent routes are computed and must agree: (a) peel I_h layers in
    tL on the packed tR rows, then read each r_h at tR = 1 as the digit_sum
    of its packed int; (b) set tR = 1 first and expand the result in powers
    of u = 2 - tL - tL^(-1).
    """
    slices, w, _ = _slices(p, 2, "bps_from_character", i_basis_char)
    via_layers = {h: n for h, r in _peel(slices, i_basis_char).items() if (n := digit_sum(r, w))}

    via_u = u_expand(p.subs_one(1))

    if via_layers != via_u:
        raise RouteDisagreement(via_layers, via_u)
    return via_layers


def u_expand(w):
    """Expand a symmetric one-variable Laurent polynomial in powers of
    u = 2 - t - t^(-1): returns {h: integer} with w == sum n_h * u^h."""
    slices, _, _ = _slices(w, 1, "u_expand", i_basis_char)
    return _peel(slices, i_basis_char)
