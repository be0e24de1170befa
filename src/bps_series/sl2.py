"""Character algebra of virtual sl2 and sl2 x sl2 representations.

Spins j are stored as doubled integers 2j >= 0; multiplicities are integers
and may be negative (virtual representations are first-class).  The signed
character of the spin-j irreducible is
    (-1)^(2j) * (t^(2j) + t^(2j-2) + ... + t^(-2j)),
matching the trace Tr (-1)^(2H) t^(2H).  I_h denotes [(1/2) + 2(0)]^(tensor h),
whose signed character is (2 - t - t^(-1))^h; expansion in the I-basis and all
decompositions work by peeling the top exponent, which is triangular and stays
in integers.
"""

from __future__ import annotations

from functools import lru_cache

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


def _check_decomposable(p, nvars, caller):
    """Refuse what no peel decomposes, naming the public caller."""
    if p.nvars != nvars:
        raise ValueError(f"{caller} expects a polynomial in {nvars} variable(s), got {p.nvars}")
    if not p.has_integer_coeffs():
        raise NonIntegerCoefficient(f"{caller}: non-integer coefficients in {p!r}")
    for var in range(nvars):
        if not p.is_symmetric(var):
            raise NotSymmetric(f"{caller}: not symmetric in variable {var}: {p!r}")


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
    """Signed character of I_h = [(1/2) + 2(0)]^(tensor h): (2 - t - t^(-1))^h."""
    base = LaurentPoly({(0,): 2, (1,): -1, (-1,): -1}, 1)
    return base**h


def _slices(p):
    """The tL-slices {e: coefficient of tL^e} of p: an int for one variable,
    a one-variable LaurentPoly in tR for two."""
    if p.nvars == 1:
        return {e: int(c) for (e,), c in p.terms.items()}
    rows = {}
    for (el, er), c in p.terms.items():
        rows.setdefault(el, {})[(er,)] = c
    return {e: LaurentPoly._of(row, 1) for e, row in rows.items()}


def _peel(p, char_of_level):
    """{level: r} with p == sum char_of_level(level)(tL) * r, for a symmetric
    p with integer coefficients; r is an int for one variable and a
    one-variable LaurentPoly in tR for two.

    char_of_level(m) must have top term (-1)^m t^m.  Each step pops the top
    tL-slice c, records r = (-1)^top c and subtracts a * r from the slice at
    every other exponent e of char_of_level(top), a its coefficient there;
    the top exponent strictly falls, and all of it stays in integers.
    """
    rest = _slices(p)
    out = {}
    while rest:
        top = max(rest)
        if top < 0:
            raise NotSymmetric(f"peeling left only negative tL exponents: {p!r}")
        c = rest.pop(top)
        r = c if top % 2 == 0 else -c
        out[top] = r
        for (e,), a in char_of_level(top).terms.items():
            if e != top:
                s = r * -int(a)
                if e in rest:
                    s = rest[e] + s
                if s:
                    rest[e] = s
                else:
                    del rest[e]
    return out


def decompose_spins(p):
    """The unique virtual multiset {2j: m} with signed_char(result) == p.

    Peels from the top exponent downward; requires p symmetric with integer
    coefficients.
    """
    _check_decomposable(p, 1, "decompose_spins")
    return _peel(p, spin_char)


def spin_to_I_basis(decomp):
    """Integers {h: c_h} with sum c_h * char(I_h) == signed_char(decomp),
    for a (possibly virtual) spin decomposition {2j: multiplicity}.

    Always solvable: char(I_h) has top term (-1)^h t^h, so peeling the top
    exponent is triangular over the integers.
    """
    return u_expand(signed_char(decomp))


def bi_decompose(p):
    """Virtual bi-spin multiplicities {(2jL, 2jR): m} reproducing p.

    Decomposes in tL first (with tR-polynomial coefficients), then decomposes
    each layer in tR.
    """
    _check_decomposable(p, 2, "bi_decompose")
    out = {}
    for two_jl, layer in _peel(p, spin_char).items():
        for two_jr, m in decompose_spins(layer).items():
            out[(two_jl, two_jr)] = m
    return out


def i_basis_layers(p):
    """Write a bigraded signed character as sum_h char(I_h)(tL) * char(R_h)(tR)
    and decompose each right factor into spins: {h: {2j: multiplicity}}."""
    _check_decomposable(p, 2, "i_basis_layers")
    return {h: decompose_spins(r) for h, r in _peel(p, i_basis_char).items()}


def bps_from_character(p):
    """{h: n_h} from a bigraded signed character: write p as
    sum_h char(I_h)(tL) * r_h(tR) and take n_h = r_h at tR = 1.

    Two independent routes are computed and must agree: (a) peel I_h layers in
    tL, then evaluate each r_h at tR = 1; (b) set tR = 1 first and expand the
    result in powers of u = 2 - tL - tL^(-1).
    """
    _check_decomposable(p, 2, "bps_from_character")

    via_layers = {}
    for h, r in _peel(p, i_basis_char).items():
        n = r.eval_ones()
        if n.denominator != 1:
            raise NonIntegerCoefficient(f"n_{h} = {n} is not an integer")
        if n:
            via_layers[h] = int(n)

    via_u = u_expand(p.subs_one(1))

    if via_layers != via_u:
        raise RouteDisagreement(via_layers, via_u)
    return via_layers


def u_expand(w):
    """Expand a symmetric one-variable Laurent polynomial in powers of
    u = 2 - t - t^(-1): returns {h: integer} with w == sum n_h * u^h."""
    _check_decomposable(w, 1, "u_expand")
    return _peel(w, i_basis_char)
