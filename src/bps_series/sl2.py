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


def _check_decomposable(p, what="polynomial"):
    if not p.has_integer_coeffs():
        raise NonIntegerCoefficient(f"{what} has non-integer coefficients: {p!r}")
    for var in range(p.nvars):
        if not p.is_symmetric(var):
            raise NotSymmetric(f"{what} not symmetric in variable {var}: {p!r}")


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


def _peel_top(p, char_of_level, what):
    """{level: n} with p == sum n * char_of_level(level), for a symmetric
    one-variable p with integer coefficients (what names p in errors).

    char_of_level(m) must have top term (-1)^m t^m; peels from the top
    exponent downward, which is triangular and stays in integers.
    """
    _check_decomposable(p, what)
    out = {}
    rest = p
    while rest:
        top = rest.max_exp(0)
        if top < 0:
            raise NotSymmetric(f"residual has only negative exponents: {rest!r}")
        c = rest.coeff((top,))
        m = int(c) if top % 2 == 0 else -int(c)
        out[top] = m
        rest = rest - m * char_of_level(top)
    return out


def decompose_spins(p):
    """The unique virtual multiset {2j: m} with signed_char(result) == p.

    Peels from the top exponent downward; requires p symmetric with integer
    coefficients.
    """
    return _peel_top(p, spin_char, "polynomial")


def spin_to_I_basis(decomp):
    """Integers {h: c_h} with sum c_h * char(I_h) == signed_char(decomp),
    for a (possibly virtual) spin decomposition {2j: multiplicity}.

    Always solvable: char(I_h) has top term (-1)^h t^h, so peeling the top
    exponent is triangular over the integers.
    """
    return u_expand(signed_char(decomp))


def _peel_left(p, char_of_level):
    """Write a two-variable p as sum over levels of char_of_level(m)(tL) * r_m(tR).

    char_of_level(m) must be a one-variable polynomial with top term
    (+-1) t^m; returns {m: r_m} with r_m one-variable in tR.
    """
    rest = p
    layers = {}
    while rest:
        top = rest.max_exp(0)
        c = rest.coeff_of_var_power(0, top)  # LaurentPoly in tR
        lead = char_of_level(top).coeff((top,))
        r = c if lead == 1 else -c
        layers[top] = layers.get(top, LaurentPoly(nvars=1)) + r
        rest = rest - char_of_level(top).embed(2, 0) * r.embed(2, 1)
    return {m: r for m, r in layers.items() if r}


def bi_decompose(p):
    """Virtual bi-spin multiplicities {(2jL, 2jR): m} reproducing p.

    Decomposes in tL first (with tR-polynomial coefficients), then decomposes
    each layer in tR.
    """
    if p.nvars != 2:
        raise ValueError("bi_decompose expects a two-variable polynomial")
    _check_decomposable(p)
    out = {}
    for two_jl, layer in _peel_left(p, spin_char).items():
        for two_jr, m in decompose_spins(layer).items():
            out[(two_jl, two_jr)] = m
    return out


def i_basis_layers(p):
    """Write a bigraded signed character as sum_h char(I_h)(tL) * char(R_h)(tR)
    and decompose each right factor into spins: {h: {2j: multiplicity}}."""
    if p.nvars != 2:
        raise ValueError("i_basis_layers expects a two-variable polynomial")
    _check_decomposable(p)
    return {
        h: decompose_spins(r) for h, r in _peel_left(p, i_basis_char).items()
    }


def bps_from_character(p):
    """{h: n_h} from a bigraded signed character: write p as
    sum_h char(I_h)(tL) * r_h(tR) and take n_h = r_h at tR = 1.

    Two independent routes are computed and must agree: (a) peel I_h layers in
    tL, then evaluate each r_h at tR = 1; (b) set tR = 1 first and expand the
    result in powers of u = 2 - tL - tL^(-1).
    """
    if p.nvars != 2:
        raise ValueError("bps_from_character expects a two-variable polynomial")
    _check_decomposable(p)

    via_layers = {}
    for h, r in _peel_left(p, i_basis_char).items():
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
    return _peel_top(w, i_basis_char, "u-expansion input")
