"""Exact-arithmetic engine for BPS / Gromov-Witten generating-function
identities: truncated q-series over exact coefficient rings, sl2 x sl2
character decompositions, the BPS <-> GW transform, Hilbert-scheme product
formulas, and the holomorphic anomaly recursion."""

from .anomaly import (
    GradedPoly,
    InconsistentBoundary,
    MissingPrerequisite,
    UnderdeterminedBoundary,
    WeightMismatch,
    ZFunction,
    anomaly_rhs,
    d_E2,
    genus_series_n1,
    integrate_e2,
    realize,
    reference_solutions,
    solve_anomaly,
    triple_product_check,
    verify_anomaly,
)
from .goettsche import (
    BettiVector,
    GradedCharacter,
    MismatchAgainstProduct,
    bps_rational_elliptic,
    goettsche_series,
    nakajima_assembly,
    rational_elliptic_character,
    refined_goettsche_res,
    sym_power_series,
)
from .gvtransform import (
    InsufficientTruncation,
    InvariantTable,
    NonIntegralBPS,
    UnpeeledResidual,
    gv_from_gw,
    gw_from_gv,
    iter_classes,
    roundtrip_check,
    sin_power_series,
)
from .laurent import LaurentPoly
from .modular import BadWeight, bernoulli, divisor_sigma, eisenstein, zeta_even_ratio
from .qseries import (
    BadConstantTerm,
    NonUnitConstantTerm,
    QSeries,
    eta_product,
    geom_factor_product,
)
from .sl2 import (
    NonIntegerCoefficient,
    NotSymmetric,
    RouteDisagreement,
    bi_decompose,
    bps_from_character,
    decompose_spins,
    i_basis_char,
    i_basis_layers,
    signed_char,
    spin_char,
    spin_to_I_basis,
    u_expand,
)

__version__ = "0.1.0"
