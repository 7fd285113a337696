"""Norms and factorization in the algebra of integrable functions whose
Fourier coefficient sides lie in two-weighted Orlicz sequence spaces."""

from .errors import (
    DomainError,
    IndexObstructionError,
    InvalidWeightError,
    OrliczWienerError,
    SpecError,
    TruncationError,
    UnderResolvedError,
    VanishingSymbolError,
)
from .orlicz import (
    NEGATIVE_SIDE,
    NONNEGATIVE_SIDE,
    OrliczFunction,
    WeightSequence,
    luxemburg_brackets,
    luxemburg_norm,
    modular,
    validate_weight,
)
from .fourier import LaurentPolynomial, fourier_coefficients, sample
from .algebra import (
    AlgebraSpace,
    NormReport,
    verify_coefficient_bound,
    verify_one_sided,
    verify_theorem,
    verify_weight_shift,
    wnf_norm,
)
from .factorization import (
    FactorizationResult,
    WindingDiagnostics,
    factorize,
    log_symbol,
    membership,
    winding_number,
)

__version__ = "0.1.0"

__all__ = [
    "OrliczWienerError", "DomainError", "SpecError", "InvalidWeightError",
    "VanishingSymbolError", "UnderResolvedError", "IndexObstructionError",
    "TruncationError",
    "NEGATIVE_SIDE", "NONNEGATIVE_SIDE",
    "OrliczFunction", "WeightSequence", "modular", "luxemburg_norm",
    "luxemburg_brackets", "validate_weight",
    "LaurentPolynomial", "sample", "fourier_coefficients",
    "AlgebraSpace", "NormReport",
    "wnf_norm", "verify_theorem", "verify_one_sided",
    "verify_coefficient_bound", "verify_weight_shift",
    "WindingDiagnostics", "FactorizationResult",
    "winding_number", "log_symbol", "factorize", "membership",
]
