"""Exception hierarchy shared by the whole package, and the check on JSON
numbers that every JSON parser in it uses."""


class OrliczWienerError(Exception):
    """Base class for all package errors."""


class DomainError(OrliczWienerError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SpecError(OrliczWienerError, ValueError):
    """A spec string, JSON document, or configuration is malformed."""


class InvalidWeightError(OrliczWienerError, ValueError):
    """A weight sequence violates its declared class conditions."""


class VanishingSymbolError(OrliczWienerError):
    """The symbol is (numerically) zero somewhere on the sampling grid."""


class UnderResolvedError(OrliczWienerError):
    """The grid is too coarse to track the argument of the symbol."""


class NoLogarithmError(OrliczWienerError):
    """The symbol has nonzero winding number, so no continuous logarithm."""

    def __init__(self, kappa: int):
        super().__init__(f"symbol has winding number {kappa}, no continuous logarithm")
        self.kappa = kappa


class IndexObstructionError(OrliczWienerError):
    """Factorization rejected because the winding number is nonzero."""

    def __init__(self, kappa: int):
        super().__init__(f"factorization obstructed: winding number {kappa} != 0")
        self.kappa = kappa


class TruncationError(OrliczWienerError):
    """The factorization residual exceeds the requested tolerance."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"truncation insufficient: residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
        self.residual = residual
        self.tol = tol


def json_real(v, what: str) -> float:
    """A JSON number as a float.  Strings, bools, null and integers beyond
    the double range are refused with SpecError; ``what`` names the value
    in the message."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{what} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise SpecError(f"{what} is beyond the double range") from exc
