"""Exception hierarchy shared by the whole package, the one reader of outside
JSON, and the check on JSON numbers that every JSON parser in it uses."""

import json
from pathlib import Path


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


class IndexObstructionError(OrliczWienerError):
    """The symbol has a nonzero winding number, so it has no continuous
    logarithm and no Wiener-Hopf factorization."""

    def __init__(self, kappa: int):
        super().__init__(
            f"winding number {kappa} != 0: no continuous logarithm, so no factorization")
        self.kappa = kappa


class TruncationError(OrliczWienerError):
    """The factorization residual, or the l1 distance from 1 of a factor
    times its truncated inverse, exceeds the requested tolerance."""

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


def read_json(source: str | Path, what: str):
    """The one reader of outside JSON: parse the text ``source``, or the
    UTF-8 file a Path names.  Every failure, a repeated key in any object
    and nesting too deep to parse among them, is one SpecError naming
    ``what``."""
    try:
        text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecError(f"cannot read {what}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SpecError(f"repeated key {key!r}")
        doc[key] = value
    return doc
