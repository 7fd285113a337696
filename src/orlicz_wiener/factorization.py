"""Constructive Wiener-Hopf factorization b = G * b_minus * b_plus for
non-vanishing symbols with zero winding number."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexObstructionError,
    NoLogarithmError,
    SpecError,
    TruncationError,
    UnderResolvedError,
    VanishingSymbolError,
)
from .algebra import AlgebraSpace, NormReport, wnf_norms
from .fourier import GridSamples, LaurentPolynomial, fourier_coefficients, sample

VANISH_TOL = 1e-12
STEP_TOL = np.pi / 2
DEFAULT_RESIDUAL_TOL = 1e-8
MAX_GRID = 1 << 16


@dataclass
class WindingDiagnostics:
    """Result of tracking the argument of the symbol around the circle."""

    min_modulus: float
    turns: float  # total argument change / 2 pi
    kappa: int
    defect: float  # |turns - kappa|

    def to_json(self) -> dict:
        return {
            "min_modulus": self.min_modulus,
            "turns": self.turns,
            "kappa": self.kappa,
            "defect": self.defect,
        }


@dataclass
class FactorizationResult:
    """Winding index, scalar factor, truncated one-sided factors, and the
    pointwise reconstruction residual over the grid."""

    kappa: int
    scalar: complex
    minus: LaurentPolynomial
    plus: LaurentPolynomial
    residual: float
    truncation: int
    grid_size: int
    log_coeffs: LaurentPolynomial

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa,
            "scalar": {"re": self.scalar.real, "im": self.scalar.imag},
            "minus": self.minus.to_json(),
            "plus": self.plus.to_json(),
            "residual": self.residual,
            "truncation": self.truncation,
            "grid_size": self.grid_size,
        }


def _arg_steps(values: np.ndarray) -> np.ndarray:
    """Principal argument increments along the closed grid path."""
    rolled = np.roll(values, -1)
    return np.angle(rolled / values)


def winding_number(s: GridSamples) -> WindingDiagnostics:
    """Unwrap the argument around the grid and count full turns."""
    if s.size < 8:
        raise SpecError("winding computation needs a grid of at least 8 points")
    mags = np.abs(s.values)
    min_mod = float(np.min(mags))
    if min_mod < VANISH_TOL:
        raise VanishingSymbolError(
            f"symbol modulus {min_mod:.3e} below {VANISH_TOL:.0e} on the grid"
        )
    steps = _arg_steps(s.values)
    worst = float(np.max(np.abs(steps)))
    if worst >= STEP_TOL:
        raise UnderResolvedError(
            f"argument step {worst:.3f} rad exceeds {STEP_TOL:.3f}; refine the grid"
        )
    turns = float(np.sum(steps) / (2 * np.pi))
    kappa = int(round(turns))
    return WindingDiagnostics(min_mod, turns, kappa, abs(turns - kappa))


def log_symbol(s: GridSamples) -> GridSamples:
    """Continuous logarithm on the grid: ln|v| + i * unwrapped argument,
    with the argument at theta = 0 in (-pi, pi]."""
    diag = winding_number(s)
    if diag.kappa != 0:
        raise NoLogarithmError(diag.kappa)
    return _continuous_log(s)


def _continuous_log(s: GridSamples) -> GridSamples:
    """log_symbol without the winding check, for callers that made it."""
    steps = _arg_steps(s.values)
    arg0 = float(np.angle(s.values[0]))  # principal branch at theta = 0
    args = arg0 + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    return GridSamples(np.log(np.abs(s.values)) + 1j * args)


def _one_sided_eval(lp: LaurentPolynomial, n_grid: int, side: int) -> np.ndarray:
    """Values on the n_grid-point grid of only the strictly positive
    (side=+1) or strictly negative (side=-1) index part of lp: the other
    half of the coefficients and k = 0 are masked out."""
    k = np.arange(-lp.n_max, lp.n_max + 1)
    c = np.where(side * k > 0, lp.coeffs, 0)
    return sample(LaurentPolynomial(c, lp.n_max), n_grid).values


def _one_sided_factor(lc: LaurentPolynomial, n_grid: int, side: int, truncation: int,
                      inverse: bool = False) -> LaurentPolynomial:
    """Truncated coefficients of exp(+-(one-sided part of lc)): the factor
    on the given side, or its inverse."""
    part = _one_sided_eval(lc, n_grid, side)
    return fourier_coefficients(GridSamples(np.exp(-part if inverse else part)), truncation)


def _resolve_winding(b: LaurentPolynomial, n_grid: int, max_grid: int = MAX_GRID):
    """Sample and compute the winding number, doubling the grid on
    under-resolution up to the cap."""
    while True:
        s = sample(b, n_grid)
        try:
            return s, winding_number(s)
        except UnderResolvedError:
            if n_grid >= max_grid:
                raise
            n_grid *= 2


def factorize(b: LaurentPolynomial, n_grid: int = 256, truncation: int = 64,
              tol: float = DEFAULT_RESIDUAL_TOL,
              max_grid: int = MAX_GRID) -> FactorizationResult:
    """Sample, take the continuous logarithm, split its coefficients into
    analytic and anti-analytic parts, and exponentiate pointwise.

    Raises IndexObstructionError when the winding number is nonzero and
    TruncationError when the reconstruction residual exceeds tol, which
    must be positive and finite.
    """
    if not 0 < tol < np.inf:
        raise SpecError(f"residual tolerance must be positive and finite, got {tol}")
    if n_grid & (n_grid - 1) or n_grid < 4 * max(truncation, b.n_max, 1):
        raise SpecError(
            f"grid size {n_grid} must be a power of two >= 4*max(truncation, degree)"
        )
    if n_grid > max_grid:
        raise SpecError(f"grid size {n_grid} exceeds the largest grid {max_grid}")
    s, diag = _resolve_winding(b, n_grid, max_grid)
    if diag.kappa != 0:
        raise IndexObstructionError(diag.kappa)
    logs = _continuous_log(s)
    lc = fourier_coefficients(logs, truncation)
    scalar = cmath.exp(lc.coeff(0))
    n = s.size
    plus = _one_sided_factor(lc, n, +1, truncation)
    minus = _one_sided_factor(lc, n, -1, truncation)
    recon = scalar * sample(plus, n).values * sample(minus, n).values
    residual = float(np.max(np.abs(s.values - recon)))
    if residual > tol:
        raise TruncationError(residual, tol)
    return FactorizationResult(
        kappa=0,
        scalar=scalar,
        minus=minus,
        plus=plus,
        residual=residual,
        truncation=truncation,
        grid_size=s.size,
        log_coeffs=lc,
    )


def membership(res: FactorizationResult, sp: AlgebraSpace,
               tol: float = 1e-12) -> dict[str, NormReport]:
    """Combined norms of both factors and their inverses (inverses obtained
    by exponentiating the negated one-sided log parts), from one batched
    solve."""
    lc, n, trunc = res.log_coeffs, res.grid_size, res.truncation
    parts = {"plus": res.plus,
             "plus_inverse": _one_sided_factor(lc, n, +1, trunc, inverse=True),
             "minus": res.minus,
             "minus_inverse": _one_sided_factor(lc, n, -1, trunc, inverse=True)}
    return dict(zip(parts, wnf_norms([(f, sp) for f in parts.values()], tol)))
