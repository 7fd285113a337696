"""Constructive Wiener-Hopf factorization b = G * b_minus * b_plus for
non-vanishing symbols with zero winding number."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IndexObstructionError,
    NoLogarithmError,
    SpecError,
    TruncationError,
    UnderResolvedError,
    VanishingSymbolError,
)
from .algebra import AlgebraSpace, NormReport, wnf_norm_arrays
from .fourier import LaurentPolynomial, fourier_coefficients, sample

# Both gates are relative to max|b| on the grid, so that a symbol and its
# multiples by any nonzero scalar get the same answer.
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
    """Winding index, scalar factor, truncated one-sided factors, the
    pointwise reconstruction residual over the grid, the truncated
    logarithm, and the truncated inverses of the factors."""

    kappa: int
    scalar: complex
    minus: LaurentPolynomial
    plus: LaurentPolynomial
    residual: float
    truncation: int
    grid_size: int
    log_coeffs: LaurentPolynomial
    plus_inverse: LaurentPolynomial
    minus_inverse: LaurentPolynomial

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


def winding_number(values: np.ndarray) -> WindingDiagnostics:
    """Unwrap the argument of the symbol's values on a uniform grid and
    count full turns.  The symbol counts as vanishing where its modulus is
    0 or below VANISH_TOL times its largest modulus on the grid."""
    if len(values) < 8:
        raise SpecError("winding computation needs a grid of at least 8 points")
    mags = np.abs(values)
    min_mod = float(np.min(mags))
    if min_mod == 0 or min_mod < VANISH_TOL * np.max(mags):
        raise VanishingSymbolError(
            f"symbol modulus {min_mod:.3e} below {VANISH_TOL:.0e} of its maximum on the grid"
        )
    steps = _arg_steps(values)
    worst = float(np.max(np.abs(steps)))
    if worst >= STEP_TOL:
        raise UnderResolvedError(
            f"argument step {worst:.3f} rad exceeds {STEP_TOL:.3f}; refine the grid"
        )
    turns = float(np.sum(steps) / (2 * np.pi))
    kappa = int(round(turns))
    return WindingDiagnostics(min_mod, turns, kappa, abs(turns - kappa))


def log_symbol(values: np.ndarray) -> np.ndarray:
    """Continuous logarithm of the values on the grid: ln|v| + i * unwrapped
    argument, with the argument at theta = 0 in (-pi, pi]."""
    diag = winding_number(values)
    if diag.kappa != 0:
        raise NoLogarithmError(diag.kappa)
    return _continuous_log(values)


def _continuous_log(values: np.ndarray) -> np.ndarray:
    """log_symbol without the winding check, for callers that made it."""
    steps = _arg_steps(values)
    arg0 = float(np.angle(values[0]))  # principal branch at theta = 0
    args = arg0 + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    return np.log(np.abs(values)) + 1j * args


def _keep(lp: LaurentPolynomial, side: int, start: int) -> LaurentPolynomial:
    """lp with f_k set to 0 wherever side * k < start."""
    k = np.arange(-lp.n_max, lp.n_max + 1)
    return LaurentPolynomial(np.where(side * k >= start, lp.coeffs, 0), lp.n_max)


def _one_sided_eval(lp: LaurentPolynomial, n_grid: int, side: int) -> np.ndarray:
    """Values on the n_grid-point grid of only the strictly positive
    (side=+1) or strictly negative (side=-1) index part of lp: the other
    half of the coefficients and k = 0 are masked out."""
    return sample(_keep(lp, side, 1), n_grid)


def _resolve_winding(b: LaurentPolynomial, n_grid: int):
    """Sample and compute the winding number, doubling the grid on
    under-resolution up to MAX_GRID.  A symbol that overflows on the grid
    is refused."""
    while True:
        s = sample(b, n_grid)
        if not np.isfinite(s).all():
            raise DomainError("symbol is not finite on the grid")
        try:
            return s, winding_number(s)
        except UnderResolvedError:
            if n_grid >= MAX_GRID:
                raise
            n_grid *= 2


def factorize(b: LaurentPolynomial, n_grid: int = 256, truncation: int = 64,
              tol: float = DEFAULT_RESIDUAL_TOL) -> FactorizationResult:
    """Sample, take the continuous logarithm, split its coefficients into
    analytic and anti-analytic parts, evaluate each part once on the grid,
    and exponentiate it pointwise: exp(+part) gives the factor and, once
    the residual gate has passed, exp(-part) its inverse.  Each keeps only
    its own side of its truncated DFT: k >= 0 for plus, k <= 0 for minus.

    Raises IndexObstructionError when the winding number is nonzero and
    TruncationError when the reconstruction residual exceeds tol times
    max|b| on the grid; tol must be positive and finite.  The residual
    reported stays absolute.
    """
    if not 0 < tol < np.inf:
        raise SpecError(f"residual tolerance must be positive and finite, got {tol}")
    if n_grid & (n_grid - 1) or n_grid < 4 * max(truncation, b.n_max, 1):
        raise SpecError(
            f"grid size {n_grid} must be a power of two >= 4*max(truncation, degree)"
        )
    if n_grid > MAX_GRID:
        raise SpecError(f"grid size {n_grid} exceeds the largest grid {MAX_GRID}")
    s, diag = _resolve_winding(b, n_grid)
    if diag.kappa != 0:
        raise IndexObstructionError(diag.kappa)
    logs = _continuous_log(s)
    lc = fourier_coefficients(logs, truncation)
    scalar = cmath.exp(lc.coeff(0))
    n = s.size
    parts = [(_one_sided_eval(lc, n, side), side) for side in (+1, -1)]
    plus, minus = (_keep(fourier_coefficients(np.exp(p), truncation), side, 0)
                   for p, side in parts)
    recon = scalar * sample(plus, n) * sample(minus, n)
    residual = float(np.max(np.abs(s - recon)))
    gate = tol * float(np.max(np.abs(s)))
    if residual > gate:
        raise TruncationError(residual, gate)
    plus_inverse, minus_inverse = (
        _keep(fourier_coefficients(np.exp(-p), truncation), side, 0) for p, side in parts)
    return FactorizationResult(
        kappa=0,
        scalar=scalar,
        minus=minus,
        plus=plus,
        residual=residual,
        truncation=truncation,
        grid_size=n,
        log_coeffs=lc,
        plus_inverse=plus_inverse,
        minus_inverse=minus_inverse,
    )


def membership(res: FactorizationResult, sp: AlgebraSpace) -> dict[str, NormReport]:
    """Combined norms of both factors and of the inverse factors that
    ``factorize`` built, from one batched solve."""
    parts = {"plus": res.plus, "plus_inverse": res.plus_inverse,
             "minus": res.minus, "minus_inverse": res.minus_inverse}
    r = wnf_norm_arrays((f, sp) for f in parts.values())
    return {name: NormReport(float(r.wiener[i]), float(r.negative[i]), float(r.nonnegative[i]))
            for i, name in enumerate(parts)}
