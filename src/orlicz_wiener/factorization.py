"""Constructive Wiener-Hopf factorization b = G * b_minus * b_plus for
non-vanishing symbols with zero winding number."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    IndexObstructionError,
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
    """Result of tracking the argument of the symbol around the circle, with
    the logarithm that tracking gives."""

    min_modulus: float
    turns: float  # total argument change / 2 pi
    kappa: int
    defect: float  # |turns - kappa|
    max_modulus: float
    scale: int  # binary exponent of max_modulus
    # ln(|v| / 2**scale) + i * the argument unwrapped along the grid path
    log: np.ndarray = field(repr=False, compare=False)


@dataclass
class FactorizationResult:
    """Scalar factor, truncated one-sided factors, the pointwise
    reconstruction residual over the grid, the truncated logarithm, and the
    truncated inverses of the factors.  The winding index is 0, since
    ``factorize`` refuses any other."""

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
            "kappa": 0,
            "scalar": {"re": self.scalar.real, "im": self.scalar.imag},
            "minus": self.minus.to_json(),
            "plus": self.plus.to_json(),
            "residual": self.residual,
            "truncation": self.truncation,
            "grid_size": self.grid_size,
        }


def winding_number(values: np.ndarray) -> WindingDiagnostics:
    """Unwrap the argument of the symbol's values on a uniform grid and
    count full turns; the unwrapped argument, with the argument at theta = 0
    in (-pi, pi], also gives the logarithm.  The symbol counts as vanishing
    where its modulus is 0 or below VANISH_TOL times its largest modulus on
    the grid; a symbol that does not vanish but has a subnormal modulus on
    the grid is refused, since its values have lost precision."""
    if len(values) < 8:
        raise SpecError("winding computation needs a grid of at least 8 points")
    mags = np.abs(values)
    min_mod, top = float(np.min(mags)), float(np.max(mags))
    if min_mod == 0 or min_mod < VANISH_TOL * top:
        raise VanishingSymbolError(
            f"symbol modulus {min_mod:.3e} below {VANISH_TOL:.0e} of its maximum on the grid"
        )
    if min_mod < np.finfo(float).tiny:
        raise DomainError(f"symbol modulus {min_mod:.3e} is subnormal on the grid")
    # Dividing by 2**scale is exact and gives the log the rounding of a
    # symbol of size 1 at any scale; below about 4.5e307 it leaves every
    # increment's bits as they are, and above it keeps numpy's complex
    # division, which forms 1/|v|, clear of subnormal intermediates.
    scale = int(np.frexp(top)[1])
    v = values * math.ldexp(1.0, -scale)
    steps = np.angle(np.roll(v, -1) / v)
    worst = float(np.max(np.abs(steps)))
    if worst >= STEP_TOL:
        raise UnderResolvedError(f"argument step {worst:.3f} rad exceeds "
                                 f"{STEP_TOL:.3f} on a grid of {len(values)} points")
    turns = float(np.sum(steps) / (2 * np.pi))
    kappa = int(round(turns))
    args = float(np.angle(values[0])) + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    log = np.log(np.ldexp(mags, -scale)) + 1j * args
    return WindingDiagnostics(min_mod, turns, kappa, abs(turns - kappa), top, scale, log)


def log_symbol(values: np.ndarray) -> np.ndarray:
    """Continuous logarithm of the values on the grid: ln|v| + i * unwrapped
    argument, with the argument at theta = 0 in (-pi, pi]."""
    diag = winding_number(values)
    return _continuous_log(diag) + diag.scale * math.log(2)


def _continuous_log(diag: WindingDiagnostics) -> np.ndarray:
    """The logarithm in ``diag``; raises IndexObstructionError when the
    winding number is nonzero."""
    if diag.kappa != 0:
        raise IndexObstructionError(diag.kappa)
    return diag.log


def _keep(lp: LaurentPolynomial, side: int, start: int) -> LaurentPolynomial:
    """lp with f_k set to 0 wherever side * k < start."""
    k = np.arange(-lp.n_max, lp.n_max + 1)
    return LaurentPolynomial(np.where(side * k >= start, lp.coeffs, 0), lp.n_max)


def _resolve_winding(b: LaurentPolynomial, n_grid: int):
    """Sample and compute the winding number, doubling the grid on
    under-resolution up to MAX_GRID, where the refusal names that grid.  A
    symbol that overflows on the grid is refused."""
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
    the parts p_+ (k >= 1) and p_- (k <= -1), evaluate each once on the
    grid and exponentiate it pointwise; G is exp of the k = 0 coefficient.
    One truncated DFT of exp(p_+) + exp(p_-) gives both factors (plus keeps
    k >= 0, minus k <= 0) and one DFT of 1/exp(p_+) + 1/exp(p_-) both
    inverses.  That makes 4 grid samples and 3 DFTs when the grid needs no
    doubling.

    Sharing a DFT is safe: at bins 1 <= |k| <= truncation it adds the other
    factor's coefficients at |k| >= N - truncation >= 3N/4, while each
    factor's own DFT already carries its alias at |k| >= N + 1, and the
    residual is computed from the final plus and minus, so the gate
    certifies them.  The k = 0 coefficient of all four factors is set to 1,
    its exact value since p_+ and p_- have no constant term, which also
    keeps the two k = 0 contributions to a shared DFT apart.  The log is
    taken of b over the binary scale of max|b| on the grid, which goes back
    into G exactly: factorize(2**k b) gives the same factors, and G and the
    residual exactly 2**k times.

    Raises IndexObstructionError when the winding number is nonzero,
    DomainError when the symbol is not finite or has a subnormal modulus on
    the grid, or when the factors, their product or their inverses leave
    the double range (for exp(i a cos theta) each factor reaches e^(a/2);
    a nan residual would pass the gate), with no numpy warning, and
    TruncationError when the reconstruction residual exceeds tol times
    max|b| on the grid, or when the l1 distance from 1 of a factor times
    its truncated inverse, which that error then reports, exceeds tol; tol
    must be positive and finite.  The residual reported stays absolute.
    """
    if not 0 < tol < np.inf:
        raise SpecError(f"residual tolerance must be positive and finite, got {tol}")
    if n_grid & (n_grid - 1) or n_grid < max(8, 4 * max(truncation, b.n_max)):
        raise SpecError(f"grid size {n_grid} must be a power of two "
                        ">= max(8, 4*max(truncation, degree))")
    if n_grid > MAX_GRID:
        raise SpecError(f"grid size {n_grid} exceeds the largest grid {MAX_GRID}")
    s, diag = _resolve_winding(b, n_grid)
    lc = fourier_coefficients(_continuous_log(diag), truncation)
    g = cmath.exp(lc.coeff(0))
    scalar = complex(math.ldexp(g.real, diag.scale), math.ldexp(g.imag, diag.scale))
    lc.coeffs[lc.n_max] += diag.scale * math.log(2)  # the log of b itself
    n = s.size
    with np.errstate(all="ignore"):
        exp_plus, exp_minus = (np.exp(sample(_keep(lc, side, 1), n)) for side in (+1, -1))
        factors = fourier_coefficients(exp_plus + exp_minus, truncation)
        m = factors.n_max
        factors.coeffs[m] = 1
        # plus * minus from its two halves: k = -m..0 times k = 0..m
        product = LaurentPolynomial(np.convolve(factors.coeffs[:m + 1], factors.coeffs[m:]), m)
        residual = float(np.max(np.abs(s - scalar * sample(product, n))))
        inverses = fourier_coefficients(1 / exp_plus + 1 / exp_minus, truncation)
    inverses.coeffs[inverses.n_max] = 1
    if not (math.isfinite(residual) and np.isfinite(factors.coeffs).all()
            and np.isfinite(inverses.coeffs).all()):
        raise DomainError("the factors, their product or their inverses are not finite "
                          "in double precision")
    gate = tol * diag.max_modulus
    if residual > gate:
        raise TruncationError(residual, gate)
    # b+ b+^-1 and b- b-^-1 from the halves, as plus * minus above, each
    # with k = 0 first: the l1 distance of each from 1 bounds its grid
    # residual from above.
    mi = inverses.n_max
    for product in (np.convolve(factors.coeffs[m:], inverses.coeffs[mi:]),
                    np.convolve(factors.coeffs[:m + 1], inverses.coeffs[:mi + 1])[::-1]):
        product[0] -= 1
        defect = float(np.sum(np.abs(product)))
        if not defect <= tol:
            raise TruncationError(defect, tol)
    return FactorizationResult(
        scalar=scalar,
        minus=_keep(factors, -1, 0),
        plus=_keep(factors, +1, 0),
        residual=residual,
        truncation=truncation,
        grid_size=n,
        log_coeffs=lc,
        plus_inverse=_keep(inverses, +1, 0),
        minus_inverse=_keep(inverses, -1, 0),
    )


def membership(res: FactorizationResult, sp: AlgebraSpace) -> dict[str, NormReport]:
    """Combined norms of both factors and of the inverse factors that
    ``factorize`` built, from one batched solve, with no grid sample or
    DFT.  The four are one-sided by construction, so each off-side norm is
    exactly 0."""
    parts = {"plus": res.plus, "plus_inverse": res.plus_inverse,
             "minus": res.minus, "minus_inverse": res.minus_inverse}
    r = wnf_norm_arrays((f, sp) for f in parts.values())
    return {name: NormReport(float(r.wiener[i]), float(r.negative[i]), float(r.nonnegative[i]))
            for i, name in enumerate(parts)}
