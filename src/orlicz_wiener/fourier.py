"""Laurent polynomials on the unit circle: coefficients, evaluation,
convolution products, grid sampling by one FFT, and DFT extraction."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import SpecError, json_real

# Largest |k| a coefficient JSON document may use; a polynomial is stored
# densely over -n_max..n_max, so the cap bounds its memory (32 MiB).
MAX_DEGREE = 1 << 20


@dataclass
class LaurentPolynomial:
    """Finite Fourier series sum_k f_k e^{ik theta}, -n_max <= k <= n_max.

    Coefficients are stored densely; coeffs[k + n_max] is f_k.  The
    constructor trims all-zero extreme tails to a canonical support bound.
    """

    coeffs: np.ndarray
    n_max: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.n_max + 1,):
            raise SpecError(
                f"coefficient array must have length {2 * self.n_max + 1}, got {c.shape}"
            )
        # A nonzero end coefficient (nan included; -0.0 counts as 0) leaves
        # nothing to trim: the scan for the nonzero entries runs only where
        # both ends are 0.
        if c[0] == 0 and c[-1] == 0:
            nz = np.nonzero(c)[0]
            if len(nz) == 0:
                self.n_max = 0
                self.coeffs = np.zeros(1, dtype=complex)
                return
            reach = max(abs(int(nz[0]) - self.n_max), abs(int(nz[-1]) - self.n_max))
            c = c[self.n_max - reach: self.n_max + reach + 1]
            self.n_max = reach
        self.coeffs = c

    @classmethod
    def from_dict(cls, entries: dict) -> "LaurentPolynomial":
        """Build from a mapping {k: coefficient}; {} gives 0."""
        n = max((abs(int(k)) for k in entries), default=0)
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, v in entries.items():
            c[int(k) + n] = v
        return cls(c, n)

    @classmethod
    def from_json(cls, doc) -> "LaurentPolynomial":
        """Parse {"coeffs": [{"k": int, "re": float, "im": float}, ...]}.

        Unknown keys, a 'coeffs' that is not a list, duplicate k, |k| above
        MAX_DEGREE, and values that are not finite JSON numbers are rejected.
        """
        if not isinstance(doc, dict) or set(doc) != {"coeffs"}:
            raise SpecError("coefficient JSON must have exactly the key 'coeffs'")
        if not isinstance(doc["coeffs"], list):
            raise SpecError("coefficient JSON 'coeffs' must be a list")
        entries = {}
        for item in doc["coeffs"]:
            if not isinstance(item, dict) or set(item) != {"k", "re", "im"}:
                raise SpecError("each coefficient must have exactly keys 'k', 're', 'im'")
            k = item["k"]
            if not isinstance(k, int) or isinstance(k, bool):
                raise SpecError(f"coefficient index must be an integer, got {k!r}")
            if abs(k) > MAX_DEGREE:
                raise SpecError(f"coefficient index {k} exceeds the degree cap {MAX_DEGREE}")
            if k in entries:
                raise SpecError(f"duplicate coefficient index {k}")
            v = complex(json_real(item["re"], f"coefficient {k} 're'"),
                        json_real(item["im"], f"coefficient {k} 'im'"))
            if not cmath.isfinite(v):
                raise SpecError(f"coefficient {k} is not finite")
            entries[k] = v
        return cls.from_dict(entries)

    def to_json(self) -> dict:
        out = []
        for k in range(-self.n_max, self.n_max + 1):
            v = self.coeff(k)
            if v != 0:
                out.append({"k": k, "re": v.real, "im": v.imag})
        return {"coeffs": out}

    def coeff(self, k: int) -> complex:
        """f_k, zero outside the stored band."""
        if abs(k) > self.n_max:
            return 0j
        return complex(self.coeffs[k + self.n_max])

    def evaluate(self, theta):
        """sum_k f_k e^{ik theta} by direct summation; theta may be an array."""
        theta = np.asarray(theta, dtype=float)
        k = np.arange(-self.n_max, self.n_max + 1)
        phases = np.exp(1j * np.multiply.outer(theta, k))
        return phases @ self.coeffs

    def multiply(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Coefficient convolution; support bound adds."""
        return LaurentPolynomial(
            np.convolve(self.coeffs, other.coeffs), self.n_max + other.n_max
        )

    __mul__ = multiply


def sample(f: LaurentPolynomial, n_grid: int) -> np.ndarray:
    """Values of f at theta_j = 2 pi j / n_grid, j = 0..n_grid-1, by one
    inverse FFT.

    Each f_k goes to bin k mod n_grid; indices equal mod n_grid take the
    same value on the grid, so folding them is exact for any n_grid.  A
    value beyond the double range comes out as inf or nan, without a
    warning.
    """
    if n_grid < 2 or n_grid & (n_grid - 1):
        raise SpecError(f"grid size must be a power of two >= 2, got {n_grid}")
    bins = np.zeros(n_grid, dtype=complex)
    np.add.at(bins, np.arange(-f.n_max, f.n_max + 1) % n_grid, f.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.ifft(bins) * n_grid


def fourier_coefficients(values: np.ndarray, band: int) -> LaurentPolynomial:
    """Discrete Fourier coefficients f_k = (1/N) sum_j v_j e^{-ik theta_j}
    of the values v_j at theta_j = 2 pi j / N, for |k| <= band; exact on
    band-limited input when N > 2 band."""
    n = len(values)
    if band < 0:
        raise SpecError("band must be nonnegative")
    if band > n // 2 - 1:
        raise SpecError(f"band {band} too large for grid of size {n}")
    spec = np.fft.fft(values) / n
    return LaurentPolynomial(spec[np.arange(-band, band + 1) % n], band)
