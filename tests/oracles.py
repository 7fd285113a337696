"""Reference computations on Laurent polynomials that the tests compare
the package against: the absolute-sum (Wiener) norm, the split of the
coefficients into their two one-sided arrays, each from copies, the trim
of a coefficient array to its canonical support by a scan of every entry,
and the draw of a verification trial through numpy's ``Generator``, with
``random_element``, the random polynomial it draws, which also gives the
tests and goldens their inputs."""

import numpy as np

from orlicz_wiener.errors import DomainError
from orlicz_wiener.fourier import LaurentPolynomial
from orlicz_wiener.harness import draw_space


def wiener_norm(f) -> float:
    """sum_k |f_k|."""
    return float(np.sum(np.abs(f.coeffs)))


def split(f):
    """(negative part, nonnegative part): arrays indexed from 1 and 0.

    neg[i] is f_{-(i+1)}; nonneg[i] is f_i.
    """
    neg = f.coeffs[: f.n_max][::-1].copy()
    nonneg = f.coeffs[f.n_max:].copy()
    return neg, nonneg


def trim(coeffs, n_max: int):
    """(coefficients, n_max) of the Laurent polynomial with coefficient
    array ``coeffs`` over -n_max..n_max, cut to the smallest band outside
    which every coefficient is zero, from a scan of every entry: nan is
    nonzero and -0.0 zero.  An all-zero array gives ([0j], 0)."""
    c = np.asarray(coeffs, dtype=complex)
    nonzero = [i for i, v in enumerate(c.tolist()) if v != 0]
    if not nonzero:
        return np.zeros(1, dtype=complex), 0
    reach = max(abs(i - n_max) for i in nonzero)
    return c[n_max - reach:n_max + reach + 1], reach


def random_element(support: int, seed) -> LaurentPolynomial:
    """Deterministic pseudo-random coefficients: real and imaginary parts
    uniform in [-1, 1] for every index in [-support, support].
    ``seed`` may also be a ``numpy.random.Generator``, which is drawn from."""
    if support < 0:
        raise DomainError("support must be nonnegative")
    rng = np.random.default_rng(seed)
    n = 2 * support + 1
    re = rng.uniform(-1, 1, n)
    im = rng.uniform(-1, 1, n)
    return LaurentPolynomial(re + 1j * im, support)


def draw_trial(seed: int, trial: int, support: int):
    """The draw (space, f, g) of one trial through ``numpy.random.Generator``
    calls, which ``harness._draw_chunk`` reads from raw PCG64 output
    instead, a chunk of trials at once."""
    rng = np.random.default_rng([seed, trial])
    sp = draw_space(rng)
    sup_f = int(rng.integers(0, support + 1))
    sup_g = int(rng.integers(0, support + 1))
    return sp, random_element(sup_f, rng), random_element(sup_g, rng)
