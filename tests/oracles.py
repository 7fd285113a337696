"""Reference computations that the tests compare the package against, each
written once and apart from the code under test: on Laurent polynomials the
Wiener norm, the one-sided split, the trim by a scan of every entry and the
geometric inverse of a linear factor; the ``Generator`` draw of a trial,
whose ``random_element`` also gives the tests their inputs; closed-form norms;
Phi and the Luxemburg norm at 50 digits; and a weight with its positivity,
monotonicity and doubling ratios at 50 digits."""

import mpmath
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


def weighted_lp_norm(c, p, phi, w):
    """Closed-form oracle for the power family: (sum |c_n|^p phi_n^p w_n)^{1/p}."""
    n = np.arange(phi.start, phi.start + len(c))
    return float(np.sum(np.abs(c) ** p * phi(n) ** p * w(n)) ** (1 / p))


def horbach_norm(f: LaurentPolynomial, p: float, r: float,
                 alpha: float, beta: float) -> float:
    """The classical two-term weighted-power norm of the coefficient sides,
    in closed form: the l^p norm of |f_{-k}| (k+1)^alpha over k >= 1 plus
    the l^r norm of |f_k| (k+1)^beta over k >= 0."""
    neg, nonneg = split(f)
    kn = np.arange(1, len(neg) + 1)
    kp = np.arange(0, len(nonneg))
    neg_term = np.sum(np.abs(neg) ** p * (kn + 1.0) ** (alpha * p)) ** (1 / p)
    pos_term = np.sum(np.abs(nonneg) ** r * (kp + 1.0) ** (beta * r)) ** (1 / r)
    return float(neg_term + pos_term)


def single_entry_norm(c, phi0, w0, p):
    """|c| phi0 w0^(1/p), the norm of one entry c under x^p, at 50 digits."""
    with mpmath.workdps(50):
        return abs(mpmath.mpf(c)) * mpmath.mpf(phi0) * mpmath.mpf(w0) ** (1 / mpmath.mpf(p))


def mp_phi(fn, x):
    """Phi of the Orlicz function ``fn`` at x in mpmath's working precision."""
    if fn.family == "expm1":
        return mpmath.expm1(x)
    return x ** fn.p * (mpmath.log1p(x) if fn.family == "powlog" else 1)


def mp_weight(nu, n: int):
    """The weight ``nu`` at index n in mpmath's working precision."""
    if nu.family == "pow":
        return mpmath.mpf(n + 1) ** mpmath.mpf(nu.param)
    if nu.family == "log":
        return mpmath.log(mpmath.e + n)
    if nu.family == "const":
        return mpmath.mpf(nu.param)
    return mpmath.mpf(nu.table[min(n - nu.start, len(nu.table) - 1)])


def mp_weight_conditions(nu, n_max: int):
    """(positive, nondecreasing, sup) of the weight ``nu`` at 50 digits: the
    flags over its indices up to n_max, and sup the largest nu(2m)/nu(m)
    over 1 <= m <= n_max/2, rounded to a double."""
    with mpmath.workdps(50):
        vals = [mp_weight(nu, n) for n in range(nu.start, n_max + 1)]
        sup = max(mp_weight(nu, 2 * m) / mp_weight(nu, m) for m in range(1, n_max // 2 + 1))
        return (all(v > 0 for v in vals), all(a <= b for a, b in zip(vals, vals[1:])),
                float(sup))


def mp_luxemburg_norm(c, fn, phi, w):
    """50-digit oracle: the root of modular = 1, bracketed by doubling and
    located by mpmath's Ridders solver."""
    with mpmath.workdps(50):
        n = np.arange(phi.start, phi.start + len(c))
        a = [mpmath.mpf(float(x)) * mpmath.mpf(float(y))
             for x, y in zip(np.abs(c), phi(n))]
        ws = [mpmath.mpf(float(y)) for y in w(n)]

        def excess(lam):
            return mpmath.fsum(mp_phi(fn, x / lam) * y for x, y in zip(a, ws)) - 1
        hi = max(a)
        while excess(hi) > 0:
            hi *= 2
        lo = hi / 2
        while excess(lo) <= 0:
            lo /= 2
        return float(mpmath.findroot(excess, (lo, hi), solver="ridder", tol=1e-40))


def geometric_inverse(a: complex, side: int, n: int) -> LaurentPolynomial:
    """sum_{k=0..n} a^k t^(side k): the inverse of the one-sided factor
    1 - a t^side, cut at n terms past the constant."""
    k = np.arange(n + 1)
    return LaurentPolynomial.from_dict(dict(zip((side * k).tolist(), a ** k)))
