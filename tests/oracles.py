"""Reference computations on Laurent polynomials that the tests compare
the package against: the absolute-sum (Wiener) norm and the split of the
coefficients into their two one-sided arrays, each from copies."""

import numpy as np


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
