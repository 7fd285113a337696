"""Metamorphic relations: properties that hold between two runs of the
program, so that they need no oracle (Chen, Cheung & Yiu, HKUST-CS98-01,
1998; Segura et al., IEEE TSE 42(9), 2016).

- factorize(s b) gives s G and the same b_+ and b_- for s = 10^k e^{i theta},
  and for s = 2^k the very same bits, with G and the residual exactly 2^k
  times theirs;
- wnf_norm(s f) = |s| wnf_norm(f);
- the norms do not change when coefficients are conjugated or each one's
  phase is rotated;
- |c_k| <= |d_k| for every k implies norm(c) <= norm(d), piece by piece;
- a rotation t -> e^{i theta} t leaves the membership norms unchanged.

Norms are compared at the inequality suites' relative slack INEQ_SLACK, the
factors' coefficients at the factorization tests' 1e-10.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_wiener.algebra import INEQ_SLACK, wnf_norm
from orlicz_wiener.factorization import factorize, membership
from orlicz_wiener.fourier import LaurentPolynomial
from orlicz_wiener.harness import draw_space

from oracles import random_element

PIECES = ("wiener", "negative", "nonnegative", "total")
FACTOR_TOL = 1e-10

_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_seeds = st.integers(0, 2**32 - 1)
_angles = st.floats(-np.pi, np.pi)
_scales = st.builds(lambda k, theta: 10.0 ** k * np.exp(1j * theta),
                    st.integers(-12, 12), _angles)


def _space(seed):
    return draw_space(np.random.default_rng(seed))


def _element(seed):
    """A random element of support at most 12."""
    rng = np.random.default_rng(seed)
    return random_element(int(rng.integers(0, 13)), rng)


def _symbol(seed):
    """e^{i phi} (1 + p) with p of degree at most 6 and absolute sum at most
    1/2: no zero and winding number 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 7))
    p = rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)
    p *= rng.uniform(0, 0.5) / np.sum(np.abs(p))
    p[n] += 1
    return LaurentPolynomial(p * np.exp(1j * rng.uniform(-np.pi, np.pi)), n)


def assert_norms_equal(got, want, factor=1.0):
    """Each piece of ``got`` is ``factor`` times that of ``want``, to a
    relative INEQ_SLACK."""
    for piece in PIECES:
        a, b = getattr(got, piece), factor * getattr(want, piece)
        assert abs(a - b) <= INEQ_SLACK * b, (piece, a, b)


@_settings
@given(_seeds, _scales)
def test_scaled_symbol_scales_only_the_scalar(seed, s):
    b = _symbol(seed)
    res = factorize(b)
    scaled = factorize(LaurentPolynomial(s * b.coeffs, b.n_max))
    assert abs(scaled.scalar - s * res.scalar) <= FACTOR_TOL * abs(s * res.scalar)
    for name in ("plus", "minus", "plus_inverse", "minus_inverse"):
        got, want = getattr(scaled, name), getattr(res, name)
        assert got.n_max == want.n_max
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= FACTOR_TOL, name


_MIXED = LaurentPolynomial.from_dict({-2: 0.2 - 0.1j, -1: 0.3j, 0: 1.7 + 0.4j, 1: -0.5, 3: 0.1})
# max|b| = 1.37: at 2^1022 and 2^1023 it lies above 4.5e307, where numpy's
# complex division forms subnormal intermediates unless the values are
# first brought to size 1
_NEAR_TOP = LaurentPolynomial.from_dict({-1: 0.2j, 0: 1, 1: 0.3 + 0.1j})


@pytest.mark.parametrize("b, k", [pytest.param(_MIXED, k, id=str(k)) for k in (-900, -40, 40, 900)]
                         + [pytest.param(_NEAR_TOP, k, id=f"near-top-{k}") for k in (1022, 1023)])
def test_power_of_two_scale_is_exact(b, k):
    # the log and the argument increments are taken of b over the binary
    # scale of max|b|, so a power of two moves into G without a rounding
    # anywhere
    res = factorize(b)
    scaled = factorize(LaurentPolynomial(np.ldexp(b.coeffs.real, k)
                                         + 1j * np.ldexp(b.coeffs.imag, k), b.n_max))
    for name in ("plus", "minus", "plus_inverse", "minus_inverse"):
        got, want = getattr(scaled, name), getattr(res, name)
        assert got.n_max == want.n_max and np.array_equal(got.coeffs, want.coeffs), name
    assert scaled.scalar == complex(math.ldexp(res.scalar.real, k),
                                    math.ldexp(res.scalar.imag, k))
    assert scaled.residual == math.ldexp(res.residual, k)


@_settings
@given(_seeds, _seeds, _scales)
def test_norm_is_absolutely_homogeneous(space_seed, seed, s):
    sp, f = _space(space_seed), _element(seed)
    assert_norms_equal(wnf_norm(LaurentPolynomial(s * f.coeffs, f.n_max), sp),
                       wnf_norm(f, sp), abs(s))


@_settings
@given(_seeds, _seeds)
def test_norm_ignores_conjugation_and_phases(space_seed, seed):
    sp, f = _space(space_seed), _element(seed)
    rng = np.random.default_rng(seed)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, f.coeffs.size))
    want = wnf_norm(f, sp)
    assert_norms_equal(wnf_norm(LaurentPolynomial(np.conj(f.coeffs), f.n_max), sp), want)
    assert_norms_equal(wnf_norm(LaurentPolynomial(phases * f.coeffs, f.n_max), sp), want)


@_settings
@given(_seeds, _seeds)
def test_norm_is_monotone_in_the_moduli(space_seed, seed):
    sp, d = _space(space_seed), _element(seed)
    rng = np.random.default_rng(seed)
    shrink = rng.uniform(0, 1, d.coeffs.size) * (rng.uniform(size=d.coeffs.size) < 0.8)
    small, big = wnf_norm(LaurentPolynomial(shrink * d.coeffs, d.n_max), sp), wnf_norm(d, sp)
    for piece in PIECES:
        assert getattr(small, piece) <= getattr(big, piece) * (1 + INEQ_SLACK), piece


@_settings
@given(_seeds, _seeds, _angles)
def test_rotation_leaves_membership_unchanged(space_seed, seed, theta):
    sp, b = _space(space_seed), _symbol(seed)
    k = np.arange(-b.n_max, b.n_max + 1)
    rotated = LaurentPolynomial(b.coeffs * np.exp(1j * k * theta), b.n_max)
    got, want = membership(factorize(rotated), sp), membership(factorize(b), sp)
    assert list(got) == list(want)
    for name, rep in want.items():
        for piece in PIECES:
            x, y = getattr(got[name], piece), getattr(rep, piece)
            assert abs(x - y) <= INEQ_SLACK * y, (name, piece, x, y)
