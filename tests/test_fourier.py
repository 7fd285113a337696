"""Tests for Laurent polynomial arithmetic and coefficient extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_wiener.errors import SpecError
from orlicz_wiener.fourier import LaurentPolynomial, fourier_coefficients, sample

from oracles import random_element, split, trim, wiener_norm

# Coefficients of every kind the trim tells apart: zeros of every sign,
# nonzero reals, nan in either part, purely imaginary values and a
# subnormal.
TRIM_VALUES = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 + 0j,
               -2.0 + 0.25j, complex(math.nan, 0.0), complex(0.0, math.nan), 3j, -0.5j,
               5e-324 + 0j)
ZEROS = TRIM_VALUES[:4]


@st.composite
def coefficient_arrays(draw):
    """(coefficients, n_max): each end coefficient drawn from every kind,
    the rest mostly zero, so that both trims and no trim occur."""
    n_max = draw(st.integers(0, 6))
    values = st.sampled_from(TRIM_VALUES)
    inner = st.one_of(st.sampled_from(ZEROS), values)
    c = [draw(values)] + [draw(inner) for _ in range(2 * n_max - 1)]
    if n_max:
        c.append(draw(values))
    return np.array(c, dtype=complex), n_max


def assert_trimmed_like_the_reference(c, n_max):
    want, want_n = trim(c, n_max)
    f = LaurentPolynomial(c.copy(), n_max)
    assert f.n_max == want_n
    assert f.coeffs.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def brute_convolution(f, g):
    """Independent O(N^2) convolution oracle over explicit index loops."""
    n = f.n_max + g.n_max
    out = {}
    for k in range(-n, n + 1):
        acc = 0j
        for j in range(-f.n_max, f.n_max + 1):
            acc += f.coeff(j) * g.coeff(k - j)
        out[k] = acc
    return out


class TestLaurentPolynomial:
    def test_canonical_trim(self):
        f = LaurentPolynomial(np.array([0, 0, 1, 0, 0], dtype=complex), 2)
        assert f.n_max == 0

    @settings(max_examples=400, deadline=None)
    @given(coefficient_arrays())
    def test_trim_equals_the_full_scan(self, case):
        assert_trimmed_like_the_reference(*case)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5])
    @pytest.mark.parametrize("zero", ZEROS, ids=["+0+0j", "-0+0j", "+0-0j", "-0-0j"])
    def test_trim_of_an_all_zero_array(self, n_max, zero):
        c = np.full(2 * n_max + 1, zero)
        assert_trimmed_like_the_reference(c, n_max)
        assert LaurentPolynomial(c, n_max).coeffs.view(np.uint64).tolist() == [0, 0]

    @pytest.mark.parametrize("value", TRIM_VALUES[4:])
    def test_trim_at_support_zero(self, value):
        assert_trimmed_like_the_reference(np.array([value]), 0)

    def test_zero(self):
        assert wiener_norm(LaurentPolynomial.from_dict({})) == 0

    def test_json_round_trip(self):
        f = LaurentPolynomial.from_dict({-1: 3j, 2: -4})
        assert LaurentPolynomial.from_json(f.to_json()).coeff(-1) == 3j

    def test_json_duplicate_k_rejected(self):
        with pytest.raises(SpecError):
            LaurentPolynomial.from_json(
                {"coeffs": [{"k": 0, "re": 1, "im": 0}, {"k": 0, "re": 2, "im": 0}]})

    def test_json_unknown_keys_rejected(self):
        with pytest.raises(SpecError):
            LaurentPolynomial.from_json({"coeffs": [], "extra": 1})
        with pytest.raises(SpecError):
            LaurentPolynomial.from_json({"coeffs": [{"k": 0, "re": 1, "im": 0, "x": 2}]})

    @pytest.mark.parametrize("re,im", [
        (float("nan"), 0.0), (1.0, float("inf")), (float("-inf"), 1.0),
        ("nan", 0.0), ("x", 0.0), ([1.0], 0.0), (None, 0.0),
    ])
    def test_json_non_finite_or_non_numeric_rejected(self, re, im):
        with pytest.raises(SpecError):
            LaurentPolynomial.from_json({"coeffs": [{"k": 1, "re": re, "im": im}]})

    @pytest.mark.parametrize("k", [True, False, 1.0, "1", None])
    def test_json_non_integer_index_rejected(self, k):
        with pytest.raises(SpecError):
            LaurentPolynomial.from_json({"coeffs": [{"k": k, "re": 1.0, "im": 0.0}]})


class TestEvaluate:
    def test_constant_plus_mode(self):
        f = LaurentPolynomial.from_dict({0: 2, 1: 1})
        assert f.evaluate(0.0) == pytest.approx(3.0)

    def test_single_mode_at_pi(self):
        f = LaurentPolynomial.from_dict({1: 1})
        assert f.evaluate(np.pi) == pytest.approx(-1.0, abs=1e-14)

    def test_cosine_pair(self):
        f = LaurentPolynomial.from_dict({-1: 1, 1: 1})
        assert abs(f.evaluate(np.pi / 2)) < 1e-14


class TestMultiply:
    def test_negative_modes(self):
        f = LaurentPolynomial.from_dict({-1: 1})
        assert f.multiply(f).coeff(-2) == 1

    def test_identity(self):
        f = LaurentPolynomial.from_dict({0: 2, 1: 1})
        one = LaurentPolynomial.from_dict({0: 1})
        g = f.multiply(one)
        assert g.coeff(0) == 2 and g.coeff(1) == 1

    def test_small_convolution(self):
        f = LaurentPolynomial.from_dict({0: 1, 1: 1})
        g = LaurentPolynomial.from_dict({-1: 1, 0: 1})
        h = f.multiply(g)
        assert (h.coeff(-1), h.coeff(0), h.coeff(1)) == (1, 2, 1)

    def test_against_brute_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_element(int(rng.integers(0, 6)), rng)
            g = random_element(int(rng.integers(0, 6)), rng)
            h = f.multiply(g)
            expected = brute_convolution(f, g)
            for k, v in expected.items():
                assert h.coeff(k) == pytest.approx(v, abs=1e-12)

    def test_pointwise_product_identity(self):
        rng = np.random.default_rng(7)
        thetas = rng.uniform(0, 2 * np.pi, 16)
        for _ in range(10):
            f = random_element(4, rng)
            g = random_element(5, rng)
            h = f.multiply(g)
            bound = 1e-12 * wiener_norm(f) * wiener_norm(g)
            assert np.all(np.abs(h.evaluate(thetas)
                                 - f.evaluate(thetas) * g.evaluate(thetas)) <= bound)

    def test_commutative_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f, g, h = (random_element(int(rng.integers(0, 5)), rng) for _ in range(3))
            fg = f.multiply(g)
            gf = g.multiply(f)
            assert np.allclose(fg.coeffs, gf.coeffs, atol=1e-12)
            left = fg.multiply(h)
            right = f.multiply(g.multiply(h))
            assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)

    def test_wiener_submultiplicative(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            f = random_element(int(rng.integers(0, 8)), rng)
            g = random_element(int(rng.integers(0, 8)), rng)
            assert (wiener_norm(f.multiply(g))
                    <= wiener_norm(f) * wiener_norm(g) + 1e-12)


class TestWienerNorm:
    def test_simple(self):
        assert wiener_norm(LaurentPolynomial.from_dict({0: 2, 1: 1})) == 3

    def test_complex_moduli(self):
        assert wiener_norm(LaurentPolynomial.from_dict({-1: 3j, 2: -4})) == 7


class TestSplit:
    def test_basic(self):
        f = LaurentPolynomial.from_dict({-1: 1, 0: 2, 1: 3})
        neg, nonneg = split(f)
        assert list(neg) == [1]
        assert list(nonneg) == [2, 3]

    def test_only_negative_support(self):
        f = LaurentPolynomial.from_dict({-2: 1})
        neg, nonneg = split(f)
        assert list(neg) == [0, 1]
        assert not np.any(nonneg)

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            f = random_element(int(rng.integers(0, 10)), rng)
            neg, nonneg = split(f)
            # split inverted by hand: neg[i] is f_{-(i+1)}, nonneg[i] is f_i
            g = LaurentPolynomial(np.concatenate([neg[::-1], nonneg]), len(neg))
            assert g.n_max == f.n_max
            assert np.array_equal(g.coeffs, f.coeffs)


class TestSample:
    @pytest.mark.parametrize("n_grid", [2, 8, 32, 256])
    def test_matches_dense_evaluation(self, n_grid):
        # n_max runs past n_grid / 2, so indices equal mod n_grid share a bin.
        rng = np.random.default_rng(n_grid)
        for _ in range(10):
            f = random_element(int(rng.integers(0, 3 * n_grid)), rng)
            dense = f.evaluate(2 * np.pi * np.arange(n_grid) / n_grid)
            got = sample(f, n_grid)
            assert np.max(np.abs(got - dense)) <= 1e-12 * wiener_norm(f)

    @pytest.mark.parametrize("n_grid", [0, 1, 3, 12, -8])
    def test_grid_must_be_power_of_two(self, n_grid):
        with pytest.raises(SpecError):
            sample(LaurentPolynomial.from_dict({0: 1}), n_grid)


class TestFourierCoefficients:
    def test_matches_indexed_loop_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for n_grid in (2, 8, 64):
            v = rng.uniform(-1, 1, n_grid) + 1j * rng.uniform(-1, 1, n_grid)
            spec = np.fft.fft(v) / n_grid
            for band in range(n_grid // 2):
                loop = np.zeros(2 * band + 1, dtype=complex)
                for k in range(-band, band + 1):
                    loop[k + band] = spec[k % n_grid]
                got = fourier_coefficients(v, band)
                want = LaurentPolynomial(loop, band)
                assert got.n_max == want.n_max
                assert np.array_equal(got.coeffs, want.coeffs)

    def test_single_mode(self):
        f = LaurentPolynomial.from_dict({1: 1})
        got = fourier_coefficients(sample(f, 8), 3)
        assert abs(got.coeff(1) - 1) <= 1e-13
        for k in (-3, -2, -1, 0, 2, 3):
            assert abs(got.coeff(k)) <= 1e-13

    def test_constant(self):
        f = LaurentPolynomial.from_dict({0: 1})
        got = fourier_coefficients(sample(f, 8), 3)
        assert abs(got.coeff(0) - 1) <= 1e-13

    def test_band_limited_exact(self):
        f = LaurentPolynomial.from_dict({-1: 1, 0: 2, 1: 1})
        got = fourier_coefficients(sample(f, 16), 2)
        assert abs(got.coeff(-1) - 1) <= 1e-13
        assert abs(got.coeff(0) - 2) <= 1e-13
        assert abs(got.coeff(1) - 1) <= 1e-13

    def test_round_trip_random(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(0, 7))
            f = random_element(n, rng)
            got = fourier_coefficients(sample(f, 32), n)
            assert np.allclose(got.coeffs, f.coeffs, atol=1e-12)

    def test_band_too_large_rejected(self):
        with pytest.raises(SpecError):
            fourier_coefficients(np.ones(8, dtype=complex), 4)
