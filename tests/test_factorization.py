"""Tests for winding numbers, the continuous logarithm, and the
factorization pipeline."""

import numpy as np
import pytest

from orlicz_wiener.errors import (
    IndexObstructionError,
    NoLogarithmError,
    SpecError,
    UnderResolvedError,
    VanishingSymbolError,
)
from orlicz_wiener import factorization
from orlicz_wiener.algebra import AlgebraSpace
from orlicz_wiener.factorization import (
    factorize,
    log_symbol,
    membership,
    winding_number,
)
from orlicz_wiener.fourier import GridSamples, LaurentPolynomial, sample

SPACE = AlgebraSpace.from_spec("pow:p=1;pow:p=1;const:1;const:1;const:1;const:1")


def log_2_plus_t_series(n_terms):
    """Power-series oracle: log(2+t) = log 2 + sum (-1)^{n+1} (t/2)^n / n."""
    coeffs = {0: complex(np.log(2))}
    for n in range(1, n_terms + 1):
        coeffs[n] = complex((-1) ** (n + 1) / (n * 2**n))
    return coeffs


class TestWindingNumber:
    def test_single_positive_mode(self):
        d = winding_number(sample(LaurentPolynomial.from_dict({1: 1}), 16))
        assert d.kappa == 1
        assert d.defect <= 1e-12

    def test_single_negative_mode(self):
        d = winding_number(sample(LaurentPolynomial.from_dict({-1: 1}), 16))
        assert d.kappa == -1

    def test_dominant_constant(self):
        d = winding_number(sample(LaurentPolynomial.from_dict({0: 2, 1: 1}), 32))
        assert d.kappa == 0
        assert d.min_modulus >= 1

    def test_unwrapping_oracle(self):
        # independent oracle: count crossings of the negative real axis
        b = LaurentPolynomial.from_dict({0: 0.2, 2: 1, -1: 0.3})
        s = sample(b, 1024)
        d = winding_number(s)
        args = np.angle(s.values)
        wraps = np.diff(np.concatenate([args, args[:1]]))
        crossings = int(np.sum(wraps < -np.pi)) - int(np.sum(wraps > np.pi))
        assert d.kappa == crossings == 2

    def test_vanishing_symbol(self):
        with pytest.raises(VanishingSymbolError):
            winding_number(sample(LaurentPolynomial.from_dict({0: 1, 1: -1}), 16))

    def test_under_resolved(self):
        with pytest.raises(UnderResolvedError):
            winding_number(sample(LaurentPolynomial.from_dict({4: 1}), 8))

    def test_tiny_grid_rejected(self):
        with pytest.raises(SpecError):
            winding_number(GridSamples(np.ones(4, dtype=complex)))


class TestLogSymbol:
    def test_constant_e(self):
        s = GridSamples(np.full(16, np.e, dtype=complex))
        out = log_symbol(s)
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_minus_one_uses_upper_branch(self):
        s = GridSamples(np.full(16, -1.0 + 0j))
        out = log_symbol(s)  # winding 0; branch at theta=0 in (-pi, pi]
        assert np.allclose(out.values, 1j * np.pi, atol=1e-14)

    def test_two_plus_t_series(self):
        b = LaurentPolynomial.from_dict({0: 2, 1: 1})
        s = sample(b, 64)
        out = log_symbol(s)
        oracle = LaurentPolynomial.from_dict(log_2_plus_t_series(60))
        assert np.allclose(out.values, oracle.evaluate(s.thetas), atol=1e-13)

    def test_nonzero_winding_rejected(self):
        with pytest.raises(NoLogarithmError) as exc:
            log_symbol(sample(LaurentPolynomial.from_dict({1: 1}), 16))
        assert exc.value.kappa == 1


class TestFactorize:
    def test_winding_number_computed_once(self, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s.size)
            return winding_number(s)

        monkeypatch.setattr(factorization, "winding_number", counting)
        factorize(LaurentPolynomial.from_dict({0: 2, 1: 1, -2: 0.5j}))
        assert calls == [256]

    def test_sample_calls_per_factorize_and_membership(self, monkeypatch):
        # one grid sample of b, one per one-sided log part, one per factor
        # in the residual; membership samples only the two inverse factors
        calls = []

        def counting(lp, n_grid):
            calls.append(n_grid)
            return sample(lp, n_grid)

        monkeypatch.setattr(factorization, "sample", counting)
        res = factorize(LaurentPolynomial.from_dict({0: 2, 1: 1, -2: 0.5j}))
        assert calls == [256] * 5
        calls.clear()
        membership(res, SPACE)
        assert calls == [256] * 2

    def test_two_plus_t(self):
        b = LaurentPolynomial.from_dict({0: 2, 1: 1})
        res = factorize(b, 256, 32, 1e-12)
        assert res.scalar == pytest.approx(2.0, abs=1e-12)
        assert res.residual <= 1e-12
        assert abs(res.minus.coeff(0) - 1) <= 1e-10
        assert abs(res.plus.coeff(0) - 1) <= 1e-10
        assert abs(res.plus.coeff(1) - 0.5) <= 1e-10
        for k in range(2, 33):
            assert abs(res.plus.coeff(k)) <= 1e-9
        # oracle: recovered log coefficients match the power series
        series = log_2_plus_t_series(32)
        for k in range(0, 20):
            assert abs(res.log_coeffs.coeff(k) - series[k]) <= 1e-12
            assert abs(res.log_coeffs.coeff(-k - 1)) <= 1e-12

    def test_positive_constant(self):
        res = factorize(LaurentPolynomial.from_dict({0: 3.5}))
        assert res.scalar == pytest.approx(3.5, abs=1e-12)
        assert abs(res.plus.coeff(0) - 1) <= 1e-12 and res.plus.n_max == 0
        assert abs(res.minus.coeff(0) - 1) <= 1e-12 and res.minus.n_max == 0

    def test_single_mode_obstruction(self):
        with pytest.raises(IndexObstructionError) as exc:
            factorize(LaurentPolynomial.from_dict({1: 1}))
        assert exc.value.kappa == 1

    @pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
    def test_shifted_symbol_obstruction(self, n):
        b = LaurentPolynomial.from_dict({n: 2, n + 1: 1})
        with pytest.raises(IndexObstructionError) as exc:
            factorize(b)
        assert exc.value.kappa == n

    def test_grid_constraint_rejected(self):
        b = LaurentPolynomial.from_dict({0: 2, 1: 1})
        with pytest.raises(SpecError):
            factorize(b, 128, 64)
        with pytest.raises(SpecError):
            factorize(b, 100, 16)
        with pytest.raises(SpecError):
            factorize(b, 512, 16, max_grid=256)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
    def test_tolerance_outside_open_half_line_rejected(self, tol):
        # a NaN or infinite tolerance would switch the residual gate off
        b = LaurentPolynomial.from_dict({0: 2, 1: 1})
        with pytest.raises(SpecError):
            factorize(b, 256, 0, tol)

    def test_one_sidedness_and_unit_constant(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            q = LaurentPolynomial(
                rng.uniform(-0.3, 0.3, 9) + 1j * rng.uniform(-0.3, 0.3, 9), 4)
            # wide band: the series tail of exp(q) must sit below float noise
            b = _exp_poly(q, 512, 96)
            res = factorize(b, 512, 64, 1e-8)
            for k in range(1, res.minus.n_max + 1):
                assert abs(res.minus.coeff(k)) <= 1e-10
            for k in range(1, res.plus.n_max + 1):
                assert abs(res.plus.coeff(-k)) <= 1e-10
            assert abs(res.minus.coeff(0) - 1) <= 1e-10
            # recovered log matches the exponent we built the symbol from
            for k in range(-q.n_max, q.n_max + 1):
                assert abs(res.log_coeffs.coeff(k) - q.coeff(k)) <= 1e-10

    def test_scaling_covariance(self):
        b = LaurentPolynomial.from_dict({-1: 0.2, 0: 2, 1: 0.7 + 0.1j})
        res1 = factorize(b)
        res2 = factorize(b.scaled(3.0))
        assert res2.scalar == pytest.approx(3 * res1.scalar, abs=1e-10)
        assert np.allclose(res2.plus.coeffs, res1.plus.coeffs, atol=1e-10)
        assert np.allclose(res2.minus.coeffs, res1.minus.coeffs, atol=1e-10)

    def test_shifted_residual_on_product_symbol(self):
        # b = G (1 - a t)(1 - c / t): closed-form factors b+ = 1 - a t and
        # b- = 1 - c / t; the reconstruction is checked off the fitting grid,
        # at the half-step points, by dense sums.
        g, a, c = 1.5 - 0.5j, 0.4 + 0.2j, -0.3j
        b = LaurentPolynomial.from_dict({-1: -g * c, 0: g * (1 + a * c), 1: -g * a})
        res = factorize(b, 256, 32, 1e-12)
        assert res.scalar == pytest.approx(g, abs=1e-12)
        assert abs(res.plus.coeff(1) + a) <= 1e-12
        assert abs(res.minus.coeff(-1) + c) <= 1e-12
        th = 2 * np.pi * (np.arange(256) + 0.5) / 256
        oracle = np.max(np.abs(b.evaluate(th) - res.scalar * res.plus.evaluate(th)
                               * res.minus.evaluate(th)))
        assert oracle <= 1e-12


class TestOneSidedEval:
    @pytest.mark.parametrize("side", [+1, -1])
    def test_matches_dense_one_sided_sum(self, side):
        rng = np.random.default_rng(53 + side)
        n_grid = 64
        th = 2 * np.pi * np.arange(n_grid) / n_grid
        for n_max in (0, 1, 5, 16):
            c = rng.uniform(-1, 1, 2 * n_max + 1) + 1j * rng.uniform(-1, 1, 2 * n_max + 1)
            lp = LaurentPolynomial(c, n_max)
            before = lp.coeffs.copy()
            dense = np.zeros(n_grid, dtype=complex)
            for k in range(1, n_max + 1):
                dense += lp.coeff(side * k) * np.exp(1j * side * k * th)
            got = factorization._one_sided_eval(lp, n_grid, side)
            assert np.max(np.abs(got - dense)) <= 1e-12 * max(lp.wiener_norm(), 1)
            assert np.array_equal(lp.coeffs, before)  # not masked in place


def _exp_poly(q, n_grid, band):
    """Symbol exp(q) as a truncated series, via pointwise exponentiation."""
    from orlicz_wiener.fourier import fourier_coefficients
    s = sample(q, n_grid)
    return fourier_coefficients(GridSamples(np.exp(s.values)), band)


class TestMembership:
    def test_two_plus_t_norms(self):
        b = LaurentPolynomial.from_dict({0: 2, 1: 1})
        res = factorize(b, 256, 32, 1e-12)
        norms = membership(res, SPACE)
        assert norms["plus"].wiener == pytest.approx(1.5, abs=1e-10)
        for rep in norms.values():
            assert np.isfinite(rep.total)

    def test_identity_symbol(self):
        res = factorize(LaurentPolynomial.from_dict({0: 1}))
        norms = membership(res, SPACE)
        for rep in norms.values():
            assert rep.wiener == pytest.approx(1.0, abs=1e-12)

    def test_inverse_is_pointwise_reciprocal(self):
        b = LaurentPolynomial.from_dict({-1: 0.2, 0: 2, 1: 0.5})
        res = factorize(b)
        norms = membership(res, SPACE)
        # b+ * (b+)^-1 == 1 on the circle, checked through the norms' finiteness
        assert all(np.isfinite(rep.total) for rep in norms.values())
