"""Tests for winding numbers, the continuous logarithm, and the
factorization pipeline."""

import cmath
import warnings

import numpy as np
import pytest

from orlicz_wiener.errors import (
    DomainError,
    IndexObstructionError,
    SpecError,
    TruncationError,
    UnderResolvedError,
    VanishingSymbolError,
)
from orlicz_wiener import factorization
from orlicz_wiener.algebra import AlgebraSpace, wnf_norm
from orlicz_wiener.factorization import (
    factorize,
    log_symbol,
    membership,
    winding_number,
)
from orlicz_wiener.fourier import LaurentPolynomial, fourier_coefficients, sample

from oracles import wiener_norm

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
        args = np.angle(s)
        wraps = np.diff(np.concatenate([args, args[:1]]))
        crossings = int(np.sum(wraps < -np.pi)) - int(np.sum(wraps > np.pi))
        assert d.kappa == crossings == 2

    def test_vanishing_symbol(self):
        with pytest.raises(VanishingSymbolError):
            winding_number(sample(LaurentPolynomial.from_dict({0: 1, 1: -1}), 16))

    def test_vanishing_is_relative_and_zero_vanishes(self):
        tiny = LaurentPolynomial.from_dict({0: 2e-13, 1: 1e-13})
        assert winding_number(sample(tiny, 16)).kappa == 0
        with pytest.raises(VanishingSymbolError):
            winding_number(sample(LaurentPolynomial.zero(), 16))

    def test_subnormal_modulus_refused(self):
        # a symbol that does not vanish but is subnormal on the grid has
        # lost precision: refused, with no numpy warning
        for b in ({0: 1e-310}, {0: 2e-309, 1: 1e-309}):
            with pytest.raises(DomainError, match="subnormal"):
                winding_number(sample(LaurentPolynomial.from_dict(b), 16))
        with pytest.raises(VanishingSymbolError):
            winding_number(sample(LaurentPolynomial.from_dict({0: 1e-310, 1: 1e-310}), 16))

    def test_under_resolved(self):
        with pytest.raises(UnderResolvedError):
            winding_number(sample(LaurentPolynomial.from_dict({4: 1}), 8))

    def test_tiny_grid_rejected(self):
        with pytest.raises(SpecError):
            winding_number(np.ones(4, dtype=complex))


class TestLogSymbol:
    def test_constant_e(self):
        out = log_symbol(np.full(16, np.e, dtype=complex))
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_minus_one_uses_upper_branch(self):
        out = log_symbol(np.full(16, -1.0 + 0j))  # winding 0; branch at theta=0 in (-pi, pi]
        assert np.allclose(out, 1j * np.pi, atol=1e-14)

    def test_two_plus_t_series(self):
        b = LaurentPolynomial.from_dict({0: 2, 1: 1})
        s = sample(b, 64)
        out = log_symbol(s)
        oracle = LaurentPolynomial.from_dict(log_2_plus_t_series(60))
        assert np.allclose(out, oracle.evaluate(2 * np.pi * np.arange(64) / 64), atol=1e-13)

    def test_nonzero_winding_rejected(self):
        with pytest.raises(IndexObstructionError) as exc:
            log_symbol(sample(LaurentPolynomial.from_dict({1: 1}), 16))
        assert exc.value.kappa == 1

    @pytest.mark.parametrize("b", [{0: 2, 1: 1}, {0: -1, 1: 0.5j, -3: 0.25},
                                   {0: 3e300, -2: 1e300j}, {0: 5e-300, 1: -1e-300}])
    def test_winding_pass_yields_the_log_and_its_scale(self, b):
        s = sample(LaurentPolynomial.from_dict(b), 64)
        d = winding_number(s)
        assert d.max_modulus == np.max(np.abs(s))
        assert d.scale == np.frexp(d.max_modulus)[1]
        out = log_symbol(s)
        assert out.tobytes() == (d.log + d.scale * np.log(2)).tobytes()


def exp_i_cos(a, band, n=8192):
    """exp(i a cos theta), its coefficients i^k J_k(a) taken from one DFT on
    n points and kept for |k| <= band.  Each Wiener-Hopf factor is
    exp(+-(i a / 2) e^{+-i theta}), of modulus up to e^{a/2} on the circle."""
    c = np.fft.fft(np.exp(1j * a * np.cos(2 * np.pi * np.arange(n) / n))) / n
    return LaurentPolynomial(c[np.arange(-band, band + 1) % n], band)


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
        # samples: b, the two one-sided log parts, plus * minus for the
        # residual; DFTs: the log, both factors, both inverses; membership
        # only solves
        samples, dfts = [], []

        def counting_sample(lp, n_grid):
            samples.append(n_grid)
            return sample(lp, n_grid)

        def counting_dft(values, band):
            dfts.append(values.size)
            return fourier_coefficients(values, band)

        monkeypatch.setattr(factorization, "sample", counting_sample)
        monkeypatch.setattr(factorization, "fourier_coefficients", counting_dft)
        res = factorize(LaurentPolynomial.from_dict({0: 2, 1: 1, -2: 0.5j}))
        assert samples == [256] * 4
        assert dfts == [256] * 3
        samples.clear()
        dfts.clear()
        membership(res, SPACE)
        assert samples == [] and dfts == []

    def test_unit_constants_are_exact(self):
        for b in ({0: 2, 1: 1}, {-2: 0.5j, 0: 2, 1: 1}, {0: 3.5}, {-1: 0.3, 0: -1.5j}):
            res = factorize(LaurentPolynomial.from_dict(b))
            for name in ("plus", "minus", "plus_inverse", "minus_inverse"):
                assert getattr(res, name).coeff(0) == 1.0, (b, name)

    def test_closed_form_factors_at_the_smallest_grid(self):
        # b = G (1 - a t)(1 - c / t) at N = 4T: b+ = 1 - a t, b- = 1 - c / t,
        # and the inverses are the geometric series sum a^k t^k and
        # sum c^k t^-k; |a|, |c| < 0.37 put the log's tail beyond T and the
        # other factor's alias at |k| >= 3T below 1e-15
        g, a, c = -0.8 + 1.1j, 0.3 + 0.2j, -0.1 - 0.25j
        t = 32
        b = LaurentPolynomial.from_dict({-1: -g * c, 0: g * (1 + a * c), 1: -g * a})
        res = factorize(b, 4 * t, t)
        assert abs(res.scalar - g) <= 1e-13
        k = np.arange(t + 1)
        for f, want, side in ((res.plus, {0: 1, 1: -a}, +1),
                              (res.minus, {0: 1, -1: -c}, -1),
                              (res.plus_inverse, dict(zip(k, a ** k)), +1),
                              (res.minus_inverse, dict(zip(-k, c ** k)), -1)):
            got = np.array([f.coeff(side * j) for j in k])
            exact = np.array([want.get(side * j, 0) for j in k])
            assert np.max(np.abs(got - exact)) <= 1e-13

    def test_grid_doubles_until_the_argument_is_resolved(self):
        # 1 + c/t with |c| = 0.998 comes within 0.002 of 0, where its
        # argument turns by nearly pi: 16 points under-resolve it and the
        # grid doubles to 2048.  The log's alias at |k| >= 2048 leaves a
        # residual of 8.2e-6, inside a relative tol of 1e-3 but not 1e-8.
        c = 0.998 * cmath.exp(3.85j)
        b = LaurentPolynomial.from_dict({-1: c, 0: 1})
        res = factorize(b, 16, 4, 1e-3)
        assert res.grid_size == 2048
        assert res.residual == pytest.approx(8.2e-6, rel=0.01)
        for f, want, side in ((res.minus, {0: 1, -1: c}, -1), (res.plus, {0: 1}, +1)):
            got = np.array([f.coeff(side * j) for j in range(5)])
            exact = np.array([want.get(side * j, 0) for j in range(5)])
            assert np.max(np.abs(got - exact)) <= 1e-5
        with pytest.raises(TruncationError) as exc:
            factorize(b, 16, 4, 1e-8)
        assert exc.value.residual == res.residual

    def test_under_resolved_at_the_largest_grid_names_it(self):
        # with |c| = 0.999999999 the argument turns by nearly pi between two
        # points of the largest grid, so the doubling stops there: the
        # refusal names that grid, since no finer one is allowed
        b = LaurentPolynomial.from_dict({-1: 0.999999999 * cmath.exp(3.85j), 0: 1})
        with pytest.raises(UnderResolvedError, match="grid of 65536 points") as exc:
            factorize(b)
        assert "refine" not in str(exc.value)

    @pytest.mark.parametrize("a,band,n_grid,truncation", [
        (730, 800, 4096, 1000),  # factors finite near e^365, their product overflows
        (1450, 1550, 8192, 2000),  # the factors themselves overflow
    ])
    def test_factors_beyond_the_double_range_refused(self, a, band, n_grid, truncation):
        # a non-finite residual would pass the gate (nan > gate is False),
        # so it is refused before the gate, with no numpy warning
        b = exp_i_cos(a, band)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="not finite"):
                factorize(b, n_grid, truncation)

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

    def test_grid_above_cap_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(factorization, "sample", no_sampling)
        b = LaurentPolynomial.from_dict({0: 2, 1: 1})
        with pytest.raises(SpecError, match=str(2 * factorization.MAX_GRID)):
            factorize(b, 2 * factorization.MAX_GRID, 16)

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
        res2 = factorize(LaurentPolynomial(3.0 * b.coeffs, b.n_max))
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
            got = sample(factorization._keep(lp, side, 1), n_grid)
            assert np.max(np.abs(got - dense)) <= 1e-12 * max(wiener_norm(lp), 1)
            assert np.array_equal(lp.coeffs, before)  # not masked in place


def _exp_poly(q, n_grid, band):
    """Symbol exp(q) as a truncated series, via pointwise exponentiation."""
    s = sample(q, n_grid)
    return fourier_coefficients(np.exp(s), band)


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
        for b in ({-1: 0.2, 0: 2, 1: 0.5}, {0: 2, 1: 1}, {-2: 0.5j, 0: 2, 1: 1}):
            res = factorize(LaurentPolynomial.from_dict(b))
            n = res.grid_size
            for f, f_inverse, side in ((res.plus, res.plus_inverse, +1),
                                       (res.minus, res.minus_inverse, -1)):
                product = sample(f, n) * sample(f_inverse, n)
                assert np.max(np.abs(product - 1)) <= 1e-12
                # the inverse of a one-sided factor lives on the same side
                for k in range(1, f_inverse.n_max + 1):
                    assert abs(f_inverse.coeff(-side * k)) <= 1e-12

    def test_factors_are_one_sided(self):
        # The DFT leaves rounding of about 1e-17 on a factor's off side;
        # the factors keep only their own side, so the off-side norms are 0.
        b = LaurentPolynomial.from_dict({-1: 0.1j, 0: 2, 1: 0.3})
        res = factorize(b, 64, 8)
        for name, side in (("plus", +1), ("plus_inverse", +1),
                           ("minus", -1), ("minus_inverse", -1)):
            f = getattr(res, name)
            assert all(f.coeff(-side * k) == 0 for k in range(1, f.n_max + 1)), name
        norms = membership(res, SPACE)
        assert norms["plus"].negative == norms["plus_inverse"].negative == 0.0

    def test_norms_are_those_of_the_stored_factors(self):
        res = factorize(LaurentPolynomial.from_dict({-2: 0.5j, 0: 2, 1: 1}))
        norms = membership(res, SPACE)
        for name in ("plus", "plus_inverse", "minus", "minus_inverse"):
            assert norms[name] == wnf_norm(getattr(res, name), SPACE)
