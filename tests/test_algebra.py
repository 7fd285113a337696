"""Tests for the combined norm, the algebra constant, and the inequality
verifiers."""

import importlib
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import orlicz_wiener
from orlicz_wiener import algebra, harness, orlicz
from orlicz_wiener.errors import DomainError, SpecError
from orlicz_wiener.algebra import (
    DEFAULT_SPACE_SPEC,
    AlgebraSpace,
    ShiftReport,
    verify_coefficient_bound,
    verify_one_sided,
    verify_theorem,
    verify_weight_shift,
    wnf_norm,
)
from orlicz_wiener.fourier import LaurentPolynomial
from orlicz_wiener.harness import (
    FAMILIES,
    NORM_FAMILIES,
    WEIGHT_EXPONENTS,
    draw_space,
    replay,
    run_suite,
    run_trial,
)
from orlicz_wiener.orlicz import (
    NEGATIVE_SIDE,
    NONNEGATIVE_SIDE,
    OrliczFunction,
    WeightSequence,
    luxemburg_norm,
    validate_weight,
)

from oracles import draw_trial, random_element, split, wiener_norm


def norms(f, g, sp):
    """The norm reports of f, g and fg."""
    return wnf_norm(f, sp), wnf_norm(g, sp), wnf_norm(f.multiply(g), sp)


def theorem(f, g, sp):
    """The theorem's check of the pair (f, g) in sp."""
    return verify_theorem(*norms(f, g, sp), sp.algebra_constant())


def one_sided(f, g, sp):
    """The negative and the nonnegative one-sided checks of (f, g) in sp."""
    return verify_one_sided(*norms(f, g, sp), sp.neg_constant(), sp.pos_constant())


def rows(checks):
    """The JSON row of each check, in order, with empty fingerprints."""
    return checks.to_json([""] * np.size(checks.lhs))


def make_space(neg_orlicz="pow:p=1", pos_orlicz="pow:p=1", neg_scale="const:1",
               neg_sum="const:1", pos_scale="const:1", pos_sum="const:1"):
    return AlgebraSpace.from_spec(
        ";".join([neg_orlicz, pos_orlicz, neg_scale, neg_sum, pos_scale, pos_sum]))


class TestAlgebraSpace:
    def test_default_spec_round_trip(self):
        sp = AlgebraSpace.from_spec(DEFAULT_SPACE_SPEC)
        assert sp.spec() == DEFAULT_SPACE_SPEC

    def test_class_assignment_enforced(self):
        wrong = WeightSequence("const", NONNEGATIVE_SIDE, 1.0)
        ok = WeightSequence("const", NEGATIVE_SIDE, 1.0)
        with pytest.raises(SpecError):
            AlgebraSpace(OrliczFunction("pow", 1), OrliczFunction("pow", 1),
                         wrong, ok,
                         WeightSequence("const", NONNEGATIVE_SIDE, 1.0),
                         WeightSequence("const", NONNEGATIVE_SIDE, 1.0))

    def test_six_fields_required(self):
        with pytest.raises(SpecError):
            AlgebraSpace.from_spec("pow:p=1;pow:p=1;const:1")


class TestTheoremConstant:
    def test_all_ones(self):
        assert make_space().algebra_constant() == 9.0  # 1 + 2*2*1 + 2*2*1

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_power_nonnegative_scale(self, beta):
        sp = make_space(pos_scale=f"pow:alpha={beta}")
        assert sp.algebra_constant() == pytest.approx(5 + 4 * 2**beta)

    def test_all_twos(self):
        sp = make_space(neg_scale="pow:alpha=1", neg_sum="pow:alpha=1",
                        pos_scale="pow:alpha=1", pos_sum="pow:alpha=1")
        assert sp.algebra_constant() == 25.0  # 1 + 2*3*2 + 2*3*2

    def test_recomputable_from_parts(self):
        sp = make_space(neg_scale="pow:alpha=1.5", pos_sum="log")
        expected = 1 + 2 * sp.neg_constant() + 2 * sp.pos_constant()
        assert sp.algebra_constant() == pytest.approx(expected)


class TestWnfNorm:
    def test_zero(self):
        rep = wnf_norm(LaurentPolynomial.from_dict({}), make_space())
        assert rep.wiener == rep.negative == rep.nonnegative == rep.total == 0

    def test_single_constant_coefficient(self):
        rep = wnf_norm(LaurentPolynomial.from_dict({0: 1}), make_space())
        assert rep.wiener == 1
        assert rep.negative == 0
        assert rep.nonnegative == pytest.approx(1, rel=1e-10)
        assert rep.total == pytest.approx(2, rel=1e-10)

    def test_negative_mode_with_sum_weight(self):
        sp = make_space(neg_orlicz="pow:p=2", neg_sum="pow:alpha=1")
        rep = wnf_norm(LaurentPolynomial.from_dict({-1: 1}), sp)
        assert rep.negative == pytest.approx(np.sqrt(2), rel=1e-10)

    def test_arrays_of_no_pairs_are_empty(self):
        rep = algebra.wnf_norm_arrays([])
        for piece in (rep.wiener, rep.negative, rep.nonnegative):
            assert piece.dtype == np.float64 and piece.shape == (0,)

    def test_zero_polynomial_has_a_zero_wiener_sum_on_both_paths(self):
        zero = LaurentPolynomial.from_dict({})
        assert wnf_norm(zero, make_space()).wiener == 0.0
        assert algebra.wnf_norm_arrays([(zero, make_space())]).wiener.tolist() == [0.0]

    def test_an_infinite_wiener_sum_is_refused_on_both_paths(self):
        # Each side is 1e308, finite, but their absolute sum overflows.
        f, sp = LaurentPolynomial.from_dict({-1: 1e308, 0: 1e308}), make_space()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in (lambda: wnf_norm(f, sp), lambda: algebra.wnf_norm_arrays([(f, sp)])):
                with pytest.raises(DomainError, match="the combined norm is not finite"):
                    norm()

    @staticmethod
    def _split_oracle(f, sp):
        """The three pieces composed from copies: ``split(f)``'s complex
        sides, each solved by ``luxemburg_norm``, and ``wiener_norm(f)``."""
        neg, nonneg = split(f)
        return (wiener_norm(f),
                luxemburg_norm(neg, sp.neg_orlicz, sp.neg_scale, sp.neg_sum),
                luxemburg_norm(nonneg, sp.pos_orlicz, sp.pos_scale, sp.pos_sum))

    @staticmethod
    def _polynomials():
        """Random polynomials: n_max 0 to 64, sides that are all zero,
        whole polynomials at 1e-300 and 1e300, entries log-uniform over
        1e-300..1e300, and one with 32,769 coefficients on its negative
        side and 32,770 on the other."""
        rng = np.random.default_rng(2024)
        polys = []
        for n in (0, 0, 1, 2, 3, 7, 16, 64):
            for scale in (1e-300, 1.0, 1e300):
                polys.append(LaurentPolynomial(scale * random_element(n, rng).coeffs, n))
            c = random_element(n, rng).coeffs * 10.0 ** rng.uniform(-300, 300, 2 * n + 1)
            polys.append(LaurentPolynomial(c, n))
            for side in (slice(0, n), slice(n + 1, 2 * n + 1)):
                c = random_element(n, rng).coeffs
                c[side] = 0
                polys.append(LaurentPolynomial(c, n))
        polys.append(random_element(32769, rng))
        return polys

    def test_the_moduli_taken_once_give_the_bits_of_the_split_sides(self):
        rng = np.random.default_rng(7)
        specs = ["powlog:p=2.5;expm1;pow:alpha=1.5;log;log;const:2",
                 "expm1;pow:p=1.05;log;const:0.5;pow:alpha=1.95;log",
                 "pow:p=2;powlog:p=1;const:1;pow:alpha=0.5;const:3;pow:alpha=1"]
        spaces = [AlgebraSpace.from_spec(s) for s in specs]
        pairs = [(f, spaces[i % 3] if i % 2 else draw_space(rng))
                 for i, f in enumerate(self._polynomials())]
        want = [self._split_oracle(f, sp) for f, sp in pairs]
        for (f, sp), pieces in zip(pairs, want):
            rep = wnf_norm(f, sp)
            assert (rep.wiener, rep.negative, rep.nonnegative) == pieces
        got = algebra.wnf_norm_arrays(pairs)
        assert list(zip(got.wiener.tolist(), got.negative.tolist(),
                        got.nonnegative.tolist())) == want


class TestVerifyTheorem:
    def test_zero_pair(self):
        zero = LaurentPolynomial.from_dict({})
        w = theorem(zero, zero, make_space())
        assert w.holds and w.lhs == 0 and w.rhs == 0

    def test_constant_pair(self):
        f = LaurentPolynomial.from_dict({0: 1})
        w = theorem(f, f, make_space())
        assert w.lhs == pytest.approx(2, rel=1e-9)
        assert w.rhs == pytest.approx(36, rel=1e-9)
        assert w.holds

    def test_random_spaces_and_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            sp = draw_space(rng)
            f = random_element(int(rng.integers(0, 16)), int(rng.integers(0, 2**31)))
            g = random_element(int(rng.integers(0, 16)), int(rng.integers(0, 2**31)))
            assert theorem(f, g, sp).holds


class TestVerifyOneSided:
    def test_zero_pair(self):
        zero = LaurentPolynomial.from_dict({})
        ws = one_sided(zero, zero, make_space())
        assert len(ws) == 2 and all(w.holds for w in ws)

    def test_single_negative_modes(self):
        f = LaurentPolynomial.from_dict({-1: 1})
        w = one_sided(f, f, make_space())[0]
        assert w.lhs == pytest.approx(1, rel=1e-9)
        assert w.rhs == pytest.approx(4, rel=1e-9)
        assert w.holds

    def test_chain_implies_theorem(self):
        # product norm pieces, bounded one by one, assemble to the full bound
        rng = np.random.default_rng(37)
        for _ in range(20):
            sp = draw_space(rng)
            f = random_element(int(rng.integers(0, 12)), int(rng.integers(0, 2**31)))
            g = random_element(int(rng.integers(0, 12)), int(rng.integers(0, 2**31)))
            nf = wnf_norm(f, sp)
            ng = wnf_norm(g, sp)
            prod = wnf_norm(f.multiply(g), sp)
            slack = 1 + 1e-9
            assert prod.wiener <= nf.wiener * ng.wiener * slack
            assert prod.negative <= 2 * sp.neg_constant() * nf.total * ng.total * slack
            assert (prod.nonnegative
                    <= 2 * sp.pos_constant() * nf.total * ng.total * slack)
            assert prod.total <= sp.algebra_constant() * nf.total * ng.total * slack


def coefficient_targets(f, g):
    """The product index of each coefficient-bound witness, in order."""
    deg = f.n_max + g.n_max
    return list(range(-1, -deg - 1, -1)) + list(range(0, deg + 1))


def majorant_oracle(f, g, target):
    """|(fg)_target| and its majorant, each index pair summed one at a time
    straight from the definition: over (x, y) = (f, g) and (g, f),
      target = -k < 0:  sum_{j>=0} |x_j||y_{-k-j}| + sum_{j=1}^{k//2} |x_{-j}||y_{-k+j}|
      target = k >= 0:  sum_{j>=1} |x_{-j}||y_{k+j}| + sum_{j=0}^{k//2} |x_j||y_{k-j}|
    """
    reach = f.n_max + g.n_max
    lhs = 0j
    for j in range(-f.n_max, f.n_max + 1):
        lhs += f.coeff(j) * g.coeff(target - j)
    k = abs(target)
    rhs = 0.0
    for x, y in ((f, g), (g, f)):
        if target < 0:
            for j in range(0, reach + 1):
                rhs += abs(x.coeff(j)) * abs(y.coeff(-k - j))
            for j in range(1, k // 2 + 1):
                rhs += abs(x.coeff(-j)) * abs(y.coeff(-k + j))
        else:
            for j in range(1, reach + 1):
                rhs += abs(x.coeff(-j)) * abs(y.coeff(k + j))
            for j in range(0, k // 2 + 1):
                rhs += abs(x.coeff(j)) * abs(y.coeff(k - j))
    return abs(lhs), rhs


def exact_element(support, seed):
    """Coefficients drawn from {0, +-1, +-2, +-i, 3 +- 4i}, whose moduli
    0, 1, 2 and 5 are exact, at every index in [-support, support]."""
    values = np.array([0, 1, -1, 2, -2, 1j, -1j, 3 + 4j, 3 - 4j])
    rng = np.random.default_rng(seed)
    return LaurentPolynomial(rng.choice(values, 2 * support + 1), support)


class TestVerifyCoefficientBound:
    def test_lhs_is_the_product_coefficient(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            f = random_element(int(rng.integers(0, 9)), int(rng.integers(0, 2**31)))
            g = random_element(int(rng.integers(0, 12)), int(rng.integers(0, 2**31)))
            fg = f.multiply(g)
            ws = rows(verify_coefficient_bound(f, g))
            assert len(ws) == 2 * fg.n_max + 1
            for target, w in zip(coefficient_targets(f, g), ws):
                assert w["lhs"] == pytest.approx(abs(fg.coeff(target)),
                                              rel=1e-12, abs=1e-15)

    def test_pair_of_negative_modes(self):
        f = LaurentPolynomial.from_dict({-1: 1})
        ws = dict(zip(coefficient_targets(f, f), rows(verify_coefficient_bound(f, f))))
        w = ws[-2]
        assert w["lhs"] == pytest.approx(1)
        assert w["rhs"] == pytest.approx(2)
        assert w["holds"]

    def test_zero_factor(self):
        g = LaurentPolynomial.from_dict({-1: 1, 0: 2, 3: 1j})
        ws = rows(verify_coefficient_bound(LaurentPolynomial.from_dict({}), g))
        assert len(ws) == 7
        assert all(w["lhs"] == 0 and w["holds"] for w in ws)

    @pytest.mark.parametrize("f,g,exact", [
        (LaurentPolynomial.from_dict({}), LaurentPolynomial.from_dict({}), False),
        (LaurentPolynomial.from_dict({}), random_element(5, 1), False),
        (random_element(4, 2), LaurentPolynomial.from_dict({}), False),
        (LaurentPolynomial.from_dict({0: 2 - 1j}), random_element(6, 3), False),
        (random_element(0, 4), random_element(0, 5), False),
        (random_element(2, 6), random_element(7, 7), False),
        (random_element(9, 8), random_element(1, 9), False),
        (random_element(5, 10), random_element(5, 11), False),
        (LaurentPolynomial.from_dict({-3: 1, 2: -1j}),
         LaurentPolynomial.from_dict({-4: 0.5, 1: 2}), False),
        (exact_element(6, 12), exact_element(6, 12), True),
        (exact_element(0, 13), exact_element(9, 14), True),
        (exact_element(9, 15), exact_element(0, 16), True),
        (exact_element(4, 17), exact_element(7, 18), True),
        (LaurentPolynomial.from_dict({-2: 3 + 4j, 0: 1j, 1: -2}),
         LaurentPolynomial.from_dict({-1: 2, 0: 3 - 4j, 2: -1}), True),
    ], ids=["zero-zero", "zero-g", "f-zero", "const-g", "deg0", "unequal-2-7",
            "unequal-9-1", "equal-5", "sparse", "exact-f-is-g-6", "exact-0-9",
            "exact-9-0", "exact-4-7", "exact-sparse"])
    def test_matches_brute_force_oracle(self, f, g, exact):
        # with exact coefficients every modulus, product and sum is an exact
        # integer, so the majorant must equal the oracle bit for bit: this
        # pins the index of the middle term
        targets = coefficient_targets(f, g)
        ws = rows(verify_coefficient_bound(f, g))
        assert len(ws) == len(targets)
        for target, w in zip(targets, ws):
            lhs, rhs = majorant_oracle(f, g, target)
            assert w["lhs"] == pytest.approx(lhs, rel=1e-12, abs=1e-15), target
            if exact:
                assert w["rhs"] == rhs, target
            else:
                assert w["rhs"] == pytest.approx(rhs, rel=1e-12, abs=0), target
            assert w["constant"] == 1.0 and w["holds"]

    def test_random_pairs_all_k(self):
        rng = np.random.default_rng(41)
        ratios = []
        for _ in range(30):
            f = random_element(int(rng.integers(0, 9)), int(rng.integers(0, 2**31)))
            g = random_element(int(rng.integers(0, 9)), int(rng.integers(0, 2**31)))
            for target, w in zip(coefficient_targets(f, g),
                                 rows(verify_coefficient_bound(f, g))):
                assert w["holds"]
                assert w["rhs"] == pytest.approx(majorant_oracle(f, g, target)[1],
                                                 rel=1e-12, abs=0)
                ratios.append(w["ratio"])
        assert max(ratios) <= 1 + 1e-12


def weight_shift_loop(nu, k_max):
    """Per-index reference scan for verify_weight_shift."""
    c = nu.delta2_constant()
    n = np.arange(nu.start, k_max + 1)
    vals = nu(n)
    smin = np.minimum.accumulate(vals[::-1])[::-1]
    violations = []
    max_ratio = 0.0
    for i, k in enumerate(n):
        bound = c * smin[max(nu.start, k - k // 2) - nu.start]
        max_ratio = max(max_ratio, vals[i] / bound if bound > 0 else float("inf"))
        if vals[i] > bound * (1 + 1e-12):
            violations.append({"k": int(k), "value": float(vals[i]), "bound": float(bound)})
    return ShiftReport(k_max, max_ratio, violations)


def shift_tables(klass, seed, count):
    """Seeded random tables that are not monotone, each declaring the
    doubling constant it observes, so that ``delta2_constant`` accepts it
    while the shift bound may fail at any index."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        values = tuple(np.exp(rng.normal(0, 1, int(rng.integers(2, 40)))).tolist())
        loose = WeightSequence("table", klass, table=values, table_delta2=1e300)
        sup = validate_weight(loose, 2 * len(values) + 2).empirical_sup
        yield WeightSequence("table", klass, table=values, table_delta2=max(1.0, sup))


def violation_kinds(rep, start):
    """Where each violation of a ShiftReport lies in its pair k = 2j - 1,
    2j of j = ceil(k/2): alone in a pair whose other index holds, in a
    pair that fails on both, or at an index with no partner in
    start..k_max (the last index of an odd k_max, or k = 0)."""
    ks = {v["k"] for v in rep.violations}
    kinds = set()
    for k in ks:
        j = (k + 1) // 2
        mates = {2 * j - 1, 2 * j} & set(range(start, rep.k_max + 1))
        if len(mates) == 1:
            kinds.add("unpaired last" if k == rep.k_max else "unpaired zero")
        elif mates <= ks:
            kinds.add("both")
        else:
            kinds.add("odd alone" if k % 2 else "even alone")
    return kinds


def builtin_weights():
    for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE):
        for alpha in WEIGHT_EXPONENTS:
            yield WeightSequence("pow", klass, alpha)
        yield WeightSequence("log", klass)
        yield WeightSequence("const", klass, 1.0)


class TestVerifyWeightShift:
    @pytest.mark.parametrize("nu", list(builtin_weights()), ids=lambda nu: f"{nu.klass}:{nu.spec()}")
    def test_matches_reference_scan_builtin(self, nu):
        got, ref = verify_weight_shift(nu, 10_000), weight_shift_loop(nu, 10_000)
        assert got.to_json() == ref.to_json()
        assert got.violations == ref.violations

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    def test_matches_reference_scan_with_violations(self, klass):
        nu = WeightSequence("table", klass, table=(5.0, 1.0, 1.0, 1.0) + (0.1,) * 20,
                            table_delta2=10.0)
        got, ref = verify_weight_shift(nu, 60), weight_shift_loop(nu, 60)
        assert not got.ok and got.violations
        assert got.violations == ref.violations
        assert got.max_ratio == ref.max_ratio

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    @pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_matches_reference_scan_at_small_k_max(self, klass, k_max):
        # not monotone, and from k_max = 8 on the shift bound fails
        nu = WeightSequence("table", klass, table=(4.0, 2.0, 4.0, 3.0, 4.0, 0.5, 4.0, 0.1),
                            table_delta2=8.0)
        got, ref = verify_weight_shift(nu, k_max), weight_shift_loop(nu, k_max)
        assert got.ok == (k_max < 8)
        assert got.to_json() == ref.to_json()
        assert got.violations == ref.violations

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    def test_pairwise_scan_matches_reference_on_random_tables(self, klass):
        kinds = set()
        for nu in shift_tables(klass, 11, 60):
            n = len(nu.table)
            for k_max in sorted({1, 2, 3, n - 1, n, 2 * n - 1, 2 * n, 2 * n + 1} - {0}):
                got, ref = verify_weight_shift(nu, k_max), weight_shift_loop(nu, k_max)
                assert got.to_json() == ref.to_json()
                assert got.violations == ref.violations
                assert got.max_ratio.hex() == float(ref.max_ratio).hex()
                assert all(type(v["k"]) is int for v in got.violations)
                kinds |= violation_kinds(got, nu.start)
        assert {"odd alone", "even alone", "both", "unpaired last"} <= kinds

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    def test_ratio_within_the_slack_is_no_violation(self, klass):
        # The value at the class start is 1 + 2^-44 and every later one 1,
        # with doubling constant 1: the worst ratio is that first value,
        # above 1 but within the relative slack 1e-12 of the bound.
        first = 1 + 2.0**-44
        nu = WeightSequence("table", klass, table=(first, 1.0), table_delta2=1.0)
        got, ref = verify_weight_shift(nu, 9), weight_shift_loop(nu, 9)
        assert got.max_ratio == first and 1 < got.max_ratio <= 1 + 1e-12
        assert got.ok and got.violations == []
        assert got.to_json() == ref.to_json()

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    def test_bound_at_the_largest_double(self, klass):
        # C S_j is the largest double but one, and the value at the class
        # start the largest: the ratio exceeds 1 by one ulp, and the bound
        # times 1 + 1e-12 overflows, which no value exceeds.
        top = float(np.finfo(float).max)
        nu = WeightSequence("table", klass, table=(top, np.nextafter(top, 0)),
                            table_delta2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = verify_weight_shift(nu, 3)
        assert got.max_ratio > 1 and got.ok

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    @pytest.mark.parametrize("family, rest, k_max", [
        ("pow", (1000.0,), 1000),  # (n+1)^1000 overflows from n = 2 on
        ("pow", (600.0,), 10_000),  # (n+1)^600 overflows from n = 3 on
        ("pow", (1000.0,), 1),  # the values are finite, C S_1 = 2^2000 is not
        # The values are finite, C S_j = 10 * 1e308 is not: the ratio
        # 1e308 / inf would read 0 where it is 0.1.
        ("table", (0.0, (1e308, 1e308), 10.0), 5),
    ], ids=["pow1000", "pow600", "pow1000-bound", "table-bound"])
    def test_non_finite_scan_refused(self, klass, family, rest, k_max):
        nu = WeightSequence(family, klass, *rest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                verify_weight_shift(nu, k_max)

    def test_linear_weight(self):
        # nu_n = n realized as a table; doubling constant 2
        nu = WeightSequence("table", NEGATIVE_SIDE,
                            table=tuple(float(n) for n in range(1, 41)),
                            table_delta2=2.0)
        rep = verify_weight_shift(nu, 20)
        assert rep.ok

    def test_constant_weight(self):
        rep = verify_weight_shift(WeightSequence("const", NEGATIVE_SIDE, 1.0), 100)
        assert rep.ok
        assert rep.max_ratio == pytest.approx(1.0)

    def test_power_weight_long_scan(self):
        rep = verify_weight_shift(WeightSequence("pow", NONNEGATIVE_SIDE, 1.0), 10_000)
        assert rep.ok

    def test_brute_force_oracle_small_range(self):
        nu = WeightSequence("log", NEGATIVE_SIDE)
        c = nu.delta2_constant()
        rep = verify_weight_shift(nu, 50)
        assert rep.ok
        for k in range(1, 51):
            for j in range(max(1, k - k // 2), 51):
                assert nu(k) <= c * nu(j) * (1 + 1e-12)


def builtin_twins():
    """Every builtin weight of the suite as (W- weight, W+ twin)."""
    return list(zip(*([nu for group in harness.WEIGHT_GROUPS[klass] for nu in group]
                      for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE))))


class TestSharedTwinScan:
    """One scan of a W+ weight gives its W- twin's report, bit for bit."""

    @staticmethod
    def assert_same(got, want):
        assert got.to_json() == want.to_json()
        assert got.violations == want.violations
        assert repr(got.max_ratio) == repr(want.max_ratio)

    @pytest.mark.parametrize("k_max", [1, 2, 3, 4, 9, 10, 1000, 10_000])
    @pytest.mark.parametrize("minus, plus", builtin_twins(),
                             ids=[minus.spec() for minus, _ in builtin_twins()])
    def test_shared_scan_equals_two_scans(self, minus, plus, k_max):
        rep_minus, rep_plus = verify_weight_shift(minus, k_max, plus)
        self.assert_same(rep_minus, verify_weight_shift(minus, k_max))
        self.assert_same(rep_plus, verify_weight_shift(plus, k_max))
        # Either argument order: the reports follow the arguments.
        rep_plus, rep_minus = verify_weight_shift(plus, k_max, minus)
        self.assert_same(rep_minus, verify_weight_shift(minus, k_max))
        self.assert_same(rep_plus, verify_weight_shift(plus, k_max))

    @pytest.mark.parametrize("k_max", [1, 2, 3, 4, 9, 10, 1000])
    def test_shared_scan_with_violations(self, monkeypatch, k_max):
        # With a doubling constant of 1, the increasing log weight breaks
        # the bound at every k >= 2 in both classes.
        monkeypatch.setattr(orlicz, "_LOG_DELTA2", 1.0)
        minus, plus = (WeightSequence("log", klass) for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE))
        rep_minus, rep_plus = verify_weight_shift(minus, k_max, plus)
        want_minus, want_plus = verify_weight_shift(minus, k_max), verify_weight_shift(plus, k_max)
        self.assert_same(rep_minus, want_minus)
        self.assert_same(rep_plus, want_plus)
        assert want_minus.ok == want_plus.ok == (k_max < 2)

    def test_suite_equals_one_scan_per_weight_in_its_key_order(self):
        want = {f"{klass}:{nu.spec()}": verify_weight_shift(nu, 1000)
                for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE)
                for group in harness.WEIGHT_GROUPS[klass] for nu in group}
        got = harness.run_weight_shift_suite(1000)
        assert list(got) == list(want) and len(got) == 12
        for name in want:
            self.assert_same(got[name], want[name])

    def test_suite_makes_one_scan_per_twin_pair(self, monkeypatch):
        calls = []

        def counting(nu, k_max, twin=None):
            calls.append((nu, twin))
            return verify_weight_shift(nu, k_max, twin)
        monkeypatch.setattr(harness, "verify_weight_shift", counting)
        harness.run_weight_shift_suite(10)
        assert calls == builtin_twins()

    @pytest.mark.parametrize("nu, twin", [
        (WeightSequence("pow", NEGATIVE_SIDE, 1.0), WeightSequence("pow", NEGATIVE_SIDE, 1.0)),
        (WeightSequence("pow", NEGATIVE_SIDE, 1.0), WeightSequence("pow", NONNEGATIVE_SIDE, 2.0)),
        (WeightSequence("pow", NEGATIVE_SIDE, 0.0), WeightSequence("const", NONNEGATIVE_SIDE, 1.0)),
        (WeightSequence("log", NONNEGATIVE_SIDE), WeightSequence("const", NEGATIVE_SIDE, 1.0)),
        (WeightSequence("const", NEGATIVE_SIDE, 1.0), WeightSequence("const", NONNEGATIVE_SIDE, 2.0)),
        (WeightSequence("table", NEGATIVE_SIDE, table=(1.0, 2.0), table_delta2=2.0),
         WeightSequence("table", NONNEGATIVE_SIDE, table=(1.0, 2.0), table_delta2=2.0)),
    ], ids=["same-class", "other-alpha", "other-family", "log-const", "other-constant",
            "table"])
    def test_a_pair_that_is_not_a_twin_is_refused(self, nu, twin):
        with pytest.raises(SpecError, match="not the builtin twin"):
            verify_weight_shift(nu, 10, twin)


class TestRandomElement:
    def test_deterministic(self):
        f = random_element(5, 123)
        g = random_element(5, 123)
        assert np.array_equal(f.coeffs, g.coeffs)

    def test_support_zero(self):
        f = random_element(0, 1)
        assert f.n_max == 0

    def test_support_bound_respected(self):
        for seed in range(100):
            assert random_element(7, seed).n_max <= 7

    def test_magnitude_scale(self):
        f = random_element(50, 9)
        assert np.max(np.abs(f.coeffs.real)) <= 1
        assert np.max(np.abs(f.coeffs.imag)) <= 1


class TestPublicNames:
    """Every exported name resolves, so no removed name is left in an
    ``__all__``."""

    @pytest.mark.parametrize("module", [orlicz_wiener, algebra])
    def test_every_exported_name_exists(self, module):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []

    def test_star_import(self):
        namespace = {}
        exec("from orlicz_wiener import *", namespace)
        assert set(orlicz_wiener.__all__) <= namespace.keys()

    def test_every_name_in_the_readme_resolves(self):
        """Every backticked ``module.name`` in README.md, for a module of
        the package, resolves, so no renamed or removed name is left in
        its map."""
        modules = ("orlicz", "fourier", "algebra", "factorization", "harness", "errors", "cli")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        names = re.findall(r"`((?:%s)(?:\.\w+)+)`" % "|".join(modules), readme)
        assert {name.split(".")[0] for name in names} == set(modules)

        def resolves(name):
            module, *path = name.split(".")
            obj = importlib.import_module(f"orlicz_wiener.{module}")
            for attr in path:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
        assert [name for name in names if not resolves(name)] == []


class TestHarnessReplay:
    def test_replay_matches_original(self):
        first = run_trial(("theorem",), 7, 3, 16)["theorem"]
        again = replay("theorem:seed=7:trial=3:support=16")
        assert rows(first) == rows(again)

    def test_bad_fingerprint_rejected(self):
        with pytest.raises(SpecError):
            replay("nonsense")

    def test_unknown_family_rejected(self):
        with pytest.raises(SpecError):
            run_trial(("theorem", "sideways"), 7, 3, 16)


def _same_draw(got, want) -> bool:
    """Equal draws: the same prebuilt Orlicz functions and weights, the
    same supports, and coefficients equal bit for bit."""
    (sp, f, g), (want_sp, want_f, want_g) = got, want
    sides = ("neg_orlicz", "pos_orlicz", "neg_scale", "neg_sum", "pos_scale", "pos_sum")
    return (all(getattr(sp, side) is getattr(want_sp, side) for side in sides)
            and (f.n_max, g.n_max) == (want_f.n_max, want_g.n_max)
            and f.coeffs.tobytes() == want_f.coeffs.tobytes()
            and g.coeffs.tobytes() == want_g.coeffs.tobytes())


# PCG64's 128-bit multiplier: a step is state * _PCG_MULT + inc.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _planted(zero_at, inc=0x5851F42D4C957F2D14057B7EF767814F):
    """The state of a PCG64 whose output ``zero_at`` (from 0) is 0, so that
    both of its 32-bit words are rejected for any n whose 2**32 % n > 0.
    PCG64 steps, then outputs the xor of the new state's halves rotated, so
    a state with equal halves outputs 0; the steps before it are undone
    with the multiplier's inverse mod 2**128."""
    state = 0x9E3779B97F4A7C15 * (2**64 + 1)
    for _ in range(zero_at + 1):
        state = (state - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


class TestRawDraw:
    """``harness._draw_chunk`` reads a chunk of trials from raw PCG64 output,
    each trial in its own lane; the oracle draws each trial through
    ``Generator`` calls."""

    @pytest.mark.parametrize("support", [0, 1, 32, 64])
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**64 + 5])
    def test_draw_equals_the_generator_draw(self, seed, support):
        # Each trial drawn alone, as a chunk of one, which is how run_trial
        # and replay draw it.
        for t in range(100):
            (trial, *draw), = harness._draw_chunk(seed, range(t, t + 1), support)
            assert trial == t and _same_draw(draw, draw_trial(seed, t, support))

    def test_draw_at_the_largest_support(self):
        for t in range(3):
            (trial, *draw), = harness._draw_chunk(11, range(t, t + 1), harness.MAX_SUPPORT)
            assert trial == t and _same_draw(draw, draw_trial(11, t, harness.MAX_SUPPORT))

    # The suite draws at most one trial a chunk at MAX_SUPPORT (CHUNK_TERMS),
    # so the larger chunks are drawn at the smaller supports only; each
    # chunk is drawn from trial 0 and across 2**32, where a trial's entropy
    # grows from one 32-bit word to two.
    @pytest.mark.parametrize("support,size", [
        *((s, n) for s in (0, 1, 32, 64) for n in (1, 2, 25, 338)),
        (harness.MAX_SUPPORT, 1), (harness.MAX_SUPPORT, 2)])
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**64 + 5, 2**1000 + 12345],
                             ids=["0", "7", "2**32+3", "2**64+5", "2**1000+12345"])
    def test_chunks_equal_the_generator_draw(self, seed, support, size):
        for start in (0, 2**32 - size // 2):
            trials = range(start, start + size)
            drawn = harness._draw_chunk(seed, trials, support)
            assert [t for t, *_ in drawn] == list(trials)
            for t, *draw in drawn:
                assert _same_draw(draw, draw_trial(seed, t, support))

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**64 + 5, 2**200 + 1, 2**1000 + 12345],
                             ids=["0", "7", "2**32+3", "2**64+5", "2**200+1", "2**1000+12345"])
    def test_seeded_states_equal_the_seed_sequence(self, seed):
        # Across 2**32 and 2**64 a trial's entropy grows by a 32-bit word.
        for start in (0, 2**32 - 3, 2**64 - 3):
            trials = range(start, start + 6)
            for t, got in zip(trials, harness._streams(seed, trials), strict=True):
                assert got.state == np.random.PCG64(np.random.SeedSequence([seed, t])).state

    @pytest.mark.parametrize("support", [0, 1, 64, harness.MAX_SUPPORT])
    def test_draw_fetches_the_outputs_it_reads(self, monkeypatch, support):
        # Every lane draws a block of 8 outputs and then exactly what it
        # reads past its row, so a lane that reads fewer than 16 outputs may
        # fetch 16 only where a rejection doubled the rows.  The sizes of
        # each stream's random_raw calls are recorded at the stream.
        fetched, readers = [], []
        streams = harness._streams

        class Counted:
            def __init__(self, bg):
                self.bg, self.sizes = bg, []
                fetched.append(self.sizes)

            def random_raw(self, k):
                self.sizes.append(k)
                return self.bg.random_raw(k)

        class Recorded(harness._Lanes):
            def __init__(self, *args):
                super().__init__(*args)
                readers.append(self)

        monkeypatch.setattr(harness, "_streams", lambda *a: [Counted(bg) for bg in streams(*a)])
        monkeypatch.setattr(harness, "_Lanes", Recorded)
        trials = 3 if support == harness.MAX_SUPPORT else 50
        read = []
        for seed in (0, 7, 2**32 + 3):
            drawn = harness._draw_chunk(seed, range(trials), support)
            # A lane reads its picks' outputs, then 2 per coefficient of f and g.
            read += [(at + 1) // 2 + 2 * (len(f.coeffs) + len(g.coeffs))
                     for at, (_, _, f, g) in zip(readers[-1].at.tolist(), drawn, strict=True)]
        assert len(readers) == 3 and len(fetched) == len(read) == 3 * trials
        assert [(sizes, r) for sizes, r in zip(fetched, read) if sum(sizes) > max(r, 16)] == []

    @staticmethod
    def lanes(states):
        """A chunk reader on one PCG64 per state, and a Generator on a PCG64
        of each state."""
        def stream(state):
            bg = np.random.PCG64(0)
            bg.state = state
            return bg
        return (harness._Lanes([stream(s) for s in states]),
                [np.random.Generator(stream(s)) for s in states])

    @staticmethod
    def seeded(n, lanes=5):
        return [np.random.PCG64(n + lane).state for lane in range(lanes)]

    @pytest.mark.parametrize("n", [1, 2, 3, 65537, 3 * 2**30, 2**32 - 1])
    def test_integers_equal_the_generator(self, n):
        # 400 picks read past each lane's block of 8 outputs; at 3 * 2^30 a
        # quarter of the words are rejected, and n = 1 reads no word.
        lanes, gens = self.lanes(self.seeded(n))
        got = np.array([lanes.integers(n) for _ in range(400)]).T.tolist()
        assert got == [[int(gen.integers(n)) for _ in range(400)] for gen in gens]
        if n == 1:
            assert lanes.at.tolist() == [0] * 5
        if n == 3 * 2**30:
            assert min(lanes.at.tolist()) > 440

    def test_mixed_bounds_equal_the_generator(self):
        # Each lane has its own bound at each pick.
        rng = np.random.default_rng(3)
        bounds = rng.choice([1, 2, 3, 4, 65, 3 * 2**30], (500, 5))
        lanes, gens = self.lanes(self.seeded(4))
        got = np.array([lanes.integers(row) for row in bounds]).T.tolist()
        assert got == [[int(gen.integers(n)) for n in bounds[:, i].tolist()]
                       for i, gen in enumerate(gens)]

    def test_planted_rejections_equal_the_generator(self):
        # Lane 0's first output is 0, so at n = 2^32 - 1 its first two words
        # are rejected; lane 1's eighth is, so its rejections run past its
        # block of 8 outputs at its 15th pick; lanes 2 and 3 draw with n = 1
        # and read no word; lane 4 rejects a quarter of its words.
        lanes, gens = self.lanes([_planted(0), _planted(7), *self.seeded(9, 3)])
        n = np.array([2**32 - 1, 2**32 - 1, 1, 1, 3 * 2**30])
        got = np.array([lanes.integers(n) for _ in range(20)]).T.tolist()
        assert got == [[int(gen.integers(k)) for _ in range(20)] for gen, k in zip(gens, n.tolist())]
        assert lanes.at.tolist()[:4] == [22, 22, 0, 0]
        # Lanes 0 and 1 ran past 16 words, so every row doubled once.
        assert lanes.raw.shape[1] == 16

    @pytest.mark.parametrize("picks", [1, 2, 3])
    def test_uniforms_skip_a_buffered_high_half(self, picks):
        # After an odd number of words the high half of the last output is
        # buffered: the uniforms start at the next output, as the
        # Generator's do.
        lanes, gens = self.lanes(self.seeded(picks + 20, 3))
        assert (np.array([lanes.integers(5) for _ in range(picks)]).T.tolist()
                == [[int(gen.integers(5)) for _ in range(picks)] for gen in gens])
        got = (lanes.take(np.full(3, 9)) >> 11) * 2.0**-52 - 1.0
        assert got.tobytes() == np.concatenate([gen.uniform(-1, 1, 9) for gen in gens]).tobytes()
        # Each lane fetched what the Generator read: its stream stands where
        # the Generator's does.
        assert ([bg.state["state"] for bg in lanes.streams]
                == [gen.bit_generator.state["state"] for gen in gens])

    # At a block of one output every lane doubles its row several times
    # during the picks, so its uniforms start past a grown row.
    @pytest.mark.parametrize("support,size", [(s, n) for s in (0, 1, 64) for n in (1, 25)])
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3], ids=["0", "7", "2**32+3"])
    def test_uniforms_after_the_rows_grow(self, monkeypatch, seed, support, size):
        monkeypatch.setattr(harness, "_BLOCK", 1)
        drawn = harness._draw_chunk(seed, range(size), support)
        assert [t for t, *_ in drawn] == list(range(size))
        for t, *draw in drawn:
            assert _same_draw(draw, draw_trial(seed, t, support))


def _batch_sizes(monkeypatch) -> list:
    """Record the number of problems in each batched solve from now on."""
    sizes = []
    original = algebra.luxemburg_brackets

    def counted(problems, *args, **kwargs):
        sizes.append(len(problems))
        return original(problems, *args, **kwargs)

    monkeypatch.setattr(algebra, "luxemburg_brackets", counted)
    return sizes


class TestSharedTrial:
    def test_one_draw_gives_every_family(self):
        shared = run_trial(FAMILIES, 7, 3, 16)
        assert list(shared) == list(FAMILIES)
        for family in FAMILIES:
            alone = run_trial((family,), 7, 3, 16)[family]
            assert rows(shared[family]) == rows(alone)
            assert rows(replay(f"{family}:seed=7:trial=3:support=16")) == rows(alone)

    @pytest.mark.parametrize("families,reports", [
        (NORM_FAMILIES, 3), (("theorem",), 3), (("one_sided_nonnegative",), 3),
        (FAMILIES, 3), (("coefficient_bound",), 0),
    ])
    def test_wnf_norm_calls_per_trial(self, monkeypatch, families, reports):
        # A norm-family trial needs the norm reports of f, g and fg: two
        # one-sided problems each, all sent to the batched solver at once.
        batches = _batch_sizes(monkeypatch)
        run_trial(families, 7, 3, 16)
        assert sum(batches) == 2 * reports
        assert len(batches) == (1 if reports else 0)

    def test_trials_share_the_builtin_weights(self, monkeypatch):
        # Every draw takes its Orlicz functions and weights from one
        # prebuilt table, 6 weights per side: the one chunk of 25 trials at
        # support 64 evaluates each weight it uses once, and equal draws are
        # one object.
        calls = []
        real = WeightSequence.__call__

        def counting(nu, n):
            calls.append(nu)
            return real(nu, n)

        monkeypatch.setattr(WeightSequence, "__call__", counting)
        run_suite(NORM_FAMILIES, 25, 7, 64)
        assert 0 < len(calls) <= 12
        assert len({id(nu) for nu in calls}) == len(calls)
        rng = np.random.default_rng(7)
        drawn = [x for sp in (draw_space(rng) for _ in range(50))
                 for x in (sp.neg_orlicz, sp.pos_orlicz, sp.neg_scale, sp.neg_sum,
                           sp.pos_scale, sp.pos_sum)]
        assert len({id(x) for x in drawn}) == len(set(drawn))

    # Support 8: each trial's six sides are padded to at most 17 terms.
    @pytest.mark.parametrize("budget,chunks", [(1, 6), (2 * 6 * 17, 3), (harness.CHUNK_TERMS, 1)])
    def test_chunk_budget_does_not_change_reports(self, monkeypatch, budget, chunks):
        whole = run_suite(FAMILIES, 6, 5, 8)
        batches = _batch_sizes(monkeypatch)
        monkeypatch.setattr(harness, "CHUNK_TERMS", budget)
        chunked = run_suite(FAMILIES, 6, 5, 8)
        assert batches == [6 * 6 // chunks] * chunks
        assert list(chunked) == list(whole) == list(FAMILIES)
        for family in FAMILIES:
            assert chunked[family].to_json() == whole[family].to_json()
            assert chunked[family].checks > 0


def suite_oracle(families, trials, seed, support) -> dict:
    """``run_suite`` written out one check at a time: each trial's draw, its
    norms from the serial ``wnf_norm``, its ``verify_*`` checks, each
    absorbed on its own in trial order, with its ratio and its violation
    row written here."""
    out = {family: {"checks": 0, "max_ratio": 0.0, "violations": []} for family in families}
    for t in range(trials):
        sp, f, g = draw_trial(seed, t, support)
        neg, nonneg = one_sided(f, g, sp)
        by_family = {"theorem": theorem(f, g, sp), "one_sided_negative": neg,
                     "one_sided_nonnegative": nonneg,
                     "coefficient_bound": verify_coefficient_bound(f, g)}
        for family in families:
            rep = out[family]
            for lhs, rhs, constant, holds in zip(
                    *(np.atleast_1d(a).tolist() for a in by_family[family])):
                rep["checks"] += 1
                if rhs > 0:
                    rep["max_ratio"] = max(rep["max_ratio"], lhs / rhs)
                if not holds:
                    ratio = lhs / rhs if rhs else 0.0 if lhs == 0 else math.inf
                    rep["violations"].append({
                        "lhs": lhs, "rhs": rhs, "constant": constant, "holds": holds,
                        "ratio": ratio if math.isfinite(ratio) else None,
                        "fingerprint": harness.fingerprint(family, seed, t, support)})
    return out


# Each mutant makes at least the named families fail on most trials.
_SUITE_MUTANTS = {
    "none": ((), {}),
    "algebra_constant": (("theorem",),
                         {(algebra.AlgebraSpace, "algebra_constant"): lambda self: 1e-3}),
    "one_sided_constants": (("one_sided_negative", "one_sided_nonnegative"),
                            {(algebra.AlgebraSpace, "neg_constant"): lambda self: 1e-3,
                             (algebra.AlgebraSpace, "pos_constant"): lambda self: 1e-3}),
    "coeff_slack": (("coefficient_bound",), {(algebra, "COEFF_SLACK"): -0.5}),
}


@pytest.mark.parametrize("mutant", list(_SUITE_MUTANTS))
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_suite_arrays_match_per_witness_oracle(monkeypatch, seed, mutant):
    """The chunked array path of ``run_suite`` gives the per-witness
    oracle's counts, largest ratio and full violation list, in order and
    with fingerprints, over chunks of 7 trials (the last one partial)."""
    failing, patches = _SUITE_MUTANTS[mutant]
    for (owner, name), value in patches.items():
        monkeypatch.setattr(owner, name, value)
    support, trials = 6, 30
    monkeypatch.setattr(harness, "CHUNK_TERMS", 7 * 6 * (2 * support + 1))
    got = run_suite(FAMILIES, trials, seed, support)
    want = suite_oracle(FAMILIES, trials, seed, support)
    for family in FAMILIES:
        rep = got[family]
        assert (rep.checks, rep.max_ratio, rep.violations) == (
            want[family]["checks"], want[family]["max_ratio"], want[family]["violations"])
        assert rep.ok == (family not in failing)


class TestSpikesCatchOneSidedConstants:
    """f = g = a unit spike at -1000 (at +1000): the one-sided product bound
    on that side holds with ratio * C about 7.98 and C = 20, so a constant
    of 1 or of C_scale alone (4) fails it."""

    CASES = [
        ("pow:p=1;pow:p=1;pow:alpha=2;pow:alpha=2;const:1;const:1", -1000, 0, "neg_constant",
         "neg_scale"),
        ("pow:p=1;pow:p=1;const:1;const:1;pow:alpha=2;pow:alpha=2", 1000, 1, "pos_constant",
         "pos_scale"),
    ]

    @staticmethod
    def check(spec, k, side):
        sp = AlgebraSpace.from_spec(spec)
        f = LaurentPolynomial.from_dict({k: 1})
        return one_sided(f, f, sp)[side]

    @pytest.mark.parametrize("spec,k,side,constant,scale", CASES)
    def test_true_constant_holds(self, spec, k, side, constant, scale):
        w = self.check(spec, k, side)
        assert w.holds and w.constant == 20.0
        assert 7.9 < w.lhs / w.rhs * w.constant < 8.1

    @pytest.mark.parametrize("spec,k,side,constant,scale", CASES)
    def test_constant_one_fails(self, monkeypatch, spec, k, side, constant, scale):
        monkeypatch.setattr(AlgebraSpace, constant, lambda self: 1.0)
        assert not self.check(spec, k, side).holds

    @pytest.mark.parametrize("spec,k,side,constant,scale", CASES)
    def test_constant_c_scale_fails(self, monkeypatch, spec, k, side, constant, scale):
        monkeypatch.setattr(AlgebraSpace, constant,
                            lambda self: getattr(self, scale).delta2_constant())
        w = self.check(spec, k, side)
        assert w.constant == 4.0 and not w.holds
