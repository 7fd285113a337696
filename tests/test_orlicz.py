"""Tests for Orlicz functions, weight sequences, and the Luxemburg norm."""

import json
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_wiener import harness, orlicz
from orlicz_wiener.errors import DomainError, InvalidWeightError, SpecError
from orlicz_wiener.orlicz import (
    DEFAULT_NORM_TOL,
    NEGATIVE_SIDE,
    NONNEGATIVE_SIDE,
    OrliczFunction,
    WeightSequence,
    luxemburg_brackets,
    luxemburg_norm,
    modular,
    validate_weight,
)


def _norms(problems, tol=DEFAULT_NORM_TOL):
    """The upper end of each problem's bracket: its Luxemburg norm."""
    return [hi for _, hi in luxemburg_brackets(problems, tol)]


def _counting_steps(steps, received):
    """Wrap the solve coroutine so that every modular value sent to it is
    appended to ``received``."""
    def counting(*args):
        solve = steps(*args)
        lam = next(solve)
        try:
            while True:
                m = yield lam
                received.append(m)
                lam = solve.send(m)
        except StopIteration as done:
            return done.value
    return counting


def _counting_solves(steps, solves):
    """Wrap the solve coroutine so that each solve appends to ``solves`` the
    list of the modular values sent to it."""
    def counting(*args):
        received = []
        solves.append(received)
        return (yield from _counting_steps(steps, received)(*args))
    return counting


def weighted_lp_norm(c, p, phi, w):
    """Closed-form oracle for the power family: (sum |c_n|^p phi_n^p w_n)^{1/p}."""
    n = np.arange(phi.start, phi.start + len(c))
    return float(np.sum(np.abs(c) ** p * phi(n) ** p * w(n)) ** (1 / p))


def mp_luxemburg_norm(c, fn, phi, w):
    """50-digit oracle: the root of modular = 1, bracketed by doubling and
    located by mpmath's Ridders solver."""
    with mpmath.workdps(50):
        n = np.arange(phi.start, phi.start + len(c))
        a = [mpmath.mpf(float(x)) * mpmath.mpf(float(y))
             for x, y in zip(np.abs(c), phi(n))]
        ws = [mpmath.mpf(float(y)) for y in w(n)]

        def big_phi(x):
            if fn.family == "expm1":
                return mpmath.expm1(x)
            return x ** fn.p * (mpmath.log1p(x) if fn.family == "powlog" else 1)

        def excess(lam):
            return mpmath.fsum(big_phi(x / lam) * y for x, y in zip(a, ws)) - 1
        hi = max(a)
        while excess(hi) > 0:
            hi *= 2
        lo = hi / 2
        while excess(lo) <= 0:
            lo /= 2
        return float(mpmath.findroot(excess, (lo, hi), solver="ridder", tol=1e-40))


CONST1 = WeightSequence("const", NEGATIVE_SIDE, 1.0)
TABLE_NEG = WeightSequence("table", NEGATIVE_SIDE, table=(0.5, 1.0, 1.0, 3.0),
                           table_delta2=6.0)


def _mixed_problems(seed, solves, scale=1.0):
    """Random problems cycling through the three Orlicz families and four
    weights, 1 to 64 complex coefficients of modulus up to sqrt(2) * scale."""
    rng = np.random.default_rng(seed)
    fns = [OrliczFunction("pow", 1.5), OrliczFunction("expm1"), OrliczFunction("powlog", 2)]
    weights = [CONST1, WeightSequence("pow", NEGATIVE_SIDE, 1.0),
               WeightSequence("log", NEGATIVE_SIDE), TABLE_NEG]
    problems = []
    for i in range(solves):
        m = int(rng.integers(1, 65))
        c = (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) * scale
        problems.append((c, fns[i % 3], weights[i % 4], weights[(i // 4) % 4]))
    return problems


class TestOrliczFunction:
    def test_power_closed_form(self):
        assert OrliczFunction("pow", 2)(3.0) == 9.0

    def test_zero_at_zero(self):
        for fn in (OrliczFunction("pow", 2), OrliczFunction("expm1"),
                   OrliczFunction("powlog", 1.5)):
            assert fn(0.0) == 0.0

    def test_expm1_at_ln2(self):
        assert OrliczFunction("expm1")(np.log(2)) == pytest.approx(1.0, rel=1e-14)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            OrliczFunction("pow", 2)(-1.0)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(SpecError):
            OrliczFunction("pow", 0.5)
        with pytest.raises(SpecError):
            OrliczFunction.from_spec("pow:p=0.5")

    @pytest.mark.parametrize("spec", ["pow:p=2", "expm1", "powlog:p=1.5"])
    def test_spec_round_trip(self, spec):
        assert OrliczFunction.from_spec(spec).spec() == spec

    @pytest.mark.parametrize("spec", [
        "pow:p=inf", "pow:p=nan", "powlog:p=inf", "powlog:p=-inf", "powlog:p=nan",
    ])
    def test_non_finite_spec_rejected(self, spec):
        with pytest.raises(SpecError):
            OrliczFunction.from_spec(spec)

    @pytest.mark.parametrize("fn", [
        OrliczFunction("pow", 1), OrliczFunction("pow", 2.5),
        OrliczFunction("expm1"), OrliczFunction("powlog", 1),
        OrliczFunction("powlog", 3),
    ])
    def test_monotone_convex_and_ratio_monotone(self, fn):
        x = np.linspace(0, 5, 201)
        y = fn(x)
        assert np.all(np.diff(y) >= -1e-12 * np.maximum(y[:-1], 1))
        # midpoint convexity on the uniform grid
        mid = fn((x[:-2] + x[2:]) / 2)
        assert np.all(mid <= (y[:-2] + y[2:]) / 2 + 1e-12 * (1 + y[2:]))
        # x -> fn(x)/x nondecreasing on positive points
        xp = x[1:]
        ratio = fn(xp) / xp
        assert np.all(np.diff(ratio) >= -1e-12 * (1 + ratio[:-1]))


class TestWeightSequence:
    def test_power_validation(self):
        rep = validate_weight(WeightSequence("pow", NEGATIVE_SIDE, 1.0), 100)
        assert rep.ok
        assert rep.empirical_sup <= 2

    def test_const_validation(self):
        rep = validate_weight(WeightSequence("const", NEGATIVE_SIDE, 1.0), 100)
        assert rep.ok
        assert rep.empirical_sup == 1.0
        assert rep.delta2_constant == 1.0

    def test_decreasing_table_fails_monotonicity(self):
        nu = WeightSequence("table", NEGATIVE_SIDE, table=(1.0, 0.5, 0.5),
                            table_delta2=1.0)
        rep = validate_weight(nu, 10)
        assert not rep.nondecreasing
        assert not rep.ok

    def test_delta2_power(self):
        assert WeightSequence("pow", NEGATIVE_SIDE, 0.0).delta2_constant() == 1.0
        assert WeightSequence("pow", NONNEGATIVE_SIDE, 2.0).delta2_constant() == 4.0

    def test_delta2_power_alpha2_scan_oracle(self):
        # sup over n <= 1e6 of ((2n+1)/(n+1))^2 stays below 4 and approaches it
        n = np.arange(1, 10**6, dtype=float)
        ratios = ((2 * n + 1) / (n + 1)) ** 2
        assert np.max(ratios) < 4.0
        assert np.max(ratios) > 4.0 - 1e-5

    def test_delta2_const(self):
        assert WeightSequence("const", NEGATIVE_SIDE, 5.0).delta2_constant() == 1.0

    def test_delta2_log_scan_oracle(self):
        # the short scan behind the constant gives the same double as a
        # scan over 2^20 indices
        nu = WeightSequence("log", NONNEGATIVE_SIDE)
        n = np.arange(1, 1 << 20, dtype=float)
        assert nu.delta2_constant() == float(np.max(np.log(np.e + 2 * n) / np.log(np.e + n)))

    def test_delta2_overflowing_power_refused(self):
        with pytest.raises(DomainError):
            WeightSequence("pow", NEGATIVE_SIDE, 2000.0).delta2_constant()

    def test_table_bad_delta2_raises(self):
        nu = WeightSequence("table", NEGATIVE_SIDE, table=(1.0, 2.0, 8.0, 9.0),
                            table_delta2=1.5)
        with pytest.raises(InvalidWeightError):
            nu.delta2_constant()

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    @pytest.mark.parametrize("values,delta2", [
        ((1.0, 2.0, 4.0, 8.0), 2.0), ((1.0, 2.0, 5.0, 8.0), 2.0), ((1.0, 3.0), 2.0),
        ((2.0, 1.0, 7.0, 7.0, 7.0, 7.0, 20.0), 3.0), ((5.0, 4.0, 3.0), 1.0),
    ])
    def test_table_delta2_matches_a_long_scan(self, klass, values, delta2):
        # a table is constant past its last value, so the short range
        # delta2_constant scans decides as a scan to index 10^4 does
        nu = WeightSequence("table", klass, table=values, table_delta2=delta2)
        long = validate_weight(nu, 10**4)
        if long.doubling:
            assert nu.delta2_constant() == delta2
        else:
            with pytest.raises(InvalidWeightError,
                               match=f"observed ratio {long.empirical_sup}$"):
                nu.delta2_constant()

    def test_table_delta2_overflowing_ratio_refused(self):
        nu = WeightSequence("table", NEGATIVE_SIDE, table=(1e-300, 1e300), table_delta2=2.0)
        with pytest.raises(DomainError, match="overflow"):
            nu.delta2_constant()

    def test_index_class_start(self):
        assert WeightSequence("pow", NEGATIVE_SIDE, 1.0).start == 1
        assert WeightSequence("pow", NONNEGATIVE_SIDE, 1.0).start == 0

    def test_index_below_start_rejected(self):
        with pytest.raises(DomainError):
            WeightSequence("pow", NEGATIVE_SIDE, 1.0)(0)

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    @pytest.mark.parametrize("family, rest", [
        ("pow", (1.5,)), ("log", ()), ("const", (2.0,)), ("table", (0.0, (1.0, 2.0), 2.0)),
    ], ids=["pow", "log", "const", "table"])
    def test_non_finite_index_refused(self, klass, family, rest):
        # Unchecked, a table weight warns of an invalid cast at nan and inf,
        # and pow returns nan.
        nu = WeightSequence(family, klass, *rest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (math.nan, math.inf, -math.inf, [0, math.nan], [nu.start, math.nan],
                      [math.nan, nu.start], np.array([nu.start + 1, math.inf])):
                with pytest.raises(DomainError, match="finite"):
                    nu(n)
            empty = nu(np.array([]))
        assert empty.shape == (0,) and empty.dtype == float

    @pytest.mark.parametrize("spec", ["pow:alpha=1.5", "log", "const:2"])
    def test_spec_round_trip(self, spec):
        assert WeightSequence.from_spec(spec, NEGATIVE_SIDE).spec() == spec

    @pytest.mark.parametrize("spec", [
        "pow:alpha=inf", "pow:alpha=nan", "const:inf", "const:-inf", "const:nan",
    ])
    def test_non_finite_spec_rejected(self, spec):
        with pytest.raises(SpecError):
            WeightSequence.from_spec(spec, NEGATIVE_SIDE)

    @pytest.mark.parametrize("values,delta2", [
        ([1.0, float("nan")], 2.0), ([1.0, float("inf")], 2.0), ([1.0, 2.0], float("inf")),
    ])
    def test_non_finite_table_rejected(self, tmp_path, values, delta2):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"values": values, "delta2": delta2}))
        with pytest.raises(SpecError):
            WeightSequence.from_spec(f"table:{path}", NEGATIVE_SIDE)

    # 1e-320 is subnormal, and 2.225073858507201e-308 is the largest
    # subnormal double, just below 2^-1022.
    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    @pytest.mark.parametrize("value", [1e-320, 2.225073858507201e-308])
    def test_weight_below_the_smallest_normal_double_refused(self, klass, value):
        with pytest.raises(SpecError, match="constant weight requires"):
            WeightSequence("const", klass, value)
        with pytest.raises(InvalidWeightError, match="table weight values"):
            WeightSequence("table", klass, table=(1.0, value), table_delta2=2.0)

    @pytest.mark.parametrize("klass", [NEGATIVE_SIDE, NONNEGATIVE_SIDE])
    def test_smallest_normal_weight_accepted(self, klass):
        # The norm of one unit coefficient in pow:p=1 is its summand weight,
        # so the crossing sits at lam = 2^-1022, where 1/lam is finite.
        tiny = 2.2250738585072014e-308
        assert tiny == np.finfo(float).tiny
        WeightSequence("table", klass, table=(tiny,), table_delta2=1.0)
        got = luxemburg_norm([1.0], OrliczFunction("pow", 1), WeightSequence("const", klass, 1.0),
                             WeightSequence("const", klass, tiny))
        assert abs(got - tiny) <= DEFAULT_NORM_TOL * tiny


class TestModular:
    def test_zero_sequence(self):
        assert modular(np.zeros(3), OrliczFunction("pow", 2), CONST1, CONST1, 1.0) == 0

    def test_single_term(self):
        val = modular(np.array([1.0]), OrliczFunction("pow", 2), CONST1, CONST1, 2.0)
        assert val == pytest.approx(0.25)

    def test_two_terms_with_scale_weight(self):
        phi = WeightSequence("pow", NEGATIVE_SIDE, 1.0)  # phi_n = n + 1
        val = modular(np.array([1.0, 1.0]), OrliczFunction("pow", 1), phi, CONST1, 1.0)
        assert val == pytest.approx(5.0)  # 2 + 3

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            modular(np.array([1.0]), OrliczFunction("pow", 1), CONST1, CONST1, 0.0)

    def test_nan_scale_rejected(self):
        with pytest.raises(DomainError):
            modular(np.array([1.0]), OrliczFunction("pow", 1), CONST1, CONST1, math.nan)

    def test_nan_coefficient_refused(self):
        with pytest.raises(DomainError, match="must be finite"):
            modular(np.array([np.nan]), OrliczFunction("pow", 1), CONST1, CONST1, 1.0)

    def test_infinite_weight_at_a_zero_coefficient_refused(self):
        # (n+1)^2000 is inf from n = 1 on, and inf times a zero coefficient
        # is nan: a clean DomainError, with no warning on the way.
        huge = WeightSequence("pow", NEGATIVE_SIDE, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                modular(np.array([0.0, 1.0]), OrliczFunction("pow", 1), huge, CONST1, 1.0)

    @pytest.mark.parametrize("c, fn, klass, alpha, lam", [
        ([1.0], OrliczFunction("expm1"), NEGATIVE_SIDE, 0.0, 1e-3),  # Phi overflows
        ([0.0, 1.0], OrliczFunction("pow", 1), NONNEGATIVE_SIDE, 2000.0, 1.0),  # phi_1 = inf
        ([np.inf], OrliczFunction("powlog", 2), NEGATIVE_SIDE, 0.0, 1.0),
    ], ids=["overflow", "infinite-weight", "infinite-coefficient"])
    def test_infinite_sum_returned(self, c, fn, klass, alpha, lam):
        phi = WeightSequence("pow", klass, alpha)
        w = WeightSequence("const", klass, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert modular(np.array(c), fn, phi, w, lam) == math.inf

    def test_class_mismatch_rejected(self):
        w_pos = WeightSequence("const", NONNEGATIVE_SIDE, 1.0)
        with pytest.raises(SpecError):
            modular(np.array([1.0]), OrliczFunction("pow", 1), CONST1, w_pos, 1.0)

    def test_nonincreasing_in_scale(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        fn = OrliczFunction("powlog", 2)
        lams = np.linspace(0.2, 5, 30)
        vals = [modular(c, fn, CONST1, CONST1, lam) for lam in lams]
        assert np.all(np.diff(vals) <= 1e-12)


class TestLuxemburgNorm:
    def test_zero(self):
        assert luxemburg_norm(np.zeros(4), OrliczFunction("pow", 2), CONST1, CONST1) == 0

    def test_expm1_single(self):
        val = luxemburg_norm(np.array([1.0]), OrliczFunction("expm1"), CONST1, CONST1)
        assert val == pytest.approx(1 / np.log(2), rel=1e-10)

    @pytest.mark.xfail(strict=True, raises=DomainError, reason="ROADMAP item 11")
    def test_overflowing_weighted_entry_with_a_normal_norm(self):
        """|c_0| phi_0 overflows, while the norm under pow:p=1.5, the closed
        form |c_0| phi_0 w_0^(1/p), is a normal double near 6.37e155: the
        solver must answer it, not refuse it."""
        c, p = 8.208448085350962e285, 1.5
        phi = WeightSequence("const", NONNEGATIVE_SIDE, 1.80869e37)
        w = WeightSequence("const", NONNEGATIVE_SIDE, 8.88913e-252)
        got = luxemburg_norm(np.array([c]), OrliczFunction("pow", p), phi, w)
        with mpmath.workdps(50):
            exact = mpmath.mpf(c) * mpmath.mpf(phi.param) * mpmath.mpf(w.param) ** (1 / mpmath.mpf(p))
            assert abs(got - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.7, 3.0])
    def test_power_family_closed_form(self, p):
        rng = np.random.default_rng(int(p * 100))
        phi = WeightSequence("pow", NEGATIVE_SIDE, 0.5)
        w = WeightSequence("log", NEGATIVE_SIDE)
        for _ in range(50):
            m = rng.integers(1, 20)
            c = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
            got = luxemburg_norm(c, OrliczFunction("pow", p), phi, w)
            assert got == pytest.approx(weighted_lp_norm(c, p, phi, w), rel=1e-10)

    @pytest.mark.parametrize("fn", [
        OrliczFunction("pow", 1.5), OrliczFunction("expm1"),
        OrliczFunction("powlog", 2),
    ])
    def test_homogeneity(self, fn):
        rng = np.random.default_rng(11)
        for _ in range(40):
            c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
            s = rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            lhs = luxemburg_norm(s * c, fn, CONST1, CONST1)
            rhs = abs(s) * luxemburg_norm(c, fn, CONST1, CONST1)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("fn", [
        OrliczFunction("pow", 2), OrliczFunction("expm1"),
        OrliczFunction("powlog", 1),
    ])
    def test_triangle_inequality(self, fn):
        rng = np.random.default_rng(13)
        phi = WeightSequence("pow", NEGATIVE_SIDE, 1.0)
        w = WeightSequence("const", NEGATIVE_SIDE, 1.0)
        for _ in range(40):
            c = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
            d = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
            nc = luxemburg_norm(c, fn, phi, w)
            nd = luxemburg_norm(d, fn, phi, w)
            ncd = luxemburg_norm(c + d, fn, phi, w)
            assert ncd <= nc + nd + 1e-9 * (nc + nd)

    def test_monotonicity(self):
        rng = np.random.default_rng(17)
        fn = OrliczFunction("powlog", 1.5)
        for _ in range(40):
            d = rng.uniform(0, 2, 7)
            c = d * rng.uniform(0, 1, 7)
            nc = luxemburg_norm(c, fn, CONST1, CONST1)
            nd = luxemburg_norm(d, fn, CONST1, CONST1)
            assert nc <= nd * (1 + 1e-9)

    def test_modular_norm_consistency(self):
        rng = np.random.default_rng(19)
        fn = OrliczFunction("expm1")
        tol = 1e-12
        for _ in range(30):
            c = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
            lam = luxemburg_norm(c, fn, CONST1, CONST1, tol)
            assert lam > 0
            assert modular(c, fn, CONST1, CONST1, lam * (1 + 10 * tol)) <= 1
            assert modular(c, fn, CONST1, CONST1, lam * (1 - 10 * tol)) >= 1 - 1e-9

    @pytest.mark.parametrize("fn", [
        OrliczFunction("expm1"), OrliczFunction("powlog", 1),
        OrliczFunction("powlog", 2.5), OrliczFunction("pow", 1.5), OrliczFunction("pow", 2),
    ])
    def test_high_precision_oracle(self, fn):
        rng = np.random.default_rng(29)
        weights = [CONST1, WeightSequence("pow", NEGATIVE_SIDE, 1.5),
                   WeightSequence("log", NEGATIVE_SIDE), TABLE_NEG]
        for i in range(12):
            m = int(rng.integers(1, 30))
            c = (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) * 10.0 ** rng.uniform(-3, 2)
            phi, w = weights[i % 4], weights[(i // 4 + 1) % 4]
            got = luxemburg_norm(c, fn, phi, w)
            assert got == pytest.approx(mp_luxemburg_norm(c, fn, phi, w), rel=1e-10)

    def test_high_precision_oracle_is_the_closed_form_for_pow(self):
        """The 50-digit oracle under x^p is the weighted l^p norm: 1 for
        c = [1] under const:1 weights, and the closed form elsewhere."""
        rng = np.random.default_rng(31)
        for p in (1.5, 2):
            fn = OrliczFunction("pow", p)
            assert mp_luxemburg_norm(np.array([1.0]), fn, CONST1, CONST1) == 1.0
            for phi, w in ((CONST1, TABLE_NEG), (WeightSequence("log", NEGATIVE_SIDE), CONST1)):
                c = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
                assert mp_luxemburg_norm(c, fn, phi, w) == pytest.approx(
                    weighted_lp_norm(c, p, phi, w), rel=1e-13)

    def test_mean_modular_calls_per_solve(self, monkeypatch):
        # Counts every modular value that a solve receives from the batched loop.
        calls = []
        monkeypatch.setattr(orlicz, "_luxemburg_steps",
                            _counting_steps(orlicz._luxemburg_steps, calls))
        solves = 300
        luxemburg_brackets(_mixed_problems(31, solves))
        assert 1 <= len(calls) / solves <= 12

    @pytest.mark.parametrize("scale", [1.0, 1e-310])
    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_solve_stops_at_the_resolution_of_doubles(self, monkeypatch, tol, scale):
        """A tol below the spacing of doubles, and a norm among the
        subnormals, stop within 16 ulps of the upper end in a few steps,
        at the norm of the default tol."""
        problems = _mixed_problems(37, 60, scale)
        want = _norms(problems)
        solves = []
        monkeypatch.setattr(orlicz, "_luxemburg_steps",
                            _counting_solves(orlicz._luxemburg_steps, solves))
        brackets = luxemburg_brackets(problems, tol)
        assert len(solves) == len(problems)
        assert max(map(len, solves)) <= 20
        for (lo, hi), norm in zip(brackets, want):
            assert 0 < hi - lo <= max(tol * hi, 16 * math.ulp(hi))
            assert hi == pytest.approx(norm, rel=1e-12, abs=0)

    @pytest.mark.parametrize("fn", [OrliczFunction("pow", 1.5), OrliczFunction("expm1")])
    def test_bracket_certified_through_public_modular(self, monkeypatch, fn):
        scales = []
        real = orlicz.modular

        def recording(c, orlicz_fn, phi, w, lam):
            scales.append(lam)
            return real(c, orlicz_fn, phi, w, lam)

        monkeypatch.setattr(orlicz, "modular", recording)
        c = np.array([1.0, -2.0j, 0.5])
        tol = 1e-6
        lam = luxemburg_norm(c, fn, WeightSequence("log", NEGATIVE_SIDE), CONST1, tol)
        assert scales[0] == lam
        assert lam * (1 - tol) <= scales[1] < lam
        assert len(scales) == 2

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("w_const", [1e-300, 1e300])
    def test_power_closed_form_far_from_the_first_scale(self, p, w_const):
        # The bracket starts at max |c_n| phi_n = 1, and the norm is of the
        # order of w_const^(1/p): hundreds of halvings or doublings away.
        w = WeightSequence("const", NEGATIVE_SIDE, w_const)
        c = np.array([1.0, -0.5j])
        got = luxemburg_norm(c, OrliczFunction("pow", p), CONST1, w)
        assert got == pytest.approx(weighted_lp_norm(c, p, CONST1, w), rel=1e-10, abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308 + 1e308j])
    def test_non_finite_input_rejected(self, bad):
        c = np.array([1.0, bad, 0.5])
        phi = WeightSequence("pow", NEGATIVE_SIDE, 2.0)
        with pytest.raises(DomainError):
            luxemburg_norm(c, OrliczFunction("expm1"), phi, CONST1)

    @pytest.mark.parametrize("c", [
        *(np.array([np.iinfo(t).min, 5, 0], dtype=t)
          for t in (np.int8, np.int16, np.int32, np.int64)),
        [-(2**63), 5, 0],
    ], ids=["int8", "int16", "int32", "int64", "int-list"])
    def test_integer_coefficients_have_the_bits_of_float64(self, c):
        # np.abs of a signed type's minimum is that minimum (of int8 -128,
        # -128), so the modulus is taken after a cast to float.
        ref = np.array(c, dtype=float)
        phi = WeightSequence("pow", NEGATIVE_SIDE, 1.0)
        for fn in (OrliczFunction("pow", 1), OrliczFunction("powlog", 2),
                   OrliczFunction("expm1")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = (modular(c, fn, phi, CONST1, 1.5), luxemburg_norm(c, fn, phi, CONST1),
                       *_norms([(c, fn, phi, CONST1)]))
            want = (modular(ref, fn, phi, CONST1, 1.5), luxemburg_norm(ref, fn, phi, CONST1),
                    *_norms([(ref, fn, phi, CONST1)]))
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_tol_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            luxemburg_norm(np.array([1.0]), OrliczFunction("pow", 1), CONST1,
                           CONST1, tol=1e-2)


def _weights(klass):
    return st.one_of(
        st.builds(WeightSequence, st.just("pow"), st.just(klass), st.floats(0, 2)),
        st.just(WeightSequence("log", klass)),
        st.builds(WeightSequence, st.just("const"), st.just(klass), st.floats(1e-3, 1e3)),
        st.lists(st.floats(0.1, 10), min_size=1, max_size=8).map(
            lambda t: WeightSequence("table", klass, table=tuple(t), table_delta2=1e3)),
    )


_ORLICZ = st.one_of(
    st.builds(OrliczFunction, st.just("pow"), st.floats(1, 4)),
    st.just(OrliczFunction("expm1")),
    st.builds(OrliczFunction, st.just("powlog"), st.floats(1, 4)),
)


@st.composite
def _solver_cases(draw):
    klass = draw(st.sampled_from([NEGATIVE_SIDE, NONNEGATIVE_SIDE]))
    mags = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1)), min_size=1, max_size=40))
    scale = 10.0 ** draw(st.floats(-6, 3))
    return (np.array(mags) * scale, draw(_ORLICZ), draw(_weights(klass)),
            draw(_weights(klass)), draw(st.sampled_from([1e-12, 1e-6, 1e-3])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_solver_cases())
def test_solver_brackets_the_norm(case):
    """modular <= 1 at the returned scale and > 1 a relative 2 tol below it."""
    c, fn, phi, w, tol = case
    lam = luxemburg_norm(c, fn, phi, w, tol)
    if not np.any(c > 0):
        assert lam == 0
        return
    assert modular(c, fn, phi, w, lam) <= 1
    assert modular(c, fn, phi, w, lam * (1 - 2 * tol)) > 1


@st.composite
def _modular_cases(draw):
    klass = draw(st.sampled_from([NEGATIVE_SIDE, NONNEGATIVE_SIDE]))
    c = draw(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                         allow_infinity=False), min_size=1, max_size=40))
    return (np.array(c), draw(_ORLICZ), draw(_weights(klass)), draw(_weights(klass)),
            10.0 ** draw(st.floats(-3, 3)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(_modular_cases(), min_size=1, max_size=8))
def test_kernel_on_hoisted_parts_is_the_public_modular(cases):
    """The batched modular of each row, with |c_n| phi_n and w_n
    computed once and laid end to end, each row led by one zero, returns
    exactly what the public modular returns, and both equal the modular
    written out in one expression."""
    batch = orlicz._Batch([case[:4] for case in cases])
    lam = np.array([cases[i][4] for i in batch.order])
    got = batch.modulars(lam)
    for j, i in enumerate(batch.order):
        c, fn, phi, w, scale = cases[i]
        n = np.arange(phi.start, phi.start + len(c))
        a = batch.starts[j]
        assert batch.scaled[a] == 0 and batch.w[a] == 0
        assert np.array_equal(batch.scaled[a + 1:a + 1 + len(c)], np.abs(c) * phi(n))
        assert np.array_equal(batch.w[a + 1:a + 1 + len(c)], w(n))
        assert batch.refs[j] == np.max(np.abs(c) * phi(n))
        expected = float(np.sum(fn(np.abs(c) * phi(n) / scale) * w(n)))
        assert float(got[j]) == modular(c, fn, phi, w, scale) == expected
    assert len(batch.scaled) == len(batch.w) == sum(len(c) + 1 for c, *_ in cases)


def test_reduceat_from_a_leading_zero_is_the_row_sum():
    """The flat batched modular relies on this numpy behaviour:
    ``np.add.reduceat`` over zero-led segments gives each row exactly
    ``np.sum`` of the row alone, for every row length in one call."""
    rng = np.random.default_rng(41)
    # 2 * MAX_SUPPORT + 1 is the longest side a trial solves.
    lengths = [*range(1, 301), 4097, 32769, 2 * harness.MAX_SUPPORT + 1]
    rows = [10.0 ** rng.uniform(-5, 5, n) for n in lengths]
    flat = np.concatenate([x for row in rows for x in (np.zeros(1), row)])
    starts = np.cumsum([0] + [n + 1 for n in lengths[:-1]])
    got = np.add.reduceat(flat, starts)
    assert [float(x) for x in got] == [float(np.sum(row)) for row in rows]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_a_slice_of_the_moduli_is_the_moduli_of_its_copy():
    """The one array of moduli per polynomial in ``algebra`` relies on this
    numpy behaviour: ``np.abs`` of a contiguous complex array does not
    depend on an entry's position, so each side of ``np.abs(coeffs)``, the
    reversed negative side included, has the bits of ``np.abs`` of that
    side's contiguous copy, as ``split`` makes it; so does ``np.abs`` into
    a span of a flat array."""
    rng = np.random.default_rng(43)
    for size in [*range(1, 301), 4097, 32769, 2 * harness.MAX_SUPPORT + 1]:
        c = 10.0 ** rng.uniform(-300, 300, size) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))
        mags, n = np.abs(c), size // 2
        assert np.array_equal(_bits(mags[:n][::-1]), _bits(np.abs(c[:n][::-1].copy())))
        assert np.array_equal(_bits(mags[n:]), _bits(np.abs(c[n:].copy())))
        flat = np.zeros(size + 3)
        np.abs(c, out=flat[3:])
        assert np.array_equal(_bits(flat[3:]), _bits(mags))



def test_one_zero_led_array_gives_each_polynomial_its_moduli_and_sum():
    """``algebra.wnf_norm_arrays`` lays every polynomial behind one zero in
    one complex array and relies on these numpy behaviours: over every
    length a trial solves, with each polynomial starting at every offset
    mod 8, ``np.abs`` of the whole array gives each polynomial the bits of
    its own ``np.abs``, and ``np.add.reduceat`` from the zeros gives each
    one ``np.sum`` of its moduli."""
    rng = np.random.default_rng(45)
    lengths = [*range(1, 301), 4097, 32769, 2 * harness.MAX_SUPPORT + 1]
    polys = [10.0 ** rng.uniform(-5, 5, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
             for n in lengths]
    own = [np.abs(c) for c in polys]
    sums = [float(np.sum(m)) for m in own]
    zero = np.zeros(1, dtype=complex)
    for shift in range(8):
        flat = np.concatenate([np.zeros(shift, dtype=complex),
                               *(a for c in polys for a in (zero, c))])
        starts = shift + np.cumsum([0] + [n + 1 for n in lengths[:-1]])
        mags = np.abs(flat)
        for a, m in zip(starts.tolist(), own):
            assert np.array_equal(_bits(mags[a + 1:a + 1 + m.size]), _bits(m)), (shift, m.size)
        assert np.add.reduceat(mags, starts).tolist() == sums, shift

def test_power_into_an_output_array_is_the_power_operator():
    """Phi is written in place with ``np.power(x, p, out=...)``; it has the
    bits of ``x**p``, numpy's square path at p = 2 included, for the
    integer exponents and for non-integer ones in [1.05, 2.95], over
    arguments from 1e-300 to beyond overflow."""
    rng = np.random.default_rng(44)
    x = np.concatenate([10.0 ** rng.uniform(-300, 300, 100_000), rng.uniform(0, 4, 100_000),
                        [0.0, 1.0]])
    with np.errstate(over="ignore", under="ignore"):
        for p in [1.0, 1.5, 2.0, 3.0, *rng.uniform(1.05, 2.95, 16)]:
            want = _bits(x**p)
            buf = np.empty_like(x)
            np.power(x, p, out=buf)
            assert np.array_equal(_bits(buf), want), p
            inplace = x.copy()
            np.power(inplace[1:], p, out=inplace[1:])
            assert np.array_equal(_bits(inplace[1:]), want[1:]), p


@pytest.mark.parametrize("length", [4097, 32769])
def test_a_long_row_has_the_same_bits_alone_and_in_a_mixed_batch(length):
    """A batch of one long row, as a serial solve makes, divides by its
    repeated scale and writes Phi into its span as every batch does: each
    row's modular has the same bits alone as beside short rows of every
    other Orlicz function, and both are the public modular's."""
    rng = np.random.default_rng(length)
    c = rng.uniform(-1, 1, length) + 1j * rng.uniform(-1, 1, length)
    phi, w = WeightSequence("pow", NONNEGATIVE_SIDE, 0.5), WeightSequence("log", NONNEGATIVE_SIDE)
    for fn in _EVERY_FAMILY:
        others = [(rng.uniform(-1, 1, 5), g, CONST1, CONST1) for g in _EVERY_FAMILY if g != fn]
        alone = orlicz._Batch([(c, fn, phi, w)])
        mixed = orlicz._Batch([*others[:3], (c, fn, phi, w), *others[3:]])
        row = mixed.order.index(3)
        for lam in alone.refs[0] * np.array([2.0 ** -3, 1.0, 2.0 ** 5, 2.0 ** 12]):
            scales = np.ones(len(mixed.order))
            scales[row] = lam
            got = float(alone.modulars(np.array([lam]))[0])
            assert float(mixed.modulars(scales)[row]) == got == modular(c, fn, phi, w, lam)


@st.composite
def _batches(draw):
    """A mixed batch of solves over every Orlicz family and weight family,
    on both index classes, with empty and all-zero sides and repeated
    lengths.  Weights come from a small pool per class, so one weight
    serves rows of different lengths and the rows take prefixes of one
    evaluation."""
    pool = {klass: draw(st.lists(_weights(klass), min_size=1, max_size=3))
            for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE)}
    problems = []
    for _ in range(draw(st.integers(1, 12))):
        klass = draw(st.sampled_from([NEGATIVE_SIDE, NONNEGATIVE_SIDE]))
        length = draw(st.sampled_from([0, 1, 2, 3, 7, 8, 9, 16, 40]))
        mags = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1)),
                             min_size=length, max_size=length))
        if mags and draw(st.booleans()):
            mags = [0.0] * length
        scale = 10.0 ** draw(st.floats(-6, 3))
        problems.append((np.array(mags) * scale, draw(_ORLICZ),
                         draw(st.sampled_from(pool[klass])), draw(st.sampled_from(pool[klass]))))
    return problems


@pytest.mark.parametrize("tol", [DEFAULT_NORM_TOL, 1e-6, 1e-14], ids=["default", "1e-6", "1e-14"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_batches())
def test_batched_solves_equal_the_serial_solves(tol, problems):
    assert _norms(problems, tol) == [luxemburg_norm(*p, tol) for p in problems]



def test_batch_order_is_the_stable_sort_by_family_and_exponent():
    """Rows whose Orlicz functions are equal but built apart by two
    ``from_spec`` calls, interleaved in the input, come out in
    ``_Batch.order`` as the stable sort by (family, p), with one span per
    (family, p) that holds exactly its rows; int, bool, complex list and
    empty rows among them keep the bits of their serial solves."""
    rng = np.random.default_rng(47)
    specs = ["pow:p=2", "expm1", "powlog:p=1.5", "pow:p=1.5", "pow:p=2", "powlog:p=1.5",
             "expm1", "pow:p=1.5", "pow:p=1"]
    weights = [CONST1, WeightSequence("pow", NEGATIVE_SIDE, 1.0),
               WeightSequence("log", NEGATIVE_SIDE), TABLE_NEG]
    problems = []
    for i in range(45):
        m = int(rng.integers(1, 20))
        c = [rng.integers(-9, 10, m).tolist(), (rng.uniform(size=m) < 0.5).tolist(),
             (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)).tolist(), [],
             rng.uniform(-1, 1, m)][i % 5]
        problems.append((c, OrliczFunction.from_spec(specs[i % len(specs)]),
                         weights[i % 4], weights[(i // 4) % 4]))

    def key(i):
        return problems[i][1].family, problems[i][1].p

    batch = orlicz._Batch(problems)
    assert batch.order == sorted(range(len(problems)), key=key)
    assert [(fn.family, fn.p) for fn, _, _ in batch.spans] == sorted(set(map(key, batch.order)))
    ends = (batch.starts + batch.sizes).tolist()
    for fn, a, b in batch.spans:
        rows = [j for j, i in enumerate(batch.order) if key(i) == (fn.family, fn.p)]
        assert (a, b) == (batch.starts[rows[0]], ends[rows[-1]])
        assert rows == list(range(rows[0], rows[-1] + 1))
    assert _norms(problems) == [luxemburg_norm(*p) for p in problems]

class TestBatchedEdgeCases:
    TINY = WeightSequence("const", NEGATIVE_SIDE, 1e-300)
    HUGE = WeightSequence("const", NEGATIVE_SIDE, 1e300)
    ORDINARY = (np.array([0.5, -1.0, 0.25j]), OrliczFunction("powlog", 2), CONST1,
                WeightSequence("log", NEGATIVE_SIDE))

    def _same(self, problems):
        got = _norms(problems)
        assert got == [luxemburg_norm(*p) for p in problems]
        return got

    def test_underflow_to_zero(self):
        row = (np.array([1e-300]), OrliczFunction("pow", 1), CONST1, self.TINY)
        assert self._same([self.ORDINARY, row, self.ORDINARY])[1] == 0.0

    @pytest.mark.parametrize("p, w, want", [
        (1, 1.0, 5e-324), (2, 1.0, 5e-324), (1, 0.75, 5e-324), (2, 0.75, 5e-324),
        (1, 0.5, 0.0),
    ])
    def test_norm_of_the_smallest_double(self, p, w, want):
        # The modular m at the scale 5e-324 is w.  Halving rounds that scale
        # to 0; convexity gives a modular >= 2m at half of it, so where
        # m > 1/2 the norm lies in (2.5e-324, 5e-324], and 5e-324 is its
        # nearest double.  For p = 1 the norm is w * 5e-324, and at w = 1/2
        # it is the tie 2.5e-324, which rounds to 0.
        row = (np.array([5e-324]), OrliczFunction("pow", p), CONST1,
               WeightSequence("const", NEGATIVE_SIDE, w))
        assert self._same([self.ORDINARY, row])[1] == want
        assert luxemburg_brackets([row], 1e-6) == [(0.0, want)]

    def test_far_scales(self):
        # The bracket starts at 1 and the norm is 1e300 or 1e-300 for p = 1:
        # about a thousand doublings or halvings away.
        c = np.array([1.0, -0.5j])
        rows = [(c, OrliczFunction("pow", 1), CONST1, w) for w in (self.HUGE, self.TINY)]
        got = self._same(rows + [self.ORDINARY])
        for (_, fn, phi, w), lam in zip(rows, got):
            assert lam == pytest.approx(weighted_lp_norm(c, 1, phi, w), rel=1e-10, abs=0)

    def test_upper_end_overflowing_over_the_reference(self):
        # The largest weighted entry is 1e-300 and the norm near 1.7e8, so
        # hi / ref overflows: both ends stay finite, the modular crosses 1
        # between them, and the 50-digit norm, 1e-300 / log1p(1 / 1.7e308),
        # lies in the bracket once rounded to a double (it rounds to lo
        # itself, where the modular in doubles rounds to just above 1).
        row = (np.array([1e-300]), OrliczFunction("expm1"), CONST1,
               WeightSequence("const", NEGATIVE_SIDE, 1.7e308))
        (lo, hi), = luxemburg_brackets([row])
        assert math.isfinite(lo) and 0 < lo < hi and hi - lo <= DEFAULT_NORM_TOL * hi
        assert modular(*row, lo) > 1 >= modular(*row, hi)
        assert lo <= mp_luxemburg_norm(*row) <= hi

    def test_modular_overflows_to_inf(self, monkeypatch):
        received = []
        monkeypatch.setattr(orlicz, "_luxemburg_steps",
                            _counting_steps(orlicz._luxemburg_steps, received))
        row = (np.array([1.0]), OrliczFunction("expm1"), CONST1, self.TINY)
        assert self._same([row, self.ORDINARY])[0] > 0
        assert math.inf in received

    def test_unbracketable_row_raises_as_the_serial_solve(self):
        row = (np.array([1e300]), OrliczFunction("pow", 1), CONST1, self.HUGE)
        with pytest.raises(DomainError) as serial:
            luxemburg_norm(*row)
        with pytest.raises(DomainError) as batched:
            luxemburg_brackets([self.ORDINARY, row, self.ORDINARY])
        assert str(batched.value) == str(serial.value)

    def test_empty_batch(self):
        assert luxemburg_brackets([]) == []

    def test_infinite_weight_at_a_zero_coefficient_is_refused(self):
        # (n+1)^2000 is inf from n = 1 on, and inf times a zero coefficient
        # is nan: a clean DomainError, with no warning on the way.
        huge = WeightSequence("pow", NONNEGATIVE_SIDE, 2000)
        const1 = WeightSequence("const", NONNEGATIVE_SIDE, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                luxemburg_norm(np.array([1.0, 0, 0, 1]), OrliczFunction("pow", 1), huge, const1)

    def test_each_distinct_weight_evaluated_once(self, monkeypatch):
        # Weights are told apart by identity: rows that share a weight object
        # share one evaluation, and an equal weight built apart is evaluated
        # on its own.
        calls = []
        real = WeightSequence.__call__

        def counting(nu, n):
            calls.append(nu)
            return real(nu, n)

        monkeypatch.setattr(WeightSequence, "__call__", counting)
        rng = np.random.default_rng(37)
        shared = {klass: [WeightSequence("pow", klass, float(a)) for a in range(4)]
                  for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE)}
        problems = []
        for i in range(60):
            klass = (NEGATIVE_SIDE, NONNEGATIVE_SIDE)[i // 4 % 2]
            c = rng.uniform(-1, 1, int(rng.integers(1, 30))) + 0j
            problems.append((c, OrliczFunction("pow", 1 + i % 3),
                             shared[klass][i % 4], WeightSequence("log", klass)))
        luxemburg_brackets(problems)
        objects = {id(nu) for _, _, phi, w in problems for nu in (phi, w)}
        assert len(objects) == 8 + 60
        assert sorted(map(id, calls)) == sorted(objects)

    def test_weight_overflowing_only_past_a_short_row(self):
        # (n + 1)^500 is finite up to n = 3 and overflows from n = 4 on.
        phi = WeightSequence("pow", NEGATIVE_SIDE, 500.0)
        short = (np.array([1.0, 0.5j, -0.25]), OrliczFunction("pow", 2), phi, CONST1)
        long = (np.ones(8), OrliczFunction("pow", 2), phi, CONST1)
        with pytest.raises(DomainError) as serial:
            luxemburg_norm(*long)
        with pytest.raises(DomainError) as batched:
            luxemburg_brackets([short, long])
        assert str(batched.value) == str(serial.value)
        assert _norms([short]) == [luxemburg_norm(*short)]
        assert luxemburg_norm(*short) > 0


def _two_loop_bracket(ref: float, *_):
    """The bracketing of a Luxemburg solve as two mirrored linear loops, in
    the protocol of ``orlicz._bracket``: from ref it halves while the
    modular is <= 1 or doubles while it is > 1, and returns the bracket
    (lo, m_lo, hi, m_hi).  When the scale reaches 0 from hi, it returns
    (0.0, inf, hi, m_hi).  It takes the family's growth bounds and ignores
    them."""
    m = yield ref
    if m <= 1:
        hi, m_hi = ref, m
        while True:
            lo = hi / 2
            if lo == 0:
                return 0.0, math.inf, hi, m_hi
            m_lo = yield lo
            if m_lo > 1:
                return lo, m_lo, hi, m_hi
            hi, m_hi = lo, m_lo
    lo, m_lo = ref, m
    while True:
        hi = lo * 2
        if hi == math.inf:
            raise DomainError("failed to bracket the Luxemburg norm")
        m_hi = yield hi
        if m_hi <= 1:
            return lo, m_lo, hi, m_hi
        lo, m_lo = hi, m_hi


def _linear(run):
    """run() with the solver's bracketing replaced by the linear reference,
    so that a solve narrows the bracket of the halve-or-double scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orlicz, "_bracket", _two_loop_bracket)
        return run()


def _run_solve(solve, modular_at):
    """Send a solve coroutine modular_at(lam) for each lam it yields: the
    scales in order, and what it returns or the message it raises."""
    lams = [next(solve)]
    try:
        while True:
            lams.append(solve.send(modular_at(lams[-1])))
    except StopIteration as done:
        return lams, done.value
    except DomainError as exc:
        return lams, str(exc)


class TestOneBracketingLoop:
    """``_bracket`` probes the family's window or bisects over the
    convexity bound, yet finds the bracket of the linear two-loop
    reference, bit for bit, with the modular at each end, so regula falsi
    narrows it through the same iterates.  Each case goes through the
    public modular of pow:p=1 with constant weights, so the modular at lam
    is sum |c| * w / lam and the bracketing starts at max |c|."""

    FN = OrliczFunction("pow", 1)
    TINY, HUGE = TestBatchedEdgeCases.TINY, TestBatchedEdgeCases.HUGE

    def _both(self, c, w):
        """(reference, bisecting) pairs of the bracketing alone and of the
        whole solve, each as the scales yielded and the outcome."""
        ref = float(np.max(np.abs(c)))
        at = lambda lam: modular(c, self.FN, CONST1, w, lam)
        growth = self.FN._growth
        solve = lambda: _run_solve(orlicz._luxemburg_steps(ref, 1e-12, growth), at)
        return ((_run_solve(_two_loop_bracket(ref), at),
                 _run_solve(orlicz._bracket(ref, growth), at)),
                (_linear(solve), solve()))

    @pytest.mark.parametrize("c, w, least", [
        (np.array([1.0, -0.5j]), TINY, 990),  # about a thousand halvings
        (np.array([1.0, -0.5j]), HUGE, 990),  # about a thousand doublings
        (np.array([1.0]), WeightSequence("const", NEGATIVE_SIDE, 0.1), 5),
        (np.array([0.5, 2.0]), CONST1, 2),
        # the modular is exactly 1 at 0.25, and at 4: that end stays the
        # upper end
        (np.array([1.0]), WeightSequence("const", NEGATIVE_SIDE, 0.25), 4),
        (np.array([1.0]), WeightSequence("const", NEGATIVE_SIDE, 4.0), 3),
    ])
    def test_same_scales_and_an_ordered_bracket(self, c, w, least):
        ((want_probes, ends), (probes, got_ends)), ((want, want_out), (got, out)) = self._both(c, w)
        assert len(want_probes) >= least
        assert got_ends == ends
        lo, _, hi, _ = ends
        # the same narrowing iterates after either bracketing, and the same
        # final bracket, ordered inside the first
        assert got[len(probes):] == want[len(want_probes):]
        assert len(got) > len(probes)
        assert out == want_out
        got_lo, got_hi = out
        assert lo <= got_lo < got_hi <= hi
        assert modular(c, self.FN, CONST1, w, got_hi) <= 1 < modular(c, self.FN, CONST1, w, got_lo)
        # far stays among the normal doubles here.  Doubling, the window of
        # pow:p=1 is the one index ceil(log2 m0): its end and the index
        # before it after the one at ref.  Halving, bisection needs at most
        # ceil(log2 far) + 1 probes after the one at ref.
        ref, m0 = probes[0], modular(c, self.FN, CONST1, w, probes[0])
        sign, far = ((1, math.ceil(math.log2(m0))) if m0 > 1
                     else (-1, math.floor(-math.log2(m0)) + 1))
        assert sys.float_info.min <= math.ldexp(ref, sign * far) < math.inf
        assert len(probes) <= (3 if sign > 0 else math.ceil(math.log2(far)) + 2)

    def test_zero_exit(self):
        # the modular stays <= 1 from 1e-300 down to the smallest double,
        # 78 halvings on: norm 0.  The convexity bound lies far below the
        # normal doubles, so the bisecting solve probes the smallest normal
        # scale ref * 2^k, then halves on over the reference's own scales.
        ((want_probes, ends), (probes, got_ends)), ((want, outcome), (got, result)) = \
            self._both(np.array([1e-300]), self.TINY)
        assert len(want) > 70
        # both end at the bottom of the doubles, with a modular <= 1/2 there
        assert got_ends == ends and ends[:3] == (0.0, math.inf, 5e-324) and ends[3] <= 0.5
        assert outcome == result == (0.0, 0.0)
        assert len(got) < len(want) and got[1:] == want[len(want) - len(got) + 1:]
        assert probes == got and want_probes == want

    def test_crossing_below_the_normal_range(self):
        # the modular crosses 1 near 1e-310, among the subnormal doubles:
        # the bisecting solve finds the reference bracket there by halving
        # on from the smallest normal scale it may probe
        c, w = np.array([1e-300]), WeightSequence("const", NEGATIVE_SIDE, 1e-10)
        ((want_probes, ends), (probes, got_ends)), ((want, want_out), (got, out)) = self._both(c, w)
        assert got_ends == ends and 0 < ends[0] < sys.float_info.min
        assert len(probes) < len(want_probes)
        assert probes[1:] == want_probes[len(want_probes) - len(probes) + 1:]
        assert got[len(probes):] == want[len(want_probes):] and out == want_out

    def test_inf_refusal(self):
        # the modular stays > 1 up to the largest double: no bracket.  The
        # bisecting solve probes the largest finite scale ref * 2^k once.
        ((want_probes, _), (probes, _)), ((want, outcome), (got, result)) = \
            self._both(np.array([1e300]), self.HUGE)
        assert len(want) > 10
        assert outcome == result == "failed to bracket the Luxemburg norm"
        assert got == probes == [want[0], want[-1]] and want_probes == want


@st.composite
def _far_batches(draw):
    """Solves of each Orlicz family with coefficients at magnitudes from
    1e-200 to 1e200, and summand weights from the builtin families or a
    constant as far apart, so that the crossing can lie more than a
    thousand halvings or doublings from the first scale, or beyond the
    doubles."""
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        klass = draw(st.sampled_from([NEGATIVE_SIDE, NONNEGATIVE_SIDE]))
        mags = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1)), min_size=1, max_size=12))
        w = draw(st.one_of(_weights(klass), st.builds(
            lambda e: WeightSequence("const", klass, 10.0 ** e), st.floats(-200, 200))))
        problems.append((np.array(mags) * 10.0 ** draw(st.floats(-200, 200)),
                         draw(_ORLICZ), draw(_weights(klass)), w))
    return problems, draw(st.sampled_from([1e-12, 1e-6, 1e-3]))


def _bracket_bits(problems, tol):
    """Each end of each final bracket as its hex string, or the refusal."""
    try:
        return [(lo.hex(), hi.hex()) for lo, hi in luxemburg_brackets(problems, tol)]
    except DomainError as exc:
        return str(exc)


# Growth bounds that are wrong in either direction: a window too near, too
# far, or upside down.
_WRONG_GROWTH = [
    lambda q, low, high: (4 * q, low, high),
    lambda q, low, high: (q / 4, low, high),
    lambda q, low, high: (q, high, low),
]


def _wrong(run, perturb):
    """run() with every solve's growth bounds passed through perturb."""
    real = orlicz._bracket
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orlicz, "_bracket", lambda ref, growth: real(ref, perturb(*growth)))
        return run()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_far_batches())
def test_brackets_equal_the_linear_reference(case):
    """Probing the family's window or bisecting over the convexity bound
    changes the probes, never the bits: every solve's final bracket is the
    one the halve-or-double scan gives, alone and in one batch, and stays
    so when the growth bounds are wrong."""
    problems, tol = case
    for batch in [problems, *([p] for p in problems)]:
        assert _bracket_bits(batch, tol) == _linear(lambda: _bracket_bits(batch, tol))
    want = _linear(lambda: _bracket_bits(problems, tol))
    for perturb in _WRONG_GROWTH:
        assert _wrong(lambda: _bracket_bits(problems, tol), perturb) == want


def test_brackets_equal_the_linear_reference_at_the_ends_of_the_doubles():
    """The same at the ends of the range, where the window and the bisection
    are cut to the normal doubles: subnormal and near-overflow
    coefficients, with the smallest and the largest constant weights.  At
    5e-324, the smallest double, the other two entries round to 0, and
    halving from a modular in (1/2, 1] ends with the bracket (0, 5e-324).
    No end is nan, which equal hex strings would let through."""
    problems = [(np.array([c, c / 3, -c / 7j]), fn, CONST1, WeightSequence("const", NEGATIVE_SIDE, w))
                for c in (5e-324, 1e-320, 1e-310, sys.float_info.min, 1.0, sys.float_info.max)
                for w in (sys.float_info.min, 1.0, sys.float_info.max)
                for fn in (OrliczFunction("pow", 2.5), OrliczFunction("expm1"),
                           OrliczFunction("powlog", 1.05))]
    for p in problems:
        want = _linear(lambda: _bracket_bits([p], 1e-12))
        assert not any(end == "nan" for ends in want if isinstance(ends, tuple) for end in ends)
        assert _bracket_bits([p], 1e-12) == want
        for perturb in _WRONG_GROWTH:
            assert _wrong(lambda: _bracket_bits([p], 1e-12), perturb) == want


_EVERY_FAMILY = [OrliczFunction(family, p) for family in ("pow", "powlog")
                 for p in (1, 1.05, 2, 2.95, 7)] + [OrliczFunction("expm1")]


@pytest.mark.parametrize("fn", _EVERY_FAMILY, ids=OrliczFunction.spec)
def test_growth_bounds_hold_against_a_50_digit_oracle(fn):
    """L (y/x)^q <= Phi(y)/Phi(x) <= U (y/x)^q for 0 < y <= x <= 1, with
    Phi written out in mpmath at 50 digits, on a grid that holds y = x,
    x = 1 and y = 1e-300, where the bounds of ``powlog`` and ``expm1``
    are approached.  The bounds hold for the exponent q of the family's
    definition, and the solver's q is the double nearest it; the slack of
    1e-40 covers mpmath's own rounding."""
    q, low, high = fn._growth
    grid = [1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0]
    with mpmath.workdps(50):
        def big_phi(x):
            if fn.family == "expm1":
                return mpmath.expm1(x)
            return x ** fn.p * (mpmath.log1p(x) if fn.family == "powlog" else 1)

        exact_q = {"pow": mpmath.mpf(fn.p), "powlog": mpmath.mpf(fn.p) + 1, "expm1": 1}[fn.family]
        assert q == float(exact_q)
        slack = mpmath.mpf("1e-40")
        for x in map(mpmath.mpf, grid):
            for y in (mpmath.mpf(y) for y in grid if y <= x):
                bound = (y / x) ** exact_q
                ratio = big_phi(y) / big_phi(x)
                assert low * bound * (1 - slack) <= ratio <= high * bound * (1 + slack)


@pytest.mark.parametrize("fn", _EVERY_FAMILY, ids=OrliczFunction.spec)
def test_a_doubling_bracket_takes_at_most_four_modulars(fn):
    """Where the modular m0 at ref exceeds 1, the family's window holds the
    crossing within two indices, so ``_bracket`` evaluates the modular at
    most 4 times, the one at ref included, wherever the window lies among
    the normal doubles; bisecting over the convexity bound alone would take
    2 + ceil(log2(log2 m0)) or so."""
    cases = 0
    for ref in (2.0 ** -1000, 1e-150, 1.0, 1e150):
        c = ref * np.array([1.0, -0.5j, 0.25, 0.125j])
        at_ref = modular(c, fn, CONST1, CONST1, ref)
        for e in range(0, 301, 5):
            w = WeightSequence("const", NEGATIVE_SIDE, 10.0 ** e * 1.1)
            m0 = at_ref * w.param
            if not 1 < m0 or math.frexp(ref)[1] + math.ceil(math.log2(m0)) >= 1024:
                continue
            at = lambda lam: modular(c, fn, CONST1, w, lam)
            probes, ends = _run_solve(orlicz._bracket(ref, fn._growth), at)
            assert len(probes) <= 4, (ref, e, probes)
            lo, m_lo, hi, m_hi = ends
            assert hi == 2 * lo and m_hi <= 1 < m_lo
            cases += 1
    assert cases > 100


@pytest.mark.parametrize("fn", _EVERY_FAMILY, ids=OrliczFunction.spec)
def test_the_window_never_lies_beyond_the_convexity_bound(fn):
    """When the modular m > 1 at ref doubles, ``_bracket`` takes its bound
    from the family's window alone: its first probe ref * 2^far, with far
    the window's top ceil((log2 m + log2 U)/q), never lies beyond the
    convexity bound e - (frac == 0.5) from frexp(m) = (frac, e), the
    ceil(log2 m) doublings within which the modular is <= 1.  Checked at
    m = 2^k and 2^k +- 1 ulp, just above 1, and log-uniformly up to the
    largest double; ref = 2^-1000 keeps the cut to the normal doubles
    out of the way."""
    ref = 2.0 ** -1000
    ms = [math.nextafter(1.0, 2.0), 1 + 2 ** -30, 1.5, 1e300, sys.float_info.max]
    for k in range(1, 1024):
        top = 2.0 ** k
        ms += [top, math.nextafter(top, 0.0), math.nextafter(top, math.inf)]
    ms += list(10.0 ** np.random.default_rng(3).uniform(0, 308, 2000))
    for m in ms:
        solve = orlicz._bracket(ref, fn._growth)
        assert next(solve) == ref
        far = math.frexp(solve.send(m))[1] - math.frexp(ref)[1]
        solve.close()
        frac, e = math.frexp(m)
        assert 1 <= far <= e - (frac == 0.5), m


@pytest.mark.parametrize("fn", _EVERY_FAMILY, ids=OrliczFunction.spec)
def test_phi_in_place_has_the_bits_of_the_expression(fn):
    """``_at`` writes Phi over its arguments, at any offset, with a scratch
    array as the batched pass gives it, and has the bits of Phi written
    out as one expression."""
    rng = np.random.default_rng(45)
    x = np.concatenate([10.0 ** rng.uniform(-300, 3, 20_000), rng.uniform(0, 2, 20_000)])
    with np.errstate(over="ignore"):
        if fn.family == "pow":
            want = x**fn.p
        elif fn.family == "expm1":
            want = np.expm1(x)
        else:
            want = x**fn.p * np.log1p(x)
        for offset in range(4):
            flat = np.concatenate([np.zeros(offset), x])
            span = flat[offset:]
            fn._at(span, span, np.empty(x.size + 1))
            assert np.array_equal(_bits(span), _bits(want))
        assert np.array_equal(_bits(fn._at(x, None)), _bits(want))


@pytest.mark.parametrize("fn", _EVERY_FAMILY, ids=OrliczFunction.spec)
def test_integer_and_list_coefficients_have_the_bits_of_floats(fn):
    """``modular`` and ``luxemburg_norm`` take integer arrays and Python
    lists, real or complex, with the bits of the equal float or complex
    array."""
    phi = WeightSequence("log", NONNEGATIVE_SIDE)
    for w in (WeightSequence("const", NONNEGATIVE_SIDE, 1.0),
              WeightSequence("pow", NONNEGATIVE_SIDE, 0.5)):
        for c, same in [(np.array([3, -4]), np.array([3.0, -4.0])),
                        (np.array([0, 7, -1, 12, 0]), np.array([0.0, 7, -1, 12, 0])),
                        ([3, -4, 0, 5], np.array([3.0, -4.0, 0.0, 5.0])),
                        ([3, -4j, 1 + 2j], np.array([3, -4j, 1 + 2j]))]:
            for lam in (0.5, 2.0, 37.0):
                assert modular(c, fn, phi, w, lam) == modular(same, fn, phi, w, lam)
            assert luxemburg_norm(c, fn, phi, w) == luxemburg_norm(same, fn, phi, w)
            assert _norms([(c, fn, phi, w)]) == [luxemburg_norm(same, fn, phi, w)]
    if fn == OrliczFunction("pow", 2):
        one = WeightSequence("const", NONNEGATIVE_SIDE, 1.0)
        assert modular(np.array([3, -4]), fn, phi, one, 2.0) == 9.148625039612842
