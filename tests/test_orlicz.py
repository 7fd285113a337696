"""Tests for Orlicz functions, weight sequences, and the Luxemburg norm."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_wiener import orlicz
from orlicz_wiener.errors import DomainError, InvalidWeightError, SpecError
from orlicz_wiener.orlicz import (
    NEGATIVE_SIDE,
    NONNEGATIVE_SIDE,
    OrliczFunction,
    WeightSequence,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    validate_weight,
)


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
            return mpmath.expm1(x) if fn.family == "expm1" else x ** fn.p * mpmath.log1p(x)

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

    def test_index_class_start(self):
        assert WeightSequence("pow", NEGATIVE_SIDE, 1.0).start == 1
        assert WeightSequence("pow", NONNEGATIVE_SIDE, 1.0).start == 0

    def test_index_below_start_rejected(self):
        with pytest.raises(DomainError):
            WeightSequence("pow", NEGATIVE_SIDE, 1.0)(0)

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
        OrliczFunction("powlog", 2.5),
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

    def test_mean_modular_calls_per_solve(self, monkeypatch):
        # Counts every modular value that a solve receives from the batched loop.
        calls = []
        monkeypatch.setattr(orlicz, "_luxemburg_steps",
                            _counting_steps(orlicz._luxemburg_steps, calls))
        rng = np.random.default_rng(31)
        fns = [OrliczFunction("pow", 1.5), OrliczFunction("expm1"),
               OrliczFunction("powlog", 2)]
        weights = [CONST1, WeightSequence("pow", NEGATIVE_SIDE, 1.0),
                   WeightSequence("log", NEGATIVE_SIDE), TABLE_NEG]
        solves = 300
        problems = []
        for i in range(solves):
            m = int(rng.integers(1, 65))
            c = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
            problems.append((c, fns[i % 3], weights[i % 4], weights[(i // 4) % 4]))
        luxemburg_norms(problems)
        assert 1 <= len(calls) / solves <= 12

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
    computed once and padded into one matrix, returns exactly what the
    public modular returns, and both equal the modular written out in one
    expression."""
    rows = []
    for c, fn, phi, w in (case[:4] for case in cases):
        n = np.arange(phi.start, phi.start + len(c))
        scaled, w_n = orlicz._weighted(c, phi, w)
        assert np.array_equal(scaled, np.abs(c) * phi(n)) and np.array_equal(w_n, w(n))
        rows.append((fn, scaled, w_n))
    batch = orlicz._Batch(rows)
    lam = np.array([cases[i][4] for i in batch.order])
    got = batch.modulars(lam)
    for j, i in enumerate(batch.order):
        c, fn, phi, w, scale = cases[i]
        n = np.arange(phi.start, phi.start + len(c))
        expected = float(np.sum(fn(np.abs(c) * phi(n) / scale) * w(n)))
        assert float(got[j]) == modular(c, fn, phi, w, scale) == expected


@st.composite
def _batches(draw):
    """A mixed batch of solves over every Orlicz family and weight family,
    on both index classes, with empty and all-zero sides and repeated
    lengths, and one tolerance for the whole batch."""
    problems = []
    for _ in range(draw(st.integers(1, 12))):
        klass = draw(st.sampled_from([NEGATIVE_SIDE, NONNEGATIVE_SIDE]))
        length = draw(st.sampled_from([0, 1, 2, 3, 7, 8, 9, 16, 40]))
        mags = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1)),
                             min_size=length, max_size=length))
        if mags and draw(st.booleans()):
            mags = [0.0] * length
        scale = 10.0 ** draw(st.floats(-6, 3))
        problems.append((np.array(mags) * scale, draw(_ORLICZ), draw(_weights(klass)),
                         draw(_weights(klass))))
    return problems, draw(st.sampled_from([1e-12, 1e-6, 1e-3]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_batches())
def test_batched_solves_equal_the_serial_solves(batch):
    problems, tol = batch
    assert luxemburg_norms(problems, tol) == [luxemburg_norm(*p, tol) for p in problems]


class TestBatchedEdgeCases:
    TINY = WeightSequence("const", NEGATIVE_SIDE, 1e-300)
    HUGE = WeightSequence("const", NEGATIVE_SIDE, 1e300)
    ORDINARY = (np.array([0.5, -1.0, 0.25j]), OrliczFunction("powlog", 2), CONST1,
                WeightSequence("log", NEGATIVE_SIDE))

    def _same(self, problems):
        got = luxemburg_norms(problems)
        assert got == [luxemburg_norm(*p) for p in problems]
        return got

    def test_underflow_to_zero(self):
        row = (np.array([1e-300]), OrliczFunction("pow", 1), CONST1, self.TINY)
        assert self._same([self.ORDINARY, row, self.ORDINARY])[1] == 0.0

    def test_far_scales(self):
        # The bracket starts at 1 and the norm is 1e300 or 1e-300 for p = 1:
        # about a thousand doublings or halvings away.
        c = np.array([1.0, -0.5j])
        rows = [(c, OrliczFunction("pow", 1), CONST1, w) for w in (self.HUGE, self.TINY)]
        got = self._same(rows + [self.ORDINARY])
        for (_, fn, phi, w), lam in zip(rows, got):
            assert lam == pytest.approx(weighted_lp_norm(c, 1, phi, w), rel=1e-10, abs=0)

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
            luxemburg_norms([self.ORDINARY, row, self.ORDINARY])
        assert str(batched.value) == str(serial.value)

    def test_empty_batch(self):
        assert luxemburg_norms([]) == []
