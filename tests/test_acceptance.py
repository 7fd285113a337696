"""Acceptance suite.

Each test covers one exit criterion at its stated tolerance and prints a
single PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they complete.
"""

import time

import numpy as np
import pytest

from orlicz_wiener.algebra import (
    AlgebraSpace,
    verify_coefficient_bound,
    wnf_norm,
)
from orlicz_wiener.errors import IndexObstructionError
from orlicz_wiener.factorization import factorize, membership
from orlicz_wiener.fourier import LaurentPolynomial, fourier_coefficients
from orlicz_wiener.harness import (
    WEIGHT_EXPONENTS,
    draw_space,
    run_suite,
    run_weight_shift_suite,
)
from orlicz_wiener.orlicz import (
    NEGATIVE_SIDE,
    OrliczFunction,
    WeightSequence,
    luxemburg_norm,
)

from oracles import horbach_norm, random_element, weighted_lp_norm, wiener_norm

SEED = 20260823


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_theorem_suite():
    start = time.monotonic()
    rep = run_suite(("theorem",), 1000, SEED, 64)["theorem"]
    elapsed = time.monotonic() - start
    ok = rep.ok and rep.max_ratio <= 1.0
    report(1, "algebra inequality, 1000 random pairs", ok,
           f"max lhs/rhs ratio {rep.max_ratio:.3e}, {elapsed:.1f}s")
    assert elapsed <= 60


def test_criterion_2_one_sided_suites():
    neg = run_suite(("one_sided_negative",), 1000, SEED + 1, 64)["one_sided_negative"]
    pos = run_suite(("one_sided_nonnegative",), 1000, SEED + 2, 64)["one_sided_nonnegative"]
    ok = neg.ok and pos.ok
    report(2, "one-sided product bounds, 1000 trials per side", ok,
           f"max ratios {neg.max_ratio:.3e} / {pos.max_ratio:.3e}")


def test_criterion_3_coefficient_bound():
    rng = np.random.default_rng(SEED + 3)
    checks = 0
    max_ratio = 0.0
    ok = True
    for _ in range(500):
        f = random_element(int(rng.integers(0, 33)), int(rng.integers(0, 2**31)))
        g = random_element(int(rng.integers(0, 33)), int(rng.integers(0, 2**31)))
        c = verify_coefficient_bound(f, g)
        for w in c.to_json([""] * len(c.lhs)):
            ok = ok and w["holds"]
            max_ratio = max(max_ratio, np.inf if w["ratio"] is None else w["ratio"])
            checks += 1
    # ratio can sit at 1 + O(eps) when the bound is attained exactly
    ok = ok and max_ratio <= 1.0 + 1e-12
    report(3, "coefficient majorant, 500 pairs, every k", ok,
           f"{checks} checks, max ratio {max_ratio:.6f}")


def test_criterion_4_weight_shift_scan():
    reports = run_weight_shift_suite(10_000)
    ok = all(r.ok for r in reports.values())
    report(4, "shifted-index weight bound to k=1e4", ok,
           f"{len(reports)} weight families")


def test_criterion_5_luxemburg_power_oracle():
    rng = np.random.default_rng(SEED + 5)
    exponents = [1.0, 1.5, 2.0, 2.3, 3.0, 4.7]
    scales = [WeightSequence("pow", NEGATIVE_SIDE, a) for a in (0.0, 0.5, 1.0)]
    sums = [WeightSequence("const", NEGATIVE_SIDE, 1.0),
            WeightSequence("log", NEGATIVE_SIDE)]
    worst = 0.0
    for i in range(1000):
        p = exponents[i % len(exponents)]
        phi = scales[i % len(scales)]
        w = sums[i % len(sums)]
        m = int(rng.integers(1, 40))
        c = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
        got = luxemburg_norm(c, OrliczFunction("pow", p), phi, w)
        expected = weighted_lp_norm(c, p, phi, w)
        worst = max(worst, abs(got - expected) / expected)
    ok = worst <= 1e-10
    report(5, "Luxemburg solver vs closed-form weighted l^p", ok,
           f"worst relative error {worst:.2e}")


class TestHorbachNorm:
    def test_single_constant(self):
        f = LaurentPolynomial.from_dict({0: 1})
        assert horbach_norm(f, 2, 3, 1.0, 2.0) == pytest.approx(1.0)

    def test_single_negative_mode(self):
        f = LaurentPolynomial.from_dict({-1: 1})
        assert horbach_norm(f, 2, 1, 1.0, 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("p,r,alpha,beta", [
        (1.0, 2.0, 0.0, 1.0), (2.0, 2.0, 0.5, 0.5), (1.5, 3.0, 2.0, 0.0),
    ])
    def test_matches_luxemburg_route(self, p, r, alpha, beta):
        sp = AlgebraSpace.from_spec(
            f"pow:p={p};pow:p={r};pow:alpha={alpha};const:1;pow:alpha={beta};const:1")
        rng = np.random.default_rng(43)
        for _ in range(20):
            f = random_element(int(rng.integers(0, 12)), int(rng.integers(0, 2**31)))
            rep = wnf_norm(f, sp)
            direct = horbach_norm(f, p, r, alpha, beta)
            assert abs((rep.total - rep.wiener) - direct) <= 1e-10 * (1 + direct)


def test_criterion_6_horbach_identity():
    rng = np.random.default_rng(SEED + 6)
    params = [(1.0, 2.0, 0.0, 1.0), (2.0, 2.0, 0.5, 0.5), (1.5, 3.0, 2.0, 0.0),
              (3.0, 1.0, 1.0, 2.0)]
    worst = 0.0
    for i in range(200):
        p, r, alpha, beta = params[i % len(params)]
        sp = AlgebraSpace.from_spec(
            f"pow:p={p};pow:p={r};pow:alpha={alpha};const:1;"
            f"pow:alpha={beta};const:1")
        f = random_element(int(rng.integers(0, 24)), int(rng.integers(0, 2**31)))
        rep = wnf_norm(f, sp)
        direct = horbach_norm(f, p, r, alpha, beta)
        worst = max(worst, abs((rep.total - rep.wiener) - direct) / (1 + direct))
    ok = worst <= 1e-10
    report(6, "classical special-case norm identity", ok,
           f"worst deviation {worst:.2e}")


def test_criterion_7_factorization():
    sp = AlgebraSpace.from_spec("pow:p=1;pow:p=1;const:1;const:1;const:1;const:1")
    problems = []

    b = LaurentPolynomial.from_dict({0: 2, 1: 1})
    res = factorize(b, 256, 64, 1e-12)
    if not (abs(res.scalar - 2) <= 1e-10 and res.residual <= 1e-12):
        problems.append(f"2+t scalar/residual: {res.scalar}, {res.residual:.2e}")
    coeff_err = max(abs(res.plus.coeff(0) - 1), abs(res.plus.coeff(1) - 0.5),
                    abs(res.minus.coeff(0) - 1),
                    max(abs(res.minus.coeff(-k)) for k in range(1, 33)))
    if coeff_err > 1e-10:
        problems.append(f"2+t coefficient error {coeff_err:.2e}")

    rng = np.random.default_rng(SEED + 7)
    for i in range(100):
        n = int(rng.integers(0, 9))
        q = LaurentPolynomial(
            rng.uniform(-0.3, 0.3, 2 * n + 1) + 1j * rng.uniform(-0.3, 0.3, 2 * n + 1),
            n)
        # wide band so the symbol is exp(q) to below the 1e-10 tolerances
        vals = np.exp(q.evaluate(2 * np.pi * np.arange(2048) / 2048))
        symbol = fourier_coefficients(vals, 320)
        res = factorize(symbol, 2048, 128, 1e-8)
        if res.residual > 1e-8:
            problems.append(f"trial {i}: residual {res.residual:.2e}")
        one_sided = max(
            [abs(res.plus.coeff(-k)) for k in range(1, res.plus.n_max + 1)]
            + [abs(res.minus.coeff(k)) for k in range(1, res.minus.n_max + 1)]
            + [abs(res.minus.coeff(0) - 1)])
        if one_sided > 1e-10:
            problems.append(f"trial {i}: one-sidedness {one_sided:.2e}")
        log_err = max(abs(res.log_coeffs.coeff(k) - q.coeff(k))
                      for k in range(-n, n + 1))
        if log_err > 1e-10:
            problems.append(f"trial {i}: log recovery {log_err:.2e}")
        norms = membership(res, sp)
        if not all(np.isfinite(rep.total) for rep in norms.values()):
            problems.append(f"trial {i}: non-finite membership norm")

    for n in (-3, -2, -1, 1, 2, 3):
        b = LaurentPolynomial.from_dict({n: 2, n + 1: 1})
        try:
            factorize(b)
            problems.append(f"winding {n}: no obstruction raised")
        except IndexObstructionError as exc:
            if exc.kappa != n:
                problems.append(f"winding {n}: reported {exc.kappa}")

    report(7, "factorization pipeline", not problems, "; ".join(problems[:3]))


def test_criterion_8_numerical_hygiene():
    rng = np.random.default_rng(SEED + 8)
    problems = []

    worst_h = 0.0
    for _ in range(1000):
        sp = draw_space(rng)
        f = random_element(int(rng.integers(0, 17)), int(rng.integers(0, 2**31)))
        s = rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        base = wnf_norm(f, sp).total
        scaled = wnf_norm(LaurentPolynomial(f.coeffs * s, f.n_max), sp).total
        if base > 0:
            worst_h = max(worst_h, abs(scaled - abs(s) * base) / (abs(s) * base))
    if worst_h > 1e-9:
        problems.append(f"homogeneity deviation {worst_h:.2e}")

    worst_t = 0.0
    for _ in range(1000):
        sp = draw_space(rng)
        n = int(rng.integers(0, 17))
        f = random_element(n, int(rng.integers(0, 2**31)))
        g = random_element(n, int(rng.integers(0, 2**31)))
        nf = wnf_norm(f, sp).total
        ng = wnf_norm(g, sp).total
        h = LaurentPolynomial(
            np.pad(f.coeffs, n - f.n_max) + np.pad(g.coeffs, n - g.n_max), n)
        nh = wnf_norm(h, sp).total
        if nf + ng > 0:
            worst_t = max(worst_t, (nh - nf - ng) / (nf + ng))
    if worst_t > 1e-9:
        problems.append(f"triangle deviation {worst_t:.2e}")

    for _ in range(1000):
        f = random_element(int(rng.integers(0, 17)), int(rng.integers(0, 2**31)))
        g = random_element(int(rng.integers(0, 17)), int(rng.integers(0, 2**31)))
        lhs = wiener_norm(f.multiply(g))
        rhs = wiener_norm(f) * wiener_norm(g)
        if lhs > rhs * (1 + 1e-12):
            problems.append(f"submultiplicativity: {lhs} > {rhs}")
            break

    report(8, "norm hygiene properties", not problems, "; ".join(problems[:3]))
