"""The benchmark's checks accept the program's real outputs and reject
planted wrong ones, and its tracer wraps every binding and puts it back.
Run with `python3 -m pytest bench`."""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_checks as checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as workloads  # noqa: E402
from orlicz_wiener.algebra import NormReport  # noqa: E402
from orlicz_wiener.fourier import LaurentPolynomial  # noqa: E402


def perturbed(lp, k, delta):
    """A copy of lp with coefficient k moved by delta."""
    n = max(lp.n_max, abs(k))
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n - lp.n_max: n + lp.n_max + 1] = lp.coeffs
    c[n + k] += delta
    return LaurentPolynomial(c, n)


# ------------------------------------------------------------------- norms

@pytest.fixture(scope="module")
def norm_case():
    """A short symbol over a pow (negative) / expm1 (nonnegative) space."""
    rng = np.random.default_rng(11)
    n = 300
    coeffs = rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)
    desc = workloads.make_space(rng, 3)  # pow / expm1 with table and pow weights
    assert desc["neg_orlicz"][0] == "pow" and desc["pos_orlicz"][0] == "expm1"
    item = workloads.NormItem(LaurentPolynomial(coeffs.copy(), n), coeffs, n,
                              workloads.build_space(desc), desc)
    return item, workloads.NormLong().run(item)


def test_norm_check_accepts_program_output(norm_case):
    item, report = norm_case
    assert workloads.NormLong().check(item, report) == []


@pytest.mark.parametrize("part,factor", [
    ("negative", 1 + 1e-6), ("negative", 1 - 1e-6),
    ("nonnegative", 1 + 1e-6), ("nonnegative", 1 - 1e-6),
    ("negative", 1 + 3e-10),  # pow side: only the closed form sees this
    ("wiener", 1 + 1e-9),
])
def test_norm_check_rejects_scaled_norm(norm_case, part, factor):
    item, report = norm_case
    bad = dataclasses.replace(report, **{part: getattr(report, part) * factor})
    assert workloads.NormLong().check(item, bad)


# ----------------------------------------------------------- factorization

@pytest.fixture(scope="module")
def factor_cases():
    wl = workloads.Factorize()
    items = wl.make(5)
    exp_item = next(i for i in items if i.kind == "exp")
    prod_item = next(i for i in items if i.kind == "product")
    return wl, [(item, wl.run(item)) for item in (exp_item, prod_item)]


def test_factor_check_accepts_program_output(factor_cases):
    wl, cases = factor_cases
    for item, out in cases:
        assert wl.check(item, out) == []


def test_factor_check_rejects_planted_errors(factor_cases):
    wl, cases = factor_cases
    (exp_item, (exp_res, exp_norms)), (prod_item, (res, norms)) = cases
    plants = [
        (prod_item, dataclasses.replace(res, plus=perturbed(res.plus, 3, 1e-8)), norms),
        (prod_item, dataclasses.replace(res, minus=perturbed(res.minus, -2, 1e-8)), norms),
        (prod_item, dataclasses.replace(res, scalar=res.scalar * (1 + 1e-8)), norms),
        (prod_item, dataclasses.replace(res, minus=perturbed(res.minus, 0, 1e-8)), norms),
        (prod_item, dataclasses.replace(res, plus=perturbed(res.plus, -1, 1e-8)), norms),
        (prod_item, res, {**norms, "plus": NormReport(float("nan"), 1.0, 1.0)}),
        (prod_item, res, {**norms, "minus": NormReport(0.0, 0.0, 0.0)}),
        (exp_item, dataclasses.replace(
            exp_res, log_coeffs=perturbed(exp_res.log_coeffs, 2, 1e-8)), exp_norms),
        (exp_item, dataclasses.replace(exp_res, plus=perturbed(exp_res.plus, 5, 1e-8)),
         exp_norms),
    ]
    for item, bad_res, bad_norms in plants:
        assert wl.check(item, (bad_res, bad_norms))


def test_reconstruction_check_alone_sees_a_wrong_factor(factor_cases):
    wl, cases = factor_cases
    item, (res, _) = cases[1]
    assert checks.check_reconstruction(res, item.coeffs, item.band, wl.GRID) == []
    bad = dataclasses.replace(res, plus=perturbed(res.plus, 7, 1e-8))
    assert checks.check_reconstruction(bad, item.coeffs, item.band, wl.GRID)


# ------------------------------------------------------------------ verify

@pytest.fixture(scope="module")
def verify_case():
    wl = workloads.Verify()
    item = wl.make(3)[0]
    rc, text = wl.call(wl.argv(item, 4))
    return rc, json.loads(text)


def test_verify_check_accepts_program_output(verify_case):
    rc, doc = verify_case
    assert checks.check_verify_report(rc, json.dumps(doc), 4) == []


def _planted(doc, family, **changes):
    bad = copy.deepcopy(doc)
    bad[family].update(changes)
    return json.dumps(bad)


def test_verify_check_rejects_planted_errors(verify_case):
    rc, doc = verify_case
    violation = {"lhs": 2.0, "rhs": 1.0, "constant": 5.0, "holds": False, "ratio": 2.0,
                 "fingerprint": "theorem:seed=0:trial=0:support=64"}
    plants = [
        (1, json.dumps(doc)),
        (0, _planted(doc, "theorem", violations=[violation])),
        (0, _planted(doc, "one_sided_negative", ok=False)),
        (0, _planted(doc, "one_sided_nonnegative", checks=3)),
        (0, _planted(doc, "theorem", max_ratio=0.0)),
        (0, _planted(doc, "theorem", max_ratio=1.5)),
        (0, _planted(doc, "coefficient_bound", max_ratio=1.0 + 1e-9)),
        (0, _planted(doc, "weight_shift", ok=False)),
        (0, "not json"),
    ]
    for code, text in plants:
        assert checks.check_verify_report(code, text, 4), text[:80]


# ------------------------------------------------------------------ tracer

def test_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    from orlicz_wiener import algebra, cli, fourier, orlicz

    originals = (orlicz.luxemburg_norm, algebra.luxemburg_norm, cli.wnf_norm,
                 orlicz.OrliczFunction.__call__, fourier.LaurentPolynomial.__mul__)
    monkeypatch.setattr(bench_trace, "TARGETS",
                        bench_trace.TARGETS + (("orlicz", "no_such_function"),))
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert algebra.luxemburg_norm is not originals[1]
        assert cli.wnf_norm is not originals[2]
        assert fourier.LaurentPolynomial.__mul__ is not originals[4]
        f = LaurentPolynomial(np.array([1.0, 2.0, -0.5]), 1)
        cli.wnf_norm(f * f, algebra.AlgebraSpace.from_spec(
            "pow:p=2;expm1;const:1;log;pow:alpha=1;const:2"))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["orlicz.no_such_function"]
    assert (orlicz.luxemburg_norm, algebra.luxemburg_norm, cli.wnf_norm,
            orlicz.OrliczFunction.__call__, fourier.LaurentPolynomial.__mul__) == originals
    assert tracer.count("algebra.wnf_norm")[0] == 1
    assert tracer.count("fourier.LaurentPolynomial.multiply")[0] == 1
    assert tracer.count("orlicz.luxemburg_norm")[0] == 2
    calls, self_s, terms = tracer.count("orlicz.modular")
    assert calls > 2 and self_s > 0 and 2 * calls < terms < 3 * calls  # sides of 2 and 3
    # every modular span's parent is a luxemburg_norm span
    names = list(tracer.names)
    parents = [tracer.span_parent[i] for i in range(len(tracer.span_name))
               if names[tracer.span_name[i]] == "orlicz.modular"]
    assert all(names[tracer.span_name[p]] == "orlicz.luxemburg_norm" for p in parents)
