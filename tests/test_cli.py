"""CLI contract tests: exit codes, determinism, serialization."""

import cmath
import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_wiener import cli, orlicz
from orlicz_wiener.algebra import AlgebraSpace, Checks
from orlicz_wiener.cli import main
from orlicz_wiener.fourier import MAX_DEGREE, LaurentPolynomial
from orlicz_wiener.errors import DomainError, SpecError
from orlicz_wiener.harness import FAMILIES, MAX_SUPPORT

from oracles import single_entry_norm

F0 = json.dumps({"coeffs": [{"k": 0, "re": 1.0, "im": 0.0}]})
TWO_PLUS_T = json.dumps({"coeffs": [{"k": 0, "re": 2.0, "im": 0.0},
                                    {"k": 1, "re": 1.0, "im": 0.0}]})
# 1 + c/t with c = 0.999999999 e^{3.85i}: its argument is under-resolved
# even at the largest grid
NEAR_ZERO_AT_LARGEST_GRID = json.dumps(
    {"coeffs": [{"k": 0, "re": 1.0, "im": 0.0},
                {"k": -1, "re": -0.7593990583781088, "im": -0.6506251364145422}]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNorm:
    def test_default_space_constant(self, capsys):
        code, out, _ = run(capsys, "--cmd", "norm", "--input", F0)
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == pytest.approx(2.0, rel=1e-10)

    def test_empty_coefficients(self, capsys):
        code, out, _ = run(capsys, "--cmd", "norm", "--input",
                           json.dumps({"coeffs": []}))
        assert code == 0
        assert json.loads(out)["total"] == 0

    def test_malformed_orlicz_spec(self, capsys):
        code, _, err = run(capsys, "--cmd", "norm", "--input", F0,
                           "--space", "pow:p=0.5;pow:p=1;const:1;const:1;const:1;const:1")
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "--cmd", "norm", "--input", "{not json")
        assert code == 2

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "--cmd", "norm")
        assert code == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(F0)
        code, out, _ = run(capsys, "--cmd", "norm", "--input", str(path))
        assert code == 0
        assert json.loads(out)["wiener"] == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "--cmd", "norm", "--input", F0,
                           "--format", "csv")
        assert code == 0
        header, values = out.strip().split("\n")
        assert "total" in header.split(",")

    def test_tol_below_the_resolution_of_doubles(self, capsys):
        """A --tol under the spacing of doubles stops at their resolution,
        at the norm of the default tol."""
        f = json.dumps({"coeffs": [{"k": k, "re": 1 / (k * k + 1), "im": 0.3 * k}
                                   for k in range(-5, 6)]})
        norms = []
        for tol in ((), ("--tol", "1e-16")):
            code, out, _ = run(capsys, "--cmd", "norm", "--input", f, *tol)
            assert code == 0
            norms.append(json.loads(out))
        default, fine = norms
        for key in ("negative", "nonnegative", "total"):
            assert fine[key] == pytest.approx(default[key], rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", ["1", "2"])
    def test_norm_of_the_smallest_double(self, capsys, p):
        """A coefficient of 5e-324 on each side: the modular at that scale
        is 1, so each one-sided norm is 5e-324, the smallest double, not
        0.  A coefficient of 1e-300 under a summand weight of 1e-300 has a
        norm of 1e-300 * 1e-300^(1/p), below the smallest double: it
        rounds to 0.0, with no refusal."""
        f = json.dumps({"coeffs": [{"k": 0, "re": 5e-324, "im": 0},
                                   {"k": -1, "re": 5e-324, "im": 0}]})
        space = f"pow:p={p};pow:p={p};const:1;const:1;const:1;const:1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--cmd", "norm", "--input", f, "--space", space)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["negative"] == doc["nonnegative"] == 5e-324
        assert doc["total"] == 2e-323
        below = json.dumps({"coeffs": [{"k": 0, "re": 1e-300, "im": 0}]})
        space = f"pow:p={p};pow:p={p};const:1;const:1;const:1;const:1e-300"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--cmd", "norm", "--input", below, "--space", space)
        assert (code, err) == (0, "")
        assert '"nonnegative": 0.0' in out

    def test_upper_end_overflowing_over_the_largest_entry(self, capsys):
        """A largest weighted entry of 1e-300 and a norm near 1.7e8
        (1e-300 / log1p(1 / 1.7e308)): the bracket's upper end over that
        entry overflows, and the solve still ends with a finite norm."""
        f = json.dumps({"coeffs": [{"k": 0, "re": 1e-300, "im": 0}]})
        space = "expm1;expm1;const:1;const:1;const:1;const:1.7e308"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--cmd", "norm", "--input", f, "--space", space)
        assert (code, err) == (0, "")
        assert json.loads(out)["nonnegative"] == pytest.approx(1.7e8, rel=1e-12)

    @pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 11")
    def test_subnormal_weighted_entry_with_a_normal_norm(self, capsys):
        """|c_0| phi_0 = 1.2345678901234567e-300 * 1e-20 is subnormal, with
        about 4 significant digits, while the norm under pow:p=1, the closed
        form |c_0| phi_0 w_0, is a normal double near 1.2345678901234568e-20:
        the answer must hold its 12 digits."""
        c = 1.2345678901234567e-300
        f = json.dumps({"coeffs": [{"k": 0, "re": c, "im": 0}]})
        space = "pow:p=1;pow:p=1;const:1;const:1;const:1e-20;const:1e300"
        code, out, err = run(capsys, "--cmd", "norm", "--input", f, "--space", space)
        assert (code, err) == (0, "")
        got = json.loads(out)["nonnegative"]
        exact = single_entry_norm(c, 1e-20, 1e300, 1)
        assert abs(got - exact) <= 1e-12 * exact


_NORM_KEYS = ["wiener", "negative", "nonnegative", "total"]
_SHIFT_WEIGHTS = [f"{klass}:{spec}" for klass in ("W-", "W+")
                  for spec in ("pow:alpha=0", "pow:alpha=0.5", "pow:alpha=1", "pow:alpha=2",
                               "log", "const:1")]


@pytest.mark.parametrize("argv,keys", [
    (("--cmd", "norm", "--input", TWO_PLUS_T), _NORM_KEYS),
    (("--cmd", "weights"),
     [f"{side}.{key}" for side in ("negative_scale", "negative_sum",
                                   "nonnegative_scale", "nonnegative_sum")
      for key in ("ok", "positive", "nondecreasing", "doubling", "empirical_sup",
                  "delta2_constant", "n_max")]),
    (("--cmd", "verify", "--trials", "2", "--support", "2"),
     [f"{family}.{key}" for family in ("theorem", "one_sided_negative",
                                       "one_sided_nonnegative", "coefficient_bound")
      for key in ("family", "trials", "checks", "ok", "max_ratio", "violations")]
     + ["weight_shift.ok"]
     + [f"weight_shift.families.{name}.{key}" for name in _SHIFT_WEIGHTS
        for key in ("ok", "k_max", "max_ratio", "violations")]),
    (("--cmd", "factorize", "--input", TWO_PLUS_T, "--trunc", "64", "--grid", "256"),
     ["kappa", "scalar.re", "scalar.im", "minus.coeffs", "plus.coeffs", "residual",
      "truncation", "grid_size"]
     + [f"membership.{part}.{key}" for part in ("plus", "plus_inverse", "minus",
                                                "minus_inverse") for key in _NORM_KEYS]),
], ids=["norm", "weights", "verify", "factorize"])
def test_csv_and_human_key_order(capsys, argv, keys):
    # JSON output sorts its keys; the csv header and the human lines keep
    # the order in which each report writes its fields.
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert next(csv.reader(io.StringIO(out))) == keys
    code, out, _ = run(capsys, *argv, "--format", "human")
    assert code == 0
    assert [line.partition(": ")[0] for line in out.splitlines()] == keys


class TestWeights:
    def test_default_space_ok(self, capsys):
        code, out, _ = run(capsys, "--cmd", "weights")
        assert code == 0
        doc = json.loads(out)
        assert all(v["ok"] for v in doc.values())

    def test_bad_table_fails(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"values": [1.0, 0.5], "delta2": 2.0}))
        code, out, _ = run(
            capsys, "--cmd", "weights", "--space",
            f"pow:p=1;pow:p=1;table:{path};const:1;const:1;const:1")
        assert code == 1


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "--cmd", "verify", "--trials", "5",
                           "--support", "8", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem"]["ok"]
        assert doc["weight_shift"]["ok"]

    def test_zero_trials_usage_error(self, capsys):
        code, _, _ = run(capsys, "--cmd", "verify", "--trials", "0")
        assert code == 2

    def test_zero_trials_and_support_names_the_support(self, capsys):
        # run_suite alone refuses a trial count below 1, after the CLI has
        # checked the support.
        code, out, err = run(capsys, "--cmd", "verify", "--trials", "0", "--support", "0")
        assert (code, out, err) == (2, "", "error: support must be >= 1\n")

    @pytest.mark.parametrize("cmd,support", [("verify", "-5"), ("verify", "0"),
                                             ("selftest", "-5")])
    def test_support_below_one_usage_error(self, capsys, cmd, support):
        code, out, err = run(capsys, "--cmd", cmd, "--trials", "2",
                             "--support", support)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--cmd", "verify", "--trials", "2", "--seed", "-1"),
        ("--cmd", "selftest", "--trials", "2", "--seed", "-3"),
        ("--cmd", "verify", "--replay", "theorem:seed=7:trial=-2:support=5"),
        ("--cmd", "verify", "--replay", "theorem:seed=7:trial=2:support=-5"),
    ], ids=["verify-seed", "selftest-seed", "replay-trial", "replay-support"])
    def test_negative_seed_or_fingerprint_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--cmd", "verify", "--trials", "1", "--support", "99999999999999999999"),
        ("--cmd", "verify", "--trials", "1", "--support", str(MAX_SUPPORT + 1)),
        ("--cmd", "verify", "--replay", "theorem:seed=7:trial=2:support=99999999999999999999"),
    ], ids=["verify-int64", "verify-cap", "replay"])
    def test_support_above_cap_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: support must be <= ")
        assert "Traceback" not in err

    def test_determinism(self, capsys):
        args = ("--cmd", "verify", "--trials", "4", "--support", "6",
                "--seed", "11")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_replay(self, capsys):
        code, out, _ = run(capsys, "--cmd", "verify", "--replay",
                           "theorem:seed=7:trial=2:support=8")
        assert code == 0
        doc = json.loads(out)
        assert doc["witnesses"][0]["holds"]
        _, out2, _ = run(capsys, "--cmd", "verify", "--replay",
                         "theorem:seed=7:trial=2:support=8")
        assert out == out2

    def test_bad_replay_fingerprint(self, capsys):
        code, _, _ = run(capsys, "--cmd", "verify", "--replay", "bogus")
        assert code == 2


class TestViolationExit:
    """Exit 1 means an inequality is violated: with the algebra constant
    shrunk to 1e-3 the product inequality fails, and each command that
    checks it says so by its exit code."""

    @pytest.fixture(autouse=True)
    def _wrong_constant(self, monkeypatch):
        monkeypatch.setattr(AlgebraSpace, "algebra_constant", lambda self: 1e-3)

    def test_verify_reports_the_first_violation_on_stderr(self, capsys):
        code, out, err = run(capsys, "--cmd", "verify", "--trials", "5",
                             "--support", "8", "--seed", "7")
        assert code == 1
        doc = json.loads(out)
        assert not doc["theorem"]["ok"]
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("violation: ")
        assert json.loads(lines[0][len("violation: "):]) == doc["theorem"]["violations"][0]

    def test_replay_of_a_violated_witness(self, capsys):
        code, out, err = run(capsys, "--cmd", "verify", "--replay",
                             "theorem:seed=7:trial=3:support=16")
        assert code == 1
        assert not json.loads(out)["witnesses"][0]["holds"]
        assert err == ""

    def test_selftest(self, capsys):
        code, out, err = run(capsys, "--cmd", "selftest", "--trials", "10")
        assert code == 1
        doc = json.loads(out)
        assert not doc["ok"] and not doc["theorem"]["ok"]
        assert err == ""


def test_verify_names_a_weight_shift_violation(capsys, monkeypatch):
    """With the log weight's doubling constant set to 1, only the shift scan
    fails, and the stderr line is its first violation with its weight."""
    monkeypatch.setattr(orlicz, "_LOG_DELTA2", 1.0)
    code, out, err = run(capsys, "--cmd", "verify", "--trials", "5",
                         "--support", "8", "--seed", "7")
    assert code == 1
    doc = json.loads(out)
    assert all(doc[family]["ok"] for family in FAMILIES)
    assert not doc["weight_shift"]["ok"]
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("violation: ")
    assert json.loads(lines[0][len("violation: "):]) == {
        "weight": "W-:log", **doc["weight_shift"]["families"]["W-:log"]["violations"][0]}


class TestFactorize:
    def test_two_plus_t(self, capsys):
        code, out, _ = run(capsys, "--cmd", "factorize", "--input", TWO_PLUS_T)
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 0
        assert doc["scalar"]["re"] == pytest.approx(2.0, abs=1e-10)
        assert doc["residual"] <= 1e-10
        assert "membership" in doc

    def test_grid_below_8_is_refused_by_the_grid_rule(self, capsys):
        """4 >= 4*max(trunc, degree) here, but a winding number needs 8
        points: the one grid rule refuses it before any sampling."""
        code, out, err = run(capsys, "--cmd", "factorize", "--input", TWO_PLUS_T,
                             "--grid", "4", "--trunc", "1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "max(8, 4*max(truncation, degree))" in err

    def test_index_obstruction(self, capsys):
        t = json.dumps({"coeffs": [{"k": 1, "re": 1.0, "im": 0.0}]})
        code, out, _ = run(capsys, "--cmd", "factorize", "--input", t)
        assert code == 3
        assert json.loads(out)["kappa"] == 1

    def test_vanishing_symbol(self, capsys):
        z = json.dumps({"coeffs": [{"k": 0, "re": 1.0, "im": 0.0},
                                   {"k": 1, "re": -1.0, "im": 0.0}]})
        code, out, _ = run(capsys, "--cmd", "factorize", "--input", z)
        assert code == 3
        assert json.loads(out)["error"] == "vanishing-symbol"

    @pytest.mark.parametrize("scale", [1e10, 1e-13])
    def test_scaled_symbol_factorizes(self, capsys, scale):
        """Both gates are relative to max|b|: 2 + t scaled far up or down
        factorizes like 2 + t, with the scale in G."""
        b = json.dumps({"coeffs": [{"k": 0, "re": 2 * scale, "im": 0.0},
                                   {"k": 1, "re": scale, "im": 0.0}]})
        code, out, _ = run(capsys, "--cmd", "factorize", "--input", b)
        assert code == 0
        doc = json.loads(out)
        assert doc["scalar"]["re"] == pytest.approx(2 * scale, rel=1e-10)
        assert doc["residual"] <= 1e-10 * 3 * scale

    @pytest.mark.parametrize("coeffs", [
        [{"k": 0, "re": 1e-310, "im": 0.0}],
        [{"k": 0, "re": 2e-309, "im": 0.0}, {"k": 1, "re": 1e-309, "im": 0.0}],
    ])
    def test_subnormal_symbol_refused(self, capsys, coeffs):
        """A symbol that does not vanish but is subnormal on the grid: one
        refusal line and no numpy warning, not an internal error or a wrong
        winding number."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--cmd", "factorize", "--input",
                                 json.dumps({"coeffs": coeffs}))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "subnormal" in err

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scale_keeps_the_rounding_of_scale_one(self, capsys, scale):
        """The log of |b| is taken at the binary scale of max|b|: the
        minus factor of scale * (2 + t) is 1, and its negative-side norm
        is rounding of a symbol of size 1, not of ln(scale)."""
        b = json.dumps({"coeffs": [{"k": 0, "re": 2 * scale, "im": 0.0},
                                   {"k": 1, "re": scale, "im": 0.0}]})
        code, out, _ = run(capsys, "--cmd", "factorize", "--input", b)
        assert code == 0
        doc = json.loads(out)
        for name in ("minus", "minus_inverse"):
            assert doc["membership"][name]["negative"] <= 1e-14

    def test_doubled_grid_passes_or_fails_the_residual_gate(self, capsys):
        """1 + c/t with |c| = 0.998 doubles the grid from 16 to 2048, and
        its residual of 8.2e-6 passes --tol 1 and fails --tol 1e-8; the
        inverse cut at truncation 4 passes only a tol near 1."""
        c = 0.998 * cmath.exp(3.85j)
        b = json.dumps({"coeffs": [{"k": -1, "re": c.real, "im": c.imag},
                                   {"k": 0, "re": 1.0, "im": 0.0}]})
        argv = ("--cmd", "factorize", "--input", b, "--grid", "16", "--trunc", "4")
        code, out, _ = run(capsys, *argv, "--tol", "1")
        assert code == 0
        assert json.loads(out)["grid_size"] == 2048
        code, out, _ = run(capsys, *argv, "--tol", "1e-8")
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == "truncation-insufficient"
        assert doc["residual"] == pytest.approx(8.2e-6, rel=0.01)

    @pytest.mark.parametrize("a,trunc,want", [(0.9, 64, 3), (0.99, 64, 3), (0.99, 128, 3),
                                              (0.99, 512, 3), (0.99, 2048, 0)])
    def test_inverse_gate(self, capsys, a, trunc, want):
        """b = 2(1 - a t)(1 - 0.3/t): the inverse of b+ is sum a^k t^k, of
        Wiener norm 1/(1 - a).  Cut at T it leaves b+ b+^-1 = 1 - (a t)^(T+1),
        at l1 distance a^(T+1) from 1: past tol it is refused, not printed
        with a wrong norm (47.97 for a = 0.99 at truncation 64)."""
        b = json.dumps({"coeffs": [{"k": -1, "re": -0.6, "im": 0},
                                   {"k": 0, "re": 2 * (1 + 0.3 * a), "im": 0},
                                   {"k": 1, "re": -2 * a, "im": 0}]})
        code, out, err = run(capsys, "--cmd", "factorize", "--input", b,
                             "--grid", str(max(2048, 4 * trunc)), "--trunc", str(trunc))
        assert (code, err) == (want, "")
        doc = json.loads(out)
        if want:
            assert doc["error"] == "truncation-insufficient"
            assert doc["residual"] == pytest.approx(a ** (trunc + 1), rel=1e-8)
        else:
            assert doc["membership"]["plus_inverse"]["wiener"] == pytest.approx(1 / (1 - a),
                                                                               rel=1e-8)

    def test_grid_above_cap_refused_before_sampling(self, capsys, monkeypatch):
        from orlicz_wiener import factorization

        def no_sampling(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(factorization, "sample", no_sampling)
        code, out, err = run(capsys, "--cmd", "factorize", "--input", TWO_PLUS_T,
                             "--grid", "131072")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "131072" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "--cmd", "factorize", "--input", TWO_PLUS_T,
                         "--bogus", "1")
        assert code == 2


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "--cmd", "selftest", "--trials", "10")
        assert code == 0
        assert json.loads(out)["ok"]


class TestNonFiniteInput:
    @pytest.mark.parametrize("coeffs,space", [
        ('{"coeffs": [{"k": 0, "re": NaN, "im": 0}]}', None),
        ('{"coeffs": [{"k": -2, "re": 1, "im": Infinity}]}', None),
        ('{"coeffs": [{"k": 1, "re": -Infinity, "im": 0}]}', None),
        ('{"coeffs": [{"k": -3, "re": 1e308, "im": 0}]}',
         "pow:p=1;pow:p=1;pow:alpha=2;const:1;const:1;const:1"),
        (F0, "pow:p=1;pow:p=1;pow:alpha=inf;const:1;const:1;const:1"),
        (F0, "pow:p=inf;pow:p=1;const:1;const:1;const:1;const:1"),
        (F0, "pow:p=1;powlog:p=nan;const:1;const:1;const:1;const:1"),
        (F0, "pow:p=1;pow:p=1;const:1;const:1;const:1;const:inf"),
        ('{"coeffs": [{"k": true, "re": 1, "im": 0}]}', None),
    ])
    def test_clean_refusal(self, capsys, coeffs, space):
        argv = ["--cmd", "norm", "--input", coeffs]
        if space is not None:
            argv += ["--space", space]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


class TestHugeAndNonFinite:
    @pytest.mark.parametrize("argv", [
        ["--cmd", "norm", "--input",
         json.dumps({"coeffs": [{"k": 100000000000, "re": 1, "im": 0}]})],
        ["--cmd", "norm", "--input",
         json.dumps({"coeffs": [{"k": -MAX_DEGREE - 1, "re": 1, "im": 0}]})],
        ["--cmd", "factorize", "--input",
         json.dumps({"coeffs": [{"k": 100000000000, "re": 1, "im": 0}]})],
        ["--cmd", "weights", "--support", "100000000000"],
        ["--cmd", "weights", "--support", str(MAX_DEGREE + 1)],
    ])
    def test_index_above_degree_cap_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert str(MAX_DEGREE) in err

    def test_degree_cap_itself_accepted(self):
        doc = {"coeffs": [{"k": -MAX_DEGREE, "re": 1, "im": 0}]}
        assert LaurentPolynomial.from_json(doc).n_max == MAX_DEGREE

    @pytest.mark.parametrize("coeffs", [
        [{"k": -1, "re": 1e308, "im": 1e308}],
        [{"k": -1, "re": 1e308, "im": 1e308}, {"k": 0, "re": 1e308, "im": 1e308}],
    ])
    def test_non_finite_norm_refused(self, capsys, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--cmd", "norm", "--input",
                                 json.dumps({"coeffs": coeffs}))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("coeffs", [
        [{"k": 0, "re": 1e308, "im": 0}, {"k": 1, "re": 1e308, "im": 0}],
        [{"k": -1, "re": 1e308, "im": 1e308}, {"k": 0, "re": 1e308, "im": 1e308}],
    ])
    def test_symbol_overflowing_on_the_grid_refused(self, capsys, coeffs):
        """Finite coefficients whose sum overflows: a refusal, not a
        vanishing symbol, and no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--cmd", "factorize", "--input",
                                 json.dumps({"coeffs": coeffs}))
        assert code == 2
        assert out == ""
        assert err == "error: symbol is not finite on the grid\n"

    @pytest.mark.parametrize("a,band,grid,trunc", [
        (730, 800, 4096, 1000),
        (1450, 1550, 8192, 2000),
    ])
    def test_factors_beyond_the_double_range_refused(self, capsys, a, band, grid, trunc):
        """exp(i a cos theta) is finite on the grid, but its factors or
        their product overflow: a refusal, not a nan residual or an
        internal error, and no numpy warning."""
        c = np.fft.fft(np.exp(1j * a * np.cos(2 * np.pi * np.arange(8192) / 8192))) / 8192
        coeffs = [{"k": k, "re": c[k].real, "im": c[k].imag} for k in range(-band, band + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--cmd", "factorize", "--grid", str(grid),
                                 "--trunc", str(trunc), "--input",
                                 json.dumps({"coeffs": coeffs}))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "not finite" in err

    def test_emit_refuses_non_json_numbers(self, capsys):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                cli._emit({"x": value}, "json")
        assert capsys.readouterr().out == ""

    def test_witness_with_zero_rhs_writes_null_ratio(self):
        [doc] = Checks(1.0, 0.0, 1.0, False).to_json(["fp"])
        assert doc["ratio"] is None and doc["fingerprint"] == "fp"
        assert json.loads(json.dumps(doc, allow_nan=False))["ratio"] is None
        assert Checks(0.0, 0.0, 1.0, True).to_json(["fp"])[0]["ratio"] == 0.0


class TestRefusals:
    @pytest.mark.parametrize("argv,table", [
        (["--cmd", "factorize", "--input", TWO_PLUS_T, "--trunc", "0", "--tol", "nan"], None),
        (["--cmd", "factorize", "--input", TWO_PLUS_T, "--trunc", "0", "--tol", "inf"], None),
        (["--cmd", "factorize", "--input", TWO_PLUS_T, "--trunc", "0", "--tol", "-1"], None),
        (["--cmd", "weights", "--space", "pow:p=2;expm1;pow:alpha=500;log;const:1;const:1"],
         None),
        (["--cmd", "weights", "--space", "pow:p=2;expm1;pow:alpha=2000;log;const:1;const:1"],
         None),
        (["--cmd", "weights"], {"values": ["a"], "delta2": 2}),
        (["--cmd", "weights"], {"values": 5, "delta2": 2}),
        (["--cmd", "weights"], {"values": [1, 2], "delta2": "x"}),
        (["--cmd", "weights"], {"values": [1, 2], "delta2": None}),
        (["--cmd", "weights"], {"values": [1, True], "delta2": 2}),
        (["--cmd", "weights"], {"values": [1e-300, 1e300], "delta2": 2}),
        (["--cmd", "weights"], {"values": [10**400], "delta2": 2}),
        (["--cmd", "weights"], '{"values": [1%s], "delta2": 2}' % ("0" * 5000)),
        (["--cmd", "norm", "--input", '{"coeffs": 5}'], None),
        (["--cmd", "norm", "--input", '{"coeffs": null}'], None),
        (["--cmd", "norm", "--input", '{"coeffs": [{"k": 0, "re": "1.5", "im": 0}]}'], None),
        (["--cmd", "norm", "--input", '{"coeffs": [{"k": 0, "re": true, "im": 0}]}'], None),
        (["--cmd", "norm", "--input", '{"coeffs": [{"k": 0, "re": 1, "im": null}]}'], None),
        (["--cmd", "norm", "--input",
          '{"coeffs": [{"k": 0, "re": 1%s, "im": 0}]}' % ("0" * 399)], None),
        (["--cmd", "norm", "--input",
          '{"coeffs": [{"k": 0, "re": 1, "im": 0}, {"k": 3, "re": 1, "im": 0}]}',
          "--space", "pow:p=1;pow:p=1;const:1;const:1;pow:alpha=2000;const:1"], None),
        (["--cmd", "factorize", "--input", TWO_PLUS_T,
          "--space", "pow:p=1;pow:p=1;pow:alpha=2000;const:1;const:1;const:1"], None),
        (["--cmd", "factorize", "--input", NEAR_ZERO_AT_LARGEST_GRID], None),
        (["--cmd", "norm", "--input", '{"coeffs":[{"k":0,"re":1,"im":0}]}',
          "--space", "pow:p=1;pow:p=1;const:1;const:1;const:1;const:1e-320"], None),
        (["--cmd", "norm", "--input", '{"coeffs":[{"k":0,"re":1e300,"im":0}]}',
          "--space", "pow:p=1;pow:p=1;const:1;const:1;const:1;const:1e300"], None),
        (["--cmd", "weights", "--space", "pow:p=1;pow:p=1;const:1;const:1e-320;const:1;const:1"],
         None),
        (["--cmd", "factorize", "--input", TWO_PLUS_T,
          "--space", "pow:p=1;pow:p=1;const:1;const:1;const:1e-320;const:1"], None),
        (["--cmd", "weights"], {"values": [1, 1e-320], "delta2": 2}),
        (["--cmd", "weights"], "[" * 100000 + "]" * 100000),
        (["--cmd", "weights"], '{"values": [1, 2], "delta2": 2, "delta2": 3}'),
        (["--cmd", "norm", "--input", '{"coeffs": %s}' % ("[" * 3000 + "]" * 3000)], None),
        (["--cmd", "norm", "--input", '{"coeffs": [{"k": 0, "re": 1, "im": 0}], "coeffs": []}'],
         None),
        (["--cmd", "norm", "--input", '{"coeffs": [{"k": 0, "re": 1, "re": 5, "im": 0}]}'],
         None),
        (["--cmd", "weights", "--support", "1"], None),
        (["--cmd", "weights", "--support", "0"], None),
        (["--cmd", "weights", "--support", "-3"], None),
        (["--cmd", "weights", "--support", "x"], None),
        (["--cmd", "verify", "--replay", "theorem:7:3:16"], None),
        (["--cmd", "verify", "--replay", "theorem:seed=\u0667:trial=3:support=16"], None),
        (["--cmd", "verify", "--replay", "theorem:seed=+7:trial=3:support=16"], None),
        (["--cmd", "verify", "--replay", "theorem:seed=7_0:trial=3:support=16"], None),
        (["--cmd", "verify", "--replay", "theorem:seed= 7:trial=3:support=16"], None),
        (["--cmd", "weights", "--no-such-flag"], None),
        (["--cmd", "bogus"], None),
        (["--support", "8"], None),
    ], ids=["tol-nan", "tol-inf", "tol-negative", "pow-500", "pow-2000",
            "values-string", "values-number", "delta2-string", "delta2-null",
            "values-bool", "ratio-overflow", "values-beyond-double",
            "values-beyond-int-digits", "coeffs-number", "coeffs-null", "re-string",
            "re-bool", "im-null", "re-beyond-double", "norm-weight-inf-at-zero",
            "factorize-weight-inf-at-zero", "factorize-under-resolved-at-largest-grid",
            "norm-const-subnormal", "norm-above-doubles", "weights-const-subnormal",
            "factorize-const-subnormal", "table-value-subnormal", "table-nested-100000",
            "table-repeated-key",
            "coeffs-nested-3000", "coeffs-repeated-key", "coefficient-repeated-key",
            "weights-support-1", "weights-support-0", "weights-support-negative",
            "support-not-int", "replay-unlabelled", "replay-arabic-indic-digit",
            "replay-plus-sign", "replay-underscore", "replay-space", "unknown-flag",
            "unknown-cmd", "missing-cmd"])
    def test_one_line_exit_2(self, capsys, tmp_path, argv, table):
        if table is not None:
            path = tmp_path / "w.json"
            path.write_text(table if isinstance(table, str) else json.dumps(table))
            argv = argv + ["--space", f"pow:p=2;expm1;table:{path};log;const:1;const:1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        # factorize refines the grid itself up to the largest one, so no
        # refusal can advise a finer grid
        assert "refine" not in err

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"coeffs": []}',
        b'{"coeffs": ' + b"[" * 3000 + b"]" * 3000 + b"}",
    ], ids=["not-utf8", "nested-3000"])
    def test_unreadable_coefficient_file_one_line_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "--cmd", "norm", "--input", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_help_is_not_a_refusal(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: orlicz-wiener") and "--cmd" in out
        assert err == ""


def _child_env():
    """The environment of a child interpreter that imports this checkout's
    package ahead of any installed copy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_closed_stdout_exits_141_silently():
    """A reader of stdout that went away before the first write is not an
    internal error: exit 141, as a shell reports SIGPIPE, and no stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orlicz_wiener.cli", "--cmd", "verify",
             "--trials", "2", "--support", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


def test_interrupt_exits_130_silently():
    """An interrupt is not an internal error: exit 130, as a shell reports
    SIGINT, and no traceback.  The child reports on stderr when it is ready,
    and is interrupted a little later, inside a verify of many seconds."""
    code = ("import sys\n"
            "from orlicz_wiener.cli import main\n"
            "print('ready', file=sys.stderr, flush=True)\n"
            "sys.exit(main(['--cmd', 'verify', '--trials', '100000']))\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env())
    try:
        assert proc.stderr.readline() == b"ready\n"
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert (out, err) == (b"", b"")


def test_coefficient_file_nested_100000_deep_is_refused(tmp_path):
    """The depth at which the JSON parser gives up depends on the stack of a
    real process, which an in-process test does not reproduce: a file nested
    100000 deep is refused with exit 2 and one ``error:`` line."""
    path = tmp_path / "deep.json"
    path.write_text('{"coeffs": ' + "[" * 100000 + "]" * 100000 + "}")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "orlicz_wiener.cli",
         "--cmd", "norm", "--input", str(path)],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == cli.EXIT_USAGE == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


class TestUnexpectedException:
    @pytest.mark.parametrize("exc,code", [
        (RuntimeError("boom\nsecond line"), 4),
        (SpecError("bad spec"), 2),
        (DomainError("out of domain"), 2),
    ])
    def test_one_line_and_exit_code(self, capsys, monkeypatch, exc, code):
        def raising(args):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "norm", raising)
        got, out, err = run(capsys, "--cmd", "norm", "--input", F0)
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        if code == cli.EXIT_INTERNAL:
            assert err == "error: internal error: RuntimeError: boom second line\n"


def _strict_json_constant(token):
    raise ValueError(f"non-JSON token {token}")


_ODD_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e-320, 10**400, "1.5", True, None, [1]]))
_VALID_COEFFS = st.lists(st.fixed_dictionaries({"k": st.integers(-3, 3), "re": st.floats(-10, 10),
                                                "im": st.floats(-10, 10)}),
                         max_size=4, unique_by=lambda c: c["k"])
_COEFF_DOC = st.one_of(
    _VALID_COEFFS,
    # a dominant constant term: winding number 0, so factorize succeeds
    _VALID_COEFFS.map(lambda cs: [{"k": 0, "re": 50.0, "im": 0.0}]
                      + [c for c in cs if c["k"] != 0]),
    st.lists(st.fixed_dictionaries({
        "k": st.one_of(st.integers(-3, 3), st.sampled_from([10**12, True, "1", 1.0])),
        "re": st.one_of(st.floats(-10, 10), _ODD_REALS),
        "im": st.one_of(st.floats(-10, 10), _ODD_REALS)}), max_size=4),
    st.one_of(st.integers(), st.none(), st.text(max_size=3), st.just({"k": 0})),
).map(lambda coeffs: {"coeffs": coeffs})
_VALID_ORLICZ = ["pow:p=1", "pow:p=2.5", "expm1", "powlog:p=1.5"]
_VALID_WEIGHTS = ["const:1", "const:1e-300", "log", "pow:alpha=1", "pow:alpha=500"]
_ODD_SPECS = ["pow:p=0.5", "powlog:p=nan", "pow:p=inf", "bogus", "pow:alpha=-1", "const:0",
              "const:inf", "table:/no/such/table.json", "pow:alpha=x", ""]
_SPACE = st.one_of(
    st.tuples(*[st.sampled_from(_VALID_ORLICZ)] * 2,
              *[st.sampled_from(_VALID_WEIGHTS)] * 4).map(";".join),
    st.lists(st.sampled_from(_VALID_ORLICZ + _VALID_WEIGHTS + _ODD_SPECS),
             min_size=5, max_size=7).map(";".join),
    st.text(max_size=12),
)


def _flag(valid, invalid):
    """A flag value, valid three times in four."""
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(invalid))


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(["norm", "weights", "verify", "factorize", "selftest"]))
    # The trial count and support are always given: their defaults make a
    # verify run of a second.
    argv = ["--cmd", cmd, "--trials", draw(_flag(["1", "2", "3"], ["-1", "0"])),
            "--support", draw(_flag(["1", "4", "8"], ["-3", "0", str(10**20), "x"]))]
    if cmd in ("norm", "factorize") and draw(st.integers(0, 9)):
        argv += ["--input", json.dumps(draw(_COEFF_DOC))]
    if draw(st.booleans()):
        argv += ["--space", draw(_SPACE)]
    flags = {
        "--seed": _flag(["0", "7", str(2**70)], ["-1", "1.5"]),
        "--tol": _flag(["1e-12", "1e-6", "1e-3"], ["nan", "inf", "-1", "0", "1e-300", "0.5"]),
        "--grid": _flag(["256", "1024"], ["-4", "0", "3", "16", "131072"]),
        "--trunc": _flag(["1", "4", "16"], ["-1", "0", "100"]),
    }
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_cli_exit_codes_and_strict_json(argv):
    """Any spec, coefficient document and flag values give exit 0-3, with 1
    only from verify or weights, no traceback, and stdout that is strict
    JSON; a refusal prints nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert code != 1 or argv[1] in ("verify", "weights")
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), argv
    else:
        json.loads(out, parse_constant=_strict_json_constant)
