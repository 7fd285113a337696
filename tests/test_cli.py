"""CLI contract tests: exit codes, determinism, serialization."""

import json
import math
import warnings

import pytest

from orlicz_wiener import cli
from orlicz_wiener.algebra import InequalityWitness
from orlicz_wiener.cli import main
from orlicz_wiener.fourier import MAX_DEGREE, LaurentPolynomial
from orlicz_wiener.errors import DomainError, SpecError
from orlicz_wiener.harness import MAX_SUPPORT

F0 = json.dumps({"coeffs": [{"k": 0, "re": 1.0, "im": 0.0}]})
TWO_PLUS_T = json.dumps({"coeffs": [{"k": 0, "re": 2.0, "im": 0.0},
                                    {"k": 1, "re": 1.0, "im": 0.0}]})


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


class TestFactorize:
    def test_two_plus_t(self, capsys):
        code, out, _ = run(capsys, "--cmd", "factorize", "--input", TWO_PLUS_T)
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 0
        assert doc["scalar"]["re"] == pytest.approx(2.0, abs=1e-10)
        assert doc["residual"] <= 1e-10
        assert "membership" in doc

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

    def test_emit_refuses_non_json_numbers(self, capsys):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                cli._emit({"x": value}, "json")
        assert capsys.readouterr().out == ""

    def test_witness_with_zero_rhs_writes_null_ratio(self):
        doc = InequalityWitness(1.0, 0.0, 1.0, False).to_json()
        assert doc["ratio"] is None
        assert json.loads(json.dumps(doc, allow_nan=False))["ratio"] is None
        assert InequalityWitness(0.0, 0.0, 1.0, True).to_json()["ratio"] == 0.0


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
    ], ids=["tol-nan", "tol-inf", "tol-negative", "pow-500", "pow-2000",
            "values-string", "values-number", "delta2-string", "delta2-null",
            "values-bool", "ratio-overflow", "values-beyond-double",
            "values-beyond-int-digits"])
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


class TestUnexpectedException:
    @pytest.mark.parametrize("exc,code", [
        (RuntimeError("boom\nsecond line"), 4),
        (SpecError("bad spec"), 2),
        (DomainError("out of domain"), 2),
    ])
    def test_one_line_and_exit_code(self, capsys, monkeypatch, exc, code):
        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_norm", raising)
        got, out, err = run(capsys, "--cmd", "norm", "--input", F0)
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        if code == cli.EXIT_INTERNAL:
            assert err == "error: internal error: RuntimeError: boom second line\n"
