"""Golden CLI outputs for fixed seeds.

`tests/golden/` holds the JSON output of `--cmd verify --seed 7`,
`--cmd selftest` and one `--replay` per family.  Counts, verdicts,
violations, fingerprints, the weight-shift scan and the norm-family ratios
must match exactly: they come from the same norm solves on the same draws.
The coefficient-bound floats depend on the order in which the majorant and
the product coefficient are summed, so they may move within 1e-12 relative.
The factorization residual is rounding noise and is held to selftest's own
bound only.
"""

import json
from pathlib import Path

import pytest

from orlicz_wiener.cli import main

GOLDEN = Path(__file__).parent / "golden"
NORM_FAMILIES = ("theorem", "one_sided_negative", "one_sided_nonnegative")
SUMMED = ("lhs", "rhs", "ratio")


def close(got, want):
    return got == pytest.approx(want, rel=1e-12, abs=0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


def golden(name):
    return json.loads((GOLDEN / name).read_text())


def assert_suites_match(got, want):
    for family in NORM_FAMILIES:
        assert got[family] == want[family], family
    coeff, coeff_want = dict(got["coefficient_bound"]), dict(want["coefficient_bound"])
    assert close(coeff.pop("max_ratio"), coeff_want.pop("max_ratio"))
    assert coeff == coeff_want


def test_verify_seed_7(capsys):
    code, doc = run_cli(capsys, "--cmd", "verify", "--seed", "7")
    want = golden("verify_seed7.json")
    assert code == 0
    assert doc.keys() == want.keys()
    assert_suites_match(doc, want)
    assert doc["weight_shift"] == want["weight_shift"]


def test_selftest(capsys):
    code, doc = run_cli(capsys, "--cmd", "selftest")
    want = golden("selftest.json")
    assert code == 0
    assert doc.keys() == want.keys()
    assert_suites_match(doc, want)
    assert doc["weight_shift_ok"] == want["weight_shift_ok"]
    assert doc["ok"] == want["ok"]
    assert doc["factorization_residual"] <= 1e-10


@pytest.mark.parametrize("family", NORM_FAMILIES + ("coefficient_bound",))
def test_replay(capsys, family):
    fp = f"{family}:seed=7:trial=3:support=16"
    code, doc = run_cli(capsys, "--cmd", "verify", "--replay", fp)
    want = golden(f"replay_{family}.json")
    assert code == 0
    assert doc["replay"] == want["replay"] == fp
    assert len(doc["witnesses"]) == len(want["witnesses"])
    for got_w, want_w in zip(doc["witnesses"], want["witnesses"]):
        if family == "coefficient_bound":
            got_w, want_w = dict(got_w), dict(want_w)
            for key in SUMMED:
                assert close(got_w.pop(key), want_w.pop(key)), key
        assert got_w == want_w
