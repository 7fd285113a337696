"""Golden CLI outputs for fixed seeds.

`tests/golden/` holds the JSON output of `--cmd verify --seed 7`,
`--cmd selftest` and one `--replay` per family.  Counts, verdicts,
violations, fingerprints, the weight-shift scan and the norm-family ratios
must match exactly: they come from the same norm solves on the same draws.
The coefficient-bound floats depend on the order in which the majorant and
the product coefficient are summed, so they may move within 1e-12 relative.
The factorization residual is rounding noise and is held to selftest's own
bound only.

`tests/golden/norm_long.json` holds `wnf_norm` of seeded support-4096
symbols for every pair of Orlicz families, with the weights cycling through
every weight family.  Those norms must match exactly.  Run this file as a
script (`PYTHONPATH=src python tests/test_golden.py`) to write it again.
"""

import json
from pathlib import Path

import pytest

from orlicz_wiener.algebra import AlgebraSpace, wnf_norm
from orlicz_wiener.cli import main
from orlicz_wiener.orlicz import (
    NEGATIVE_SIDE, NONNEGATIVE_SIDE, OrliczFunction, WeightSequence)

from oracles import random_element

GOLDEN = Path(__file__).parent / "golden"
NORM_FAMILIES = ("theorem", "one_sided_negative", "one_sided_nonnegative")
SUMMED = ("lhs", "rhs", "ratio")
NORM_SUPPORT = 4096
ORLICZ = (OrliczFunction("pow", 1.5), OrliczFunction("expm1"), OrliczFunction("powlog", 2.5))


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


def _weight(i, klass):
    return (WeightSequence("pow", klass, 0.5), WeightSequence("log", klass),
            WeightSequence("const", klass, 2.0),
            WeightSequence("table", klass, table=(1.0, 1.25, 1.5, 2.0),
                           table_delta2=2.0))[i % 4]


def norm_long_cases():
    """(seed, space, symbol) for each of the 3 x 3 Orlicz family pairs."""
    cases = []
    for i in range(len(ORLICZ) ** 2):
        sp = AlgebraSpace(ORLICZ[i % 3], ORLICZ[i // 3],
                          _weight(i, NEGATIVE_SIDE), _weight(i + 1, NEGATIVE_SIDE),
                          _weight(i + 2, NONNEGATIVE_SIDE), _weight(i + 3, NONNEGATIVE_SIDE))
        cases.append((i, sp, random_element(NORM_SUPPORT, i)))
    return cases


def norm_long_doc():
    return [{"seed": seed, "space": sp.spec(), **wnf_norm(f, sp).to_json()}
            for seed, sp, f in norm_long_cases()]


def test_norm_long():
    assert norm_long_doc() == golden("norm_long.json")


if __name__ == "__main__":
    (GOLDEN / "norm_long.json").write_text(json.dumps(norm_long_doc(), indent=2) + "\n")
