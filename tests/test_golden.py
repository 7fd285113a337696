"""Golden CLI outputs, one row of ``ROWS`` each, and ``wnf_norm`` of long
symbols.

Each row runs the CLI in-process on its argv.  It must exit 0 with nothing
on stderr and print what ``tests/golden/<name>.json`` holds, as ``_agree``
compares them: the same keys in the same order, and the same ints, bools,
strings and list lengths, so every count, verdict, violation and
fingerprint.  The floats:

- An exact row (``verify --seed 7``, ``selftest`` and the replays of the
  three norm families) holds its floats to the bit: each comes from the
  same norm solves on the same draws.  Under a ``coefficient_bound`` key
  they may move within 1e-12 relative, since they depend on the order in
  which the majorant and the product coefficient are summed.
- Every other row holds each float within 1e-12 relative: the
  ``coefficient_bound`` replay for that reason, and the outputs that numpy's
  SIMD kernels move (``verify --seed 3 --trials 300 --support 20``,
  ``verify --seed 7 --trials 200`` and ``factorize`` of
  2(1 - 0.5t)(1 - 0.3/t) at grid 2048 and truncation 128; see
  ``tests/test_simd_levels.py``).
- In every row a residual (selftest's ``factorization_residual``,
  factorize's ``residual``) only has to stay within selftest's own gate,
  1e-10: it is rounding noise near 1e-15, which moved by 2e-2 relative at
  the baseline SIMD level on an AVX-512 host.
- In a row that is not exact, a factorization's coefficients must keep
  their set of indices k, and each part of each coefficient must lie within
  1e-14 of the largest modulus of its factor, absolute: the smallest sit at
  the rounding floor, where their sign can flip, while the largest move was
  5.6e-17 of that modulus.

``tests/golden/norm_long.json`` holds ``wnf_norm`` of seeded support-4096
symbols for every pair of Orlicz families, with the weights cycling through
every weight family.  Those norms must match exactly.

Run this file as a script (``PYTHONPATH=src python tests/test_golden.py``)
to write every golden again: each row's file as the CLI's stdout.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from orlicz_wiener.algebra import AlgebraSpace, wnf_norm
from orlicz_wiener.cli import main
from orlicz_wiener.harness import FAMILIES
from orlicz_wiener.orlicz import (
    NEGATIVE_SIDE, NONNEGATIVE_SIDE, OrliczFunction, WeightSequence)

from oracles import random_element

GOLDEN = Path(__file__).parent / "golden"

# 2(1 - 0.5t)(1 - 0.3/t), whose winding number is 0
SYMBOL = json.dumps({"coeffs": [{"k": -1, "re": -0.6, "im": 0}, {"k": 0, "re": 2.3, "im": 0},
                                {"k": 1, "re": -1, "im": 0}]})

# (argv after --cmd, golden file name, whether the floats are exact)
ROWS = (
    (("verify", "--seed", "7"), "verify_seed7", True),
    (("selftest",), "selftest", True),
    *((("verify", "--replay", f"{family}:seed=7:trial=3:support=16"), f"replay_{family}",
       family != "coefficient_bound") for family in FAMILIES),
    (("verify", "--seed", "3", "--trials", "300", "--support", "20"), "verify_seed3_support20",
     False),
    (("verify", "--seed", "7", "--trials", "200"), "verify_seed7_trials200", False),
    (("factorize", "--input", SYMBOL, "--grid", "2048", "--trunc", "128"), "factorize", False),
)

REL = 1e-12
RESIDUALS = ("factorization_residual", "residual")
RESIDUAL_GATE = 1e-10
COEFF_ABS = 1e-14
NORM_SUPPORT = 4096
ORLICZ = (OrliczFunction("pow", 1.5), OrliczFunction("expm1"), OrliczFunction("powlog", 2.5))


def cli(argv):
    """(exit code, stdout, stderr) of the CLI run in-process on ``argv``
    after ``--cmd``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--cmd", *argv])
    return code, out.getvalue(), err.getvalue()


def _agree(want, got, exact, key=None, where=""):
    """Whether ``got`` matches the golden ``want`` within the bounds of the
    module docstring; ``key`` is the innermost JSON key above the value,
    and ``exact`` whether its row holds floats to the bit."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for k in want:
            _agree(want[k], got[k], exact and k != "coefficient_bound", k, f"{where}.{k}")
    elif key == "coeffs" and not exact:
        assert [c["k"] for c in got] == [c["k"] for c in want], where
        top = max(abs(complex(c["re"], c["im"])) for c in want)
        for a, b in zip(want, got):
            for part in ("re", "im"):
                assert abs(b[part] - a[part]) <= COEFF_ABS * top, (where, a["k"], part, a, b)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(want, got)):
            _agree(a, b, exact, key, f"{where}[{i}]")
    elif type(want) is float and key in RESIDUALS:
        assert type(got) is float and got <= RESIDUAL_GATE, (where, want, got)
    elif type(want) is float and not exact:
        assert type(got) is float, where
        assert got == want or abs(got - want) <= REL * max(abs(want), abs(got)), (where, want, got)
    else:
        assert type(got) is type(want) and got == want, (where, want, got)


@pytest.mark.parametrize("argv, name, exact", ROWS, ids=[name for _, name, _ in ROWS])
def test_cli_output_matches_its_golden(argv, name, exact):
    code, out, err = cli(argv)
    assert (code, err) == (0, "")
    _agree(json.loads((GOLDEN / f"{name}.json").read_text()), json.loads(out), exact)


def test_the_comparison_fails_on_a_move():
    """The comparison itself: in a row that is not exact, a float moved
    beyond 1e-12 relative, a changed count, a shorter list, a residual past
    the gate, a coefficient moved beyond 1e-14 of its factor's largest
    modulus or a changed set of indices fails it; in an exact row, so does
    a float moved by one ulp, except under ``coefficient_bound``."""
    coeffs = [{"k": 0, "re": 1.0, "im": 0.0}, {"k": 1, "re": -0.5, "im": 1e-17}]
    doc = {"max_ratio": 0.5, "checks": 3, "violations": ["a"], "factorization_residual": 1e-15,
           "coefficient_bound": {"max_ratio": 1.0}, "plus": {"coeffs": coeffs}}
    for exact in (False, True):
        _agree(doc, doc, exact)
        _agree(doc, dict(doc, factorization_residual=9e-11,
                         coefficient_bound={"max_ratio": 1 + 1e-13}), exact)
    _agree(doc, dict(doc, max_ratio=0.5 * (1 + 1e-13)), False)
    _agree(doc, dict(doc, plus={"coeffs": [coeffs[0], dict(coeffs[1], re=-0.5 + 5e-15,
                                                           im=3e-17)]}), False)
    moves = (dict(doc, max_ratio=0.5 * (1 + 1e-11)), dict(doc, checks=4),
             dict(doc, violations=[]), dict(doc, factorization_residual=2e-10),
             dict(doc, checks=3.0), dict(doc, checks=True),
             dict(doc, coefficient_bound={"max_ratio": 1 + 1e-11}),
             dict(doc, plus={"coeffs": [coeffs[0], dict(coeffs[1], re=-0.5 + 2e-14)]}),
             dict(doc, plus={"coeffs": [coeffs[0], dict(coeffs[1], k=2)]}),
             dict(doc, plus={"coeffs": coeffs[:1]}), {k: doc[k] for k in reversed(doc)})
    ulp = (dict(doc, max_ratio=math.nextafter(0.5, 1)),
           dict(doc, plus={"coeffs": [coeffs[0], dict(coeffs[1], im=3e-17)]}))
    for exact, moved in [(False, m) for m in moves] + [(True, m) for m in moves + ulp]:
        with pytest.raises(AssertionError):
            _agree(doc, moved, exact)


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
    assert norm_long_doc() == json.loads((GOLDEN / "norm_long.json").read_text())


if __name__ == "__main__":
    for argv, name, _ in ROWS:
        code, out, err = cli(argv)
        assert (code, err) == (0, ""), (name, code, err)
        (GOLDEN / f"{name}.json").write_text(out)
    (GOLDEN / "norm_long.json").write_text(json.dumps(norm_long_doc(), indent=2) + "\n")
