"""Every value a command prints, checked against a reference.

The format case: ``--format csv`` and ``--format human`` print the values
that ``--format json`` prints, with the same exit code and stderr.  Each
printed text must give back its JSON value: a float parses to the same
double, a bool prints as ``True`` or ``False`` for JSON's ``true`` or
``false``, an int or a string prints as itself, and a list is its
``json.dumps``.  csv writes one header line and one row; human writes one
``key: value`` line per field.

The weights case: each report of ``weights`` against its weight
recomputed at 50 digits by ``oracles.mp_weight_conditions``.
``empirical_sup`` lies within 1e-14 relative of the largest nu(2m)/nu(m)
over the same m, and ``positive`` and ``nondecreasing`` equal the 50-digit
flags, for every builtin weight family and a table, in both index classes.

The factorize case: ``factorize`` of b = G(1 - at)(1 - c/t), drawn by
hypothesis with complex |a|, |c| <= 0.9 and |G| in [1e-3, 1e3], at grid 1024
and truncation 256, in a space of ``pow:p`` Orlicz functions and ``const``
or ``pow:alpha <= 1`` weights, against the closed forms: ``scalar`` is G
within 1e-13 relative, and ``plus`` is 1 - at and ``minus`` 1 - c/t, every
printed coefficient within 1e-12 absolute.  Each ``membership`` entry, of
a factor or of its inverse sum_k a^k t^k or sum_k c^k t^-k up to the
truncation (``oracles.geometric_inverse``), has its Wiener sum within 1e-13
relative of ``math.fsum`` of the closed form's moduli, and each one-sided
norm within 1e-10 of ``oracles.weighted_lp_norm`` of that side, relative to
the closed form's combined norm.  Over the 40 draws the largest errors were
1.5e-15, 9.7e-16, 6.0e-15 and 3.0e-13.  The norm bound is relative to the
whole norm, not the side's, because the printed factors carry coefficients
at the rounding floor up to the truncation (ROADMAP item 5): where |c| is
small, the negative side of ``minus`` read up to 2.3e-8 relative to its own
norm, and at c = 0 it is not 0.
"""

import cmath
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from orlicz_wiener.algebra import AlgebraSpace
from orlicz_wiener.cli import main
from orlicz_wiener.fourier import LaurentPolynomial
from orlicz_wiener.harness import FAMILIES

from oracles import geometric_inverse, mp_weight_conditions, split, weighted_lp_norm
from test_golden import SYMBOL, cli

SPACE = "pow:p=1.5;expm1;pow:alpha=0.5;log;pow:alpha=2;const:3"
# Not nondecreasing, so its report fails, and doubling with constant 3 in
# both index classes.
TABLE = {"values": [1.0, 2.2, 1.7, 3.1, 4.9], "delta2": 3.0}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def table_arg(tmp_path):
    """Puts the path of a file holding ``TABLE`` in place of ``table:@``."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps(TABLE))
    return lambda arg: arg.replace("table:@", f"table:{path}")


def _flat(doc, prefix=""):
    """The JSON document's leaves by dotted key; a list is one leaf."""
    leaves = {}
    for k, v in doc.items():
        if isinstance(v, dict):
            leaves |= _flat(v, f"{prefix}{k}.")
        else:
            leaves[f"{prefix}{k}"] = v
    return leaves


def _prints(value, text: str) -> bool:
    """Whether ``text`` is what csv and human print for the JSON ``value``."""
    if isinstance(value, bool):
        return text == ("True" if value else "False")
    if isinstance(value, float):
        return float(text).hex() == value.hex()
    if isinstance(value, list):
        return json.dumps(json.loads(text), sort_keys=True) == json.dumps(value, sort_keys=True)
    assert isinstance(value, (int, str)), (type(value), value)
    return text == str(value)


@pytest.mark.parametrize("argv", [
    ("--cmd", "norm", "--input", SYMBOL, "--space", SPACE),
    ("--cmd", "weights", "--space", SPACE),
    ("--cmd", "weights", "--space", "pow:p=2;expm1;table:@;log;const:1;table:@"),
    ("--cmd", "factorize", "--input", SYMBOL, "--space", SPACE),
    *(("--cmd", "verify", "--replay", f"{family}:seed=7:trial=3:support=16")
      for family in FAMILIES),
    ("--cmd", "selftest"),
], ids=["norm", "weights", "weights-table", "factorize",
        *(f"replay-{family}" for family in FAMILIES), "selftest"])
def test_csv_and_human_print_the_json_values(capsys, table_arg, argv):
    argv = [table_arg(arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    want = _flat(json.loads(out))
    assert want
    printed = {}
    for fmt in ("csv", "human"):
        fmt_code, printed[fmt], fmt_err = run(capsys, *argv, "--format", fmt)
        assert (fmt_code, fmt_err) == (code, err), fmt
    header, row = csv.reader(io.StringIO(printed["csv"]))
    assert len(row) == len(header)
    lines = printed["human"].splitlines()
    human = dict(line.split(": ", 1) for line in lines)
    assert len(human) == len(lines)

    for fields in (dict(zip(header, row)), human):
        assert fields.keys() == want.keys()
        for key, value in want.items():
            assert _prints(value, fields[key]), (key, value, fields[key])


def test_the_format_comparison_fails_on_a_change():
    """A last bit of a float, a bool printed in JSON's spelling, an int
    printed as a float, and a list with a moved entry each fail it."""
    assert _prints(0.1, "0.1") and _prints(True, "True") and _prints(3, "3")
    assert _prints([{"k": 0, "re": -0.0}], '[{"re": -0.0, "k": 0}]')
    for value, text in ((0.1, "0.10000000000000002"), (True, "true"), (3, "3.0"),
                        ([{"k": 0, "re": -0.0}], '[{"k": 0, "re": 0.0}]'),
                        ([1.5, 2.5], "[2.5, 1.5]")):
        assert not _prints(value, text)


WEIGHTS = ("pow:alpha=0", "pow:alpha=0.5", "pow:alpha=1", "pow:alpha=2", "pow:alpha=7.3",
           "log", "const:2.5", "table:@")
REPORTS = ("negative_scale", "negative_sum", "nonnegative_scale", "nonnegative_sum")


@pytest.mark.parametrize("support", [2, 3, 64, 1000])
@pytest.mark.parametrize("weight", WEIGHTS)
def test_weights_against_a_50_digit_recomputation(capsys, table_arg, weight, support):
    space = table_arg(";".join(["pow:p=1", "pow:p=1", *[weight] * 4]))
    code, out, err = run(capsys, "--cmd", "weights", "--space", space, "--support", str(support))
    assert err == "" and code in (0, 1)
    doc = json.loads(out)
    sp = AlgebraSpace.from_spec(space)
    for name, nu in zip(REPORTS, (sp.neg_scale, sp.neg_sum, sp.pos_scale, sp.pos_sum)):
        positive, nondecreasing, sup = mp_weight_conditions(nu, support)
        got = doc[name]
        assert (got["positive"], got["nondecreasing"]) == (positive, nondecreasing), name
        assert abs(got["empirical_sup"] - sup) <= 1e-14 * sup, (name, got["empirical_sup"], sup)


_UNIT_DISK = st.builds(cmath.rect, st.floats(0, 0.9), st.floats(-math.pi, math.pi))
_WEIGHT = st.one_of(st.floats(0.5, 4).map(lambda c: f"const:{c!r}"),
                    st.floats(0, 1).map(lambda alpha: f"pow:alpha={alpha!r}"))
TRUNC = 256


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a=_UNIT_DISK, c=_UNIT_DISK,
       g=st.builds(cmath.rect, st.floats(-3, 3).map(lambda e: 10.0 ** e),
                   st.floats(-math.pi, math.pi)),
       ps=st.lists(st.floats(1, 3), min_size=2, max_size=2),
       weights=st.lists(_WEIGHT, min_size=4, max_size=4))
def test_factorize_against_closed_form_factors(a, c, g, ps, weights):
    space = ";".join([f"pow:p={ps[0]!r}", f"pow:p={ps[1]!r}", *weights])
    b = {-1: -g * c, 0: g * (1 + a * c), 1: -g * a}
    symbol = json.dumps({"coeffs": [{"k": k, "re": v.real, "im": v.imag} for k, v in b.items()]})
    code, out, err = cli(("factorize", "--input", symbol, "--space", space,
                          "--grid", "1024", "--trunc", str(TRUNC)))
    assert (code, err) == (0, ""), (space, symbol, err)
    doc = json.loads(out)
    scalar = complex(doc["scalar"]["re"], doc["scalar"]["im"])
    assert abs(scalar - g) <= 1e-13 * abs(g), (scalar, g)

    exact = {"plus": LaurentPolynomial.from_dict({0: 1, 1: -a}),
             "minus": LaurentPolynomial.from_dict({0: 1, -1: -c}),
             "plus_inverse": geometric_inverse(a, +1, TRUNC),
             "minus_inverse": geometric_inverse(c, -1, TRUNC)}
    for name in ("plus", "minus"):
        printed = {e["k"]: complex(e["re"], e["im"]) for e in doc[name]["coeffs"]}
        for k in printed.keys() | set(range(-exact[name].n_max, exact[name].n_max + 1)):
            assert abs(printed.get(k, 0) - exact[name].coeff(k)) <= 1e-12, (name, k)

    sp = AlgebraSpace.from_spec(space)
    for name, f in exact.items():
        got = doc["membership"][name]
        neg, nonneg = split(f)
        want = {"wiener": math.fsum(abs(v) for v in f.coeffs.tolist()),
                "negative": weighted_lp_norm(neg, ps[0], sp.neg_scale, sp.neg_sum),
                "nonnegative": weighted_lp_norm(nonneg, ps[1], sp.pos_scale, sp.pos_sum)}
        assert abs(got["wiener"] - want["wiener"]) <= 1e-13 * want["wiener"], (name, got, want)
        scale = sum(want.values())
        for side in ("negative", "nonnegative"):
            assert abs(got[side] - want[side]) <= 1e-10 * scale, (name, side, got, want)
