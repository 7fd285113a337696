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
"""

import csv
import io
import json

import pytest

from orlicz_wiener.algebra import AlgebraSpace
from orlicz_wiener.cli import main
from orlicz_wiener.harness import FAMILIES

from oracles import mp_weight_conditions

# 2(1 - 0.5t)(1 - 0.3/t), whose winding number is 0
SYMBOL = json.dumps({"coeffs": [{"k": -1, "re": -0.6, "im": 0}, {"k": 0, "re": 2.3, "im": 0},
                                {"k": 1, "re": -1, "im": 0}]})
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
