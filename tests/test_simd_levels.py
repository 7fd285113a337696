"""The CLI's outputs at numpy's lower SIMD levels.

numpy picks its kernels for power, log, log1p, expm1 and exp by CPU at
import, and they can differ in the last bit.  Each command below runs in a
subprocess at the default level and again at each lower level, with
``NPY_DISABLE_CPU_FEATURES`` set for that child only: first numpy's AVX-512
kernels off, then its AVX2 kernels off too, as the CI step 'Goldens and raw
draws at lower SIMD levels' derives them.  numpy refuses to disable a
feature the CPU lacks, so a level names only the features that
``__cpu_features__`` reports, and a level with none of them is skipped.

Exit codes, stderr and JSON keys must be the same at every level, and so
must every bool, int and string and the length of every list: every
verdict, count, violation and fingerprint.  Every float must lie within
1e-12 relative, with two exceptions.  A residual (selftest's
``factorization_residual``, factorize's ``residual``) is a rounding residual
near 1e-15 that moved by 2e-2 relative at the baseline level on an AVX-512
host; it only has to stay within selftest's own gate, 1e-10.  A
factorization's coefficients must keep their set of indices k, and each
part of each coefficient must lie within 1e-14 of the largest modulus of
its factor, absolute: the smallest sit at the rounding floor, where their
sign can flip, while the largest move was 5.6e-17 of that modulus.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Each level turns off its features on top of the levels before it.
LEVELS = (("no-AVX-512", ("X86_V4", "AVX512_ICL", "AVX512_SPR")),
          ("no-AVX2", ("X86_V3",)))

# 2(1 - 0.5t)(1 - 0.3/t), whose winding number is 0
SYMBOL = json.dumps({"coeffs": [{"k": -1, "re": -0.6, "im": 0}, {"k": 0, "re": 2.3, "im": 0},
                                {"k": 1, "re": -1, "im": 0}]})

COMMANDS = (("verify", "--seed", "3", "--trials", "300", "--support", "20"),
            ("verify", "--seed", "7", "--trials", "200"),
            ("selftest",),
            ("factorize", "--input", SYMBOL, "--grid", "2048", "--trunc", "128"))

REL = 1e-12
RESIDUALS = ("factorization_residual", "residual")
RESIDUAL_GATE = 1e-10
COEFF_ABS = 1e-14


def _name(command) -> str:
    return " ".join(command).replace(SYMBOL, "2(1-0.5t)(1-0.3/t)")


def _env(disabled: str | None) -> dict:
    """The test's environment with the package on the path, and
    ``NPY_DISABLE_CPU_FEATURES`` removed, or set to ``disabled``."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return env


def _python(args, disabled=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_env(disabled), timeout=300)


@pytest.fixture(scope="module")
def levels() -> dict:
    """Level name -> the features it turns off on this CPU, as one string."""
    proc = _python(["-c", "import json; from numpy._core._multiarray_umath "
                          "import __cpu_features__ as have; print(json.dumps(have))"])
    assert proc.returncode == 0, proc.stderr
    have = json.loads(proc.stdout)
    off, named = [], {}
    for level, features in LEVELS:
        off += [f for f in features if have.get(f)]
        named[level] = " ".join(off)
    return named


@pytest.fixture(scope="module")
def run():
    """The CLI's (exit code, stdout, stderr) for a command at a level,
    each run once per module."""
    done = {}

    def at(command, disabled):
        if (command, disabled) not in done:
            proc = _python(["-m", "orlicz_wiener.cli", "--cmd", *command], disabled)
            done[command, disabled] = proc.returncode, proc.stdout, proc.stderr
        return done[command, disabled]
    return at


def _agree(want, got, key, where):
    """Equal structure, equal bools, ints and strings, and floats within
    ``REL``, residuals within the gate and coefficients within ``COEFF_ABS``
    of their factor's largest modulus; ``key`` is the innermost JSON key
    above the value."""
    if key == "coeffs":
        assert [c["k"] for c in got] == [c["k"] for c in want], where
        top = max(abs(complex(c["re"], c["im"])) for c in want)
        for a, b in zip(want, got):
            for part in ("re", "im"):
                assert abs(b[part] - a[part]) <= COEFF_ABS * top, (where, a["k"], part, a, b)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for k in want:
            _agree(want[k], got[k], k, f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(want, got)):
            _agree(a, b, key, f"{where}[{i}]")
    elif type(want) is float and key in RESIDUALS:
        assert type(got) is float and got <= RESIDUAL_GATE, (where, want, got)
    elif type(want) is float:
        assert type(got) is float, where
        assert got == want or abs(got - want) <= REL * max(abs(want), abs(got)), (where, want, got)
    else:
        assert type(got) is type(want) and got == want, (where, want, got)


@pytest.mark.parametrize("level", [name for name, _ in LEVELS])
@pytest.mark.parametrize("command", COMMANDS, ids=_name)
def test_outputs_agree_across_simd_levels(command, level, levels, run):
    if not levels[level]:
        pytest.skip(f"this CPU has none of the features that {level} turns off")
    want_code, want_out, want_err = run(command, None)
    code, out, err = run(command, levels[level])
    assert (code, err) == (want_code, want_err)
    assert want_code == 0 and want_err == ""
    _agree(json.loads(want_out), json.loads(out), None, command[0])


def test_the_comparison_fails_on_a_move():
    """The comparison itself: a float moved beyond 1e-12 relative, a
    changed count, a shorter list, a residual past the gate, a coefficient
    moved beyond 1e-14 of its factor's largest modulus or a changed set of
    indices fails it."""
    coeffs = [{"k": 0, "re": 1.0, "im": 0.0}, {"k": 1, "re": -0.5, "im": 1e-17}]
    doc = {"max_ratio": 0.5, "checks": 3, "violations": ["a"], "factorization_residual": 1e-15,
           "plus": {"coeffs": coeffs}}
    _agree(doc, dict(doc, max_ratio=0.5 * (1 + 1e-13)), None, "")
    _agree(doc, dict(doc, plus={"coeffs": [coeffs[0], dict(coeffs[1], re=-0.5 + 5e-15,
                                                           im=3e-17)]}), None, "")
    for moved in (dict(doc, max_ratio=0.5 * (1 + 1e-11)), dict(doc, checks=4),
                  dict(doc, violations=[]), dict(doc, factorization_residual=2e-10),
                  dict(doc, checks=3.0), dict(doc, checks=True),
                  dict(doc, plus={"coeffs": [coeffs[0], dict(coeffs[1], re=-0.5 + 2e-14)]}),
                  dict(doc, plus={"coeffs": [coeffs[0], dict(coeffs[1], k=2)]}),
                  dict(doc, plus={"coeffs": coeffs[:1]})):
        with pytest.raises(AssertionError):
            _agree(doc, moved, None, "")
