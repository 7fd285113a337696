"""The goldens and the raw draws at numpy's lower SIMD levels.

numpy picks its kernels for power, log, log1p, expm1 and exp by CPU at
import, and they can differ in the last bit.  At each lower level a child
pytest reruns ``tests/test_golden.py`` and
``tests/test_algebra.py::TestRawDraw`` as they are, with
``NPY_DISABLE_CPU_FEATURES`` set for that child only: first numpy's AVX-512
kernels off, then its AVX2 kernels off too.  numpy refuses to disable a
feature the CPU lacks, so a level names only the features that
``__cpu_features__`` reports, and a level with none of them is skipped.

The goldens are the one cross-level check of the CLI's outputs, within the
bounds that ``tests/test_golden.py``'s docstring gives; on an AVX-512 host
they passed at all three levels.  The draw is integer arithmetic that must
keep the bits of the ``Generator`` draw at every level.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# Each level turns off its features on top of the levels before it.
LEVELS = (("no-AVX-512", ("X86_V4", "AVX512_ICL", "AVX512_SPR")),
          ("no-AVX2", ("X86_V3",)))

# The tests that pin outputs and bits, rerun at each lower level.
PINNED = ("tests/test_golden.py", "tests/test_algebra.py::TestRawDraw")


def _env(disabled: str | None) -> dict:
    """The test's environment with the package on the path, and
    ``NPY_DISABLE_CPU_FEATURES`` removed, or set to ``disabled``."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return env


@pytest.fixture(scope="module")
def levels() -> dict:
    """Level name -> the features it turns off on this CPU, as one string."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json; from numpy._core._multiarray_umath "
                               "import __cpu_features__ as have; print(json.dumps(have))"],
        capture_output=True, text=True, env=_env(None), timeout=300)
    assert proc.returncode == 0, proc.stderr
    have = json.loads(proc.stdout)
    off, named = [], {}
    for level, features in LEVELS:
        off += [f for f in features if have.get(f)]
        named[level] = " ".join(off)
    return named


@pytest.fixture(scope="module")
def pinned(levels) -> dict:
    """Level name -> (output, exit code) of a child pytest of ``PINNED`` at
    that level, for each level this CPU has.  The children run side by
    side: one at a time, they took 10 s of a 2-core host's wall time, and
    side by side 5.5 s."""
    procs = {level: subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_env(off), cwd=ROOT)
        for level, off in levels.items() if off}
    done = {}
    try:
        for level, proc in procs.items():
            done[level] = proc.communicate(timeout=300)[0], proc.returncode
    finally:
        for proc in procs.values():
            if proc.returncode is None:
                proc.kill()
                proc.communicate()
    return done


@pytest.mark.parametrize("level", [name for name, _ in LEVELS])
def test_goldens_and_raw_draws_pass_at_each_simd_level(level, levels, pinned):
    if not levels[level]:
        pytest.skip(f"this CPU has none of the features that {level} turns off")
    out, code = pinned[level]
    assert code == 0, out[-4000:]
