"""The benchmark's three workloads: input generation from a seed, one
operation, and the independent check of its output.

A workload builds one *round* of items from the seed.  The runner repeats
the round, so every run attempts whole rounds of the same operations.  An
item counts `ops` operations: one CLI `verify` call of T trials counts T,
every other item counts 1.

The program is reached only through module attributes (`algebra.wnf_norm`,
`factorization.factorize`, `cli.main`), so a traced run that rebinds them
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import pickle
from dataclasses import dataclass

import numpy as np

from orlicz_wiener import algebra, cli, factorization, fourier, orlicz

import bench_checks as checks

ORLICZ_FAMILIES = ("pow", "expm1", "powlog")
WEIGHT_FAMILIES = ("pow", "log", "const", "table")


# ------------------------------------------------------------------ spaces

def stratified(rng: np.random.Generator, i: int, slot: int, lo: float, hi: float) -> float:
    """A value in [lo, hi) for item i: a low-discrepancy point set by the
    item and slot, moved by a seed-drawn jitter of a fifth of the range.
    Every round covers the whole range the same way, so the seed moves an
    item's cost only a little."""
    u = (0.6180339887 * i + 0.4142135624 * slot + 0.2 * rng.uniform()) % 1.0
    return lo + (hi - lo) * u


def _orlicz_params(rng: np.random.Generator, i: int, slot: int, family: str) -> tuple:
    # Exponents stay off 1 and 2, where numpy's power takes fast paths, so
    # an op's cost does not depend on which exponent the seed drew.
    return (family, 1.0 if family == "expm1" else stratified(rng, i, slot, 1.05, 2.95))


def _weight_params(rng: np.random.Generator, i: int, slot: int, family: str) -> tuple:
    if family == "pow":
        return ("pow", stratified(rng, i, slot, 0.05, 1.95), ())
    if family == "log":
        return ("log", 0.0, ())
    if family == "const":
        return ("const", stratified(rng, i, slot, 0.5, 2.0), ())
    length = int(rng.integers(8, 65))
    table = float(rng.uniform(0.5, 2.0)) * np.cumprod(1 + rng.uniform(0, 0.2, length))
    return ("table", 0.0, tuple(float(v) for v in table))


def make_space(rng: np.random.Generator, i: int) -> dict:
    """The benchmark's description of a space; the families cycle with the
    item index so that every round holds the same family mix whatever the
    seed, and the seed moves the parameters."""
    return {
        "neg_orlicz": _orlicz_params(rng, i, 0, ORLICZ_FAMILIES[i % 3]),
        "pos_orlicz": _orlicz_params(rng, i, 1, ORLICZ_FAMILIES[(i // 3) % 3]),
        "neg_scale": _weight_params(rng, i, 2, WEIGHT_FAMILIES[i % 4]),
        "neg_sum": _weight_params(rng, i, 3, WEIGHT_FAMILIES[(i + 1) % 4]),
        "pos_scale": _weight_params(rng, i, 4, WEIGHT_FAMILIES[(i + 2) % 4]),
        "pos_sum": _weight_params(rng, i, 5, WEIGHT_FAMILIES[(i + 3) % 4]),
    }


def _table_delta2(table: tuple, start: int) -> float:
    """max over n of w(2n)/w(n) on the range the program validates."""
    n = np.arange(1, 2 * len(table) + 2)
    w = ("table", 0.0, table)
    ratios = checks.weight_value(w, 2 * n, start) / checks.weight_value(w, n, start)
    return max(1.0, float(np.max(ratios)) * (1 + 1e-9))


def build_space(desc: dict) -> "algebra.AlgebraSpace":
    def orl(spec):
        family, p = spec
        return orlicz.OrliczFunction(family) if family == "expm1" else orlicz.OrliczFunction(family, p)

    def wt(spec, klass):
        family, param, table = spec
        if family == "table":
            start = 1 if klass == orlicz.NEGATIVE_SIDE else 0
            return orlicz.WeightSequence("table", klass, table=table,
                                         table_delta2=_table_delta2(table, start))
        return orlicz.WeightSequence(family, klass, param)

    neg, pos = orlicz.NEGATIVE_SIDE, orlicz.NONNEGATIVE_SIDE
    return algebra.AlgebraSpace(
        orl(desc["neg_orlicz"]), orl(desc["pos_orlicz"]),
        wt(desc["neg_scale"], neg), wt(desc["neg_sum"], neg),
        wt(desc["pos_scale"], pos), wt(desc["pos_sum"], pos),
    )


def _digest(obj) -> bytes:
    return pickle.dumps(obj, protocol=4)


# ------------------------------------------------------------------ verify

class Verify:
    """`verify` at its default family mix through the CLI, support 64."""

    name = "verify"
    kernel = "interp"
    SUPPORT = 64
    TRIALS = 25  # trials per CLI call; one op is one trial index
    CALLS = 6  # CLI calls per round, each with its own seed

    def make(self, seed: int) -> list:
        """The round: one CLI seed per call."""
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2**31, self.CALLS)]

    def argv(self, cli_seed: int, trials: int) -> list:
        return ["--cmd", "verify", "--support", str(self.SUPPORT),
                "--seed", str(cli_seed), "--trials", str(trials)]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def warmup(self, items):
        self.call(self.argv(items[0], 1))

    def run(self, item):
        return self.call(self.argv(item, self.TRIALS))

    def ops(self, item) -> int:
        return self.TRIALS

    def check(self, item, out) -> list:
        rc, text = out
        return checks.check_verify_report(rc, text, self.TRIALS)

    def digest(self, out) -> bytes:
        return _digest(out)


# --------------------------------------------------------------- factorize

@dataclass
class FactorItem:
    kind: str  # "exp" or "product"
    symbol: object  # LaurentPolynomial handed to the program
    coeffs: np.ndarray  # the benchmark's own copy of the symbol's coefficients
    band: int
    space: object  # AlgebraSpace handed to the program
    q: np.ndarray | None = None  # exp: log coefficients over -q_band..q_band
    q_band: int = 0
    scalar: complex = 0j  # product: G
    plus: np.ndarray | None = None  # product: coefficients of prod(1 - a_j t)
    minus: np.ndarray | None = None  # product: coefficients of prod(1 - b_j / t)


def _roots_poly(roots: np.ndarray) -> np.ndarray:
    """Coefficients of prod(1 - r_j x) in increasing powers of x."""
    p = np.ones(1, dtype=complex)
    for r in roots:
        p = np.convolve(p, [1.0, -r])
    return p


class Factorize:
    """`factorize(b, 2048, 128)` and `membership` on two kinds of symbol."""

    name = "factorize"
    kernel = "dense"
    GRID = 2048
    TRUNC = 128
    EXP_BAND = 320
    # Five band-320 exp(q) symbols and eleven short product symbols per
    # round: the median op is a product symbol and the 90th percentile an
    # exp(q) symbol, so neither percentile sits on the jump between kinds.
    EXP_PER_ROUND = 5
    PRODUCT_PER_ROUND = 11

    def _exp_item(self, rng, i):
        n = int(rng.integers(4, 9))
        q = rng.uniform(-0.3, 0.3, 2 * n + 1) + 1j * rng.uniform(-0.3, 0.3, 2 * n + 1)
        # the program's logarithm takes the principal argument at theta = 0
        q[n] -= 2j * np.pi * np.round(np.sum(q).imag / (2 * np.pi))
        k = np.arange(-n, n + 1)
        bins = np.zeros(self.GRID, dtype=complex)
        bins[k % self.GRID] = q
        vals = np.exp(np.fft.ifft(bins) * self.GRID)
        spec = np.fft.fft(vals) / self.GRID
        kb = np.arange(-self.EXP_BAND, self.EXP_BAND + 1)
        coeffs = spec[kb % self.GRID]
        desc = make_space(rng, i)
        return FactorItem("exp", fourier.LaurentPolynomial(coeffs.copy(), self.EXP_BAND),
                          coeffs, self.EXP_BAND, build_space(desc), q=q, q_band=n)

    def _product_item(self, rng, i):
        def roots(m):
            return 0.6 * rng.uniform(0, 1, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))

        plus = _roots_poly(roots(int(rng.integers(1, 17))))
        minus = _roots_poly(roots(int(rng.integers(1, 17))))
        scalar = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        mp, mm = len(plus) - 1, len(minus) - 1
        band = max(mp, mm)
        coeffs = np.zeros(2 * band + 1, dtype=complex)
        coeffs[band - mm: band + mp + 1] = scalar * np.convolve(minus[::-1], plus)
        desc = make_space(rng, i)
        return FactorItem("product", fourier.LaurentPolynomial(coeffs.copy(), band),
                          coeffs, band, build_space(desc), scalar=scalar,
                          plus=plus, minus=minus)

    def make(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        kinds = ["exp"] * self.EXP_PER_ROUND + ["product"] * self.PRODUCT_PER_ROUND
        return [self._exp_item(rng, i) if kind == "exp" else self._product_item(rng, i)
                for i, kind in enumerate(kinds)]

    def warmup(self, items):
        self.run(items[0])

    def run(self, item):
        res = factorization.factorize(item.symbol, self.GRID, self.TRUNC)
        return res, factorization.membership(res, item.space)

    def ops(self, item) -> int:
        return 1

    def check(self, item, out) -> list:
        res, norms = out
        problems = checks.check_one_sided(res)
        problems += checks.check_reconstruction(res, item.coeffs, item.band, self.GRID)
        problems += checks.check_membership(norms)
        if item.kind == "exp":
            problems += checks.check_log_coeffs(res, item.q, item.q_band)
        else:
            problems += checks.check_product_factors(res, item.scalar, item.plus, item.minus)
        return problems

    def digest(self, out) -> bytes:
        res, norms = out
        return _digest((res.scalar, res.residual, res.plus.coeffs, res.minus.coeffs,
                        res.log_coeffs.coeffs,
                        sorted((k, v.to_json()) for k, v in norms.items())))


# --------------------------------------------------------------- norm_long

@dataclass
class NormItem:
    symbol: object  # LaurentPolynomial handed to the program
    coeffs: np.ndarray
    n_max: int
    space: object
    desc: dict


class NormLong:
    """`wnf_norm` on long symbols: a few long Luxemburg solves per op."""

    name = "norm_long"
    kernel = "vector"
    MIN_SUPPORT = 4096
    MAX_SUPPORT = 32768
    PER_ROUND = 48

    def make(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        # A geometric ladder of supports fixes every round's make-up; the
        # seed draws the coefficients and the space parameters.
        ratio = self.MAX_SUPPORT / self.MIN_SUPPORT
        items = []
        for i in range(self.PER_ROUND):
            n = int(round(self.MIN_SUPPORT * ratio ** (i / (self.PER_ROUND - 1))))
            decay = (1.0 + np.abs(np.arange(-n, n + 1))) ** -stratified(rng, i, 6, 0, 1)
            coeffs = (rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)) * decay
            desc = make_space(rng, i)
            items.append(NormItem(fourier.LaurentPolynomial(coeffs.copy(), n), coeffs, n,
                                  build_space(desc), desc))
        return items

    def warmup(self, items):
        self.run(items[0])

    def run(self, item):
        return algebra.wnf_norm(item.symbol, item.space)

    def ops(self, item) -> int:
        return 1

    def check(self, item, out) -> list:
        return checks.check_norm(item.coeffs, item.n_max, item.desc, out)

    def digest(self, out) -> bytes:
        return _digest((out.wiener, out.negative, out.nonnegative))


WORKLOADS = {w.name: w for w in (Verify(), Factorize(), NormLong())}
