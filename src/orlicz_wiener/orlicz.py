"""Orlicz functions, weight sequences, modulars, and the Luxemburg norm.

A convex function together with two weight sequences generates a weighted
modular sequence space; its norm is the infimum of scales at which the
modular drops to 1.  Everything here operates on finite-support coefficient
arrays, so every modular is a finite sum.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidWeightError, SpecError

NEGATIVE_SIDE = "W-"  # index set {1, 2, ...}
NONNEGATIVE_SIDE = "W+"  # index set {0, 1, ...}

_ORLICZ_FAMILIES = ("pow", "expm1", "powlog")
_WEIGHT_FAMILIES = ("pow", "log", "const", "table")

# Luxemburg solver policy: the relative bracket width at which a solve
# stops, and the cap on narrowing steps.
DEFAULT_NORM_TOL = 1e-12
MAX_STEPS = 200


@dataclass(frozen=True)
class OrliczFunction:
    """A convex nondecreasing function on [0, inf) vanishing at 0.

    Families: ``pow`` is x^p (p >= 1), ``expm1`` is e^x - 1, ``powlog``
    is x^p * ln(1 + x) (p >= 1).
    """

    family: str
    p: float = 1.0

    def __post_init__(self):
        if self.family not in _ORLICZ_FAMILIES:
            raise SpecError(f"unknown Orlicz family {self.family!r}")
        if self.family in ("pow", "powlog") and not 1.0 <= self.p < math.inf:
            raise SpecError(
                f"family {self.family!r} requires a finite exponent p >= 1, got {self.p}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise DomainError("Orlicz functions are defined for x >= 0 only")
        with np.errstate(over="ignore"):
            if self.family == "pow":
                return x**self.p
            if self.family == "expm1":
                return np.expm1(x)
            return x**self.p * np.log1p(x)

    def spec(self) -> str:
        if self.family == "expm1":
            return "expm1"
        return f"{self.family}:p={self.p:g}"

    @classmethod
    def from_spec(cls, s: str) -> "OrliczFunction":
        s = s.strip()
        if s == "expm1":
            return cls("expm1")
        for fam in ("pow", "powlog"):
            prefix = fam + ":p="
            if s.startswith(prefix):
                try:
                    p = float(s[len(prefix):])
                except ValueError as exc:
                    raise SpecError(f"bad Orlicz spec {s!r}") from exc
                return cls(fam, p)
        raise SpecError(f"bad Orlicz spec {s!r}")


# The log weight's doubling constant, sup over n >= 1 of ln(e + 2n)/ln(e + n).
# Since ln(e + 2n) < ln 2 + ln(e + n), the ratio is below 1 + ln 2/ln(e + n),
# which is at most 1.2411 for n >= 15.  The ratio at n = 4 is 1.24523, so the
# supremum is a maximum over n < 15, and the scan of n = 1..63 finds it.
_LOG_SCAN = np.arange(1, 64, dtype=float)
_LOG_DELTA2 = float(np.max(np.log(np.e + 2 * _LOG_SCAN) / np.log(np.e + _LOG_SCAN)))


@dataclass(frozen=True)
class WeightSequence:
    """A positive sequence with a declared index class and doubling constant.

    Families: ``pow`` is (n+1)^alpha (alpha >= 0), ``log`` is ln(e+n),
    ``const`` is a constant c > 0, ``table`` is a finite table continued
    by its last value, with a user-supplied doubling constant.
    """

    family: str
    klass: str
    param: float = 0.0
    table: tuple = field(default=())
    table_delta2: float = 0.0

    def __post_init__(self):
        if self.family not in _WEIGHT_FAMILIES:
            raise SpecError(f"unknown weight family {self.family!r}")
        if self.klass not in (NEGATIVE_SIDE, NONNEGATIVE_SIDE):
            raise SpecError(f"unknown weight class {self.klass!r}")
        if self.family == "pow" and not 0 <= self.param < math.inf:
            raise SpecError(f"power weight requires a finite alpha >= 0, got {self.param}")
        if self.family == "const" and not 0 < self.param < math.inf:
            raise SpecError(f"constant weight requires a finite c > 0, got {self.param}")
        if self.family == "table":
            if len(self.table) == 0:
                raise SpecError("table weight requires at least one value")
            if not all(math.isfinite(v) for v in self.table):
                raise SpecError("table weight values must be finite")
            if min(self.table) <= 0:
                raise InvalidWeightError("table weight values must be positive")
            if not 1 <= self.table_delta2 < math.inf:
                raise SpecError("table weight requires a finite doubling constant >= 1")

    @property
    def start(self) -> int:
        """First index of the class's index set."""
        return 1 if self.klass == NEGATIVE_SIDE else 0

    def __call__(self, n):
        n = np.asarray(n, dtype=float)
        if np.any(n < self.start):
            raise DomainError(f"index below class start {self.start}")
        if self.family == "pow":
            return (n + 1.0) ** self.param
        if self.family == "log":
            return np.log(np.e + n)
        if self.family == "const":
            return np.full_like(n, self.param)
        vals = np.asarray(self.table, dtype=float)
        idx = np.minimum((n - self.start).astype(int), len(vals) - 1)
        return vals[idx]

    def delta2_constant(self) -> float:
        """The doubling constant: analytic for builtin families, validated
        against the table range for explicit weights.  Raises DomainError
        when the constant is not finite in double precision."""
        if self.family == "pow":
            try:
                return 2.0**self.param
            except OverflowError:
                raise DomainError(
                    f"doubling constant of {self.spec()} is not finite") from None
        if self.family == "const":
            return 1.0
        if self.family == "log":
            return _LOG_DELTA2
        n = np.arange(1, 2 * len(self.table) + 2)
        with np.errstate(over="ignore"):
            ratios = self(2 * n) / self(n)
        if np.max(ratios) > self.table_delta2 * (1 + 1e-12):
            raise InvalidWeightError(
                f"supplied doubling constant {self.table_delta2} violated: "
                f"observed ratio {np.max(ratios)}"
            )
        return self.table_delta2

    def spec(self) -> str:
        if self.family == "pow":
            return f"pow:alpha={self.param:g}"
        if self.family == "log":
            return "log"
        if self.family == "const":
            return f"const:{self.param:g}"
        return "table:<inline>"

    @classmethod
    def from_spec(cls, s: str, klass: str) -> "WeightSequence":
        s = s.strip()
        if s == "log":
            return cls("log", klass)
        if s.startswith("pow:alpha="):
            try:
                alpha = float(s[len("pow:alpha="):])
            except ValueError as exc:
                raise SpecError(f"bad weight spec {s!r}") from exc
            return cls("pow", klass, alpha)
        if s.startswith("const:"):
            try:
                c = float(s[len("const:"):])
            except ValueError as exc:
                raise SpecError(f"bad weight spec {s!r}") from exc
            return cls("const", klass, c)
        if s.startswith("table:"):
            path = s[len("table:"):]
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                raise SpecError(f"cannot read weight table {path!r}: {exc}") from exc
            if not isinstance(doc, dict) or set(doc) != {"values", "delta2"}:
                raise SpecError("weight table JSON must have exactly keys 'values' and 'delta2'")
            if not isinstance(doc["values"], list):
                raise SpecError("weight table 'values' must be a list of real numbers")
            return cls("table", klass, table=tuple(_table_real(v) for v in doc["values"]),
                       table_delta2=_table_real(doc["delta2"]))
        raise SpecError(f"bad weight spec {s!r}")


def _table_real(v) -> float:
    """A weight table's JSON number as a float; strings, bools, null and
    numbers beyond the double range are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"weight table entries must be real numbers, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise SpecError("weight table entry is beyond the double range") from exc


@dataclass
class WeightReport:
    """Outcome of checking the class conditions over a finite index range."""

    positive: bool
    nondecreasing: bool
    doubling: bool
    empirical_sup: float
    delta2_constant: float
    n_max: int

    @property
    def ok(self) -> bool:
        return self.positive and self.nondecreasing and self.doubling

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "positive": self.positive,
            "nondecreasing": self.nondecreasing,
            "doubling": self.doubling,
            "empirical_sup": self.empirical_sup,
            "delta2_constant": self.delta2_constant,
            "n_max": self.n_max,
        }


def validate_weight(nu: WeightSequence, n_max: int) -> WeightReport:
    """Check positivity, monotonicity, and the doubling condition for
    indices up to n_max.  Failures are reported, not raised; values or
    doubling ratios that are not finite in double precision raise
    DomainError."""
    if n_max < 2:
        raise DomainError("n_max must be at least 2")
    n = np.arange(nu.start, n_max + 1)
    m = np.arange(1, n_max // 2 + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = nu(n)
        sup = float(np.max(nu(2 * m) / nu(m)))
    if not (np.all(np.isfinite(vals)) and math.isfinite(sup)):
        raise DomainError(f"weight {nu.spec()} or its doubling ratios overflow "
                          f"up to index {n_max}")
    positive = bool(np.all(vals > 0))
    nondecreasing = bool(np.all(np.diff(vals) >= 0))
    try:
        c = nu.delta2_constant()
    except InvalidWeightError:
        c = nu.table_delta2
    doubling = sup <= c * (1 + 1e-12)
    return WeightReport(positive, nondecreasing, doubling, sup, c, n_max)


def _weighted(c: np.ndarray, phi: WeightSequence, w: WeightSequence):
    """(|c_n| phi_n, w_n) over the support of c: the parts of the modular
    that do not depend on the scale."""
    if phi.klass != w.klass:
        raise SpecError("argument and summand weights must share one index class")
    n = np.arange(phi.start, phi.start + c.size)
    with np.errstate(over="ignore"):
        return np.abs(c) * phi(n), w(n)


def modular(c, orlicz: OrliczFunction, phi: WeightSequence, w: WeightSequence,
            lam: float) -> float:
    """Sum of Phi(|c_n| phi_n / lam) w_n over the support of c.

    The entry c[i] sits at index start+i of the weights' index class.
    """
    if lam <= 0:
        raise DomainError("scale must be positive")
    c = np.asarray(c)
    if c.size == 0:
        return 0.0
    scaled, w_n = _weighted(c, phi, w)
    with np.errstate(over="ignore"):
        return float(np.sum(orlicz(scaled / lam) * w_n))


def _luxemburg_steps(ref: float, tol: float):
    """One Luxemburg solve as a coroutine: yields each scale lam, receives
    the modular there, and returns the final bracket (lo, hi), with the
    modular <= 1 at hi and > 1 at lo; (0.0, 0.0) when the modular stays
    <= 1 down to the smallest double.  ``ref`` is the largest weighted
    entry, where the bracketing starts."""
    m = yield ref
    if m <= 1:
        hi, m_hi = ref, m
        while True:
            lo = hi / 2
            if lo == 0:
                return 0.0, 0.0
            m_lo = yield lo
            if m_lo > 1:
                break
            hi, m_hi = lo, m_lo
    else:
        lo, m_lo = ref, m
        while True:
            hi = lo * 2
            if hi == math.inf:
                raise DomainError("failed to bracket the Luxemburg norm")
            m_hi = yield hi
            if m_hi <= 1:
                break
            lo, m_lo = hi, m_hi

    # Abscissae are log(lam/ref), which keeps them small and precise.
    x_lo, y_lo = math.log(lo / ref), _log(m_lo)
    x_hi, y_hi = math.log(hi / ref), _log(m_hi)
    last = 0  # side of the latest point: +1 upper end, -1 lower end
    for _ in range(MAX_STEPS):
        if hi - lo <= tol * hi:
            break
        x = 0.5 * (x_lo + x_hi)
        if math.isfinite(y_lo) and math.isfinite(y_hi) and y_lo > y_hi:
            x = x_hi - y_hi * (x_hi - x_lo) / (y_hi - y_lo)
        gap = 0.25 * tol * hi
        lam = min(max(ref * math.exp(x), lo + gap), hi - gap)
        m = yield lam
        y = _log(m)
        if m <= 1:
            if last > 0:
                y_lo *= _anderson_bjorck(y, y_hi)
            hi, x_hi, y_hi, last = lam, math.log(lam / ref), y, 1
        else:
            if last < 0:
                y_hi *= _anderson_bjorck(y, y_lo)
            lo, x_lo, y_lo, last = lam, math.log(lam / ref), y, -1
    return lo, hi


class _Batch:
    """The rows |c_n| phi_n and w_n of many solves, sorted by (Orlicz
    function, length) and zero-padded into matrices, so that every group
    (defined below) and every block of equal-length rows is a contiguous
    slice.

    ``order[j]`` is the position, in the rows given, of sorted row j.
    Rows are live until ``finish`` is called on them.
    """

    def __init__(self, rows):
        self.order = sorted(range(len(rows)), key=lambda i: (
            rows[i][0].family, rows[i][0].p, rows[i][1].size))
        self.lengths = [rows[i][1].size for i in self.order]
        if len(rows) == 1:  # nothing to pad: use the row's own arrays
            self.scaled, self.w = rows[0][1][None], rows[0][2][None]
        else:
            shape = (len(rows), max(self.lengths))
            self.scaled, self.w = np.zeros(shape), np.zeros(shape)
            for j, i in enumerate(self.order):
                self.scaled[j, :self.lengths[j]] = rows[i][1]
                self.w[j, :self.lengths[j]] = rows[i][2]
        self.done = [False] * len(rows)
        self.m = np.zeros(len(rows))
        # A group is the rows of one Orlicz function whose lengths lie in
        # one octave (2^(k-1), 2^k], so padding at most doubles the work.
        # Per group: [Orlicz function, first live row, last live row + 1,
        # blocks]; per block: [start, stop, length, live rows].
        self.groups = []
        for (orlicz, _), group in itertools.groupby(range(len(rows)), key=lambda j: (
                rows[self.order[j]][0], (self.lengths[j] - 1).bit_length())):
            group = list(group)
            blocks = []
            for length, block in itertools.groupby(group, key=self.lengths.__getitem__):
                block = list(block)
                blocks.append([block[0], block[-1] + 1, length, len(block)])
            self.groups.append([orlicz, group[0], group[-1] + 1, blocks])
        self.block_of = [block for *_, blocks in self.groups for block in blocks
                         for _ in range(block[0], block[1])]

    def finish(self, j: int):
        self.done[j] = True
        self.block_of[j][3] -= 1

    def modulars(self, lam: np.ndarray) -> np.ndarray:
        """The modular of each live row j at the scale lam[j]; other
        entries are stale.  Phi is evaluated once per group, on the span of
        its live rows.  Each block of equal-length rows is summed along
        its rows: that gives the bits of ``np.sum`` on each row alone, which
        a zero-padded row would not, because numpy's pairwise blocking
        depends on the length."""
        m = self.m
        for group in self.groups:
            orlicz, lo, hi, blocks = group
            while lo < hi and self.done[lo]:
                lo += 1
            while lo < hi and self.done[hi - 1]:
                hi -= 1
            group[1], group[2] = lo, hi
            if lo == hi:
                continue
            width = self.lengths[hi - 1]
            if hi - lo == 1:  # one live row: the 1-D arithmetic of ``modular``
                with np.errstate(over="ignore"):
                    m[lo] = np.add.reduce(orlicz(self.scaled[lo, :width] / lam[lo])
                                          * self.w[lo, :width])
                continue
            with np.errstate(over="ignore"):
                v = orlicz(self.scaled[lo:hi, :width] / lam[lo:hi, None]) * self.w[lo:hi, :width]
            for a, b, length, live in blocks:
                a, b = max(a, lo), min(b, hi)
                if live and a < b:
                    m[a:b] = np.add.reduce(v[a - lo:b - lo, :length], axis=1)
        return m


def _brackets(problems, tol: float) -> list:
    """The final bracket (lo, hi) of each (c, orlicz, phi, w) problem's
    Luxemburg solve, (0.0, 0.0) where the norm is 0.  Every live solve is
    stepped together: one batched modular evaluation per step."""
    if not 0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")
    brackets = [(0.0, 0.0)] * len(problems)
    rows, refs, where = [], [], []
    for i, (c, orlicz, phi, w) in enumerate(problems):
        c = np.asarray(c)
        if c.size == 0:
            continue
        scaled, w_n = _weighted(c, phi, w)
        if not (np.all(np.isfinite(scaled)) and np.all(np.isfinite(w_n))):
            raise DomainError("weighted coefficients and weights must be finite")
        ref = float(np.max(scaled))
        if ref > 0:
            rows.append((orlicz, scaled, w_n))
            refs.append(ref)
            where.append(i)
    if not rows:
        return brackets
    batch = _Batch(rows)
    steps = [_luxemburg_steps(refs[i], tol) for i in batch.order]
    lam = np.array([next(step) for step in steps])
    live = range(len(steps))
    while live:
        m = batch.modulars(lam).tolist()
        running = []
        for j in live:
            try:
                lam[j] = steps[j].send(m[j])
            except StopIteration as done:
                brackets[where[batch.order[j]]] = done.value
                batch.finish(j)
            else:
                running.append(j)
        live = running
    return brackets


def luxemburg_norms(problems, tol: float = DEFAULT_NORM_TOL) -> list[float]:
    """``luxemburg_norm`` of each (c, orlicz, phi, w) problem, bit for bit,
    with every solve stepped together (see ``luxemburg_norm``)."""
    return [hi for _, hi in _brackets(problems, tol)]


def luxemburg_norm(c, orlicz: OrliczFunction, phi: WeightSequence,
                   w: WeightSequence, tol: float = DEFAULT_NORM_TOL) -> float:
    """inf{lam > 0 : modular(c, ..., lam) <= 1} by bracketing and regula falsi.

    The solve is the coroutine ``_luxemburg_steps``, run as a batch of one
    by the loop that ``luxemburg_norms`` runs on many problems at once.
    That loop computes |c_n| phi_n and w_n once and evaluates the
    modular of each iterate on them, with the same bits as the public
    ``modular``.  The solve exponentially brackets the threshold starting
    from the scale of the largest weighted entry, halving or doubling until
    the scale leaves the range of doubles if need be, then narrows the
    bracket by regula falsi with the Anderson-Bjorck correction on
    (log lam, log modular), a relation that is exactly linear for the
    ``pow`` family.  Each new point lies at least tol/4 of the upper end
    inside the bracket, so a point on the root also closes the far side;
    the geometric midpoint stands in when a log-modular is not finite.
    It stops at relative width tol and returns the upper end, where the
    modular is <= 1.  Here both ends are also certified through the
    public ``modular`` (<= 1 at the upper end, > 1 at the lower end).
    """
    [(lo, hi)] = _brackets([(c, orlicz, phi, w)], tol)
    if hi > 0 and not modular(c, orlicz, phi, w, hi) <= 1 < modular(c, orlicz, phi, w, lo):
        raise RuntimeError("the Luxemburg bracket failed its certificate")
    return hi


def _log(m: float) -> float:
    """log of a modular value in [0, inf]."""
    if m == 0:
        return -math.inf
    return math.log(m) if m < math.inf else math.inf


def _anderson_bjorck(y: float, y_prev: float) -> float:
    """Weight on the stale end of the bracket after two points on one side."""
    scale = 1 - y / y_prev if y_prev else 0.0
    return scale if scale > 0 else 0.5
