"""Orlicz functions, weight sequences, modulars, and the Luxemburg norm.

A convex function together with two weight sequences generates a weighted
modular sequence space; its norm is the infimum of scales at which the
modular drops to 1.  Everything here operates on finite-support coefficient
arrays, so every modular is a finite sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, InvalidWeightError, SpecError, json_real, read_json

NEGATIVE_SIDE = "W-"  # index set {1, 2, ...}
NONNEGATIVE_SIDE = "W+"  # index set {0, 1, ...}

_ORLICZ_FAMILIES = ("pow", "expm1", "powlog")
_WEIGHT_FAMILIES = ("pow", "log", "const", "table")

# Luxemburg solver policy: the relative bracket width at which a solve
# stops, and the cap on narrowing steps.
DEFAULT_NORM_TOL = 1e-12
MAX_STEPS = 200


def _number(s: str, prefix: str, what: str) -> float:
    """The number after ``prefix`` in the spec s; a bad ``what`` spec if
    it does not parse."""
    try:
        return float(s[len(prefix):])
    except ValueError as exc:
        raise SpecError(f"bad {what} spec {s!r}") from exc


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
            return self._at(x)

    def _at(self, x: np.ndarray) -> np.ndarray:
        """The function at an array x >= 0, with neither the sign check nor
        an overflow policy of its own: the batched solver's arguments
        |c_n| phi_n / lam are nonnegative by construction."""
        if self.family == "pow":
            return x**self.p
        if self.family == "expm1":
            return np.expm1(x)
        return x**self.p * np.log1p(x)

    @property
    def _growth(self) -> tuple:
        """(q, L, U) with L (y/x)^q <= Phi(y)/Phi(x) <= U (y/x)^q for
        0 < y <= x <= 1.  Write Phi(x) = x^q g(x): for ``pow``, g = 1; for
        ``powlog``, q = p + 1 and g(x) = log1p(x)/x falls from 1 to ln 2 on
        (0, 1], so g(y)/g(x) lies in [1, 1/ln 2]; for ``expm1``, q = 1 and
        g(x) = expm1(x)/x rises from 1 to e - 1, so g(y)/g(x) lies in
        [1/(e - 1), 1].  The constants are rounded outward."""
        if self.family == "pow":
            return self.p, 1.0, 1.0
        if self.family == "expm1":
            return 1.0, 0.5819767, 1.0
        return self.p + 1, 1.0, 1.4426951

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
                return cls(fam, _number(s, prefix, "Orlicz"))
        raise SpecError(f"bad Orlicz spec {s!r}")


# The log weight's doubling constant, sup over n >= 1 of ln(e + 2n)/ln(e + n).
# Since ln(e + 2n) < ln 2 + ln(e + n), the ratio is below 1 + ln 2/ln(e + n),
# which is at most 1.2411 for n >= 15.  The ratio at n = 4 is 1.24523, so the
# supremum is a maximum over n < 15, and the scan of n = 1..63 finds it.
_LOG_SCAN = np.arange(1, 64, dtype=float)
_LOG_DELTA2 = float(np.max(np.log(np.e + 2 * _LOG_SCAN) / np.log(np.e + _LOG_SCAN)))

# The smallest constant or table weight, 2^-1022.  Every Phi here has
# Phi(x) >= x for x >= e - 1, so with every summand weight at least this,
# the modular exceeds 1 wherever an argument |c_n| phi_n / lam overflows,
# and the crossing lies where the arguments stay finite.  Below it, the
# bracketing would close on that overflow instead of on the crossing.
MIN_WEIGHT = float(np.finfo(float).tiny)


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
        if self.family == "const" and not MIN_WEIGHT <= self.param < math.inf:
            raise SpecError(
                f"constant weight requires a finite c >= {MIN_WEIGHT!r}, got {self.param}")
        if self.family == "table":
            if len(self.table) == 0:
                raise SpecError("table weight requires at least one value")
            if not all(math.isfinite(v) for v in self.table):
                raise SpecError("table weight values must be finite")
            if min(self.table) < MIN_WEIGHT:
                raise InvalidWeightError(f"table weight values must be >= {MIN_WEIGHT!r}")
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
        # A table is constant past its last value, so every doubling ratio
        # beyond this range is 1.
        report = validate_weight(self, 2 * len(self.table) + 2)
        if not report.doubling:
            raise InvalidWeightError(
                f"supplied doubling constant {self.table_delta2} violated: "
                f"observed ratio {report.empirical_sup}")
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
            return cls("pow", klass, _number(s, "pow:alpha=", "weight"))
        if s.startswith("const:"):
            return cls("const", klass, _number(s, "const:", "weight"))
        if s.startswith("table:"):
            path = s[len("table:"):]
            doc = read_json(Path(path), f"weight table {path!r}")
            if not isinstance(doc, dict) or set(doc) != {"values", "delta2"}:
                raise SpecError("weight table JSON must have exactly keys 'values' and 'delta2'")
            if not isinstance(doc["values"], list):
                raise SpecError("weight table 'values' must be a list of real numbers")
            return cls("table", klass,
                       table=tuple(json_real(v, "weight table entry") for v in doc["values"]),
                       table_delta2=json_real(doc["delta2"], "weight table 'delta2'"))
        raise SpecError(f"bad weight spec {s!r}")


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
        return {"ok": self.ok, **vars(self)}


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
    # A table's declared constant is what the doubling check tests: a
    # failing one is reported, where delta2_constant() would raise.
    c = nu.table_delta2 if nu.family == "table" else nu.delta2_constant()
    doubling = sup <= c * (1 + 1e-12)
    return WeightReport(positive, nondecreasing, doubling, sup, c, n_max)


def _check_class(phi: WeightSequence, w: WeightSequence):
    if phi.klass != w.klass:
        raise SpecError("argument and summand weights must share one index class")


def modular(c, orlicz: OrliczFunction, phi: WeightSequence, w: WeightSequence,
            lam: float) -> float:
    """Sum of Phi(|c_n| phi_n / lam) w_n over the support of c.

    The entry c[i] sits at index start+i of the weights' index class.  The
    sum may be inf; a nan one, from a nan coefficient or an infinite
    weight that meets a zero, is refused.
    """
    if not lam > 0:
        raise DomainError("scale must be positive")
    c = np.asarray(c)
    if c.size == 0:
        return 0.0
    _check_class(phi, w)
    n = np.arange(phi.start, phi.start + c.size)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(orlicz(np.abs(c) * phi(n) / lam) * w(n)))
    if math.isnan(total):
        raise DomainError("weighted coefficients and weights must be finite")
    return total


def _bracket(ref: float, growth: tuple):
    """The bracketing phase of a Luxemburg solve, in the protocol of
    ``_luxemburg_steps``: returns the consecutive scales lo and hi = 2 lo
    of the sequence ref * 2^k between which the modular crosses 1, with
    their modulars, as (lo, m_lo, hi, m_hi); None when the modular stays
    <= 1 down to the smallest double.

    One bound per direction.  Where the modular m at ref is > 1 it
    doubles: every argument |c_n| phi_n / lam then lies in [0, 1], where
    the family's ``growth`` (q, L, U) puts m(ref * 2^k) between
    L m 2^(-kq) and U m 2^(-kq), so the crossing lies in the window from
    ceil(log2(m L)/q) to ceil(log2(m U)/q), at most two indices wide and
    never beyond convexity's ceil(log2 m), or anywhere if m = inf.  It
    probes the window's top and the index before it, then bisects: at
    most 4 modulars with the one at ref.  Where m <= 1 it halves:
    convexity with Phi(0) = 0 gives Phi(x/s) <= Phi(x)/s for s >= 1, so
    it bisects over the floor(log2(1/m)) + 1 halvings within which the
    modular exceeds 1.  Each probe is an exact ref * 2^(+-k) among the
    normal doubles.  Each halving or doubling moves the modular by a
    factor of at least 2, far beyond rounding, so the bracket is the one a
    halve-or-double scan from ref finds: where rounding or the end of the
    doubles leaves the farthest probe short of the crossing, that scan
    goes on from it, and where rounding puts the low probe past the
    crossing, bisection goes on between ref and that probe."""
    m = yield ref
    below = m <= 1
    e_ref = math.frexp(ref)[1]
    # far: the bound, cut where ref * 2^(+-far) would leave the normal
    # doubles (math.ldexp raises OverflowError past the top).  Doubling,
    # the modular is > 1 up to index near and <= 1 from index far on.
    near = 0
    if below:
        frac, e = math.frexp(m)  # m = frac * 2^e, frac in [0.5, 1) if m > 0
        sign, far = -1, min(1 - e + (frac == 0.5), e_ref + 1021)
    else:
        sign, far = 1, 1024 - e_ref
        if m < math.inf:
            q, low, high = growth
            log_m = math.log2(m)
            near = math.ceil((log_m + math.log2(low)) / q) - 1
            far = min(math.ceil((log_m + math.log2(high)) / q), far)
    # (k, lam, m) is the farthest point on the side of ref, (far, nxt, m_nxt)
    # the nearest known beyond it, if any.
    k, lam, nxt, m_nxt = 0, ref, ref, m
    if far > 0:
        nxt = math.ldexp(ref, sign * far)
        m_nxt = yield nxt
    while (m_nxt <= 1) != below and far - k > 1:
        mid = near if k < near < far else (k + far) // 2
        probe = math.ldexp(ref, sign * mid)
        m_probe = yield probe
        if (m_probe <= 1) == below:
            k, lam, m = mid, probe, m_probe
        else:
            far, nxt, m_nxt = mid, probe, m_probe
    step, limit = (0.5, 0.0) if below else (2.0, math.inf)
    while (m_nxt <= 1) == below:
        lam, m = nxt, m_nxt
        nxt = lam * step
        if nxt == limit:
            if below:
                return None
            raise DomainError("failed to bracket the Luxemburg norm")
        m_nxt = yield nxt
    return (nxt, m_nxt, lam, m) if below else (lam, m, nxt, m_nxt)


def _luxemburg_steps(ref: float, tol: float, growth: tuple):
    """One Luxemburg solve as a coroutine: yields each scale lam, receives
    the modular there, and returns the final bracket (lo, hi), with the
    modular <= 1 at hi and > 1 at lo; (0.0, 0.0) when the modular stays
    <= 1 down to the smallest double.  ``ref`` is the largest weighted
    entry, where ``_bracket`` starts, and ``growth`` the Orlicz function's
    ``_growth``, from which it predicts its bracket; regula falsi then
    narrows that bracket."""
    ends = yield from _bracket(ref, growth)
    if ends is None:
        return 0.0, 0.0
    lo, m_lo, hi, m_hi = ends

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


def _end_to_end(arrays) -> np.ndarray:
    """The arrays laid end to end in one 1-D array, each led by one zero."""
    lead = np.zeros(1)
    return np.concatenate([x for a in arrays for x in (lead, a)])


class _Batch:
    """The rows |c_n| phi_n and w_n of many solves, laid end to end in two
    flat arrays, sorted by Orlicz function, with one zero before each row.

    ``np.add.reduceat`` sums a segment as its first entry plus numpy's
    pairwise sum of the rest, so from a row's leading zero it returns the
    bits of ``np.sum`` on that row alone, whatever the row's length: one
    call sums every row of the batch.

    ``order[j]`` is the position, in the problems given, of sorted row j,
    ``starts[j]`` the position of its leading zero, ``sizes[j]`` its length
    with that zero, and ``refs[j]`` its largest weighted entry.  ``spans``
    holds, per Orlicz function, the function and its flat span a:b, and
    ``x`` the arguments and then the values of Phi during a step.  A batch
    of one, such as a serial solve, is laid out and stepped as any other.
    """

    def __init__(self, problems):
        """``problems`` holds (c, orlicz, phi, w) with c an array, possibly
        empty, and phi, w of one index class where c is nonempty."""
        self.order = sorted(range(len(problems)), key=lambda i: (
            problems[i][1].family, problems[i][1].p))
        rows = [problems[i] for i in self.order]
        self.sizes = np.array([c.size + 1 for c, *_ in rows])
        self.starts = np.cumsum(self.sizes) - self.sizes
        # Each weight object is evaluated once, over the longest row that
        # uses it, and its rows take prefixes: no weight is evaluated at an
        # index that no row reaches, so no batch refuses an overflow that
        # the serial solves of its rows would not.  Weights are told apart
        # by identity; the suites draw theirs from one table of prebuilt
        # weights.
        reach = {}  # id(nu) -> (nu, the length of its longest row)
        for c, _, phi, w in rows:
            for nu in (phi, w):
                reach[id(nu)] = nu, max(reach.get(id(nu), (nu, 0))[1], c.size)
        # An infinite weight times a zero coefficient is nan: refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            values = {key: nu(np.arange(nu.start, nu.start + n)) for key, (nu, n) in reach.items()}
            self.scaled = _end_to_end(np.abs(c) * values[id(phi)][:c.size]
                                      for c, _, phi, _ in rows)
        self.w = _end_to_end(values[id(w)][:c.size] for c, _, _, w in rows)
        if not (np.isfinite(self.scaled).all() and np.isfinite(self.w).all()):
            raise DomainError("weighted coefficients and weights must be finite")
        # Exact: every entry is >= 0, so a leading zero never wins.
        self.refs = np.maximum.reduceat(self.scaled, self.starts).tolist()
        # Allocated once: a default verify chunk that allocated the arguments
        # and the values of Phi afresh at every step page-faulted both in
        # again each time, and its steps took twice as long.
        self.x = np.empty_like(self.scaled)
        ends = (self.starts + self.sizes).tolist()
        self.spans = []
        for orlicz, group in itertools.groupby(range(len(rows)), key=lambda j: rows[j][1]):
            group = list(group)
            self.spans.append((orlicz, int(self.starts[group[0]]), ends[group[-1]]))

    def modulars(self, lam: np.ndarray) -> np.ndarray:
        """The modular of each row j at the scale lam[j], in one pass over
        the flat arrays: one division by the rows' scales, each repeated
        over its row, Phi once per Orlicz function into its span of ``x``,
        one product with w and one ``np.add.reduceat`` over every row."""
        x = self.x
        with np.errstate(over="ignore"):
            np.divide(self.scaled, np.repeat(lam, self.sizes), out=x)
            # Each span's values of Phi overwrite its arguments.
            for orlicz, a, b in self.spans:
                x[a:b] = orlicz._at(x[a:b])
            x *= self.w
            return np.add.reduceat(x, self.starts)


def _brackets(problems, tol: float) -> list:
    """The final bracket (lo, hi) of each (c, orlicz, phi, w) problem's
    Luxemburg solve, (0.0, 0.0) where the norm is 0.  Every live solve is
    stepped together: one batched modular evaluation per step."""
    if not 0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")
    problems = [(np.asarray(c), *rest) for c, *rest in problems]
    for c, _, phi, w in problems:
        if c.size:
            _check_class(phi, w)
    brackets = [(0.0, 0.0)] * len(problems)
    if not problems:
        return brackets
    batch = _Batch(problems)
    # An empty row or a row whose entries are all zero has norm 0 and is
    # never stepped; its scale stays 1 so that its arithmetic stays finite.
    # Finished rows stay in the flat arrays and keep their last scale.
    live, lam = {}, np.ones(len(problems))  # sorted row -> its running solve
    for j, ref in enumerate(batch.refs):
        if ref > 0:
            live[j] = _luxemburg_steps(ref, tol, problems[batch.order[j]][1]._growth)
            lam[j] = next(live[j])
    while live:
        m = batch.modulars(lam).tolist()
        for j, solve in list(live.items()):
            try:
                lam[j] = solve.send(m[j])
            except StopIteration as done:
                brackets[batch.order[j]] = done.value
                del live[j]
    return brackets


def luxemburg_norms(problems) -> list[float]:
    """``luxemburg_norm`` of each (c, orlicz, phi, w) problem at the default
    tol, bit for bit, with every solve stepped together (see
    ``luxemburg_norm``)."""
    return [hi for _, hi in _brackets(problems, DEFAULT_NORM_TOL)]


def luxemburg_norm(c, orlicz: OrliczFunction, phi: WeightSequence,
                   w: WeightSequence, tol: float = DEFAULT_NORM_TOL) -> float:
    """inf{lam > 0 : modular(c, ..., lam) <= 1} by bracketing and regula falsi.

    The solve is the coroutine ``_luxemburg_steps``, run as a batch of one
    by the loop that ``luxemburg_norms`` runs on many problems at once.
    That loop computes |c_n| phi_n and w_n once, lays them end to end
    behind one zero (see ``_Batch``) and evaluates the modular of each
    iterate on them, with the same bits as the public ``modular``.  The
    solve brackets the threshold between consecutive scales ref * 2^k,
    from the scale ref of the largest weighted entry, with one bound per
    direction: doubling, within the window of at most two steps that the
    Orlicz family's growth puts the crossing in; halving, by bisection
    over the steps within which convexity puts it.  Where rounding or the
    ends of the doubles defeat that bound, it halves or doubles on, or
    bisects back toward ref (see ``_bracket``).  It then narrows the
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
