"""The combined absolute-sum / two-weighted-Orlicz norm, its algebra
constant, and brute-force checks of the inequalities behind it."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SpecError
from .fourier import LaurentPolynomial
from .orlicz import (
    NEGATIVE_SIDE,
    NONNEGATIVE_SIDE,
    DEFAULT_NORM_TOL,
    OrliczFunction,
    WeightSequence,
    luxemburg_brackets,
    luxemburg_norm,
)

INEQ_SLACK = 1e-9  # relative slack on norm inequalities (solver tolerance)
COEFF_SLACK = 1e-12  # slack on exact coefficient-level bounds


@dataclass
class AlgebraSpace:
    """The six ingredients of the combined norm and its derived constants.

    The negative side (coefficient indices k <= -1) uses ``neg_orlicz``
    with argument weight ``neg_scale`` and summand weight ``neg_sum``,
    both indexed from 1.  The nonnegative side (k >= 0) uses
    ``pos_orlicz`` / ``pos_scale`` / ``pos_sum``, indexed from 0.
    """

    neg_orlicz: OrliczFunction
    pos_orlicz: OrliczFunction
    neg_scale: WeightSequence
    neg_sum: WeightSequence
    pos_scale: WeightSequence
    pos_sum: WeightSequence

    def __post_init__(self):
        for wt in (self.neg_scale, self.neg_sum):
            if wt.klass != NEGATIVE_SIDE:
                raise SpecError("negative-side weights must be indexed from 1")
        for wt in (self.pos_scale, self.pos_sum):
            if wt.klass != NONNEGATIVE_SIDE:
                raise SpecError("nonnegative-side weights must be indexed from 0")

    def neg_constant(self) -> float:
        """(1 + C_sum) * C_scale for the negative side."""
        return (1 + self.neg_sum.delta2_constant()) * self.neg_scale.delta2_constant()

    def pos_constant(self) -> float:
        """(1 + C_sum) * C_scale for the nonnegative side."""
        return (1 + self.pos_sum.delta2_constant()) * self.pos_scale.delta2_constant()

    def algebra_constant(self) -> float:
        """1 + 2 * neg_constant + 2 * pos_constant."""
        return 1 + 2 * self.neg_constant() + 2 * self.pos_constant()

    def spec(self) -> str:
        parts = [self.neg_orlicz.spec(), self.pos_orlicz.spec(),
                 self.neg_scale.spec(), self.neg_sum.spec(),
                 self.pos_scale.spec(), self.pos_sum.spec()]
        return ";".join(parts)

    @classmethod
    def from_spec(cls, s: str) -> "AlgebraSpace":
        parts = s.split(";")
        if len(parts) != 6:
            raise SpecError("space spec needs six semicolon-separated fields")
        return cls(
            OrliczFunction.from_spec(parts[0]),
            OrliczFunction.from_spec(parts[1]),
            WeightSequence.from_spec(parts[2], NEGATIVE_SIDE),
            WeightSequence.from_spec(parts[3], NEGATIVE_SIDE),
            WeightSequence.from_spec(parts[4], NONNEGATIVE_SIDE),
            WeightSequence.from_spec(parts[5], NONNEGATIVE_SIDE),
        )


DEFAULT_SPACE_SPEC = "pow:p=1;pow:p=1;const:1;const:1;const:1;const:1"


@dataclass
class NormReport:
    """The three norm pieces and their sum.  The pieces may also be arrays,
    one entry per norm, as ``wnf_norm_arrays`` returns them."""

    wiener: float
    negative: float
    nonnegative: float

    @property
    def total(self) -> float:
        return self.wiener + self.negative + self.nonnegative

    def to_json(self) -> dict:
        return {**vars(self), "total": self.total}


class Checks(NamedTuple):
    """Many checked instances of one inequality lhs <= constant-scaled rhs,
    as arrays of one length; for a single instance, as scalars."""

    lhs: np.ndarray
    rhs: np.ndarray
    constant: np.ndarray
    holds: np.ndarray

    def to_json(self, fingerprints) -> list[dict]:
        """One row per instance, with the given fingerprint each.  The
        ratio is lhs/rhs, 0 when both sides vanish and null when it is not
        finite."""
        rows = []
        columns = (np.atleast_1d(a).tolist() for a in self)
        for (lhs, rhs, constant, holds), fp in zip(zip(*columns), fingerprints):
            ratio = lhs / rhs if rhs != 0 else 0.0 if lhs == 0 else math.inf
            rows.append({"lhs": lhs, "rhs": rhs, "constant": constant, "holds": holds,
                         "ratio": ratio if math.isfinite(ratio) else None,
                         "fingerprint": fp})
        return rows


def _one_sided_problems(mags: np.ndarray, sp: AlgebraSpace) -> list:
    """The (c, orlicz, phi, w) problems of the two one-sided norms of the
    polynomial whose coefficient moduli are ``mags``, as ``coeffs`` lays
    them out: c is a float view of mags, reversed on the negative side
    (c[i] is |f_{-(i+1)}|) and from the middle on the other (c[i] is
    |f_i|).  The moduli are taken of the whole contiguous array, never of
    a reversed complex view: ``np.abs`` of a strided complex array differs
    in the last bit from its contiguous copy's, and of a float it is exact,
    so the solver sees the bits of the moduli of copies of the two sides."""
    n = mags.size // 2
    return [(mags[:n][::-1], sp.neg_orlicz, sp.neg_scale, sp.neg_sum),
            (mags[n:], sp.pos_orlicz, sp.pos_scale, sp.pos_sum)]


def _finite(report: NormReport) -> NormReport:
    """The report, refused with DomainError where a total is not finite."""
    if not np.isfinite(report.total).all():
        raise DomainError("the combined norm is not finite in double precision")
    return report


def wnf_norm(f: LaurentPolynomial, sp: AlgebraSpace,
             tol: float = DEFAULT_NORM_TOL) -> NormReport:
    """Absolute-sum norm plus the two one-sided Luxemburg norms, all three
    from one array of the coefficient moduli."""
    mags = np.abs(f.coeffs)
    neg, nonneg = _one_sided_problems(mags, sp)
    negative, nonnegative = luxemburg_norm(*neg, tol), luxemburg_norm(*nonneg, tol)
    with np.errstate(over="ignore"):
        return _finite(NormReport(float(np.sum(mags)), negative, nonnegative))


def wnf_norm_arrays(pairs) -> NormReport:
    """``wnf_norm`` of each (f, sp) pair at its default tol, bit for bit, as
    one NormReport of arrays over the pairs.

    The coefficients of every f lie end to end, each f behind one zero, in
    one complex array, and one ``np.abs`` takes all their moduli: ``np.abs``
    of a contiguous complex array does not depend on an entry's position,
    so each f's moduli have the bits of its own ``np.abs``.  One
    ``np.add.reduceat`` from the zeros gives every absolute sum, each with
    the bits of ``np.sum`` of its moduli, and every one-sided norm comes
    from one batched solve of views of that array."""
    pairs = list(pairs)
    zero = np.zeros(1, dtype=complex)
    sizes = np.array([f.coeffs.size + 1 for f, _ in pairs], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    mags = np.abs(np.concatenate([a for f, _ in pairs for a in (zero, f.coeffs)] or [zero]))
    lams = np.array([hi for _, hi in luxemburg_brackets(
        [p for (f, sp), a in zip(pairs, starts.tolist())
         for p in _one_sided_problems(mags[a + 1:a + f.coeffs.size + 1], sp)])])
    with np.errstate(over="ignore"):
        return _finite(NormReport(np.add.reduceat(mags, starts), lams[0::2], lams[1::2]))


def _norm_checks(lhs, rhs, c) -> Checks:
    return Checks(lhs, rhs, c, lhs <= rhs * (1 + INEQ_SLACK))


def verify_theorem(nf: NormReport, ng: NormReport, nfg: NormReport, c) -> Checks:
    """|fg| <= c |f| |g| in the combined norm, for norm reports of f, g and
    fg and constants c that are all scalars or all arrays over trials."""
    with np.errstate(over="ignore"):
        return _norm_checks(nfg.total, c * nf.total * ng.total, c)


def verify_one_sided(nf: NormReport, ng: NormReport, nfg: NormReport,
                     c_neg, c_pos) -> tuple[Checks, Checks]:
    """The one-sided product bounds on the negative and on the nonnegative
    coefficient side, with constants c_neg and c_pos (see
    ``verify_theorem``)."""
    with np.errstate(over="ignore"):
        return (
            _norm_checks(nfg.negative,
                         c_neg * (nf.wiener * ng.negative + ng.wiener * nf.negative), c_neg),
            _norm_checks(nfg.nonnegative,
                         c_pos * (nf.wiener * ng.nonnegative + ng.wiener * nf.nonnegative),
                         c_pos),
        )


def verify_coefficient_bound(f: LaurentPolynomial, g: LaurentPolynomial) -> Checks:
    """The coefficient-level convolution majorant of |(fg)_{-k}| for
    k = 1..deg, then of |(fg)_k| for k = 0..deg, where deg = f.n_max + g.n_max.

    The majorant sums, over both orders (x, y) of the pair (f, g), a tail
    and a head sum:
      negative side:     sum_{j>=0} |x_j||y_{-k-j}| + sum_{j=1}^{k//2} |x_{-j}||y_{-k+j}|
      nonnegative side:  sum_{j>=1} |x_{-j}||y_{k+j}| + sum_{j=0}^{k//2} |x_j||y_{k-j}|
    At product index m, each term is |f_i||g_{m-i}| for one i.  For m >= 0
    the order (f, g) takes i < 0 and 0 <= i <= m/2, and (g, f) takes i > m
    and m/2 <= i <= m; for m < 0, (f, g) takes i >= 0 and m/2 <= i < 0, and
    (g, f) takes i <= m and m < i <= m/2.  Every i is taken once, except
    i = m/2 of an even m, which both head sums take.
    So the majorant is |f| * |g| plus |f_{m/2}||g_{m/2}| at every even m,
    which is nonzero only for |m/2| <= min(f.n_max, g.n_max).
    """
    deg, mid = f.n_max + g.n_max, min(f.n_max, g.n_max)
    prod = np.abs(np.convolve(f.coeffs, g.coeffs))  # |(fg)_m| at m + deg
    a, b = np.abs(f.coeffs), np.abs(g.coeffs)
    maj = np.convolve(a, b)
    maj[deg - 2 * mid:deg + 2 * mid + 1:2] += (a[f.n_max - mid:f.n_max + mid + 1]
                                                * b[g.n_max - mid:g.n_max + mid + 1])
    # Reversed in place, the entries of m < 0 run from m = -1 down to -deg.
    for v in (prod, maj):
        v[:deg] = v[:deg][::-1]
    return Checks(prod, maj, np.ones(len(prod)), prod <= maj + COEFF_SLACK * (1 + maj))


@dataclass
class ShiftReport:
    """Outcome of the shifted-index weight comparison scan."""

    k_max: int
    max_ratio: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok, **vars(self), "violations": self.violations[:10]}


def verify_weight_shift(nu: WeightSequence, k_max: int, twin: WeightSequence | None = None
                        ) -> ShiftReport | tuple[ShiftReport, ShiftReport]:
    """Check nu_k <= C nu_j for every j >= k - floor(k/2) up to k_max.

    The bound at k is C S_j, where S_j is the minimum of nu over j..k_max
    at j = ceil(k/2), so k = 2j - 1 and k = 2j share it, and j runs from
    the class start s to h = ceil(k_max/2).  One running minimum, in
    place, gives every S_j: it runs over S_h and then the values from
    h - 1 down to s.  Each pair is checked once, by the larger of its two
    values over C S_j: for a fixed divisor, rounded division is monotone
    in the numerator, so this is the pair's largest ratio, bit for bit,
    and ``max_ratio`` the largest of them.  Where it is at most 1, no value
    exceeds fl(C S_j (1 + 1e-12)), and the per-index comparison that finds
    the violations is skipped.  A value or a bound C S_j that is not
    finite in double precision raises DomainError.

    ``twin``, if given, must be nu's builtin family and parameter in the
    other index class; the pair (report of nu, report of twin) then comes
    from one scan of the W+ one of the two.  Both classes give a builtin
    weight the same value at every n >= 1 and the same C, so every S_j,
    bound and pair ratio for j >= 1 is the same double in both scans, and
    the W- report is that of rows j >= 1 of the W+ scan.  A pair that is
    not such a twin is refused with SpecError.
    """
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    if twin is not None and not (
            nu.family != "table" and nu.klass != twin.klass
            and replace(nu, klass=twin.klass) == twin):
        raise SpecError(f"{twin.klass}:{twin.spec()} is not the builtin twin of "
                        f"{nu.klass}:{nu.spec()}")
    scanned = nu if twin is None or nu.klass == NONNEGATIVE_SIDE else twin
    c, s, h = scanned.delta2_constant(), scanned.start, (k_max + 1) // 2
    with np.errstate(over="ignore"):
        vals = scanned(np.arange(s, k_max + 1, dtype=float))
        # Entry i of the running minimum is S_{h-i}; times C, read backward,
        # it is the bound of pair j at j - s.
        rmin = np.empty(h - s + 1)
        rmin[0] = vals[h - s:].min()
        rmin[1:] = vals[:h - s][::-1]
        np.minimum.accumulate(rmin, out=rmin)
        rmin *= c
        bound = rmin[::-1]
        # Row i holds the values at k = 2j - 1 and k = 2j for j = s + i,
        # and -inf where k lies outside s..k_max.
        flat = np.empty(2 * (h - s + 1))
        flat[:1 - s] = flat[1 - s + vals.size:] = -np.inf
        flat[1 - s:1 - s + vals.size] = vals
        pairs = flat.reshape(-1, 2)
        top = np.maximum(pairs[:, 0], pairs[:, 1])
        # No S_j exceeds S_h, and no value exceeds the largest top.
        if not (math.isfinite(bound[-1]) and math.isfinite(top.max())):
            raise DomainError(f"weight {nu.spec()} or its shift bounds overflow "
                              f"up to index {k_max}")
        ratios = np.divide(top, bound, out=top)
        if twin is None:
            return _shift_report(k_max, s, pairs, bound, ratios)
        # The W- report skips row j = 0, which only the W+ class has.
        return tuple(_shift_report(k_max, wt.start, pairs[wt.start:], bound[wt.start:],
                                   ratios[wt.start:]) for wt in (nu, twin))


def _shift_report(k_max: int, s: int, pairs: np.ndarray, bound: np.ndarray,
                  ratios: np.ndarray) -> ShiftReport:
    """The report of a scan's rows j = s, s + 1, ...: ``pairs`` holds the
    values at k = 2j - 1 and k = 2j, ``bound`` C S_j and ``ratios`` the
    larger value over the bound.  A bound within 1e-12 of the largest
    double has no finite slack, and no value exceeds it."""
    max_ratio = float(ratios.max())
    violations = []
    if max_ratio > 1:
        rows, cols = np.nonzero(pairs > (bound * (1 + 1e-12))[:, None])
        violations = [{"k": 2 * (s + i) - 1 + q, "value": float(pairs[i, q]),
                       "bound": float(bound[i])}
                      for i, q in zip(rows.tolist(), cols.tolist())]
    return ShiftReport(k_max, max_ratio, violations)


__all__ = [
    "AlgebraSpace", "NormReport", "ShiftReport", "Checks", "DEFAULT_SPACE_SPEC",
    "wnf_norm", "wnf_norm_arrays", "verify_theorem", "verify_one_sided",
    "verify_coefficient_bound", "verify_weight_shift",
]
