"""Randomized verification suites with replayable per-trial fingerprints.

Each trial is a pure function of (seed, trial index, support bound), so a
fingerprint string is enough to reproduce any witness exactly.  Trials are
drawn a chunk at a time; the one-sided norms of a whole chunk are solved
together, and each family's checks of the chunk are computed as arrays and
absorbed at once, in trial order, so the output never depends on the chunk
size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError
from .algebra import (
    AlgebraSpace,
    Checks,
    NormReport,
    ShiftReport,
    random_element,
    verify_coefficient_bound,
    verify_one_sided,
    verify_theorem,
    verify_weight_shift,
    wnf_norm_arrays,
)
from .orlicz import NEGATIVE_SIDE, NONNEGATIVE_SIDE, OrliczFunction, WeightSequence

# Sampling grids for the random space draw.
ORLICZ_EXPONENTS = (1.0, 1.5, 2.0, 3.0)
WEIGHT_EXPONENTS = (0.0, 0.5, 1.0, 2.0)

# Largest support bound a trial accepts.  Each factor has 2 * support + 1
# coefficients and their product is convolved directly.
MAX_SUPPORT = 1 << 16

# Budget of terms in one batched solve, which lays its rows end to end: a
# chunk holds as many trials as fit when each of their six one-sided sides
# has the longest possible length, 2 * support + 1 (at least one trial).
CHUNK_TERMS = 1 << 18

NORM_FAMILIES = ("theorem", "one_sided_negative", "one_sided_nonnegative")
FAMILIES = NORM_FAMILIES + ("coefficient_bound",)


# Every Orlicz function and weight a trial can draw, built once: a group per
# family, a member per exponent.  Trials share these objects, so a batched
# solve tells weights apart by identity (see ``orlicz._Batch``).
ORLICZ_GROUPS = (
    tuple(OrliczFunction("pow", p) for p in ORLICZ_EXPONENTS),
    (OrliczFunction("expm1"),),
    tuple(OrliczFunction("powlog", p) for p in ORLICZ_EXPONENTS),
)
WEIGHT_GROUPS = {
    klass: (tuple(WeightSequence("pow", klass, alpha) for alpha in WEIGHT_EXPONENTS),
            (WeightSequence("log", klass),),
            (WeightSequence("const", klass, 1.0),))
    for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE)
}


def _pick(rng: np.random.Generator, groups):
    """A group, then a member of it when it has more than one."""
    group = groups[rng.integers(len(groups))]
    return group[rng.integers(len(group))] if len(group) > 1 else group[0]


def draw_space(rng: np.random.Generator) -> AlgebraSpace:
    """A random six-tuple over the builtin family cross product."""
    neg, pos = WEIGHT_GROUPS[NEGATIVE_SIDE], WEIGHT_GROUPS[NONNEGATIVE_SIDE]
    return AlgebraSpace(_pick(rng, ORLICZ_GROUPS), _pick(rng, ORLICZ_GROUPS),
                        _pick(rng, neg), _pick(rng, neg), _pick(rng, pos), _pick(rng, pos))


def fingerprint(family: str, seed: int, trial: int, support: int) -> str:
    return f"{family}:seed={seed}:trial={trial}:support={support}"


def parse_fingerprint(fp: str):
    """(family, seed, trial, support) of a fingerprint in the one form that
    ``fingerprint`` writes; any other string is refused."""
    try:
        family, s, t, sup = fp.split(":")
        fields = (family, int(s.removeprefix("seed=")), int(t.removeprefix("trial=")),
                  int(sup.removeprefix("support=")))
    except (ValueError, AttributeError) as exc:
        raise SpecError(f"bad fingerprint {fp!r}") from exc
    if fingerprint(*fields) != fp:
        raise SpecError(f"bad fingerprint {fp!r}")
    return fields


def _check_trials(families, seed: int, trial: int, support: int):
    unknown = [fam for fam in families if fam not in FAMILIES]
    if unknown:
        raise SpecError(f"unknown suite family {unknown[0]!r}")
    if min(seed, trial, support) < 0:
        raise SpecError(f"seed, trial and support must be >= 0, got "
                        f"seed={seed}, trial={trial}, support={support}")
    if support > MAX_SUPPORT:
        raise SpecError(f"support must be <= {MAX_SUPPORT}, got {support}")


def _draw_trial(seed: int, trial: int, support: int):
    """The draw (space, f, g) of one trial; pure in (seed, trial, support)."""
    rng = np.random.default_rng([seed, trial])
    sp = draw_space(rng)
    sup_f = int(rng.integers(0, support + 1))
    sup_g = int(rng.integers(0, support + 1))
    return sp, random_element(sup_f, rng), random_element(sup_g, rng)


def _chunk_checks(families, drawn) -> dict[str, tuple[Checks, np.ndarray]]:
    """Every requested family's checks of a chunk of draws (trial, space,
    f, g), in trial order, each with the trial of every check.  The norm
    families share one norm report each of f, g and fg, and all of them
    come from one batched solve."""
    trial = np.array([t for t, *_ in drawn])
    checks = {}
    if not set(families).isdisjoint(NORM_FAMILIES):
        r = wnf_norm_arrays((h, sp) for _, sp, f, g in drawn for h in (f, g, f.multiply(g)))
        nf, ng, nfg = (NormReport(r.wiener[i::3], r.negative[i::3], r.nonnegative[i::3])
                       for i in range(3))
        spaces = [sp for _, sp, _, _ in drawn]
        neg, nonneg = verify_one_sided(nf, ng, nfg,
                                       np.array([sp.neg_constant() for sp in spaces]),
                                       np.array([sp.pos_constant() for sp in spaces]))
        theorem = verify_theorem(nf, ng, nfg, np.array([sp.algebra_constant() for sp in spaces]))
        checks.update(theorem=(theorem, trial), one_sided_negative=(neg, trial),
                      one_sided_nonnegative=(nonneg, trial))
    if "coefficient_bound" in families:
        per_trial = [verify_coefficient_bound(f, g) for _, _, f, g in drawn]
        checks["coefficient_bound"] = (Checks(*map(np.concatenate, zip(*per_trial))),
                                       np.repeat(trial, [len(c.lhs) for c in per_trial]))
    return {family: checks[family] for family in families}


def _run_trials(families, seed: int, trials: range, support: int):
    """Yield each chunk's ``_chunk_checks`` in trial order, a chunk holding
    at most CHUNK_TERMS terms."""
    chunk = max(1, CHUNK_TERMS // (6 * (2 * support + 1)))
    for lo in range(trials.start, trials.stop, chunk):
        yield _chunk_checks(families, [(t, *_draw_trial(seed, t, support))
                                       for t in range(lo, min(lo + chunk, trials.stop))])


def run_trial(families, seed: int, trial: int, support: int) -> dict[str, Checks]:
    """Run one trial of each of the given inequality families on a single
    draw of (space, f, g); deterministic in (seed, trial, support)."""
    _check_trials(families, seed, trial, support)
    by_family = next(_run_trials(families, seed, range(trial, trial + 1), support))
    return {family: checks for family, (checks, _) in by_family.items()}


@dataclass
class SuiteReport:
    """Merged outcome of one inequality family over many trials."""

    family: str
    trials: int
    checks: int = 0
    violations: list = field(default_factory=list)
    max_ratio: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def absorb(self, checks: Checks, trial: np.ndarray, seed: int, support: int):
        """Merge a chunk of this family's checks, check i from trial
        trial[i], in order: the count and the largest lhs/rhs over rhs > 0
        come from numpy, and only a violation becomes a JSON row, with its
        trial's fingerprint."""
        self.checks += len(checks.lhs)
        positive = checks.rhs > 0
        with np.errstate(over="ignore"):
            ratios = checks.lhs[positive] / checks.rhs[positive]
        self.max_ratio = float(np.fmax.reduce(ratios, initial=self.max_ratio))
        failed = np.flatnonzero(~checks.holds)
        violated = Checks(*(a[failed] for a in checks))
        self.violations += violated.to_json(
            [fingerprint(self.family, seed, t, support) for t in trial[failed].tolist()])

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "trials": self.trials,
            "checks": self.checks,
            "ok": self.ok,
            "max_ratio": self.max_ratio,
            "violations": self.violations[:10],
        }


def run_suite(families, trials: int, seed: int, support: int) -> dict[str, SuiteReport]:
    """Run the given families over the same trials, one draw per trial;
    results are absorbed in trial order."""
    if trials < 1:
        raise SpecError("trials must be >= 1")
    families = tuple(families)
    _check_trials(families, seed, 0, support)
    reports = {family: SuiteReport(family, trials) for family in families}
    for by_family in _run_trials(families, seed, range(trials), support):
        for family, (checks, trial) in by_family.items():
            reports[family].absorb(checks, trial, seed, support)
    return reports


def run_weight_shift_suite(k_max: int = 10_000) -> dict[str, ShiftReport]:
    """Shift-bound scan of every builtin weight on both sides, by ``<class>:<spec>``."""
    return {f"{klass}:{nu.spec()}": verify_weight_shift(nu, k_max)
            for klass, groups in WEIGHT_GROUPS.items() for group in groups for nu in group}


def replay(fp: str) -> Checks:
    """Re-run the single trial identified by a fingerprint."""
    family, seed, trial, support = parse_fingerprint(fp)
    return run_trial((family,), seed, trial, support)[family]
