"""Randomized verification suites with replayable per-trial fingerprints.

Each trial is a pure function of (seed, trial index, support bound), so a
fingerprint string is enough to reproduce any witness exactly.  Trials are
drawn a chunk at a time and the one-sided norms of a whole chunk are solved
together; witnesses are built and absorbed in trial order, so the output
never depends on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError
from .algebra import (
    AlgebraSpace,
    InequalityWitness,
    random_element,
    verify_coefficient_bound,
    verify_one_sided,
    verify_theorem,
    verify_weight_shift,
    wnf_norms,
)
from .orlicz import NEGATIVE_SIDE, NONNEGATIVE_SIDE, OrliczFunction, WeightSequence

# Sampling grids for the random space draw.
ORLICZ_EXPONENTS = (1.0, 1.5, 2.0, 3.0)
WEIGHT_EXPONENTS = (0.0, 0.5, 1.0, 2.0)

# Largest support bound a trial accepts.  Each factor has 2 * support + 1
# coefficients and their product is convolved directly.
MAX_SUPPORT = 1 << 16

# Budget of padded terms in one batched solve: a chunk holds as many trials
# as fit when each of their six one-sided sides has the longest possible
# length, 2 * support + 1 (at least one trial).
CHUNK_TERMS = 1 << 18

NORM_FAMILIES = ("theorem", "one_sided_negative", "one_sided_nonnegative")
FAMILIES = NORM_FAMILIES + ("coefficient_bound",)


def _draw_orlicz(rng: np.random.Generator) -> OrliczFunction:
    fam = ("pow", "expm1", "powlog")[rng.integers(3)]
    if fam == "expm1":
        return OrliczFunction("expm1")
    return OrliczFunction(fam, ORLICZ_EXPONENTS[rng.integers(len(ORLICZ_EXPONENTS))])


def _draw_weight(rng: np.random.Generator, klass: str) -> WeightSequence:
    fam = ("pow", "log", "const")[rng.integers(3)]
    if fam == "pow":
        alpha = WEIGHT_EXPONENTS[rng.integers(len(WEIGHT_EXPONENTS))]
        return WeightSequence("pow", klass, alpha)
    if fam == "log":
        return WeightSequence("log", klass)
    return WeightSequence("const", klass, 1.0)


def draw_space(rng: np.random.Generator) -> AlgebraSpace:
    """A random six-tuple over the builtin family cross product."""
    return AlgebraSpace(
        _draw_orlicz(rng),
        _draw_orlicz(rng),
        _draw_weight(rng, NEGATIVE_SIDE),
        _draw_weight(rng, NEGATIVE_SIDE),
        _draw_weight(rng, NONNEGATIVE_SIDE),
        _draw_weight(rng, NONNEGATIVE_SIDE),
    )


def fingerprint(family: str, seed: int, trial: int, support: int) -> str:
    return f"{family}:seed={seed}:trial={trial}:support={support}"


def parse_fingerprint(fp: str):
    try:
        family, s, t, sup = fp.split(":")
        seed = int(s.removeprefix("seed="))
        trial = int(t.removeprefix("trial="))
        support = int(sup.removeprefix("support="))
    except (ValueError, AttributeError) as exc:
        raise SpecError(f"bad fingerprint {fp!r}") from exc
    if family not in FAMILIES:
        raise SpecError(f"unknown suite family {family!r}")
    return family, seed, trial, support


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


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
    rng = _trial_rng(seed, trial)
    sp = draw_space(rng)
    sup_f = int(rng.integers(0, support + 1))
    sup_g = int(rng.integers(0, support + 1))
    return sp, random_element(sup_f, rng), random_element(sup_g, rng)


def _witnesses(families, sp, f, g, norms) -> dict[str, list[InequalityWitness]]:
    """Every requested family's witnesses of one draw, given the norm
    reports (f, g, fg) when a norm family is requested."""
    witnesses = {}
    if norms is not None:
        neg, nonneg = verify_one_sided(*norms, sp)
        witnesses.update(theorem=[verify_theorem(*norms, sp)],
                         one_sided_negative=[neg], one_sided_nonnegative=[nonneg])
    if "coefficient_bound" in families:
        witnesses["coefficient_bound"] = verify_coefficient_bound(f, g)
    return {family: witnesses[family] for family in families}


def _run_trials(families, seed: int, trials: range, support: int):
    """Yield each trial's witnesses in trial order.  The norm families
    share one norm report each of f, g and fg; all of a chunk's reports
    come from one batched solve, a chunk holding at most CHUNK_TERMS
    padded terms."""
    solve = not set(families).isdisjoint(NORM_FAMILIES)
    chunk = max(1, CHUNK_TERMS // (6 * (2 * support + 1)))
    for lo in range(trials.start, trials.stop, chunk):
        drawn = [(t, *_draw_trial(seed, t, support))
                 for t in range(lo, min(lo + chunk, trials.stop))]
        norms = [None] * len(drawn)
        if solve:
            reports = wnf_norms((h, sp) for _, sp, f, g in drawn for h in (f, g, f.multiply(g)))
            norms = [reports[3 * i:3 * i + 3] for i in range(len(drawn))]
        for (t, sp, f, g), n in zip(drawn, norms):
            by_family = _witnesses(families, sp, f, g, n)
            for family, witnesses in by_family.items():
                fp = fingerprint(family, seed, t, support)
                for w in witnesses:
                    w.fingerprint = fp
            yield by_family


def run_trial(families, seed: int, trial: int,
              support: int) -> dict[str, list[InequalityWitness]]:
    """Run one trial of each of the given inequality families on a single
    draw of (space, f, g); deterministic in (seed, trial, support)."""
    _check_trials(families, seed, trial, support)
    return next(_run_trials(families, seed, range(trial, trial + 1), support))


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

    def absorb(self, witnesses: list[InequalityWitness]):
        for w in witnesses:
            self.checks += 1
            if w.rhs > 0:
                self.max_ratio = max(self.max_ratio, w.ratio)
            if not w.holds:
                self.violations.append(w.to_json())

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
        for family, witnesses in by_family.items():
            reports[family].absorb(witnesses)
    return reports


def run_weight_shift_suite(k_max: int = 10_000) -> dict:
    """Shift-bound scan over every builtin weight family on both sides."""
    reports = {}
    for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE):
        for alpha in WEIGHT_EXPONENTS:
            nu = WeightSequence("pow", klass, alpha)
            reports[f"{klass}:{nu.spec()}"] = verify_weight_shift(nu, k_max).to_json()
        for nu in (WeightSequence("log", klass), WeightSequence("const", klass, 1.0)):
            reports[f"{klass}:{nu.spec()}"] = verify_weight_shift(nu, k_max).to_json()
    return reports


def replay(fp: str) -> list[InequalityWitness]:
    """Re-run the single trial identified by a fingerprint."""
    family, seed, trial, support = parse_fingerprint(fp)
    return run_trial((family,), seed, trial, support)[family]
