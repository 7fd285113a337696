"""Randomized verification suites with replayable per-trial fingerprints.

Each trial is a pure function of (seed, trial index, support bound), so a
fingerprint string is enough to reproduce any witness exactly.  Trials may
be fanned out across processes; reports are merged in trial order so the
output never depends on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
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
    wnf_norm,
)
from .orlicz import NEGATIVE_SIDE, NONNEGATIVE_SIDE, OrliczFunction, WeightSequence

# Sampling grids for the random space draw.
ORLICZ_EXPONENTS = (1.0, 1.5, 2.0, 3.0)
WEIGHT_EXPONENTS = (0.0, 0.5, 1.0, 2.0)

# Largest support bound a trial accepts.  Each factor has 2 * support + 1
# coefficients and their product is convolved directly.
MAX_SUPPORT = 1 << 16

NORM_FAMILIES = ("theorem", "one_sided_negative", "one_sided_nonnegative")
FAMILIES = NORM_FAMILIES + ("coefficient_bound",)


def _draw_orlicz(rng: np.random.Generator) -> OrliczFunction:
    fam = rng.choice(("pow", "expm1", "powlog"))
    if fam == "expm1":
        return OrliczFunction("expm1")
    return OrliczFunction(str(fam), float(rng.choice(ORLICZ_EXPONENTS)))


def _draw_weight(rng: np.random.Generator, klass: str) -> WeightSequence:
    fam = rng.choice(("pow", "log", "const"))
    if fam == "pow":
        return WeightSequence("pow", klass, float(rng.choice(WEIGHT_EXPONENTS)))
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


def run_trial(families, seed: int, trial: int,
              support: int) -> dict[str, list[InequalityWitness]]:
    """Run one trial of each of the given inequality families on a single
    draw of (space, f, g); deterministic in (seed, trial, support).  The
    norm families share one norm report each of f, g and fg."""
    unknown = [fam for fam in families if fam not in FAMILIES]
    if unknown:
        raise SpecError(f"unknown suite family {unknown[0]!r}")
    if min(seed, trial, support) < 0:
        raise SpecError(f"seed, trial and support must be >= 0, got "
                        f"seed={seed}, trial={trial}, support={support}")
    if support > MAX_SUPPORT:
        raise SpecError(f"support must be <= {MAX_SUPPORT}, got {support}")
    rng = _trial_rng(seed, trial)
    sp = draw_space(rng)
    sup_f = int(rng.integers(0, support + 1))
    sup_g = int(rng.integers(0, support + 1))
    f = random_element(sup_f, rng)
    g = random_element(sup_g, rng)

    witnesses = {}
    if not set(families).isdisjoint(NORM_FAMILIES):
        norms = (wnf_norm(f, sp), wnf_norm(g, sp), wnf_norm(f.multiply(g), sp))
        neg, nonneg = verify_one_sided(*norms, sp)
        witnesses.update(theorem=[verify_theorem(*norms, sp)],
                         one_sided_negative=[neg], one_sided_nonnegative=[nonneg])
    if "coefficient_bound" in families:
        witnesses["coefficient_bound"] = verify_coefficient_bound(f, g)
    for family in families:
        for w in witnesses[family]:
            w.fingerprint = fingerprint(family, seed, trial, support)
    return {family: witnesses[family] for family in families}


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


def worker_count() -> int:
    """Worker cap from ORLICZ_WIENER_THREADS; defaults to 1 (serial)."""
    raw = os.environ.get("ORLICZ_WIENER_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise SpecError(f"ORLICZ_WIENER_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _trial_batch(args) -> list:
    families, seed, lo, hi, support = args
    return [run_trial(families, seed, t, support) for t in range(lo, hi)]


def run_suite(families, trials: int, seed: int, support: int,
              workers: int | None = None) -> dict[str, SuiteReport]:
    """Run the given families over the same trials, one draw per trial;
    results are absorbed in trial order regardless of how many workers
    produced them."""
    if trials < 1:
        raise SpecError("trials must be >= 1")
    if workers is None:
        workers = worker_count()
    families = tuple(families)
    reports = {family: SuiteReport(family, trials) for family in families}

    def absorb(by_family):
        for family, witnesses in by_family.items():
            reports[family].absorb(witnesses)

    if workers <= 1:
        for t in range(trials):
            absorb(run_trial(families, seed, t, support))
        return reports
    chunk = max(1, trials // (workers * 4))
    batches = [(families, seed, lo, min(lo + chunk, trials), support)
               for lo in range(0, trials, chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for batch in pool.map(_trial_batch, batches):
            for by_family in batch:
                absorb(by_family)
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
