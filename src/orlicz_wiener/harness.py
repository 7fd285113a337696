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
    verify_coefficient_bound,
    verify_one_sided,
    verify_theorem,
    verify_weight_shift,
    wnf_norm_arrays,
)
from .fourier import LaurentPolynomial
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


# The six slots of a space, in the order ``draw_space`` fills them, and the
# sizes of each slot's groups.
SLOTS = (ORLICZ_GROUPS, ORLICZ_GROUPS, WEIGHT_GROUPS[NEGATIVE_SIDE], WEIGHT_GROUPS[NEGATIVE_SIDE],
         WEIGHT_GROUPS[NONNEGATIVE_SIDE], WEIGHT_GROUPS[NONNEGATIVE_SIDE])
_SLOT_SIZES = [np.array([len(group) for group in groups], np.uint64) for groups in SLOTS]


def draw_space(rng: np.random.Generator) -> AlgebraSpace:
    """A random six-tuple over the builtin family cross product: in each
    slot a group, then a member of it.  Only ``rng.integers(n)`` is called;
    ``integers(1)`` reads nothing from a ``Generator`` and gives 0, so a
    group of one member costs no word."""
    picks = []
    for groups in SLOTS:
        group = groups[rng.integers(len(groups))]
        picks.append(group[rng.integers(len(group))])
    return AlgebraSpace(*picks)


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


# numpy's SeedSequence hashes its entropy into a pool of 4 32-bit words,
# then hashes the pool into the words that seed a bit generator; each hash
# call k of a chain xors in c_k = init * mult**k and multiplies by c_{k+1}
# (mod 2**32), and these constants do not depend on the data.  Chain A fills
# and mixes the pool (calls 0-15, and 4 more per entropy word past the
# fourth); chain B gives generate_state's words (calls 0-7 for PCG64's 8).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n."""
    c = np.full(n, mult, np.uint32)
    c[0] = init
    return np.multiply.accumulate(c, dtype=np.uint32)


_CHAIN_A, _CHAIN_B = _hash_chain(_INIT_A, _MULT_A, 17), _hash_chain(_INIT_B, _MULT_B, 9)
# (xor, mult) of the hash calls that fill the pool from entropy words 0-3;
# of the mixing pass, which hashes pool word s into every other word d in
# order of d, per s by column d (column s, whose word the pass keeps, takes
# call 0's); and of generate_state's 8 words, word i hashing pool word i % 4.
_FILL = _CHAIN_A[:4], _CHAIN_A[1:5]
_MIX_CALLS = [np.insert(np.arange(4 + 3 * s, 7 + 3 * s), s, 0) for s in range(4)]
_MIX_HASH = [(_CHAIN_A[k], _CHAIN_A[k + 1]) for k in _MIX_CALLS]
_STATE = _CHAIN_B[:-1].reshape(2, 4), _CHAIN_B[1:].reshape(2, 4)
_SHIFT = np.uint32(16)


def _hashmix(v, xor, mult):
    v = (v ^ xor) * mult
    return v ^ (v >> _SHIFT)


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _SHIFT)


def _seed_words(seed: int, trials: range) -> np.ndarray:
    """Row i is ``SeedSequence([seed, trials[i]]).generate_state(4,
    np.uint64)``, computed for every trial at once.  The entropy is the
    32-bit words of the seed, least significant first, then those of the
    trial; the trials are taken in runs of one word count."""
    seed_words = [seed >> b & 0xFFFFFFFF for b in range(0, max(seed.bit_length(), 1), 32)]
    rows, lo = [], trials.start
    while lo < trials.stop:
        count = max(1, -(-lo.bit_length() // 32))
        hi = min(trials.stop, 1 << 32 * count)
        t = np.arange(lo, hi, dtype=np.uint64 if hi <= 1 << 64 else object)
        entropy = np.zeros((hi - lo, max(len(seed_words) + count, 4)), np.uint32)
        entropy[:, :len(seed_words)] = seed_words
        for j in range(count):
            entropy[:, len(seed_words) + j] = t >> 32 * j & 0xFFFFFFFF
        pool = _hashmix(entropy[:, :4], *_FILL)
        for s, (xor, mult) in enumerate(_MIX_HASH):
            mixed = _mix(pool, _hashmix(pool[:, s, None], xor, mult))
            mixed[:, s] = pool[:, s]
            pool = mixed
        # Each entropy word past the fourth is hashed into every pool word.
        extra = entropy[:, 4:]
        chain = _hash_chain(int(_CHAIN_A[16]), _MULT_A, 4 * extra.shape[1] + 1)
        for j in range(extra.shape[1]):
            pool = _mix(pool, _hashmix(extra[:, j, None], chain[4 * j:4 * j + 4],
                                       chain[4 * j + 1:4 * j + 5]))
        state = _hashmix(pool[:, None, :], *_STATE).reshape(hi - lo, 8)
        rows.append(state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False))
        lo = hi
    return np.concatenate(rows)


class _Pool:
    """A seed sequence whose ``generate_state(4, np.uint64)`` was computed
    beforehand: a ``BitGenerator`` seeds itself from whatever
    ``ISeedSequence`` it is given, and PCG64 asks for exactly those words.
    It is registered as one when a chunk is drawn, not at import, since
    numpy loads ``numpy.random`` only when it is first used."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seed: int, trials: range) -> list:
    """The PCG64 that ``np.random.default_rng([seed, trial])`` wraps, for
    every trial, with no ``SeedSequence`` made."""
    np.random.bit_generator.ISeedSequence.register(_Pool)
    return [np.random.PCG64(_Pool(w)) for w in _seed_words(seed, trials)]


_HIGH, _LOW = np.uint64(32), np.uint64(0xFFFFFFFF)
# Outputs every lane first draws: a draw's at most 14 words, two to spare.
_BLOCK = 8


class _Lanes:
    """numpy's ``Generator.integers(n)`` and ``Generator.uniform(-1, 1)``
    in every lane of a chunk at once, read from the raw 64-bit outputs of
    the lane's own PCG64 stream.  numpy draws a bounded integer below 2**32
    by Lemire's method (ACM TOMACS 29(1), 2019) on 32-bit words, and PCG64
    serves each output as two such words, its low half first and its high
    half at the next call.  ``raw`` holds the outputs the lanes have drawn,
    a row of one width per lane, and ``words`` the same rows as 32-bit
    words; ``at`` is how many words each lane has read, and ``room`` how
    many more passes every lane can read without running past its row."""

    def __init__(self, streams):
        self.streams, self.at = streams, np.zeros(len(streams), np.intp)
        self.raw = np.empty((len(streams), 0), np.uint64)
        self._extend(_BLOCK)

    def _extend(self, k: int):
        """Draw k more outputs in every lane, at the end of its row."""
        self.raw = np.hstack((self.raw, [s.random_raw(k) for s in self.streams]))
        self.words = self.raw.astype("<u8", copy=False).view("<u4").astype(np.uint64)
        self.room = self.words.shape[1] - int(self.at.max())

    def integers(self, n) -> np.ndarray:
        """``Generator.integers(n)`` in every lane, for one bound n or one
        per lane, 1 <= n <= 2**32: the high 32 bits of word * n, where a
        lane whose low 32 bits fall below 2**32 % n reads its next word in
        the next pass of the loop.  n = 1 reads no word.  When a pass could
        run past the rows, every lane doubles its row first."""
        n = np.full(len(self.at), n, np.uint64)
        threshold, reads = (1 << 32) % n, n > 1
        out = np.empty(len(n), np.intp)
        live = np.arange(len(n))
        while True:
            if not self.room:
                self._extend(self.raw.shape[1])
            at = self.at[live]
            m = self.words[live, at] * n
            self.at[live] = at + reads
            self.room -= 1
            out[live] = (m >> _HIGH).view(np.intp)
            rejected = (m & _LOW) < threshold
            if not np.count_nonzero(rejected):
                return out
            live, n, threshold, reads = (a[rejected] for a in (live, n, threshold, reads))

    def take(self, k: np.ndarray) -> np.ndarray:
        """Each lane's next k outputs after the words it has read, lane
        after lane; a high half not yet read is skipped, as
        ``Generator.uniform`` skips it.  A lane draws from its stream only
        the outputs past its row."""
        start, width = (self.at + 1) // 2, self.raw.shape[1]
        pieces = []
        for row, stream, a, b in zip(self.raw, self.streams, start.tolist(), (start + k).tolist()):
            pieces.append(row[a:b])
            if b > width:
                pieces.append(stream.random_raw(b - width))
        return np.concatenate(pieces)


def _draw_chunk(seed: int, trials: range, support: int):
    """The draws (trial, space, f, g) of a chunk of trials, each pure in
    (seed, trial, support).

    A draw has the bits of the ``Generator`` draw in ``tests/oracles.py``,
    made on ``np.random.default_rng([seed, trial])``, with no ``Generator``
    call: each trial's PCG64 is seeded from its ``SeedSequence`` words,
    hashed for the whole chunk at once (``_streams``), and its picks are
    read in every lane at once, in ``draw_space``'s order: a group, then a
    member of it, in each slot."""
    lanes = _Lanes(_streams(seed, trials))
    picks = []
    for groups, sizes in zip(SLOTS, _SLOT_SIZES):
        group = lanes.integers(len(groups))
        picks += (group, lanes.integers(sizes[group]))
    sup_f, sup_g = lanes.integers(support + 1), lanes.integers(support + 1)
    nf, ng = 2 * sup_f + 1, 2 * sup_g + 1
    # Generator.uniform(-1, 1) is -1.0 + 2.0 * ((out >> 11) * 2.0**-53) per
    # output.  Both products scale a 53-bit integer by a power of two, which
    # is exact, and y - 1.0 is the sum -1.0 + y, so (out >> 11) * 2.0**-52
    # - 1.0 has the same bits.  Real parts come before imaginary parts, f
    # before g.
    u = (lanes.take(2 * (nf + ng)) >> 11) * 2.0**-52 - 1.0
    # The coefficients of every polynomial, f and g of each trial in turn,
    # end to end: a polynomial of n coefficients starting at c[first] takes
    # its real parts from u[2 * first:] and its imaginary parts n after.
    n = np.column_stack((nf, ng)).ravel()
    first = np.cumsum(n) - n
    re = np.arange(len(u) // 2) + np.repeat(first, n)
    c = u[re] + 1j * u[re + np.repeat(n, n)]
    return [(trial, AlgebraSpace(*[groups[g][m] for groups, g, m in zip(SLOTS, row[::2], row[1::2])]),
             LaurentPolynomial(c[p:p + 2 * a + 1], a), LaurentPolynomial(c[q:q + 2 * b + 1], b))
            for trial, row, a, b, p, q in zip(trials, np.transpose(picks).tolist(), sup_f.tolist(),
                                              sup_g.tolist(), first[::2].tolist(), first[1::2].tolist())]


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


def run_trial(families, seed: int, trial: int, support: int) -> dict[str, Checks]:
    """Run one trial of each of the given inequality families on a single
    draw of (space, f, g); deterministic in (seed, trial, support)."""
    _check_trials(families, seed, trial, support)
    by_family = _chunk_checks(families, _draw_chunk(seed, range(trial, trial + 1), support))
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
    chunk = max(1, CHUNK_TERMS // (6 * (2 * support + 1)))
    for lo in range(0, trials, chunk):
        drawn = _draw_chunk(seed, range(lo, min(lo + chunk, trials)), support)
        for family, (checks, trial) in _chunk_checks(families, drawn).items():
            reports[family].absorb(checks, trial, seed, support)
    return reports


def run_weight_shift_suite(k_max: int = 10_000) -> dict[str, ShiftReport]:
    """Shift-bound scan of every builtin weight on both sides, by
    ``<class>:<spec>``, the W- weights first.  Each W- weight and its W+
    twin, built from the same family and parameter, share one scan (see
    ``verify_weight_shift``)."""
    minus, plus = ([nu for group in WEIGHT_GROUPS[klass] for nu in group]
                   for klass in (NEGATIVE_SIDE, NONNEGATIVE_SIDE))
    scans = [verify_weight_shift(m, k_max, p) for m, p in zip(minus, plus)]
    return {f"{nu.klass}:{nu.spec()}": rep
            for side, reports in zip((minus, plus), zip(*scans)) for nu, rep in zip(side, reports)}


def replay(fp: str) -> Checks:
    """Re-run the single trial identified by a fingerprint."""
    family, seed, trial, support = parse_fingerprint(fp)
    return run_trial((family,), seed, trial, support)[family]
