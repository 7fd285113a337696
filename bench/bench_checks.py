"""Output checks for the benchmark, computed apart from the program.

Every check returns a list of problems; an empty list means the output
passed.  The checks read the program's results only through their data
fields (coefficient arrays, floats, the CLI's JSON text) and recompute
what they compare against from the definitions: the Orlicz and weight
families, closed-form factors, and trigonometric sums evaluated with
numpy's inverse FFT on a grid the program never uses.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Tolerances.  NORM_UPPER_SLACK covers only the different summation order
# of the benchmark's modular (math.fsum) and the program's (numpy pairwise
# sum); it is four orders of magnitude below the 1e-9 step of the lower
# check, so a norm that is off by more than rounding still fails.
NORM_UPPER_SLACK = 1e-13
NORM_LOWER_STEP = 1e-9
POW_CLOSED_FORM_TOL = 1e-10
WIENER_TOL = 1e-12
FACTOR_TOL = 1e-10
RESIDUAL_TOL = 1e-10
# A coefficient-bound witness attains its majorant exactly at the top
# index, so its ratio may read 1 + O(eps).
COEFF_RATIO_SLACK = 1e-12

VERIFY_FAMILIES = ("theorem", "one_sided_negative", "one_sided_nonnegative",
                   "coefficient_bound")


# ---------------------------------------------------------------- families

def orlicz_value(family: str, p: float, x: np.ndarray) -> np.ndarray:
    """pow: x^p; expm1: e^x - 1; powlog: x^p ln(1 + x)."""
    with np.errstate(over="ignore"):
        if family == "pow":
            return x ** p
        if family == "expm1":
            return np.expm1(x)
        if family == "powlog":
            return x ** p * np.log1p(x)
    raise ValueError(f"unknown Orlicz family {family!r}")


def weight_value(weight: tuple, n: np.ndarray, start: int) -> np.ndarray:
    """pow: (n+1)^alpha; log: ln(e+n); const: c; table: the table entry at
    n - start, continued by its last value."""
    family, param, table = weight
    n = n.astype(float)
    if family == "pow":
        return (n + 1.0) ** param
    if family == "log":
        return np.log(np.e + n)
    if family == "const":
        return np.full(n.shape, param)
    if family == "table":
        vals = np.asarray(table, dtype=float)
        return vals[np.minimum(n.astype(int) - start, len(vals) - 1)]
    raise ValueError(f"unknown weight family {family!r}")


def modular_value(a: np.ndarray, start: int, orlicz: tuple, phi: tuple,
                  w: tuple, lam: float) -> float:
    """sum Phi(a_n phi_n / lam) w_n, summed exactly with math.fsum."""
    n = np.arange(start, start + len(a))
    terms = orlicz_value(orlicz[0], orlicz[1], a * weight_value(phi, n, start) / lam)
    terms = terms * weight_value(w, n, start)
    if not np.all(np.isfinite(terms)):
        return math.inf
    return math.fsum(terms.tolist())


def sides(coeffs: np.ndarray, n_max: int):
    """(|f_{-1}|, |f_{-2}|, ...) and (|f_0|, |f_1|, ...)."""
    a = np.abs(np.asarray(coeffs))
    return a[:n_max][::-1], a[n_max:]


# ------------------------------------------------------------------- norms

def check_side_norm(a: np.ndarray, start: int, orlicz: tuple, phi: tuple,
                    w: tuple, lam: float, label: str) -> list[str]:
    """lam is the Luxemburg norm: the modular is <= 1 at lam (to rounding)
    and > 1 just below it; for pow it equals the closed form."""
    if not np.any(a > 0):
        return [] if lam == 0 else [f"{label}: norm {lam!r} of a zero sequence"]
    if not (math.isfinite(lam) and lam > 0):
        return [f"{label}: norm {lam!r} is not finite and positive"]
    problems = []
    at = modular_value(a, start, orlicz, phi, w, lam)
    if not at <= 1 + NORM_UPPER_SLACK:
        problems.append(f"{label}: modular {at!r} > 1 at the returned norm {lam!r}")
    below = modular_value(a, start, orlicz, phi, w, lam * (1 - NORM_LOWER_STEP))
    if not below > 1:
        problems.append(f"{label}: modular {below!r} <= 1 below the returned norm {lam!r}")
    if orlicz[0] == "pow":
        p = orlicz[1]
        n = np.arange(start, start + len(a))
        terms = (a * weight_value(phi, n, start)) ** p * weight_value(w, n, start)
        exact = math.fsum(terms.tolist()) ** (1 / p)
        if not abs(lam - exact) <= POW_CLOSED_FORM_TOL * exact:
            problems.append(f"{label}: norm {lam!r} != closed form {exact!r}")
    return problems


def check_norm(coeffs: np.ndarray, n_max: int, space: dict, report) -> list[str]:
    """All three pieces of a combined norm against their definitions."""
    neg, nonneg = sides(coeffs, n_max)
    problems = []
    wiener = math.fsum(np.abs(coeffs).tolist())
    if not abs(report.wiener - wiener) <= WIENER_TOL * wiener:
        problems.append(f"wiener {report.wiener!r} != sum |c| = {wiener!r}")
    problems += check_side_norm(neg, 1, space["neg_orlicz"], space["neg_scale"],
                                space["neg_sum"], report.negative, "negative")
    problems += check_side_norm(nonneg, 0, space["pos_orlicz"], space["pos_scale"],
                                space["pos_sum"], report.nonnegative, "nonnegative")
    return problems


# ----------------------------------------------------------- factorization

def dense(lp, band: int) -> np.ndarray:
    """Coefficients of a LaurentPolynomial for k = -band..band."""
    out = np.zeros(2 * band + 1, dtype=complex)
    m = min(lp.n_max, band)
    out[band - m: band + m + 1] = np.asarray(lp.coeffs)[lp.n_max - m: lp.n_max + m + 1]
    return out


def shifted_grid_values(c: np.ndarray, band: int, n_grid: int) -> np.ndarray:
    """sum_k c_k e^{ik theta_j} at theta_j = 2 pi (j + 1/2) / n_grid, for
    coefficients c over k = -band..band (needs 2 band < n_grid)."""
    if 2 * band >= n_grid:
        raise ValueError("grid too small for the band")
    k = np.arange(-band, band + 1)
    bins = np.zeros(n_grid, dtype=complex)
    bins[k % n_grid] = c * np.exp(1j * np.pi * k / n_grid)
    return np.fft.ifft(bins) * n_grid


def check_one_sided(res) -> list[str]:
    """plus has no k < 0 part, minus no k > 0 part, and minus_0 = 1."""
    plus, minus = res.plus, res.minus
    p = dense(plus, plus.n_max)[: plus.n_max]
    m = dense(minus, minus.n_max)[minus.n_max + 1:]
    problems = []
    scale = max(1.0, float(np.max(np.abs(dense(plus, plus.n_max)))))
    if len(p) and np.max(np.abs(p)) > FACTOR_TOL * scale:
        problems.append(f"plus factor has k<0 part {np.max(np.abs(p)):.3e}")
    scale = max(1.0, float(np.max(np.abs(dense(minus, minus.n_max)))))
    if len(m) and np.max(np.abs(m)) > FACTOR_TOL * scale:
        problems.append(f"minus factor has k>0 part {np.max(np.abs(m)):.3e}")
    m0 = dense(minus, 0)[0]
    if not abs(m0 - 1) <= FACTOR_TOL:
        problems.append(f"minus_0 = {m0!r}, not 1")
    return problems


def check_reconstruction(res, b_coeffs: np.ndarray, b_band: int,
                         n_grid: int) -> list[str]:
    """G * plus * minus reproduces b between the program's grid points."""
    band = max(res.plus.n_max, res.minus.n_max)
    b = shifted_grid_values(b_coeffs, b_band, n_grid)
    plus = shifted_grid_values(dense(res.plus, band), band, n_grid)
    minus = shifted_grid_values(dense(res.minus, band), band, n_grid)
    resid = float(np.max(np.abs(b - res.scalar * plus * minus)) / np.max(np.abs(b)))
    if not resid <= RESIDUAL_TOL:
        return [f"half-step reconstruction residual {resid:.3e}"]
    return []


def check_membership(norms: dict) -> list[str]:
    """Four combined norms, each finite and positive."""
    problems = []
    if set(norms) != {"plus", "plus_inverse", "minus", "minus_inverse"}:
        problems.append(f"membership keys {sorted(norms)}")
    for key, rep in norms.items():
        for part in ("wiener", "negative", "nonnegative", "total"):
            v = getattr(rep, part)
            if not math.isfinite(v) or v < 0:
                problems.append(f"membership {key}.{part} = {v!r}")
        if not rep.total > 0:
            problems.append(f"membership {key}.total = {rep.total!r}")
    return problems


def check_product_factors(res, scalar: complex, plus: np.ndarray,
                          minus: np.ndarray) -> list[str]:
    """Factors of G * prod(1 - a_j t) * prod(1 - b_j / t) against their
    closed forms: plus[k] is the t^k coefficient, minus[k] the t^-k one."""
    problems = []
    if not abs(res.scalar - scalar) <= FACTOR_TOL * abs(scalar):
        problems.append(f"scalar {res.scalar!r} != G = {scalar!r}")
    band = res.truncation
    for name, got, exact in (("plus", res.plus, plus), ("minus", res.minus, minus)):
        want = np.zeros(2 * band + 1, dtype=complex)
        idx = np.arange(len(exact))
        want[band + (idx if name == "plus" else -idx)] = exact
        err = float(np.max(np.abs(dense(got, band) - want)) / np.max(np.abs(exact)))
        if not err <= FACTOR_TOL:
            problems.append(f"{name} factor differs from closed form by {err:.3e}")
    return problems


def check_log_coeffs(res, q: np.ndarray, q_band: int) -> list[str]:
    """The log coefficients of exp(q) recover q."""
    band = max(res.truncation, q_band)
    want = np.zeros(2 * band + 1, dtype=complex)
    want[band - q_band: band + q_band + 1] = q
    err = float(np.max(np.abs(dense(res.log_coeffs, band) - want)))
    if not err <= FACTOR_TOL:
        return [f"log coefficients differ from q by {err:.3e}"]
    return []


# ------------------------------------------------------------------ verify

def check_verify_report(rc: int, text: str, trials: int) -> list[str]:
    """A `verify` report: exit 0, every family ok with no violations,
    checks == trials on the norm families, max_ratio in (0, 1]."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    for family in VERIFY_FAMILIES:
        rep = doc.get(family)
        if not isinstance(rep, dict):
            problems.append(f"{family}: missing")
            continue
        want = trials if family != "coefficient_bound" else max(1, trials // 2)
        if rep.get("trials") != want:
            problems.append(f"{family}: trials {rep.get('trials')!r} != {want}")
        if rep.get("ok") is not True or rep.get("violations"):
            problems.append(f"{family}: not ok, violations {rep.get('violations')!r}")
        if family != "coefficient_bound":
            if rep.get("checks") != want:
                problems.append(f"{family}: checks {rep.get('checks')!r} != {want}")
            top = 1.0
        else:
            if not (isinstance(rep.get("checks"), int) and rep["checks"] >= want):
                problems.append(f"{family}: checks {rep.get('checks')!r}")
            top = 1.0 + COEFF_RATIO_SLACK
        ratio = rep.get("max_ratio")
        if not (isinstance(ratio, (int, float)) and 0 < ratio <= top):
            problems.append(f"{family}: max_ratio {ratio!r} outside (0, {top}]")
    shift = doc.get("weight_shift")
    if not (isinstance(shift, dict) and shift.get("ok") is True
            and shift.get("families")
            and all(r.get("ok") is True and not r.get("violations")
                    for r in shift["families"].values())):
        problems.append("weight_shift: not ok")
    return problems
