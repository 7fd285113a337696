"""Command-line front end.

Exit codes: 0 ok, 1 verification violation, 2 usage/config error,
3 factorization obstruction (nonzero winding or vanishing symbol),
4 internal error (an unexpected exception, reported on one line),
130 interrupted (what a shell reports for SIGINT),
141 the reader of stdout went away (what a shell reports for SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import factorization
from .errors import (
    IndexObstructionError,
    OrliczWienerError,
    SpecError,
    TruncationError,
    VanishingSymbolError,
    read_json,
)
from .algebra import DEFAULT_SPACE_SPEC, AlgebraSpace, wnf_norm
from .fourier import MAX_DEGREE, LaurentPolynomial
from .harness import (
    FAMILIES,
    NORM_FAMILIES,
    replay,
    run_suite,
    run_weight_shift_suite,
)
from .orlicz import DEFAULT_NORM_TOL, validate_weight

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_OBSTRUCTION = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process killed by it
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line as every other refusal does: exit 2 with
    one ``error:`` line on stderr, not argparse's usage block."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="orlicz-wiener",
        description="Norms, inequality verification, and Wiener-Hopf "
                    "factorization for symbols with coefficients in "
                    "two-weighted Orlicz sequence spaces.",
    )
    p.add_argument("--cmd", required=True, choices=COMMANDS)
    p.add_argument("--input", default=None,
                   help="path to a coefficient JSON file, or inline JSON")
    p.add_argument("--space", default=DEFAULT_SPACE_SPEC,
                   help="six semicolon-separated spec strings "
                        "(negative Orlicz; nonnegative Orlicz; negative "
                        "scale weight; negative sum weight; nonnegative "
                        "scale weight; nonnegative sum weight)")
    p.add_argument("--tol", type=float, default=None,
                   help="norm tolerance (default 1e-12) or factorization "
                        "residual tolerance, relative to max|b| on the grid "
                        "(default 1e-8)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--support", type=int, default=64)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--trunc", type=int, default=64)
    p.add_argument("--format", default="json", choices=["json", "csv", "human"])
    p.add_argument("--replay", default=None, metavar="FINGERPRINT",
                   help="re-run a single verification trial")
    return p


def _load_coefficients(raw: str | None) -> LaurentPolynomial:
    if raw is None:
        raise SpecError("this command requires --input")
    source = raw if raw.lstrip().startswith("{") else Path(raw)
    return LaurentPolynomial.from_json(read_json(source, "coefficient JSON"))


def _emit(doc: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))
    elif fmt == "csv":
        flat = {k: v for k, v in _flatten(doc) if isinstance(v, (int, float, bool, str))}
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(flat)
        out.writerow(flat.values())
    else:
        for k, v in _flatten(doc):
            print(f"{k}: {v}")


def _flatten(doc, prefix=""):
    for k, v in doc.items():
        if isinstance(v, dict):
            yield from _flatten(v, f"{prefix}{k}.")
        elif isinstance(v, list):
            yield f"{prefix}{k}", json.dumps(v)
        else:
            yield f"{prefix}{k}", v


def _cmd_norm(args) -> tuple[dict, int]:
    f = _load_coefficients(args.input)
    sp = AlgebraSpace.from_spec(args.space)
    tol = args.tol if args.tol is not None else DEFAULT_NORM_TOL
    return wnf_norm(f, sp, tol).to_json(), EXIT_OK


def _cmd_weights(args) -> tuple[dict, int]:
    sp = AlgebraSpace.from_spec(args.space)
    if not 2 <= args.support <= MAX_DEGREE:
        raise SpecError(f"support must be from 2 to {MAX_DEGREE}, got {args.support}")
    reports = {
        "negative_scale": validate_weight(sp.neg_scale, args.support),
        "negative_sum": validate_weight(sp.neg_sum, args.support),
        "nonnegative_scale": validate_weight(sp.pos_scale, args.support),
        "nonnegative_sum": validate_weight(sp.pos_sum, args.support),
    }
    doc = {name: rep.to_json() for name, rep in reports.items()}
    return doc, EXIT_OK if all(rep.ok for rep in reports.values()) else EXIT_VIOLATION


def _cmd_verify(args) -> tuple[dict, int]:
    if args.replay is not None:
        checks = replay(args.replay)
        doc = {"replay": args.replay,
               "witnesses": checks.to_json([args.replay] * len(checks.lhs))}
        return doc, EXIT_OK if checks.holds.all() else EXIT_VIOLATION
    if args.support < 1:
        raise SpecError("support must be >= 1")
    reports = run_suite(NORM_FAMILIES, args.trials, args.seed, args.support)
    reports |= run_suite(("coefficient_bound",), max(1, args.trials // 2), args.seed,
                         min(args.support, 32))
    shift = run_weight_shift_suite()
    doc = {family: rep.to_json() for family, rep in reports.items()}
    doc["weight_shift"] = {"ok": all(rep.ok for rep in shift.values()),
                           "families": {name: rep.to_json() for name, rep in shift.items()}}
    # Each failed report's first violation: the inequality families in
    # order, then the weights of the shift scan, each row with its weight.
    violated = [*(rep.violations[0] for rep in reports.values() if not rep.ok),
                *({"weight": name, **rep.violations[0]} for name, rep in shift.items()
                  if not rep.ok)]
    if violated:
        print(f"violation: {json.dumps(violated[0])}", file=sys.stderr)
    return doc, EXIT_VIOLATION if violated else EXIT_OK


def _cmd_factorize(args) -> tuple[dict, int]:
    f = _load_coefficients(args.input)
    sp = AlgebraSpace.from_spec(args.space)
    tol = args.tol if args.tol is not None else factorization.DEFAULT_RESIDUAL_TOL
    try:
        res = factorization.factorize(f, args.grid, args.trunc, tol)
    except IndexObstructionError as exc:
        return {"error": "index-obstruction", "kappa": exc.kappa}, EXIT_OBSTRUCTION
    except VanishingSymbolError as exc:
        return {"error": "vanishing-symbol", "message": str(exc)}, EXIT_OBSTRUCTION
    except TruncationError as exc:
        return {"error": "truncation-insufficient", "residual": exc.residual}, EXIT_OBSTRUCTION
    doc = res.to_json()
    doc["membership"] = {k: v.to_json()
                         for k, v in factorization.membership(res, sp).items()}
    return doc, EXIT_OK


def _cmd_selftest(args) -> tuple[dict, int]:
    if args.support < 1:
        raise SpecError("support must be >= 1")
    reports = run_suite(FAMILIES, min(args.trials, 50), args.seed, min(args.support, 16))
    shift_ok = all(rep.ok for rep in run_weight_shift_suite(1000).values())
    res = factorization.factorize(LaurentPolynomial.from_dict({0: 2, 1: 1}))
    ok = all(rep.ok for rep in reports.values()) and shift_ok and res.residual <= 1e-10
    doc = {family: rep.to_json() for family, rep in reports.items()}
    doc |= {"weight_shift_ok": shift_ok, "factorization_residual": res.residual, "ok": ok}
    return doc, EXIT_OK if ok else EXIT_VIOLATION


# The --cmd choices, each with its handler, which returns the report and the
# exit code: main writes every report.
COMMANDS = {"norm": _cmd_norm, "weights": _cmd_weights, "verify": _cmd_verify,
            "factorize": _cmd_factorize, "selftest": _cmd_selftest}

# Built once: building it took about 0.3 ms, a few percent of a short verify.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        doc, code = COMMANDS[args.cmd](args)
        _emit(doc, args.format)
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Nothing is left to read the output: send what is still buffered to
        # the null device, so that the interpreter's last flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OrliczWienerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect: refuse on one line, not a traceback
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
