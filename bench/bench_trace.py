"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every binding of each traced function with a
wrapper that records a span (name, start, end, parent): module globals,
names imported into other modules of the package, and class attributes,
including aliases such as `LaurentPolynomial.__mul__`.  `uninstall()` puts
the originals back, so an untraced phase runs the program's own code.

Spans are kept in flat arrays in memory and written out once, when the run
ends.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

PACKAGE = "orlicz_wiener"

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("orlicz", "luxemburg_norm"),
    ("orlicz", "modular"),
    ("orlicz", "OrliczFunction.__call__"),
    ("orlicz", "WeightSequence.__call__"),
    ("fourier", "LaurentPolynomial.evaluate"),
    ("fourier", "sample"),
    ("fourier", "fourier_coefficients"),
    ("fourier", "LaurentPolynomial.multiply"),
    ("algebra", "wnf_norm"),
    ("algebra", "verify_theorem"),
    ("algebra", "verify_one_sided"),
    ("algebra", "verify_coefficient_bound"),
    ("algebra", "verify_weight_shift"),
    ("factorization", "factorize"),
    ("factorization", "membership"),
    ("factorization", "winding_number"),
    ("factorization", "log_symbol"),
    ("harness", "run_suite"),
    ("harness", "run_trial"),
    ("harness", "run_weight_shift_suite"),
    ("harness", "draw_space"),
    ("cli", "main"),
)


def _modular_terms(args, kwargs) -> int:
    c = args[0] if args else kwargs.get("c")
    return int(np.size(c))


def _evaluate_terms(args, kwargs) -> int:
    lp = args[0]
    theta = args[1] if len(args) > 1 else kwargs.get("theta")
    return int(np.size(theta)) * int(np.size(lp.coeffs))


# Work counted at the boundary: Σ sequence length per modular call and
# Σ grid points × band width per dense evaluation.
WORK = {
    "orlicz.modular": _modular_terms,
    "fourier.LaurentPolynomial.evaluate": _evaluate_terms,
}


def _resolve(module: str, path: str):
    """The function at `path` in the module, or None if it is gone."""
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    for part in path.split("."):
        obj = vars(obj).get(part)
        if obj is None:
            return None
    return obj


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{p}" for m, p in TARGETS]
        self.absent = []
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.work = [0] * len(self.names)
        self.span_name = array("h")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []  # span ids of open spans
        self._child_ns = []  # time covered by children of each open span
        self._restore = []

    def _wrap(self, nid: int, fn, work):
        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            if work is not None:
                self.work[nid] += work(args, kwargs)
            self._stack.append(sid)
            self._child_ns.append(0)
            t0 = perf_counter_ns()
            self.span_start[sid] = t0
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self.span_end[sid] = t1
                self._stack.pop()
                dur = t1 - t0
                self.self_ns[nid] += dur - self._child_ns.pop()
                self.calls[nid] += 1
                if self._child_ns:
                    self._child_ns[-1] += dur
        return functools.wraps(fn)(traced)

    def install(self):
        """Rebind every binding of every traced function; a target that no
        longer exists is recorded as absent."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        classes = {id(c): c for m in modules for c in vars(m).values()
                   if isinstance(c, type) and c.__module__.startswith(PACKAGE)}
        for nid, ((module, path), name) in enumerate(zip(TARGETS, self.names)):
            original = _resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(nid, original, WORK.get(name))
            for owner in modules + list(classes.values()):
                space = vars(owner)
                for attr, value in list(space.items()):
                    if value is original:
                        self._restore.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def count(self, name: str) -> tuple[int, float, int]:
        """(calls, self seconds, work) of one traced function."""
        i = self.names.index(name)
        return self.calls[i], self.self_ns[i] / 1e9, self.work[i]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
