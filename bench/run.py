#!/usr/bin/env python3
"""Benchmark of orlicz-wiener: three workloads, end to end and per layer.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

runs one workload in this process, checks every output against a
computation made apart from the program, prints each metric with its unit
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with no wrappers installed.
--trace 1 runs the round untraced and then traced, for half the time each,
and reports the per-layer metrics and the tracing overhead; the spans go to
.bench_out/spans_<workload>.npz.

--out FILE appends the run to a results file; --compare BASE NEW prints,
per workload and metric, the median and quartiles of both files and the
ratio of the medians.  See bench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Serial throughout: the process-pool path stays off and numpy's BLAS uses
# one thread, so the figures do not depend on what else runs on the other
# core.  Both must be set before numpy is imported.
os.environ.pop("ORLICZ_WIENER_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5  # this process plus four fresh ones
MIN_ROUNDS = 3  # every item is timed at least three times
CHILD_TIMEOUT_S = 60

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("verify", "factorize", "norm_long"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append this run to a results file")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                   help="compare two results files and exit")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------- running

class Outcomes:
    """Per item: the first output, and how many later runs raised or gave
    an output that differs from it."""

    def __init__(self, n_items: int):
        self.first = [None] * n_items
        self.first_error = [None] * n_items
        self.reference = [None] * n_items
        self.runs = [0] * n_items
        self.bad_repeats = [0] * n_items

    def record(self, wl, i: int, out, error):
        self.runs[i] += 1
        if self.runs[i] == 1:
            self.first[i], self.first_error[i] = out, error
            if error is None:
                self.reference[i] = wl.digest(out)
        elif error is not None or self.reference[i] is None \
                or wl.digest(out) != self.reference[i]:
            self.bad_repeats[i] += 1


def run_rounds(wl, items, seconds: float, min_rounds: int, outcomes: Outcomes,
               kernel=None):
    """Repeat the round until `seconds` have passed and at least
    `min_rounds` rounds are done.  Returns each item's op times and the
    time of the calibration kernel run just before each op."""
    times = [[] for _ in items]
    cal = [[] for _ in items]
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for i, item in enumerate(items):
            if kernel is not None:
                t0 = time.perf_counter()
                kernel()
                cal[i].append(time.perf_counter() - t0)
            error = out = None
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception:  # an op that raises counts as failed
                error = traceback.format_exc()
            times[i].append(time.perf_counter() - t0)
            outcomes.record(wl, i, out, error)
        rounds += 1
    return times, cal


def check_outcomes(wl, items, outcomes: Outcomes):
    """Check each item's first output against the independent oracles;
    repeats must reproduce it.  Returns (attempted, failed, correct)."""
    attempted = failed = 0
    correct = True
    for i, item in enumerate(items):
        n = wl.ops(item)
        attempted += n * outcomes.runs[i]
        if outcomes.first_error[i] is not None:
            failed += n * outcomes.runs[i]
            print(f"FAILED {wl.name} item {i}: raised\n{outcomes.first_error[i]}",
                  file=sys.stderr)
            continue
        problems = wl.check(item, outcomes.first[i])
        if problems:
            failed += n * outcomes.runs[i]
            correct = False
            print(f"FAILED {wl.name} item {i}: {'; '.join(problems[:5])}", file=sys.stderr)
        elif outcomes.bad_repeats[i]:
            failed += n * outcomes.bad_repeats[i]
            correct = False
            print(f"FAILED {wl.name} item {i}: {outcomes.bad_repeats[i]} repeats "
                  "raised or differ from the first output", file=sys.stderr)
    return attempted, failed, correct


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(wl, items, times, cal, ref: float, setup_s: float) -> dict:
    """Op times at the machine's reference speed: each run of an item is
    divided by the calibration kernel's time just before it, and the
    median of these ratios over the rounds is scaled by the kernel's
    reference time (see bench_calibrate).  Throughput and latency come
    from those times."""
    est = [ref * statistics.median(t / c for t, c in zip(ts, cs)) for ts, cs in zip(times, cal)]
    ops = [wl.ops(item) for item in items]
    per_op_ms = [1000 * e / n for e, n in zip(est, ops)]
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(ops) / sum(est),
        "op_p50_ms": quantile(per_op_ms, 0.5),
        "op_p90_ms": quantile(per_op_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def setup_samples(args, own: float) -> list:
    """Set-up time, at reference speed, of this process and of fresh
    processes doing the same set-up, run one after another."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


# ----------------------------------------------------------------- tracing

def layer_metrics(tracer, n_ops: int, untraced_s: float, untraced_ops: int,
                  traced_s: float) -> dict:
    """Calls and self time per op of every traced function, work counts
    and ratios, and the overhead of tracing."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    for name in tracer.names:
        calls, self_s, _ = tracer.count(name)
        put(f"{name}.calls", calls / n_ops, "calls/op")
        put(f"{name}.self_s", self_s / n_ops, "s/op")
    solves = tracer.count("orlicz.luxemburg_norm")[0]
    mod_calls, _, terms = tracer.count("orlicz.modular")
    ev_terms = tracer.count("fourier.LaurentPolynomial.evaluate")[2]
    put("orlicz.modular.terms", terms / n_ops, "terms/op")
    put("orlicz.modular_per_solve", ratio(mod_calls, solves), "calls/solve")
    put("orlicz.terms_per_modular", ratio(terms, mod_calls), "terms/call")
    put("fourier.evaluate.terms", ev_terms / n_ops, "terms/op")
    put("fourier.evaluate.bytes", 16 * ev_terms / n_ops, "B/op")
    put("algebra.wnf_norm_per_op", tracer.count("algebra.wnf_norm")[0] / n_ops, "calls/op")
    factorizations = tracer.count("factorization.factorize")[0]
    put("factorization.samples_per_factorize",
        ratio(tracer.count("fourier.sample")[0], factorizations), "calls/factorize")
    untraced_rate = untraced_ops / untraced_s
    traced_rate = n_ops / traced_s
    put("trace.overhead_pct", 100 * (untraced_rate / traced_rate - 1), "%")
    put("trace.spans", len(tracer.span_start) / n_ops, "spans/op")
    put("trace.absent", len(tracer.absent), "count")
    return m


# ----------------------------------------------------------- results files

def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "platform": platform.platform()}


def append_result(path: Path, record: dict):
    doc = json.loads(path.read_text()) if path.exists() else {"machine": machine(), "runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def compare(base: Path, new: Path):
    """Median, quartiles and ratio of medians per workload and metric."""
    docs = [json.loads(p.read_text()) for p in (base, new)]
    groups = []
    for doc in docs:
        g = {}
        for run in doc["runs"]:
            if not run["correct"] or run["failed"]:
                continue
            for name, m in run["metrics"].items():
                g.setdefault((run["workload"], name, m["unit"]), []).append(m["value"])
        groups.append(g)
    print(f"{'workload':<10} {'metric':<44} {'unit':<10} {'n':>3} "
          f"{'base q1/med/q3':>33} {'new q1/med/q3':>33} {'new/base':>9}")
    for key in sorted(set(groups[0]) & set(groups[1])):
        cells = []
        for g in groups:
            v = sorted(g[key])
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            cells.append((len(v), q))
        (nb, qb), (nn, qn) = cells
        r = qn[1] / qb[1] if qb[1] else float("nan")
        print(f"{key[0]:<10} {key[1]:<44} {key[2]:<10} {min(nb, nn):>3} "
              f"{qb[0]:>10.4g} {qb[1]:>10.4g} {qb[2]:>10.4g} "
              f"{qn[0]:>10.4g} {qn[1]:>10.4g} {qn[2]:>10.4g} {r:>9.4f}")


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "orlicz_wiener" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench_calibrate
    import bench_workloads

    wl = bench_workloads.WORKLOADS[args.workload]
    items = wl.make(args.seed)
    wl.warmup(items)
    own_setup = (time.perf_counter() - _START) * bench_calibrate.speed(wl.kernel)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    outcomes = Outcomes(len(items))
    if args.trace == 0:
        kernel, ref = bench_calibrate.KERNELS[wl.kernel]
        times, cal = run_rounds(wl, items, args.seconds, MIN_ROUNDS, outcomes, kernel)
        attempted, failed, correct = check_outcomes(wl, items, outcomes)
        metrics = end_to_end(wl, items, times, cal, ref,
                             statistics.median(setup_samples(args, own_setup)))
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        record = {"item_times_s": times, "cal_times_s": cal}
    else:
        import bench_trace

        half = args.seconds / 2
        plain, _ = run_rounds(wl, items, half, 1, outcomes)
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            traced, _ = run_rounds(wl, items, half, 1, outcomes)
        finally:
            tracer.uninstall()
        attempted, failed, correct = check_outcomes(wl, items, outcomes)
        per_round = sum(wl.ops(item) for item in items)
        record = {}
        metrics = layer_metrics(
            tracer, per_round * len(traced[0]), sum(map(sum, plain)),
            per_round * len(plain[0]), sum(map(sum, traced)))
        tracer.write(OUT_DIR / f"spans_{args.workload}.npz")
        for name in tracer.absent:
            print(f"absent: {name} (reported as 0)")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        append_result(args.out, {"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace, **result, **record})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
