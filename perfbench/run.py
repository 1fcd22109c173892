#!/usr/bin/env python3
"""The ratmap benchmark: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload examples --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports ``ratmap`` from ``src``.  The
caller sends the next map only after the previous call has returned, on one
thread, in this process.  The item list of a workload is fixed (see
``workloads.build_items``); ``--seed`` only shuffles the order of each pass.
Passes are whole, so the failed share repeats exactly from run to run.

Times are scaled to a fixed reference speed of the host (see KERNELS).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead.
The lines above it give every metric by name and unit, the raw wall-time
figures and the failure taxonomy.  NOTES.md explains the workloads and
metrics.
"""

from __future__ import annotations

import os

# one thread: pin numpy/BLAS pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("examples", "corpus-exact", "corpus-float", "render")

# Per-map deadlines, far from every item's own time so that the same maps
# time out on every run (NOTES.md): the corpus successes finish within 1.2 s
# and its failures that end on their own take 19 s or more; the slowest
# render takes 4.5 s.
DEADLINE_S = {"examples": 4.0, "corpus-exact": 4.0, "corpus-float": 4.0, "render": 30.0}
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "map_s_p50": "s",
    "map_s_tail": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class DeadlineExceeded(BaseException):
    """The per-map deadline passed; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def attempt(item, deadline_s):
    """Run one item under the deadline: (outcome, wall seconds, outputs)."""
    from ratmap.errors import RatmapError
    from workloads import CodedFailure

    start = time.perf_counter()
    try:
        # re-fires every 50 ms in case a handler inside the program swallows it
        signal.setitimer(signal.ITIMER_REAL, deadline_s, 0.05)
        try:
            out = item.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return "timeout", time.perf_counter() - start, None
    except (RatmapError, CodedFailure) as err:
        return f"coded:{err.code}", time.perf_counter() - start, None
    except Exception as err:  # the item boundary: record it and keep going
        return f"exception:{type(err).__name__}: {str(err)[:80]}", time.perf_counter() - start, None
    return "ok", time.perf_counter() - start, out


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def array_kernel():
    """Seconds taken by three escape-time steps over an 800x800 grid, the
    kind of work ``render_julia`` does.  It never calls the program."""
    start = time.perf_counter()
    xs = np.linspace(-2.0, 2.0, 800)
    z = xs[None, :] + 1j * xs[:, None]
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(3):
            za = z[active]
            num = np.zeros_like(za)
            for c in (1.0, -4.0, 4.0):
                num = num * za + c
            nxt = num / (za * za)
            z = z.copy()
            z[active] = nxt
            active &= np.isfinite(z)
    return time.perf_counter() - start


def interpreter_kernel():
    """Seconds taken by a fixed mix of the kinds of work the program does:
    Fraction and complex arithmetic, small objects in dicts, formatting and
    JSON, and passes over small numpy arrays.  It never calls the program."""
    start = time.perf_counter()
    for _ in range(3):
        x, s, acc = Fraction(1, 3), 0, []
        for i in range(300):
            x = (x * 7 + 1) / 5 if i % 3 else x - Fraction(1, 7)
            acc.append(complex(i, s % 7) * 1.5)
            s += i * i
    table = {}
    for i in range(400):
        pair = _Pair(Fraction(i, 7), complex(i, 1))
        table[(i % 37, i)] = pair
        q = pair.a * pair.a + Fraction(1, i + 1)
        acc.append(f"{q.numerator % 1000}/{pair.b.real:.3f}")
    json.dumps({str(k): v.a.denominator for k, v in table.items()})
    z = np.linspace(-1, 1, 24) + 0.5j
    for _ in range(60):
        p = np.zeros_like(z)
        for c in range(1, 9):
            p = p * z + c
        z = z - 0.01 * p / (np.abs(p) + 1)
    return time.perf_counter() - start


# Host-speed scaling.  On a shared host the speed of this process swings by
# up to 2x over spans of seconds to minutes, and a fixed kernel that never
# calls the program swings with it.  A kernel of the workload's own kind of
# work therefore runs before the first item and after each one, and an
# item's seconds are scaled by the kernel's reference time over the mean of
# the two kernel times around it: seconds at a fixed reference speed.
# Timeouts are never scaled.  Raw wall-time figures are printed too.
KERNELS = {  # workload -> (kernel, its time at the reference speed)
    "examples": (interpreter_kernel, 0.012),
    "corpus-exact": (interpreter_kernel, 0.012),
    "corpus-float": (interpreter_kernel, 0.012),
    "render": (array_kernel, 0.065),
}


class Pass:
    """Outcomes of whole passes over the item list.

    ``charges`` holds the seconds charged per attempt at the reference
    speed of ``kernel``, ``raw`` the same in wall time.
    A success is charged its time, a timeout its wall time (at least the
    deadline), and any other failure the deadline plus its time.
    """

    def __init__(self, deadline_s, kernel):
        self.deadline_s = deadline_s
        self.kernel, self.reference_s = kernel
        self.charges = []
        self.raw = []
        self.pass_ends = []  # len(charges) after each pass
        self.kernel_s = []  # reference kernel times measured between items
        self.wall_s = 0.0  # wall time inside item calls
        self.ok = 0
        self.failures = Counter()  # outcome -> count
        self.timed_out = set()

    def record(self, label, outcome, elapsed, scale):
        self.wall_s += elapsed
        if outcome == "timeout":
            self.timed_out.add(label)
            charge = raw = elapsed  # the deadline is wall time, never scaled
        elif outcome == "ok":
            self.ok += 1
            charge, raw = elapsed * scale, elapsed
        else:
            charge, raw = self.deadline_s + elapsed * scale, self.deadline_s + elapsed
        if outcome != "ok":
            self.failures[outcome] += 1
        self.charges.append(charge)
        self.raw.append(raw)

    def extend(self, other):
        offset = len(self.charges)
        self.charges += other.charges
        self.raw += other.raw
        self.pass_ends += [offset + end for end in other.pass_ends]
        self.kernel_s += other.kernel_s
        self.wall_s += other.wall_s
        self.ok += other.ok
        self.failures.update(other.failures)
        self.timed_out |= other.timed_out

    @property
    def attempted(self):
        return len(self.charges)

    @property
    def passes(self):
        return len(self.pass_ends)


def run_pass(items, rng, checker, result):
    """One closed-loop pass over every item, in an order drawn from ``rng``.

    The reference kernel runs before the first item and after each one; an
    item's scale is the reference time over the mean of its two neighbours.
    """
    order = list(items)
    rng.shuffle(order)
    before = result.kernel()
    for item in order:
        outcome, elapsed, out = attempt(item, result.deadline_s)
        after = result.kernel()
        result.kernel_s.append(after)
        if outcome == "ok":
            failed_checks = checker.check(item, out)
            if failed_checks:
                outcome = "check:" + ",".join(failed_checks)
        scale = result.reference_s * 2 / (before + after)
        result.record(item.label, outcome, elapsed, scale)
        before = after
    result.pass_ends.append(len(result.charges))


def run_passes(items, seed, seconds, deadline_s, kernel, checker):
    """Whole passes until ``seconds`` have passed and the tail is defined."""
    rng = random.Random(seed)
    result = Pass(deadline_s, kernel)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or result.attempted <= TAIL_BEYOND:
        run_pass(items, rng, checker, result)
    return result


def timing_metrics(charges, pass_ends, ok):
    """reports_per_s over the median pass, p50 and tail over all attempts."""
    starts = [0] + pass_ends[:-1]
    pass_s = [sum(charges[a:b]) for a, b in zip(starts, pass_ends)]
    ordered = sorted(charges)
    n = len(ordered)
    return {
        # a median pass, so that a burst of host noise moves it little
        "reports_per_s": ok / len(pass_ends) / statistics.median(pass_s),
        # nearest-rank percentiles; a run has more than TAIL_BEYOND samples
        "map_s_p50": ordered[math.ceil(n / 2) - 1],
        "map_s_tail": ordered[n - TAIL_BEYOND - 1],
    }


def end_to_end(result, setup_s):
    n = result.attempted
    metrics = {"setup_s": setup_s}
    metrics.update(timing_metrics(result.charges, result.pass_ends, result.ok))
    metrics["ok_frac"] = result.ok / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def measure_setup(build):
    """Median over repeats of a fresh-interpreter ``import ratmap`` plus input
    generation, scaled like the items by the interpreter kernel around it.
    Returns (scaled median, wall-time median, items)."""
    code = "import time; t = time.perf_counter(); import ratmap; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    kernel, reference_s = KERNELS["examples"]
    scaled, raw = [], []
    items = None
    before = kernel()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        start = time.perf_counter()
        items = build()
        elapsed = float(proc.stdout) + time.perf_counter() - start
        after = kernel()
        raw.append(elapsed)
        scaled.append(elapsed * reference_s * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw), items


def taxonomy(result):
    coded = Counter()
    exceptions = Counter()
    checks = Counter()
    for outcome, count in result.failures.items():
        kind, _, rest = outcome.partition(":")
        if kind == "coded":
            coded[rest] += count
        elif kind == "exception":
            exceptions[rest] += count
        elif kind == "check":
            for name in rest.split(","):
                checks[name] += count
    return {
        "timeouts": result.failures["timeout"],
        "timed_out_items": sorted(result.timed_out),
        "coded_errors": dict(sorted(coded.items())),
        "exceptions": dict(sorted(exceptions.items())),
        "failed_checks": dict(sorted(checks.items())),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="orders the items of each pass")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="seed of the acceptance map stream (default 20240811)")
    args = parser.parse_args(argv)

    if not (SRC / "ratmap" / "__init__.py").is_file():
        print(f"error: no ratmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow chatter on stderr
    # one CPU for this process and its setup children, so that the kernels
    # that scale the times run where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import ratmap  # noqa: F401  (loaded before the timed set-up, which imports it afresh)
    import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        def build():
            kwargs = {"workdir": str(workdir)}
            if args.corpus_seed is not None:
                kwargs["corpus_seed"] = args.corpus_seed
            items = workloads.build_items(args.workload, **kwargs)
            for item in items:
                item.prepare()
            return items

        setup_s, setup_raw_s, items = measure_setup(build)
        checker = workloads.Checker()
        deadline_s = DEADLINE_S[args.workload]
        kernel = KERNELS[args.workload]
        if args.trace:
            metrics, units, result = traced_run(items, args, deadline_s, kernel, checker)
        else:
            result = run_passes(items, args.seed, args.seconds, deadline_s, kernel, checker)
            metrics = end_to_end(result, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    n = result.attempted
    print(f"# workload {args.workload}: {result.passes} passes, {n} items, "
          f"deadline {deadline_s} s")
    print(f"# reference kernel median {statistics.median(result.kernel_s):.6f} s "
          f"(reference {result.reference_s} s)")
    print(f"# tail = percentile {100.0 * (n - TAIL_BEYOND) / n:.2f} of {n} samples")
    print(f"# fail_frac = {(n - result.ok) / n:.6g} ratio")
    print("# failures " + json.dumps(taxonomy(result), sort_keys=True))
    if not args.trace:
        raw = timing_metrics(result.raw, result.pass_ends, result.ok)
        raw["setup_s"] = setup_raw_s
        print("# raw wall time: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    failed = result.attempted - result.ok
    print(json.dumps({
        "correct": not any(k.startswith("check") for k in result.failures),
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def traced_run(items, args, deadline_s, kernel, checker):
    """Untraced and traced passes in turn, both in the same sequence of orders,
    so that drift during the run cancels out of the overhead."""
    from tracer import Tracer, metric_units

    plain, traced = Pass(deadline_s, kernel), Pass(deadline_s, kernel)
    plain_rng, traced_rng = random.Random(args.seed), random.Random(args.seed)
    tracer = Tracer()
    start = time.perf_counter()
    while not plain.passes or time.perf_counter() - start < args.seconds:
        run_pass(items, plain_rng, checker, plain)
        tracer.install()
        try:
            run_pass(items, traced_rng, checker, traced)
        finally:
            tracer.uninstall()
    if tracer.missing:
        print("# missing layers: " + "; ".join(tracer.missing))
    overhead_s = (traced.wall_s - plain.wall_s) / plain.passes
    plain.extend(traced)
    return tracer.metrics(traced.passes, overhead_s), metric_units(), plain


if __name__ == "__main__":
    sys.exit(main())
