"""Benchmark of the `leavitt` library and CLI, end to end and per layer.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

One client runs the workload's jobs in a closed loop in this process, one
job after another, in full passes of the job list until the jobs have
taken --seconds of wall time.  Every output is checked against a
reference computed without `leavitt`; checking time is not job time.  The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

--trace 0 reports the end-to-end metrics, scaled to a nominal host speed
(see `calibrate`).  --trace 1 runs a fixed amount
of work instead (two passes of the job list untraced, two traced, then
per-size rows), so that every count repeats exactly for a given seed, and
reports the per-layer metrics; spans go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import types
from collections import Counter
from fractions import Fraction
from time import perf_counter

import workloads as wl
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")
MODULES = ("fields", "graphs", "linalg", "algebra", "structure", "laurent",
           "jacobson", "automorphisms", "cli")
SETUP_REPEATS = 9
SETUP_EVERY = 3  # passes between two set-ups in a timed run
PROBE_EVERY = 4  # jobs between two calibration probes in a pass
# Median time of `calibration_kernel` on the host the figures were first
# taken on (2 vCPUs of a shared x86-64 host, CPython 3): scaled timings
# read as seconds on that host at its usual speed.
NOMINAL_KERNEL_S = 0.014
TRACE_PASSES = 2
# The over-limit line fails fast today; a version that no longer recurses
# but is still cubic would take minutes, and a run must end within 180 s.
DEFECT_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def import_leavitt():
    """A fresh import of the package under src/ of this checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "leavitt", "__init__.py")):
        raise BenchError("no leavitt package under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "leavitt" or n.startswith("leavitt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("leavitt")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "leavitt"):
        raise BenchError("imported leavitt from %s, not from %s" % (pkg.__file__, src))
    return types.SimpleNamespace(**{m: importlib.import_module("leavitt." + m) for m in MODULES})


def setup(workload, seed, specs, workdir):
    """Import leavitt, then generate and write the inputs; timed."""
    t0 = perf_counter()
    lv = import_leavitt()
    jobs = wl.build(wl.Inputs(lv, workload, seed, workdir), specs)
    return perf_counter() - t0, lv, jobs


def calibration_kernel():
    """Fixed interpreter-bound work that never touches leavitt: dict and
    set updates, tuples, Fractions, integer arithmetic and sorting, the
    operations the workloads spend their time in."""
    rng = random.Random(7)
    table = {}
    acc = Fraction(0)
    for i in range(1200):
        key = (rng.randrange(40), rng.randrange(40))
        table[key] = table.get(key, 0) ^ (i * 2654435761 & 255)
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    words = [tuple(rng.randrange(9) for _ in range(6)) for _ in range(400)]
    rotations = set()
    for w in words:
        for a in range(len(w)):
            rotations.add(w[a:] + w[:a])
    return len(sorted(table.items())), acc, len(sorted(rotations))


def calibrate():
    """Seconds the calibration kernel takes now, garbage collection off.

    On a shared host a neighbour's load slows this process by a third or
    more, for seconds to minutes at a time, and slows the kernel with it.
    A timing multiplied by NOMINAL_KERNEL_S / calibrate() measured around
    it is the time at the nominal host speed: the program's share of a
    change survives, the neighbours' share does not."""
    gc.disable()
    try:
        t0 = perf_counter()
        calibration_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled_setup(workload, seed, specs, workdir):
    """setup(), its time scaled by probes just before and after it."""
    before = calibrate()
    seconds, lv, jobs = setup(workload, seed, specs, workdir)
    scale = 2 * NOMINAL_KERNEL_S / (before + calibrate())
    return seconds * scale, lv, jobs


def run_job(job):
    """(job seconds, None or a description of the failure)."""
    t0 = perf_counter()
    try:
        out = job.call()
    except (Exception, SystemExit) as exc:
        return perf_counter() - t0, "raised %s" % type(exc).__name__
    elapsed = perf_counter() - t0
    try:
        problem = job.check(out)
    except Exception as exc:
        problem = "check raised %s: %s" % (type(exc).__name__, exc)
    return elapsed, problem


class Tally:
    def __init__(self):
        self.latencies = []
        self.failures = Counter()
        self.busy = 0.0

    def run(self, job):
        elapsed, problem = run_job(job)
        self.latencies.append(elapsed)
        self.busy += elapsed
        if problem:
            self.failures["%s: %s" % (job.name, problem)] += 1
        return elapsed, problem

    @classmethod
    def merge(cls, tallies):
        out = cls()
        for t in tallies:
            out.latencies += t.latencies
            out.failures.update(t.failures)
            out.busy += t.busy
        return out

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())

    def jobs_per_s(self):
        return (self.attempted - self.failed) / self.busy


def tail_percentile(n):
    """90, or the highest whole percentile with at least 10 samples above it."""
    if n >= 100:
        return 90
    return max(1, math.floor(100 * (1 - 10 / n))) if n > 10 else 50


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def defect_probe(lv, workload, seed, workdir):
    """Run the over-limit line once; returns (outcome, seconds, ok).

    outcome is "passed", the mismatch, or the exception raised; ok is
    False only for a wrong answer."""
    job = wl.build(wl.Inputs(lv, workload + "-defect", seed, workdir), [wl.DEFECT_PROBE])[0]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, DEFECT_TIMEOUT_S)
    try:
        elapsed, problem = run_job(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    ok = problem is None or problem.startswith("raised")
    return "%s %s" % (job.name, problem or "passed"), elapsed, ok


def print_failures(tally):
    for what, n in sorted(tally.failures.items()):
        print("failed %dx %s" % (n, what))


def timed_run(args, workdir):
    """Full passes of the job list until the jobs have taken args.seconds.

    A calibration probe runs before every PROBE_EVERY-th job and after the
    last; each pass's job times are scaled by the mean of its probes (see
    `calibrate`).  jobs_per_s comes from the median scaled pass, the
    latencies from all scaled jobs.  Set-up is repeated between passes, so
    that its median, too, is not one moment's."""
    specs = wl.PASSES[args.workload]
    calibrate()  # warm-up
    seconds, lv, jobs = scaled_setup(args.workload, args.seed, specs, workdir)
    setups = [seconds]
    passes = []
    scales = []
    while sum(t.busy for t in passes) < args.seconds:
        tally = Tally()
        probes = []
        for k, job in enumerate(jobs):
            if k % PROBE_EVERY == 0:
                probes.append(calibrate())
            tally.run(job)
        probes.append(calibrate())
        passes.append(tally)
        scales.append(NOMINAL_KERNEL_S / statistics.mean(probes))
        if len(passes) % SETUP_EVERY == 0 and len(setups) < SETUP_REPEATS:
            setups.append(scaled_setup(args.workload, args.seed, specs, workdir)[0])
    rss = peak_rss_mb()
    while len(setups) < SETUP_REPEATS:
        setups.append(scaled_setup(args.workload, args.seed, specs, workdir)[0])
    everything = Tally.merge(passes)
    correct = everything.failed == 0
    if args.workload == "chain":
        outcome, seconds, ok = defect_probe(lv, args.workload, args.seed, workdir)
        print("known defect probe: %s after %.3f s" % (outcome, seconds))
        correct = correct and ok
    scaled = [x * scale for t, scale in zip(passes, scales) for x in t.latencies]
    pass_s = statistics.median(t.busy * scale for t, scale in zip(passes, scales))
    passed_share = 1 - everything.failed / everything.attempted
    n = len(scaled)
    tail = tail_percentile(n)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (passed_share * len(jobs) / pass_s, "1/s"),
        "job_p50_ms": (1000 * statistics.median(scaled), "ms"),
        "job_p90_ms": (1000 * percentile(scaled, tail), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    print("workload %s seed %d: %d passes of %d jobs in %.3f s of job time"
          % (args.workload, args.seed, len(passes), len(jobs), everything.busy))
    print("unscaled: %.4f jobs/s, p50 %.4f ms, p90 %.4f ms"
          % (everything.jobs_per_s(), 1000 * statistics.median(everything.latencies),
             1000 * percentile(everything.latencies, tail)))
    quartiles = statistics.quantiles(scales, n=4)
    print("host speed vs nominal, per pass: min %.3f q1 %.3f median %.3f q3 %.3f max %.3f"
          % (min(scales), quartiles[0], quartiles[1], quartiles[2], max(scales)))
    print("scaled timings below over %d jobs; job_p90_ms is their p%d" % (n, tail))
    print("setup_s median of %d scaled set-ups: %s"
          % (len(setups), " ".join("%.4f" % s for s in setups)))
    print("fail_ratio %.4f (%d of %d jobs)"
          % (everything.failed / everything.attempted, everything.failed, everything.attempted))
    print_failures(everything)
    for name, (value, unit) in metrics.items():
        print("%-12s %12.4f %s" % (name, value, unit))
    return {
        "correct": correct,
        "attempted": everything.attempted,
        "failed": everything.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def fit_exponent(rows):
    """Least-squares slope of log(seconds) against log(size)."""
    pts = [(math.log(size), math.log(sec)) for size, sec in rows if sec > 0]
    if len(pts) < 2:
        return float("nan")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def traced_run(args, workdir):
    specs = wl.PASSES[args.workload]
    row_specs = [(f, s) for f, sizes in wl.ROWS[args.workload].items() for s in sizes]
    _, lv, jobs = setup(args.workload, args.seed, specs + row_specs, workdir)
    jobs, row_jobs = jobs[:len(specs)], jobs[len(specs):]

    untraced = Tally()
    for _ in range(TRACE_PASSES):
        for job in jobs:
            untraced.run(job)
    tracer = Tracer(lv)
    traced = Tally()
    tracer.install()
    try:
        for p in range(TRACE_PASSES):
            for k, job in enumerate(jobs):
                tracer.job = "%d.%d %s" % (p, k, job.name)
                traced.run(job)
        defect = None
        if args.workload == "chain":
            tracer.job = "defect %s/%d" % wl.DEFECT_PROBE
            defect = defect_probe(lv, args.workload, args.seed, workdir)
    finally:
        tracer.uninstall()

    rows = Tally()
    table = []
    for job in row_jobs:
        times = [rows.run(job)[0]]
        while sum(times) < 0.5 and len(times) < 5:
            times.append(rows.run(job)[0])
        table.append((job.family, job.size, statistics.median(times), len(times)))
    exponents = {}
    for family in wl.ROWS[args.workload]:
        exponents[family] = fit_exponent([(s, t) for f, s, t, _ in table if f == family])

    overhead = untraced.jobs_per_s() / traced.jobs_per_s()
    print("workload %s seed %d traced: %d passes of %d jobs"
          % (args.workload, args.seed, TRACE_PASSES, len(jobs)))
    print("jobs_per_s untraced %.3f traced %.3f: tracing overhead x%.3f"
          % (untraced.jobs_per_s(), traced.jobs_per_s(), overhead))
    if defect:
        print("known defect probe: %s after %.3f s" % defect[:2])
    print("self time by module (s):")
    for mod, s in sorted(tracer.module_self_times().items(), key=lambda kv: -kv[1]):
        print("  %-14s %10.4f" % (mod, s))
    print("per-size rows (median of n runs, untraced):")
    for family, size, sec, n in table:
        print("  %-18s %5d %10.4f s  n=%d" % (family, size, sec, n))
    for family, e in exponents.items():
        print("growth exponent %-18s %.2f" % (family, e))
    metrics = tracer.metrics()
    for name, m in metrics.items():
        print("%-30s %14.6g %s" % (name, m["value"], m["unit"]))
    for tally in (untraced, traced, rows):
        print_failures(tally)

    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, "trace-%s-%d.json" % (args.workload, args.seed))
    tracer.dump(path, {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_jobs_per_s": untraced.jobs_per_s(),
        "traced_jobs_per_s": traced.jobs_per_s(),
        "rows": [{"family": f, "size": s, "seconds": t, "runs": n} for f, s, t, n in table],
        "exponents": exponents,
        "known_defect": defect[0] if defect else None,
        "metrics": metrics,
    })
    print("spans written to %s" % os.path.relpath(path, ROOT))
    failed = untraced.failed + traced.failed + rows.failed
    return {
        "correct": failed == 0 and (defect is None or defect[2]),
        "attempted": untraced.attempted + traced.attempted + rows.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(WORKDIR, "inputs-%d" % os.getpid())
    try:
        result = (traced_run if args.trace else timed_run)(args, workdir)
    except (BenchError, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
