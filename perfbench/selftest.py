"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once, timed and traced, and checks that
- every job passes its reference check;
- two traced runs with the same seed, in separate processes, report the
  same per-layer counts;
- a deliberately wrong expected value is reported as a failed job, and
  the run still ends normally;
- the growth-probe formula for two loops matches the brute-force
  oracle of the test suite for n <= 8;
- in a directory holding only the benchmark, the command fails without
  printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import reference as ref
import run
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))

TINY_PASSES = {
    "chain": [("loop_chain", 3), ("diamond_chain", 2), ("line", 6)],
    "normal_form": [("cycle_iso", 1), ("cycle_iso", 2), ("growth_two_loops", 4),
                    ("growth_loop", 4), ("calc", 1), ("calc", 3), ("calc_diamonds", 2)],
    "toeplitz": [("probe", 4), ("aut_compose", 3), ("aut_apply", 3), ("involution", 5)],
}
TINY_ROWS = {
    "chain": {"loop_chain": [2, 4], "diamond_chain": [2, 3], "line": [4, 8]},
    "normal_form": {"cycle_iso": [1, 2], "growth_two_loops": [3, 4], "growth_loop": [3, 6]},
    "toeplitz": {"probe": [3, 6], "aut_compose": [2, 4], "aut_apply": [2, 4], "involution": [3, 6]},
}


def expect(cond, what):
    if not cond:
        raise SystemExit("FAIL: %s" % what)
    print("PASS: %s" % what)


def tiny_run(workload, seed, trace, seconds=0.3):
    """run.main on the tiny job lists; returns (exit code, result or None)."""
    wl.PASSES, wl.ROWS = TINY_PASSES, TINY_ROWS
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 else None


def traced_counts(workload, seed):
    """Per-layer counts of a tiny traced run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--traced-child", workload, str(seed)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def counts_of(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}


def check_workloads():
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            code, result = tiny_run(workload, 1, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   "%s --trace %d: every job passes its check" % (workload, trace))
        first, second = traced_counts(workload, 3), traced_counts(workload, 3)
        expect(first == second, "%s: per-layer counts repeat across traced runs" % workload)


def check_wrong_expectation():
    good = ref.diamond_paths
    ref.diamond_paths = lambda k: good(k) + 1
    try:
        code, result = tiny_run("chain", 1, 0)
    finally:
        ref.diamond_paths = good
    expect(code == 0 and not result["correct"] and result["failed"] > 0,
           "a wrong expected value counts as a failed job (%d of %d failed)"
           % (result["failed"], result["attempted"]))


def check_growth_formula():
    lv = run.import_leavitt()
    sys.path.insert(0, run.ROOT)
    from tests.test_structure import _brute_dims

    g = lv.graphs.graph_from_dict(ref.graph_doc(
        ["u", "v"], [("b", "u", "u"), ("g", "u", "v"), ("c", "v", "v")]))
    u = lv.algebra.vertex_element(g, lv.fields.make_field("Q"), "u")
    expect(_brute_dims(g, u, 8) == ref.two_loops_dims(8),
           "two-loops growth formula matches _brute_dims for n <= 8")


def check_fails_without_program():
    bare = os.path.join(run.WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "fails without printing a result when src/ is missing (exit %d)" % proc.returncode)


def main():
    if sys.argv[1:2] == ["--traced-child"]:
        workload, seed = sys.argv[2], int(sys.argv[3])
        code, result = tiny_run(workload, seed, 1)
        sys.stdout.write(json.dumps(counts_of(result), sort_keys=True))
        return code
    check_workloads()
    check_wrong_expectation()
    check_growth_formula()
    check_fails_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
