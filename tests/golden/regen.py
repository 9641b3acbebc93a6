"""Regenerate the golden CLI outputs in tests/golden/.

    PYTHONPATH=src python tests/golden/regen.py

Writes the seeded JSON inputs of `toeplitz aut`/`involution` to
tests/golden/inputs/ and, for every case, the argv, exit code and stdout
of `leavitt.cli.main` to tests/golden/cli.json.  Run it only on a tree
whose output is known to be right: tests/test_golden_cli.py compares the
current CLI against these files byte for byte.  Paths in argv are
relative to tests/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from leavitt.cli import main

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(TESTS, "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

GRAPHS = [
    "a3", "bad_growth", "cycle2", "cycle3", "cycle3_tail",
    "loop", "toeplitz", "two_loops", "two_sinks",
]
FIELDS = ["Q", "gf2", "gf5", "gf2^4", "gf2^8"]


def run_case(argv):
    """(exit code, stdout) of cli.main on argv with tests/-relative paths."""
    resolved = [a.replace("{tests}", TESTS) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(resolved)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _graph(name):
    with open(os.path.join(TESTS, "graphs", name + ".json")) as fh:
        doc = json.load(fh)
    return doc["vertices"], [e["id"] for e in doc["edges"]]


def calc_cases():
    cases = []
    for name in GRAPHS:
        vs, es = _graph(name)
        v, e = vs[0], es[0]
        last = es[-1]
        exprs = [
            "%s %s'" % (e, e),
            "%s' %s" % (e, e),
            "%s - %s %s'" % (v, e, e),
            "(%s + %s)(%s - %s')" % (v, e, v, e),
            "3 %s + 2/3 %s' - 1" % (e, last),
            "x+1 %s %s'" % (last, last),
            " ".join("%s %s'" % (x, x) for x in es) + " - " + " ".join(vs),
            "(%s - %s')(%s' + 2 %s)(%s %s' - 1)" % (e, last, e, last, e, e),
        ]
        for field in ["Q", "gf2", "gf5", "gf2^4"]:
            for expr in exprs:
                cases.append(["calc", "{tests}/graphs/%s.json" % name, expr, "--field", field])
            cases.append(
                ["calc", "{tests}/graphs/%s.json" % name, "a = %s %s'" % (e, e),
                 "a a - a", "a' + %s'" % last, "--field", field, "--json"]
            )
            cases.append(
                ["calc", "{tests}/graphs/%s.json" % name, "%s %s' + %s" % (e, last, v),
                 "--field", field, "--star"]
            )
    return cases


def analyze_cases():
    cases = []
    for name in GRAPHS:
        path = "{tests}/graphs/%s.json" % name
        cases += [
            ["analyze", path],
            ["analyze", path, "--chain"],
            ["analyze", path, "--json"],
            ["analyze", path, "--chain", "--json"],
        ]
    return cases


def _literal(field, rng, nonzero=False):
    if field == "Q":
        pool = ["1", "-1", "2", "1/2", "-3/4", "5", "0"]
    elif field.startswith("gf2^"):
        k = int(field[4:])
        bits = rng.randrange(1 if nonzero else 0, 2**k)
        terms = ["1" if i == 0 else "x" if i == 1 else "x^%d" % i
                 for i in range(k - 1, -1, -1) if bits >> i & 1]
        return "+".join(terms) or "0"
    else:
        p = int(field[2:])
        pool = [str(i) for i in range(p)]
    choice = rng.choice(pool)
    while nonzero and choice == "0":
        choice = rng.choice(pool)
    return choice


def _write(name, doc):
    with open(os.path.join(INPUTS, name), "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return "{tests}/golden/inputs/" + name


def toeplitz_cases():
    cases = []
    for field in FIELDS:
        for i, j in [(1, 1), (2, 3), (3, 1), (0, 2)]:
            cases.append(["toeplitz", "units", str(i), str(j), "--field", field])
        cases.append(["toeplitz", "units", "2", "2", "--field", field, "--json"])
        probes = [
            [],
            ["-n", "0"],
            ["-n", "8", "--json"],
            ["--b1", "x", "--bm1", "y", "--b0", "1 + y (1 - y x) x"],
            ["--b1", "x + (1 - y x)", "--bm1", "y", "--b0", "1", "-n", "5"],
            ["--b1", "x", "--bm1", "y", "--b0", "1 + 2 (1 - y x)", "--json"],
            ["--b1", "x y x", "--bm1", "y", "-n", "3"],
        ]
        for extra in probes:
            cases.append(["toeplitz", "probe"] + extra + ["--field", field])
        rng = random.Random("golden-" + field)
        tag = field.replace("^", "_")
        auts = []
        for s, n in enumerate((1, 2, 3, 4)):
            fin = [
                [a, b, _literal(field, rng)]
                for a in range(1, n + 1) for b in range(1, n + 1)
                if rng.random() < 0.6
            ]
            doc = {"alpha": _literal(field, rng, nonzero=True), "g": {"finitary": fin}}
            auts.append(_write("aut_%s_%d.json" % (tag, s), doc))
        for path in auts:
            for target in ["c", "c*", "e 1 2", "e 3 1"]:
                cases.append(["toeplitz", "aut", path, "--apply", target, "--field", field])
            cases.append(["toeplitz", "aut", path, "--apply", "c", "--field", field, "--json"])
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            cases.append(["toeplitz", "aut", auts[a], auts[b], "--compose", "--field", field])
        cases.append(
            ["toeplitz", "aut", auts[1], auts[2], "--compose", "--field", field, "--json"]
        )
        for s, n in enumerate((1, 2, 3, 4)):
            fin = {}
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    if rng.random() < 0.6:
                        fin[(a, b)] = fin[(b, a)] = _literal(field, rng)
            alpha = rng.choice(["1", "4", "1/4"]) if field == "Q" else _literal(
                field, rng, nonzero=True
            )
            doc = {"T": {
                "finitary": [[a, b, c] for (a, b), c in sorted(fin.items())],
                "band": [[0, alpha]],
            }}
            path = _write("involution_%s_%d.json" % (tag, s), doc)
            cases.append(["toeplitz", "involution", path, "--field", field])
            cases.append(["toeplitz", "involution", path, "--field", field, "--json"])
    return cases


def main_regen():
    os.makedirs(INPUTS, exist_ok=True)
    cases = analyze_cases() + calc_cases() + toeplitz_cases()
    out = []
    for argv in cases:
        code, stdout = run_case(argv)
        out.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(os.path.join(GOLDEN, "cli.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("%d cases written" % len(out))


if __name__ == "__main__":
    main_regen()
