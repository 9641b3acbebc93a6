"""Workloads: seeded inputs, the jobs that consume them and their checks.

A job is one call of a public entry point of `leavitt`: `cli.main(argv)`
in-process with stdout captured, or a library function where the CLI has
no command for it (`verify_cycle_iso`, `growth_probe`).  The seed draws
ids, words, conjugators and matrices; family shapes and document order
are fixed, because document order changes the cost of the graph layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import string
from dataclasses import dataclass

import reference as ref

WORKLOADS = ("chain", "normal_form", "toeplitz")

# The jobs of one pass of the closed loop, cheapest first.  The median of
# job latency falls between the 10th and 11th of the 20 jobs and the 90th
# percentile between the 18th and 19th, so each of those pairs is one job
# type run twice, with the jobs of other families next to it at least a
# fifth cheaper or dearer.  A slow spell on the host then moves each
# percentile with that job's cost, and families that slow down by
# different amounts cannot swap across it.  Costs rise by about a fifth
# from one job to the next elsewhere.
LADDERS = {
    "chain": [
        ("diamond_chain", 3), ("loop_chain", 6), ("diamond_chain", 4), ("line", 20),
        ("loop_chain", 9), ("line", 25), ("diamond_chain", 5), ("loop_chain", 10),
        ("line", 32), ("line", 37), ("line", 37), ("line", 42),
        ("loop_chain", 15), ("loop_chain", 17), ("line", 50), ("diamond_chain", 7),
        ("line", 60), ("loop_chain", 24), ("loop_chain", 24), ("diamond_chain", 9),
    ],
    "normal_form": [
        ("calc", 4), ("calc_diamonds", 2), ("calc", 2), ("growth_two_loops", 3),
        ("cycle_iso", 1), ("growth_loop", 8), ("growth_two_loops", 4), ("growth_loop", 10),
        ("growth_loop", 11), ("growth_loop", 13), ("growth_loop", 13), ("growth_loop", 16),
        ("growth_two_loops", 6), ("growth_loop", 20), ("growth_two_loops", 7), ("growth_loop", 22),
        ("growth_loop", 24), ("growth_two_loops", 8), ("growth_two_loops", 8), ("cycle_iso", 2),
    ],
    "toeplitz": [
        ("involution", 6), ("aut_apply", 4), ("aut_compose", 4), ("involution", 10),
        ("aut_apply", 6), ("probe", 10), ("aut_compose", 6), ("probe", 12),
        ("involution", 14), ("aut_compose", 8), ("aut_compose", 8), ("aut_apply", 10),
        ("involution", 18), ("aut_compose", 10), ("aut_apply", 12), ("aut_compose", 11),
        ("involution", 22), ("probe", 24), ("probe", 24), ("probe", 28),
    ],
}


def _interleave(ladder):
    """Cheapest, dearest, second cheapest, second dearest, ...: any prefix
    of a pass sits about evenly around the median."""
    out = []
    lo, hi = 0, len(ladder) - 1
    while lo <= hi:
        out.append(ladder[lo])
        if lo != hi:
            out.append(ladder[hi])
        lo, hi = lo + 1, hi - 1
    return out


PASSES = {w: _interleave(ladder) for w, ladder in LADDERS.items()}

# Per-size rows of the traced run, for growth exponents and the baseline
# figures that later changes quote (loop chain m = 50, cycle_iso d = 3..5,
# growth_two_loops n = 8, 10, 12).
ROWS = {
    "chain": {
        "loop_chain": [10, 20, 30, 40, 50],
        "diamond_chain": [6, 8, 10, 12],
        "line": [50, 100, 200, 400],
    },
    "normal_form": {
        "cycle_iso": [2, 3, 4, 5],
        "growth_two_loops": [8, 10, 12],
        "growth_loop": [10, 20, 30],
    },
    "toeplitz": {
        "probe": [10, 20, 40, 60],
        "aut_compose": [8, 16, 24],
        "aut_apply": [8, 16, 24],
        "involution": [20, 40, 60],
    },
}

# A forward line longer than the interpreter's recursion limit: the cycle
# search recurses once per vertex, so cli.main raises RecursionError on
# it.  Run once per chain run, outside the timed loop, so the defect stays
# visible without making the timed job list one on which jobs fail.
DEFECT_PROBE = ("line", 1200)


@dataclass
class Job:
    family: str
    size: int
    call: object  # () -> output
    check: object  # output -> None, or a description of the mismatch

    @property
    def name(self):
        return "%s/%d" % (self.family, self.size)


class Inputs:
    """Seeded input generator writing its files under one directory."""

    def __init__(self, lv, workload, seed, workdir):
        self.lv = lv
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def ids(self, n):
        """n distinct identifiers, valid in graph documents and calc."""
        out = set()
        while len(out) < n:
            out.add("".join(self.rng.choice(string.ascii_lowercase) for _ in range(6)))
        out = sorted(out)  # set order depends on the hash seed
        self.rng.shuffle(out)
        return out

    def write(self, stem, doc):
        self.count += 1
        path = os.path.join(self.workdir, "%03d-%s.json" % (self.count, stem))
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def cli_call(lv, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lv.cli.main(argv)
        return code, out.getvalue()

    return call


def json_check(compare):
    """Check of a CLI result: exit code 0 and a JSON document on stdout."""

    def check(result):
        code, text = result
        if code != 0:
            return "exit code %r" % (code,)
        return compare(json.loads(text))

    return check


def expect_doc(expected):
    return json_check(lambda doc: ref.first_difference(expected, doc))


# ---------------------------------------------------------------------------
# chain: analyze --chain --json on graph families


def loop_chain(inp, m):
    ids = inp.ids(3 * m + 1)
    vs, loops, links = ids[:m + 1], ids[m + 1:2 * m + 1], ids[2 * m + 1:]
    path = inp.write("loop_chain", ref.graph_doc(vs, ref.loop_chain_edges(vs, loops, links)))
    return Job(
        "loop_chain", m,
        cli_call(inp.lv, ["analyze", path, "--chain", "--json"]),
        expect_doc(ref.loop_chain_report(vs, loops, links)),
    )


def _diamonds(inp, k):
    ids = inp.ids(7 * k + 1)
    vs, es = ids[:3 * k + 1], ids[3 * k + 1:]
    return vs, ref.diamond_chain_edges(vs, es, k)


def diamond_chain(inp, k):
    vs, edges = _diamonds(inp, k)
    path = inp.write("diamond_chain", ref.graph_doc(vs, edges))
    return Job(
        "diamond_chain", k,
        cli_call(inp.lv, ["analyze", path, "--chain", "--json"]),
        expect_doc(ref.acyclic_report(vs, edges, ref.diamond_paths(k))),
    )


def line(inp, n):
    ids = inp.ids(2 * n - 1)
    vs, es = ids[:n], ids[n:]
    edges = ref.line_edges(vs, es)
    path = inp.write("line", ref.graph_doc(vs, edges))
    return Job(
        "line", n,
        cli_call(inp.lv, ["analyze", path, "--chain", "--json"]),
        expect_doc(ref.acyclic_report(vs, edges, n)),
    )


# ---------------------------------------------------------------------------
# normal_form: rewriting and field arithmetic over Q


def _cycle(inp, d):
    ids = inp.ids(2 * d)
    vs, es = ids[:d], ids[d:]
    return vs, es, [(es[k], vs[k], vs[(k + 1) % d]) for k in range(d)]


def cycle_iso(inp, d):
    lv = inp.lv
    vs, es, edges = _cycle(inp, d)
    g = lv.graphs.load_graph(inp.write("cycle_iso", ref.graph_doc(vs, edges)))
    cycle = lv.graphs.Cycle(tuple(es))
    field = lv.fields.make_field("Q")
    return Job(
        "cycle_iso", d,
        lambda: lv.laurent.verify_cycle_iso(g, cycle, 3 * d, field),
        lambda ok: None if ok is True else "verify_cycle_iso returned %r" % (ok,),
    )


def _growth(inp, family, vs, edges, at, expected_dims, n):
    lv = inp.lv
    g = lv.graphs.load_graph(inp.write(family, ref.graph_doc(vs, edges)))
    a = lv.algebra.vertex_element(g, lv.fields.make_field("Q"), at)
    expected = expected_dims(n)

    def check(probe):
        if probe.dims != expected:
            return "dims %r != %r" % (probe.dims, expected)
        return None

    return Job(family, n, lambda: lv.structure.growth_probe(g, a, n), check)


def growth_two_loops(inp, n):
    u, v, b, g, c = inp.ids(5)
    edges = [(b, u, u), (g, u, v), (c, v, v)]
    return _growth(inp, "growth_two_loops", [u, v], edges, u, ref.two_loops_dims, n)


def growth_loop(inp, n):
    v, c = inp.ids(2)
    return _growth(inp, "growth_loop", [v], [(c, v, v)], v, ref.loop_dims, n)


def _walk(rng, vs, edges, length):
    """A generator word whose product is not zero: each factor starts
    where the previous one ends."""
    at = rng.choice(vs)
    word = []
    for _ in range(length):
        steps = [(e, r) for e, s, r in edges if s == at]
        steps += [(e + "'", s) for e, s, r in edges if r == at]
        if rng.random() < 0.1 or not steps:
            word.append(at)
        else:
            name, at = rng.choice(steps)
            word.append(name)
    return word


def _weighted_sum(rng, vs, edges):
    terms = []
    text = ""
    for i in range(rng.randint(2, 3)):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        word = _walk(rng, vs, edges, rng.randint(4, 9))
        sign = "-" if coeff < 0 else ("+" if i else "")
        text += "%s %d %s " % (sign, abs(coeff), " ".join(word))
        terms.append((coeff, word))
    return terms, text.strip()


def _calc(inp, family, size, vs, edges, word_image):
    """calc of a product of two weighted sums of words.  The picture of
    the output's normal form must equal the product of the factors'
    pictures."""
    path = inp.write(family, ref.graph_doc(vs, edges))
    left, ltext = _weighted_sum(inp.rng, vs, edges)
    right, rtext = _weighted_sum(inp.rng, vs, edges)
    expanded = [(a * b, u + w) for a, u in left for b, w in right]
    expected = ref.combination_image(word_image, expanded)

    def compare(doc):
        nf = doc["results"][0]["normal_form"]
        got = ref.combination_image(word_image, ref.parse_normal_form(nf))
        return None if got == expected else "picture of %r differs" % nf

    expr = "(%s)(%s)" % (ltext, rtext)
    return Job(family, size, cli_call(inp.lv, ["calc", path, expr, "--json"]), json_check(compare))


def calc(inp, d):
    """calc on a d-cycle, checked through L(C_d) = M_d(F[t, t^-1])."""
    vs, es, edges = _cycle(inp, d)
    return _calc(inp, "calc", d, vs, edges, ref.cycle_word_image(vs, es))


def calc_diamonds(inp, k):
    """calc on k diamonds, checked through L(E) = M_n(F), n = 2^(k+2) - 3.
    Vertices with two out-edges make (R2) expand into sums with signs."""
    vs, edges = _diamonds(inp, k)
    return _calc(inp, "calc_diamonds", k, vs, edges, ref.dag_word_image(vs, edges))


# ---------------------------------------------------------------------------
# toeplitz: the xy = 1 toolkit, GF(2^k) bitmask fields


def probe(inp, n):
    expected = {
        "kind": "dimension_contradiction",
        "truncation": n,
        "P_rows": [],
        "P_cols": [],
        "dim_rho_cap_sigma": 0,
        "corner_dims": ref.probe_corner_dims(n),
        "witness": None,
    }
    return Job(
        "probe", n,
        cli_call(inp.lv, ["toeplitz", "probe", "-n", str(n), "--json"]),
        expect_doc(expected),
    )


def _conjugator(inp, n):
    """Nonzero alpha and an invertible Id + finitary block over GF(2^8)."""
    rng = inp.rng
    while True:
        fin = [[rng.randrange(256) for _ in range(n)] for _ in range(n)]
        dense = [[fin[i][j] ^ (i == j) for j in range(n)] for i in range(n)]
        if ref.gf256_rank(dense) == n:
            break
    alpha = rng.randrange(1, 256)
    doc = {
        "alpha": ref.gf2k_str(alpha),
        "g": {"finitary": [
            [i + 1, j + 1, ref.gf2k_str(fin[i][j])]
            for i in range(n) for j in range(n) if fin[i][j]
        ]},
    }
    return alpha, dense, inp.write("aut", doc)


def _embed(block, size):
    """Id + (block - Id) on a size x size corner."""
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    for i, row in enumerate(block):
        out[i][:len(row)] = row
    return out


def aut_compose(inp, n):
    """The composite's conjugator must equal pi(a) g pi(b) h."""
    a, g, phi = _conjugator(inp, n)
    b, h, psi = _conjugator(inp, n)
    size = n + 2
    expected = ref.gf256_matmul(
        ref.gf256_matmul(ref.gf256_pi(a, size), _embed(g, size)),
        ref.gf256_matmul(ref.gf256_pi(b, size), _embed(h, size)),
    )
    ab = ref.gf256_mul(a, b)

    def compare(doc):
        if ref.gf2k_parse(doc["alpha"]) != ab:
            return "alpha %r != %s" % (doc["alpha"], ref.gf2k_str(ab))
        if doc["g"].get("band") != [[0, "1"]]:
            return "g is not Id + finitary: band %r" % (doc["g"].get("band"),)
        g2 = ref.dense_from_json(doc["g"], size, size - 1, ref.gf2k_parse)
        if g2 is None:
            return "finitary support beyond the %d corner" % (size - 1)
        got = ref.gf256_matmul(ref.gf256_pi(ab, size), g2)
        return None if got == expected else "conjugator differs"

    argv = ["toeplitz", "aut", phi, psi, "--compose", "--field", "gf2^8", "--json"]
    return Job("aut_compose", n, cli_call(inp.lv, argv), json_check(compare))


def aut_apply(inp, n):
    """The image Y of the shift c must satisfy X Y = c X, X = pi(a) g."""
    a, g, phi = _conjugator(inp, n)
    size = n + 4
    x = ref.gf256_matmul(ref.gf256_pi(a, size), _embed(g, size))
    cx = ref.corner(ref.gf256_matmul(ref.shift_down(size), x), size - 1)

    def compare(doc):
        y = ref.dense_from_json(doc, size, size - 2, ref.gf2k_parse)
        if y is None:
            return "finitary support beyond the %d corner" % (size - 2)
        xy = ref.corner(ref.gf256_matmul(x, y), size - 1)
        return None if xy == cx else "X Y != c X"

    argv = ["toeplitz", "aut", phi, "--apply", "c", "--field", "gf2^8", "--json"]
    return Job("aut_apply", n, cli_call(inp.lv, argv), json_check(compare))


def involution(inp, n):
    """T = L L^t with L unit lower triangular over GF(2), so symmetric
    elimination never stalls; the output must satisfy Q^t Q = T."""
    rng = inp.rng
    lower = [[1 if i == j else (rng.randrange(2) if j < i else 0) for j in range(n)]
             for i in range(n)]
    t = ref.gf2_gram(lower)
    fin = [[i + 1, j + 1, "1"] for i in range(n) for j in range(n) if t[i][j] != (i == j)]
    path = inp.write("involution", {"T": {"finitary": fin, "band": [[0, "1"]]}})
    size = n + 2
    expected = _embed(t, size)

    def compare(doc):
        if doc["Q"].get("band") != [[0, "1"]]:
            return "Q is not Id + finitary: band %r" % (doc["Q"].get("band"),)
        q = ref.dense_from_json(doc["Q"], size, size - 1, int)
        if q is None:
            return "finitary support beyond the %d corner" % (size - 1)
        return None if ref.gf2_gram(ref.transpose(q)) == expected else "Q^t Q != T"

    argv = ["toeplitz", "involution", path, "--field", "gf2", "--json"]
    return Job("involution", n, cli_call(inp.lv, argv), json_check(compare))


FAMILIES = {
    "loop_chain": loop_chain,
    "diamond_chain": diamond_chain,
    "line": line,
    "cycle_iso": cycle_iso,
    "growth_two_loops": growth_two_loops,
    "growth_loop": growth_loop,
    "calc": calc,
    "calc_diamonds": calc_diamonds,
    "probe": probe,
    "aut_compose": aut_compose,
    "aut_apply": aut_apply,
    "involution": involution,
}


def build(inp, specs):
    return [FAMILIES[family](inp, size) for family, size in specs]
