"""Expected outputs computed without the code under test.

Everything here is derived from the shape of a generated input: closed
formulas, documents built from a family's definition, faithful matrix
pictures of graph algebras, and small dense matrix arithmetic over GF(2)
and GF(2^8).
Nothing imports `leavitt`.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# graph families and their analyze --chain documents


def graph_doc(vertices, edges):
    """Graph JSON document; edges are (id, source, range) triples."""
    return {
        "vertices": list(vertices),
        "edges": [{"id": e, "source": s, "range": r} for e, s, r in edges],
    }


def loop_chain_edges(vs, loops, links):
    """m loops v_i -> v_i, each linked to the next vertex; the last vertex
    of `vs` is the sink."""
    edges = []
    for i, (c, l) in enumerate(zip(loops, links)):
        edges.append((c, vs[i], vs[i]))
        edges.append((l, vs[i], vs[i + 1]))
    return edges


def diamond_chain_edges(vs, es, k):
    """k diamonds a_{i-1} -> b_i, c_i -> a_i; vertices a_0, (b_i, c_i, a_i)*."""
    edges = []
    for i in range(k):
        a, b, c, a2 = vs[3 * i], vs[3 * i + 1], vs[3 * i + 2], vs[3 * i + 3]
        p, q, r, s = es[4 * i:4 * i + 4]
        edges += [(p, a, b), (q, a, c), (r, b, a2), (s, c, a2)]
    return edges


def line_edges(vs, es):
    return [(es[i], vs[i], vs[i + 1]) for i in range(len(vs) - 1)]


def loop_chain_report(vs, loops, links):
    """Chain of m loops ending in a sink: s = m, M_inf(F) at the sink,
    then M_inf(F[t,t^-1]) stages from the last loop down, and M_1 at the
    first loop."""
    m = len(loops)
    sink = vs[-1]
    edges = loop_chain_edges(vs, loops, links)
    layers = [[{"kind": "MatInfOverF", "anchor": sink}]]
    stages = [graph_doc(vs, edges)]
    for j in range(1, m + 1):
        k = m - j + 1  # loops left at stage j
        stage_edges = [e for e in edges if e[2] in vs[:k]]
        stages.append(graph_doc(vs[:k], stage_edges))
        if k > 1:
            layers.append([{"kind": "MatInfOverLaurent", "anchor": loops[k - 1]}])
        else:
            layers.append([{"kind": "MatOverLaurent", "anchor": loops[0], "size": 1}])
    return {
        "sinks": [sink],
        "cycles": [[c] for c in loops],
        "ne_cycles": [],
        "exits": {c: [l] for c, l in zip(loops, links)},
        "polynomial_growth": True,
        "V0": [sink],
        "chain": {"layers": layers, "s": m, "stages": stages},
    }


def acyclic_report(vs, edges, size):
    """A connected acyclic graph with a single sink (the last vertex)
    reached by `size` paths: socle M_size(F), s = 0."""
    sink = vs[-1]
    return {
        "sinks": [sink],
        "cycles": [],
        "ne_cycles": [],
        "exits": {},
        "polynomial_growth": True,
        "V0": list(vs),
        "chain": {
            "layers": [[{"kind": "MatOverF", "anchor": sink, "size": size}]],
            "s": 0,
            "stages": [graph_doc(vs, edges)],
        },
    }


def diamond_paths(k):
    """Paths ending at the sink of k diamonds, the trivial path included."""
    return 2 ** (k + 2) - 3


def first_difference(expected, actual, where="$"):
    """Path of the first place two JSON values differ, or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return "%s keys %s != %s" % (where, sorted(expected), sorted(actual))
        for key in expected:
            diff = first_difference(expected[key], actual[key], "%s.%s" % (where, key))
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return "%s length %d != %d" % (where, len(expected), len(actual))
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_difference(e, a, "%s[%d]" % (where, i))
            if diff:
                return diff
        return None
    if expected != actual or type(expected) is not type(actual):
        return "%s %r != %r" % (where, expected, actual)
    return None


# ---------------------------------------------------------------------------
# growth probe dimensions


def two_loops_dims(n_max):
    """dim u G^n u for two loops b at u, g: u -> v, c at v."""
    return [(2 * n**3 - 3 * n**2 + 13 * n + 6) // 6 for n in range(1, n_max + 1)]


def loop_dims(n_max):
    return [2 * n + 1 for n in range(1, n_max + 1)]


def probe_corner_dims(n):
    """(1 - yx) y^i = 0 for i >= 1, so the corner at degree m is spanned
    by (1 - yx) x^j, j <= m."""
    return list(range(1, n + 2))


# ---------------------------------------------------------------------------
# Faithful matrix pictures of two kinds of graph algebra.  A word of
# generators (vertex ids, edge ids, ghost ids ending in ') maps to a sum of
# matrix units; two elements are equal iff their pictures are.
#
# A d-cycle: L(C_d) is M_d(F[t, t^-1]).  Vertex v_k -> e_kk, edge
# a_k: v_k -> v_{k+1} -> e_{k,k+1} (t e_{d-1,0} for the closing edge),
# ghost a_k* -> the conjugate transpose.  A unit is (i, j, n) for t^n e_ij,
# and a word maps to one unit or to zero.


def cycle_word_image(vs, es):
    d = len(vs)
    units = {}
    for k, v in enumerate(vs):
        units[v] = (k, k, 0)
        wrap = 1 if k == d - 1 else 0
        units[es[k]] = (k, (k + 1) % d, wrap)
        units[es[k] + "'"] = ((k + 1) % d, k, -wrap)

    def image(word):
        acc = units[word[0]]
        for name in word[1:]:
            u = units[name]
            if acc[1] != u[0]:
                return []
            acc = (acc[0], u[1], acc[2] + u[2])
        return [acc]

    return image


# A finite acyclic graph: L(E) is the product over sinks s of M_n(s)(F),
# rows and columns indexed by the paths ending at s.  Vertex v ->
# sum e_{g,g} over paths g from v to a sink; edge e -> sum e_{eg,g} over
# paths g from r(e); ghost e* -> the transpose.  Each generator is a
# partial injection column -> row, and a word maps to a set of units
# (row, column) with coefficient 1.


def dag_word_image(vs, edges):
    out = {v: [] for v in vs}
    for e, s, r in edges:
        out[s].append((e, r))
    paths = {}  # v -> edge tuples of the paths from v to a sink
    for v in reversed(vs):  # every edge points forward in document order
        paths[v] = [(e,) + p for e, r in out[v] for p in paths[r]] if out[v] else [()]
    maps = {}
    for v in vs:
        maps[v] = {(v, p): (v, p) for p in paths[v]}
    for e, s, r in edges:
        maps[e] = {(r, p): (s, (e,) + p) for p in paths[r]}
        maps[e + "'"] = {(s, (e,) + p): (r, p) for p in paths[r]}

    def image(word):
        acc = dict(maps[word[-1]])
        for name in reversed(word[:-1]):
            m = maps[name]
            acc = {c: m[r] for c, r in acc.items() if r in m}
        return [(r, c) for c, r in acc.items()]

    return image


def combination_image(word_image, terms):
    """Picture of sum c * word as a map unit -> nonzero Fraction."""
    out = {}
    for coeff, word in terms:
        for u in word_image(word):
            acc = out.get(u, 0) + Fraction(coeff)
            if acc:
                out[u] = acc
            else:
                out.pop(u)
    return out


_COEFF_RE = re.compile(r"-?\d+(?:/\d+)?$")


def parse_normal_form(text):
    """Terms (coefficient, generator word) of a printed normal form."""
    if text.strip() == "0":
        return []
    terms = []
    sign, coeff, word = 1, None, []
    for tok in text.split() + ["+"]:
        if tok in "+-":
            if coeff is not None or word:
                terms.append((sign * (coeff if coeff is not None else 1), word))
            sign, coeff, word = (1 if tok == "+" else -1), None, []
        elif _COEFF_RE.match(tok) and not word:
            coeff = Fraction(tok)
        else:
            word.append(tok)
    return terms


# ---------------------------------------------------------------------------
# GF(2^8) with the AES modulus x^8 + x^4 + x^3 + x + 1


GF256_MODULUS = 0x11B
_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    # multiply by the generator x + 1
    _x ^= (_x << 1) ^ (GF256_MODULUS if _x & 0x80 else 0)
del _i, _x


def gf256_mul(a, b):
    if not a or not b:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf256_inv(a):
    if not a:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def gf2k_str(bits):
    """Polynomial notation used by the CLI, e.g. x^7+x+1."""
    if not bits:
        return "0"
    parts = []
    for i in range(bits.bit_length() - 1, -1, -1):
        if bits >> i & 1:
            parts.append("1" if i == 0 else ("x" if i == 1 else "x^%d" % i))
    return "+".join(parts)


def gf2k_parse(text):
    bits = 0
    for part in text.replace(" ", "").split("+"):
        if part == "0":
            continue
        if part == "1":
            bits ^= 1
        elif part == "x":
            bits ^= 2
        elif part.startswith("x^"):
            bits ^= 1 << int(part[2:])
        else:
            raise ValueError("bad GF(2^k) literal %r" % text)
    return bits


def gf256_rank(rows):
    """Rank of a dense matrix (list of lists of ints) over GF(2^8)."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = gf256_inv(rows[rank][col])
        prow = [gf256_mul(inv, x) for x in rows[rank]]
        rows[rank] = prow
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x ^ gf256_mul(c, y) for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


def gf256_matmul(a, b):
    n, m = len(a), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i, row in enumerate(a):
        orow = out[i]
        for k, aik in enumerate(row):
            if not aik:
                continue
            brow = b[k]
            for j in range(m):
                if brow[j]:
                    orow[j] ^= gf256_mul(aik, brow[j])
    return out


def gf256_pi(alpha, size):
    """diag(1, alpha, alpha^2, ...) on the size x size corner."""
    out = [[0] * size for _ in range(size)]
    p = 1
    for i in range(size):
        out[i][i] = p
        p = gf256_mul(p, alpha)
    return out


def dense_from_json(doc, size, limit, parse):
    """Dense size x size corner of an almost-Toeplitz JSON document.

    Finitary entries must lie inside the limit x limit corner, so that the
    rows and columns past it show the band alone; returns None otherwise."""
    out = [[0] * size for _ in range(size)]
    for k, c in doc.get("band", []):
        v = parse(c)
        for i in range(size):
            j = i + int(k)
            if 0 <= j < size:
                out[i][j] ^= v
    for i, j, c in doc.get("finitary", []):
        i, j = int(i), int(j)
        if not (1 <= i <= limit and 1 <= j <= limit):
            return None
        out[i - 1][j - 1] ^= parse(c)
    return out


def shift_down(size):
    """The lower shift sum e_{i+1,i} (image of y) on a corner."""
    out = [[0] * size for _ in range(size)]
    for i in range(1, size):
        out[i][i - 1] = 1
    return out


def corner(m, size):
    return [row[:size] for row in m[:size]]


# ---------------------------------------------------------------------------
# dense GF(2) with rows as bitmasks


def gf2_gram(m):
    """M M^t for a dense 0/1 matrix: dot products of rows, mod 2."""
    rows = [sum(bit << c for c, bit in enumerate(row)) for row in m]
    return [[bin(a & b).count("1") & 1 for b in rows] for a in rows]


def transpose(m):
    return [list(col) for col in zip(*m)]
