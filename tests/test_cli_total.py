"""The CLI is total: every argv and every JSON document ends in exit code
0, 2, 3, 4 or 5, an error leaves stdout empty, and no other exception
escapes `cli.main`.

A seeded fuzz on the stdlib `random` module, so the suite needs nothing
beyond pytest.  Argument strings hold no NUL: a process cannot receive one.
"""

import contextlib
import io
import json
import random

import pytest

from leavitt.cli import MAX_FINITARY_INDEX, MAX_PROBE_N, main

from .conftest import graph_path

CODES = {0, 2, 3, 4, 5}
SEED = 20141
CASES = 1500
DEEP = 2000  # past the old parsers' recursion limit, cheap to parse

GRAPHS = ["a3", "bad_growth", "loop", "toeplitz", "two_sinks", "cycle3_tail"]
VALID_FIELDS = ["Q", "gf2", "gf5", "gf2^4", "gf2^8"]
FIELDS = VALID_FIELDS * 4 + [
    "Q", "q", "QQ", "gf2", "gf3", "gf5", "GF7", " gf5 ", "gf4", "gf8", "gf2^1",
    "gf2^4", "gf2^8", "gf2^16", "gf2^17", "gf2^0", "gf1", "gf0", "gf6", "gf9",
    "gf2147483647", "gf2147483659", "gf1000000000000", "gf" + "7" * 5000,
    "gf2^" + "1" * 5000, "", "gfx", "F",
]
# -n, units indices and --apply targets: at and just past each cap, and junk.
NUMBERS = [
    "-1", "0", "1", "2", "7", "20", str(MAX_PROBE_N + 1), str(MAX_FINITARY_INDEX),
    str(MAX_FINITARY_INDEX + 1), "30000", "9" * 30, "9" * 5000, "abc", "1e3", "0x10",
    " 5", "+3", "1_0", "٣", "",
]
TARGETS = [
    "c", "c*", "c'", "e 1 1", "e 2 3", "e 0 1", "e -1 2", "e +1 2", "e 1_0 2",
    "e ٣ 2", "e 1 %d" % MAX_FINITARY_INDEX, "e 1 %d" % (MAX_FINITARY_INDEX + 1),
    "e 1 30000", "e a b", "e 1", "e 1 2 3", "e 1 " + "9" * 5000, "", "d", "c c",
]
JUNK = list("#é\t∗{}[].,;!~\\\"?&|=^/'") + ["²", "٣", "x^", "1/", "//"]
FLAGS = [
    "--json", "--chain", "--star", "--field", "--apply", "--compose", "-n",
    "--truncation", "--b1", "--bm1", "--b0", "--bogus", "-", "--", "-h",
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check(argv):
    try:
        code, out = run(argv)
    except Exception as exc:  # the property under test: nothing escapes
        pytest.fail("%r raised %s: %s" % (argv, type(exc).__name__, exc))
    assert code in CODES, argv
    if code != 0:
        assert out == "", argv


def _mutate(rng, toks):
    """Tokens with, at times, one deleted or one junk character put in."""
    r = rng.random()
    if r < 0.08 and toks:
        del toks[rng.randrange(len(toks))]
    elif r < 0.15:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(JUNK))
    return toks


def _expr(rng, atoms, depth=0):
    """Tokens of a random expression of the calc/probe grammar."""
    toks = [rng.choice("+-")] if rng.random() < 0.2 else []
    for i in range(rng.randint(1, 3)):
        if i:
            toks.append(rng.choice("+-"))
        if rng.random() < 0.3:
            toks.append(rng.choice(["2", "1", "3"] * 3 + ["3/4", "x+1", "1/0", "x^3"]))
        for _ in range(rng.randint(1, 2)):
            if depth < 3 and rng.random() < 0.2:
                toks += ["("] + _expr(rng, atoms, depth + 1) + [")"]
            else:
                toks.append(rng.choice(atoms) + rng.choice(["", "", " *"]))
    return toks


def _deep(rng, text):
    """`text`, at times inside DEEP parentheses, balanced or one short."""
    if rng.random() < 0.1:
        text = "(" * DEEP + text + ")" * rng.choice([DEEP, DEEP, DEEP - 1])
    return text


def _calc_exprs(rng, vertices, edges):
    """1 to 3 expressions over a graph's ids and the names bound so far."""
    atoms = (vertices + edges + ["%s'" % e for e in edges]) * 4 + ["a", "%s'" % vertices[0]]
    exprs = []
    for _ in range(rng.randint(1, 3)):
        text = _deep(rng, " ".join(_mutate(rng, _expr(rng, atoms))))
        if rng.random() < 0.3:
            name = rng.choice(["b", "b_1"] * 8 + vertices + edges + ["2", "", "b'", "x y"])
            text = "%s = %s" % (name, text)
            atoms += [name, name + "'"] * 4
        exprs.append(text)
    return exprs


def _probe_expr(rng):
    text = " ".join(_mutate(rng, _expr(rng, ["x", "y", "xy", "yx"])))
    return rng.choice([_deep(rng, text), "x", "y", "1", "1 + y (1 - y x) x"])


def _record(rng, arity):
    """A finitary ([i, j, scalar]) or band ([k, scalar]) record, at times malformed."""
    if rng.random() < 0.95:
        return [rng.randint(1, 4) for _ in range(arity - 1)] + [rng.choice(["1", "2", "3", 1])]
    indices = [0, -1, MAX_FINITARY_INDEX, MAX_FINITARY_INDEX + 1, 1.5, "1", True]
    rec = [rng.choice(indices) for _ in range(arity - 1)]
    rec.append(rng.choice(["zz", None, [], 2.5, True, "1/0"]))
    return rng.choice([rec, rec[:-1], rec + [1], {}, "r", None])


def _matrix(rng, symmetric=False):
    fin = [_record(rng, 3) for _ in range(rng.randint(0, 4))]
    if symmetric:
        fin += [[r[1], r[0], r[2]] for r in fin if isinstance(r, list) and len(r) == 3 and r[0] != r[1]]
    doc = {"finitary": fin}
    if rng.random() < 0.3:
        doc["band"] = rng.choice([[[0, "1"]], [[0, "2"]], [[1, "1"]], [_record(rng, 2)]])
    return rng.choice([doc] * 20 + [[], None, "m", {"finitary": {}}])


def _graph(rng):
    """(document, ids) of a small graph, at times malformed."""
    vs = rng.sample(["v", "w", "u", "s"], rng.randint(1, 4))
    edges = [
        {"id": "e%d" % k, "source": rng.choice(vs), "range": rng.choice(vs)}
        for k in range(rng.randint(0, 5))
    ]
    ids = (vs, [e["id"] for e in edges])
    if rng.random() < 0.2:  # a wrong type, a duplicate or a missing key
        bad = rng.choice(["v", "e0", "", 1, None, ["v"]])
        if rng.random() < 0.5 or not edges:
            vs.append(bad)
        else:
            rng.choice(edges)[rng.choice(["id", "source", "range"])] = bad
    doc = {"vertices": vs, "edges": edges}
    return rng.choice([doc] * 20 + [{"vertices": {}, "edges": []}, {"edges": []}, []]), ids


JUNK_DOCUMENTS = [
    b"", b"null", b"[1,", b"NaN", b"1e999", b"\xff\xfe{}", b'{"vertices": "\xe9"}',
    b"[" * 10**5, b'{"a":' * 10**5, b"9" * 5000, b'{"alpha": ' + b"9" * 5000 + b"}",
    b'{"alpha": "1", "g": {"finitary": [[1, ' + b"9" * 400 + b', "1"]]}}',
]


def _documents(rng, tmp_path, n):
    """Files of each kind: {"graph": {path: ids}, "aut": [...], "matrix": [...]}."""
    files = {"graph": {}, "aut": [], "matrix": []}
    for name in GRAPHS:
        with open(graph_path(name)) as fh:
            doc = json.load(fh)
        files["graph"][graph_path(name)] = (doc["vertices"], [e["id"] for e in doc["edges"]])
    for k in range(n):
        path = str(tmp_path / ("doc%02d.json" % k))
        kind = ("graph", "aut", "matrix")[k % 3]
        if kind == "graph":
            doc, files["graph"][path] = _graph(rng)
        elif kind == "aut":
            doc = {"alpha": rng.choice(["1", "2", "3", 5] * 3 + ["x", "0", None]), "g": _matrix(rng)}
            if rng.random() < 0.1:
                del doc[rng.choice(["alpha", "g"])]
            files["aut"].append(path)
        else:
            doc = _matrix(rng, symmetric=rng.random() < 0.8)
            if isinstance(doc, dict) and rng.random() < 0.8:
                doc["band"] = [[0, rng.choice(["1", "2", "x", "4"])]]
            doc = {"T": doc} if rng.random() < 0.5 else doc
            files["matrix"].append(path)
        with open(path, "w") as fh:
            json.dump(doc, fh)
    junk = []
    for k, data in enumerate(JUNK_DOCUMENTS):
        path = tmp_path / ("junk%02d.json" % k)
        path.write_bytes(data)
        junk.append(str(path))
    junk += [str(tmp_path / "missing.json"), str(tmp_path)]
    files["junk"] = junk
    return files


def _pick(rng, files, kind):
    """A file of `kind`, or now and then one of any kind."""
    pool = list(files[kind])
    if rng.random() < 0.1:
        pool = files["junk"] + list(files["graph"]) + files["aut"] + files["matrix"]
    return rng.choice(pool)


def _argv(rng, files):
    field = ["--field", rng.choice(FIELDS)] if rng.random() < 0.6 else []
    flags = ["--json"] if rng.random() < 0.3 else []
    command = rng.choice(["analyze", "calc", "calc", "units", "probe", "aut", "involution", "junk"])
    if command == "analyze":
        flags = rng.sample(["--chain", "--json"], rng.randint(0, 2))
        return ["analyze", _pick(rng, files, "graph")] + flags
    if command == "calc":
        path = _pick(rng, files, "graph")
        vertices, edges = files["graph"].get(path, (["v"], ["c"]))
        vertices = [v for v in vertices if isinstance(v, str) and v] or ["v"]
        edges = [e for e in edges if isinstance(e, str)]
        exprs = _calc_exprs(rng, vertices, edges)
        star = ["--star"] if rng.random() < 0.3 else []
        return ["calc", path] + exprs + field + star + flags
    if command == "units":
        return ["toeplitz", "units", rng.choice(NUMBERS), rng.choice(NUMBERS)] + field + flags
    if command == "probe":
        argv = ["toeplitz", "probe"]
        for flag in ("--b1", "--bm1", "--b0"):
            if rng.random() < 0.5:
                argv += [flag, _probe_expr(rng)]
        if rng.random() < 0.5:  # the at-cap run takes 0.5 s and is one of the fixed cases
            argv += ["-n", rng.choice([n for n in NUMBERS if n != str(MAX_PROBE_N)])]
        return argv + field + flags
    if command == "aut":
        mode = rng.choice([["--apply", rng.choice(TARGETS)]] * 6 + [["--compose"]] * 3 + [[], ["--compose", "--apply", "c"]])
        count = rng.choice([1, 2, 3]) if rng.random() < 0.1 else 1 + ("--compose" in mode)
        paths = [_pick(rng, files, "aut") for _ in range(count)]
        return ["toeplitz", "aut"] + paths + mode + field + flags
    if command == "involution":
        return ["toeplitz", "involution", _pick(rng, files, "matrix")] + field + flags
    pool = FLAGS + ["analyze", "calc", "toeplitz", "units", "probe", "aut", "involution"]
    pool += list(files["graph"]) + NUMBERS
    return [rng.choice(pool) for _ in range(rng.randint(0, 5))]


FIXED = [
    ["toeplitz", "probe", "-n", str(MAX_PROBE_N)],
    ["toeplitz", "probe", "-n", str(MAX_PROBE_N + 1)],
    ["toeplitz", "units", str(MAX_FINITARY_INDEX), str(MAX_FINITARY_INDEX)],
    ["toeplitz", "units", "1", str(MAX_FINITARY_INDEX + 1)],
    ["calc", graph_path("toeplitz"), "c", "--field", "gf999999999989"],
    ["calc", graph_path("toeplitz"), "x^99999999999999 c", "--field", "gf2^4"],
    ["calc", graph_path("toeplitz"), "x^" + "9" * 5000 + " c", "--field", "gf2^4"],
    ["calc", graph_path("toeplitz"), "9" * 5000 + " c", "--field", "gf5"],
    [],
    ["toeplitz"],
]


def test_fixed_argv_end_in_documented_codes():
    for argv in FIXED:
        check(argv)


def test_random_argv_and_documents_end_in_documented_codes(tmp_path):
    rng = random.Random(SEED)
    files = _documents(rng, tmp_path, 60)
    for _ in range(CASES):
        check(_argv(rng, files))
