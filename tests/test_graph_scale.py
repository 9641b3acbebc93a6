"""Graphs far deeper than the interpreter's recursion limit.

The graph layer is iterative throughout: a 10^5-vertex line and a
10^5-vertex graph made of one cycle and a long tail go through analysis,
path counting, the ideal chain and the CLI.  The cycle has 5000 vertices,
five times the default recursion limit and under the entry-path cap.  A
cycle over the cap still gets its size: the chain counts entry paths and
lists none.
"""

import json
import time

import pytest

from leavitt import cli
from leavitt import graphs as gr
from leavitt.structure import MAT_F, MAT_INF_F, MAT_LAURENT, ideal_chain

N = 10**5
CYCLE = 5000


def _line(n):
    vs = ["v%d" % i for i in range(n)]
    return vs, [("e%d" % i, vs[i], vs[i + 1]) for i in range(n - 1)]


def _cycle_with_tail():
    cs = ["c%d" % i for i in range(CYCLE)]
    ts = ["t%d" % i for i in range(N - CYCLE)]
    edges = [("a%d" % i, cs[i], cs[(i + 1) % CYCLE]) for i in range(CYCLE)]
    edges.append(("x", cs[0], ts[0]))
    edges += [("b%d" % i, ts[i], ts[i + 1]) for i in range(len(ts) - 1)]
    return cs + ts, edges


def _write(tmp_path, vs, edges):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(gr.Graph(tuple(vs), tuple(edges)).to_dict()))
    return str(path)


def _cli_json(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_long_line(tmp_path, capsys):
    vs, edges = _line(N)
    g = gr.Graph(tuple(vs), tuple(edges))
    an = gr.analyze(g)
    assert an.cycles == [] and an.sinks == [vs[-1]]
    assert gr.compute_V0(g) == set(vs)
    assert gr.count_paths_to_sink(g, vs[-1]) == N
    report = ideal_chain(g)
    assert report.s == 0
    assert [(f.kind, f.size) for f in report.layers[0]] == [(MAT_F, N)]
    doc = _cli_json(["analyze", _write(tmp_path, vs, edges), "--chain", "--json"], capsys)
    assert doc["chain"]["s"] == 0
    assert doc["chain"]["layers"] == [[{"kind": MAT_F, "anchor": vs[-1], "size": N}]]


def test_calc_scalar_on_long_line(tmp_path, capsys):
    """A bare scalar is a multiple of the identity, the sum of all N vertex
    idempotents; `identity_element` builds it in one pass, not N sums."""
    path = _write(tmp_path, *_line(N))
    start = time.perf_counter()
    code = cli.main(["calc", path, "v0 (1 - v0)"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (0, "0\n"), captured.err
    assert elapsed < 5


def test_long_cycle_with_tail(tmp_path, capsys):
    vs, edges = _cycle_with_tail()
    g = gr.Graph(tuple(vs), tuple(edges))
    an = gr.analyze(g)
    assert len(an.cycles) == 1 and len(an.cycles[0]) == CYCLE
    assert an.cycles[0].edges[0] == "a0"
    assert an.exits[an.cycles[0]] == ["x"]
    assert gr.compute_V0(g) == set(vs[CYCLE:])
    assert gr.count_paths_to_sink(g, vs[-1]) is gr.INFINITE
    report = ideal_chain(g)
    assert report.s == 1
    assert [[(f.kind, f.size) for f in layer] for layer in report.layers] == [
        [(MAT_INF_F, None)],
        [(MAT_LAURENT, CYCLE)],
    ]
    doc = _cli_json(["analyze", _write(tmp_path, vs, edges), "--chain", "--json"], capsys)
    assert doc["chain"]["s"] == 1
    assert doc["V0"] == vs[CYCLE:]


def test_long_cycle_with_chord(tmp_path, capsys):
    """Fails the growth test: both simple cycles are listed, the chain exits 3."""
    n = 2000
    vs = ["u%d" % i for i in range(n)]
    edges = [("a%d" % i, vs[i], vs[(i + 1) % n]) for i in range(n)]
    edges.append(("chord", vs[0], vs[n // 2]))
    path = _write(tmp_path, vs, edges)
    doc = _cli_json(["analyze", path, "--json"], capsys)
    assert doc["polynomial_growth"] is False
    assert [len(c) for c in doc["cycles"]] == [n, n // 2 + 1]
    assert cli.main(["analyze", path, "--chain"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "growth is not polynomial" in captured.err
    with pytest.raises(gr.NotPolynomialGrowth):
        ideal_chain(gr.load_graph(path))


def test_cycle_over_entry_path_cap(tmp_path, capsys):
    n = gr.ENTRY_PATH_CAP + 1
    vs = ["c%d" % i for i in range(n)]
    edges = [("a%d" % i, vs[i], vs[(i + 1) % n]) for i in range(n)]
    path = _write(tmp_path, vs, edges)
    g = gr.load_graph(path)
    with pytest.raises(gr.GraphError, match="exceeded cap"):
        gr.entry_paths(g, gr.analyze(g).ne_cycles[0])
    assert cli.main(["analyze", path, "--chain"]) == 0
    out = capsys.readouterr().out
    assert "  layer 1: M_%d(F[t,t^-1]) at cycle a0" % n in out.splitlines()
    doc = _cli_json(["analyze", path, "--chain", "--json"], capsys)
    assert doc["chain"]["layers"] == [[], [{"kind": MAT_LAURENT, "anchor": "a0", "size": n}]]
