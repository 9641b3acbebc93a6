"""The SCC graph layer against the original cycle-DFS implementation.

Random polynomial-growth graphs are built from blocks (single vertices and
cycles of length 1-4) with edges only from earlier to later blocks, so the
blocks are exactly the strongly connected components.  Vertex and edge
document order is shuffled.  On every graph the `analyze --chain --json`
document, every sink's path count and the entry family (or its witness) of
every NE cycle of every stage must equal the reference's exactly.
Arbitrary random digraphs, most of which fail the growth test, check the
cycle listing, the plain `analyze` document and the NotPolynomialGrowth
witness.
"""

import json
import random

import pytest

from leavitt import cli
from leavitt import graphs as gr
from leavitt.structure import ideal_chain

from . import reference_graphs as ref
from .conftest import CORPUS, graph_path, load


def random_growth_graph(rng):
    blocks, edges = [], []
    for _ in range(rng.randint(1, 7)):
        n = rng.randint(1, 4) if rng.random() < 0.45 else 0
        vs = ["v%d" % (len(blocks) * 4 + i) for i in range(max(n, 1))]
        edges += [(vs[i], vs[(i + 1) % n]) for i in range(n)]
        blocks.append(vs)
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
                edges.append((rng.choice(a), rng.choice(b)))
    vertices = [v for vs in blocks for v in vs]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    ids = ["e%d" % i for i in range(len(edges))]
    rng.shuffle(ids)
    return gr.Graph(tuple(vertices), tuple((e, s, r) for e, (s, r) in zip(ids, edges)))


def random_digraph(rng):
    vertices = ["v%d" % i for i in range(rng.randint(1, 6))]
    edges = [
        ("e%d" % i, rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(0, 9))
    ]
    return gr.Graph(tuple(vertices), tuple(edges))


def _cli_document(g, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_dict()))
    code = cli.main(["analyze", str(path), "--chain", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def _check_against_reference(g, tmp_path, capsys):
    expected = ref.analyze_document(g)
    chain, stages = ref.ideal_chain(g)
    expected["chain"] = chain
    assert _cli_document(g, tmp_path, capsys) == expected
    for v in expected["sinks"]:
        assert gr.count_paths_to_sink(g, v) == ref.count_paths_to_sink(g, v)
    # the chain takes entry families from the input graph, the reference
    # from each stage graph; the witnesses are not in the JSON document
    layers = ideal_chain(g).layers
    for stage, layer in zip(stages[1:], layers[1:]):
        assert gr.compute_V1(stage) == ref.compute_V1(stage)
        for c, factor in zip(ref.analyze(stage)["ne_cycles"], layer):
            family = ref.entry_paths(stage, c)
            assert gr.entry_paths(stage, c) == family
            infinite = isinstance(family, gr.InfiniteFamily)
            assert factor.witness == (family if infinite else None)


def test_random_growth_graphs_match_reference(tmp_path, capsys):
    rng = random.Random(20140108)
    stage_counts = set()
    for _ in range(500):
        g = random_growth_graph(rng)
        _check_against_reference(g, tmp_path, capsys)
        stage_counts.add(len(ref.ideal_chain(g)[1]))
    # the sample reaches chains of several NE stages
    assert max(stage_counts) >= 4


def test_random_digraphs_match_reference(tmp_path, capsys):
    rng = random.Random(1401)
    failing = 0
    for _ in range(300):
        g = random_digraph(rng)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_dict()))
        assert cli.main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == ref.analyze_document(g)
        try:
            ref.ideal_chain(g)
        except gr.NotPolynomialGrowth as exc:
            failing += 1
            assert cli.main(["analyze", str(path), "--chain"]) == 3
            assert capsys.readouterr().err == "error: %s\n" % exc
        else:
            _check_against_reference(g, tmp_path, capsys)
    assert 100 < failing < 300


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name, tmp_path, capsys):
    _check_against_reference(load(name), tmp_path, capsys)


def test_bad_growth_matches_reference(capsys):
    g = load("bad_growth")
    assert cli.main(["analyze", graph_path("bad_growth"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == ref.analyze_document(g)
    with pytest.raises(gr.NotPolynomialGrowth) as expected:
        ref.ideal_chain(g)
    assert cli.main(["analyze", graph_path("bad_growth"), "--chain"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % expected.value
