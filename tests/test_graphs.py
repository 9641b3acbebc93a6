"""Graph loading, cycle analysis, V0/V1 layers, quotients, entry paths."""

import random
import re

import pytest

from leavitt.graphs import (
    INFINITE,
    Cycle,
    Graph,
    GraphError,
    InfiniteFamily,
    NotPolynomialGrowth,
    Path,
    all_paths_to_sink,
    analyze,
    compute_V0,
    compute_V1,
    count_paths_to_sink,
    entry_paths,
    graph_from_dict,
    quotient_graph,
)
from leavitt.structure import ideal_chain

from .conftest import CORPUS, load
from .test_graph_oracle import random_digraph


def test_load_validation():
    with pytest.raises(GraphError):
        graph_from_dict({"vertices": ["v", "v"], "edges": []})
    with pytest.raises(GraphError):
        graph_from_dict(
            {"vertices": ["v"], "edges": [{"id": "e", "source": "v", "range": "w"}]}
        )
    with pytest.raises(GraphError):
        graph_from_dict(
            {
                "vertices": ["v"],
                "edges": [
                    {"id": "e", "source": "v", "range": "v"},
                    {"id": "e", "source": "v", "range": "v"},
                ],
            }
        )


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ((), (), "empty vertex set"),
        (("v", "w", "v"), (), "duplicate vertex id 'v'"),
        (("v",), (("e", "v", "v"), ("e", "v", "v")), "duplicate id 'e'"),
        (("v", "w"), (("w", "v", "v"),), "duplicate id 'w'"),
        (("v",), (("e", "x", "v"),), "edge 'e' has undeclared source 'x'"),
        (("v",), (("e", "v", "x"),), "edge 'e' has undeclared range 'x'"),
        # the checks run edge by edge, in this order
        (("v",), (("e", "v", "v"), ("e", "x", "y")), "duplicate id 'e'"),
        (("v",), (("e", "x", "y"),), "edge 'e' has undeclared source 'x'"),
        (("v",), (("e", "v", "x"), ("f", "y", "v")), "edge 'e' has undeclared range 'x'"),
    ],
)
def test_graph_validation_messages(vertices, edges, message):
    with pytest.raises(GraphError) as info:
        Graph(vertices, edges)
    assert str(info.value) == message


def _tables(g):
    """position, ends, out and into recomputed from vertices and edges."""
    return (
        {v: i for i, v in enumerate(g.vertices)},
        {eid: (s, r) for eid, s, r in g.edges},
        {v: tuple(eid for eid, s, _ in g.edges if s == v) for v in g.vertices},
        {v: tuple(eid for eid, _, r in g.edges if r == v) for v in g.vertices},
    )


def test_tables_match_vertices_and_edges():
    rng = random.Random(27)
    graphs = [load(name) for name in CORPUS + ["bad_growth"]]
    graphs += [random_digraph(rng) for _ in range(300)]
    for g in list(graphs):
        try:
            graphs += ideal_chain(g).stages[1:]
        except NotPolynomialGrowth:
            pass
    assert len(graphs) > 320
    for g in graphs:
        assert (g.position, g.ends, g.out, g.into) == _tables(g)


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"vertices": [["x"]], "edges": []}, "['x']"),
        ({"vertices": [""], "edges": []}, "''"),
        ({"vertices": [7], "edges": []}, "7"),
        ({"vertices": "ab", "edges": []}, "vertices"),
        ({"vertices": ["v"], "edges": "e"}, "edges"),
        ({"vertices": ["v"], "edges": [{"id": 3, "source": "v", "range": "v"}]}, "3"),
        ({"vertices": ["v"], "edges": [{"id": "", "source": "v", "range": "v"}]}, "''"),
        ({"vertices": ["v"], "edges": [{"id": "e", "source": ["v"], "range": "v"}]}, "['v']"),
        ({"vertices": ["v"], "edges": [{"id": "e", "source": "v", "range": None}]}, "None"),
    ],
)
def test_load_rejects_bad_ids(doc, named):
    with pytest.raises(GraphError, match=re.escape(named)):
        graph_from_dict(doc)


def test_roundtrip(corpus):
    for g in corpus.values():
        assert graph_from_dict(g.to_dict()) == g


def test_analyze_toeplitz():
    g = load("toeplitz")
    an = analyze(g)
    assert an.sinks == ["v2"]
    assert [c.edges for c in an.cycles] == [("c",)]
    assert an.ne_cycles == []
    assert an.exits[Cycle(("c",))] == ["f"]
    assert an.polynomial_growth is True


def test_analyze_two_loops():
    g = load("two_loops")
    an = analyze(g)
    assert an.sinks == []
    assert sorted(c.edges for c in an.cycles) == [("b",), ("c",)]
    assert [c.edges for c in an.ne_cycles] == [("c",)]
    assert an.polynomial_growth is True


def test_analyze_cycle3_tail():
    g = load("cycle3_tail")
    an = analyze(g)
    assert len(an.cycles) == 1
    assert an.cycles[0].edges == ("a1", "a2", "a3")
    assert an.ne_cycles == an.cycles
    assert an.polynomial_growth is True


def test_analyze_bad_growth():
    g = load("bad_growth")
    an = analyze(g)
    assert an.polynomial_growth is False
    with pytest.raises(NotPolynomialGrowth) as exc:
        compute_V1(g)
    # witness pair of intersecting cycles is recorded
    c1, c2 = exc.value.witness
    assert c1 != c2
    assert set(c1.vertices(g)) & set(c2.vertices(g))


def test_V0():
    assert compute_V0(load("toeplitz")) == {"v2"}
    assert compute_V0(load("a3")) == {"u", "v", "w"}
    assert compute_V0(load("loop")) == set()
    assert compute_V0(load("two_sinks")) == {"r", "a", "b", "s1", "s2"}
    assert compute_V0(load("two_loops")) == set()


def test_V0_hereditary_and_saturated(corpus):
    for g in corpus.values():
        v0 = compute_V0(g)
        for eid, s, r in g.edges:
            if s in v0:
                assert r in v0
        for v in g.vertices:
            outs = g.out_edges(v)
            if outs and all(g.range(e) in v0 for e in outs):
                assert v in v0


def test_V1():
    assert compute_V1(load("loop")) == {"v"}
    assert compute_V1(load("two_loops")) == {"v"}
    assert compute_V1(load("cycle3_tail")) == {"p", "q", "r", "s"}
    # after removing the sink layer of the Toeplitz graph, the loop is NE
    g = quotient_graph(load("toeplitz"), compute_V0(load("toeplitz")))
    assert compute_V1(g) == {"v1"}


def test_quotient():
    g = load("toeplitz")
    q = quotient_graph(g, {"v2"})
    assert list(q.vertices) == ["v1"]
    assert [eid for eid, s, r in q.edges] == ["c"]
    assert quotient_graph(g, {"v1", "v2"}) is None
    with pytest.raises(GraphError):
        quotient_graph(g, {"v1"})  # not hereditary: c... f leaves the set


def test_entry_paths_isolated_cycles():
    for name, d in (("loop", 1), ("cycle2", 2), ("cycle3", 3)):
        g = load(name)
        cycle = analyze(g).ne_cycles[0]
        paths = entry_paths(g, cycle)
        assert isinstance(paths, list)
        assert len(paths) == d
        assert sum(1 for p in paths if len(p) == 0) == d


def test_entry_paths_with_tail():
    g = load("cycle3_tail")
    cycle = analyze(g).ne_cycles[0]
    paths = entry_paths(g, cycle)
    # three trivial paths plus the tail edge
    assert len(paths) == 4
    tail = Path("p", ("t1",))
    assert tail in paths
    assert tail.source(g) == "s" and tail.range(g) == "p"


def test_entry_paths_infinite_family():
    g = load("two_loops")
    cycle = analyze(g).ne_cycles[0]
    fam = entry_paths(g, cycle)
    assert isinstance(fam, InfiniteFamily)
    assert fam.witness_cycle.edges == ("b",)
    assert fam.connecting_path.edges == ("g",)


def test_count_paths_to_sink():
    g = load("two_sinks")
    # paths ending at the sink, trivial path included
    assert count_paths_to_sink(g, "s1") == 3
    assert count_paths_to_sink(g, "s2") == 5
    assert count_paths_to_sink(load("toeplitz"), "v2") is INFINITE
    with pytest.raises(GraphError):
        count_paths_to_sink(g, "r")


def test_all_paths_to_sink_matches_count():
    g = load("two_sinks")
    for v in ("s1", "s2"):
        paths = all_paths_to_sink(g, v)
        assert len(paths) == count_paths_to_sink(g, v)
        assert len(set(paths)) == len(paths)
        for p in paths:
            assert p.range(g) == v
