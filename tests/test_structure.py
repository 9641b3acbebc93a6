"""Ideal chain reports, corner bases, and the growth probe."""

import pytest

from leavitt import algebra as alg
from leavitt.fields import make_field
from leavitt.structure import (
    MAT_F,
    MAT_INF_F,
    MAT_INF_LAURENT,
    MAT_LAURENT,
    corner_basis,
    growth_probe,
    ideal_chain,
    ne_layer,
    socle_layer,
)

from .conftest import load


def _shape(report):
    return [[(f.kind, f.size) for f in layer] for layer in report.layers]


def test_chain_line_graph():
    report = ideal_chain(load("a3"))
    assert _shape(report) == [[(MAT_F, 3)]]
    assert report.s == 0


def test_chain_loop():
    report = ideal_chain(load("loop"))
    assert _shape(report) == [[], [(MAT_LAURENT, 1)]]
    assert report.s == 1


def test_chain_toeplitz():
    report = ideal_chain(load("toeplitz"))
    assert _shape(report) == [[(MAT_INF_F, None)], [(MAT_LAURENT, 1)]]
    assert report.s == 1
    assert report.layers[0][0].anchor == "v2"
    assert report.layers[1][0].anchor == "c"


def test_chain_two_loops():
    report = ideal_chain(load("two_loops"))
    assert _shape(report) == [[], [(MAT_INF_LAURENT, None)], [(MAT_LAURENT, 1)]]
    assert report.s == 2


def test_chain_two_sinks():
    report = ideal_chain(load("two_sinks"))
    # sizes are path counts into each sink
    assert _shape(report) == [[(MAT_F, 3), (MAT_F, 5)]]
    assert report.s == 0


def test_chain_cycle3_tail():
    report = ideal_chain(load("cycle3_tail"))
    assert _shape(report) == [[], [(MAT_LAURENT, 4)]]


def test_socle_sizes_match_path_enumeration():
    from leavitt.graphs import all_paths_to_sink

    g = load("two_sinks")
    layer = socle_layer(g)
    by_anchor = {f.anchor: f for f in layer}
    for sink in ("s1", "s2"):
        assert by_anchor[sink].size == len(all_paths_to_sink(g, sink))


def test_socle_counts_without_enumerating_paths(monkeypatch):
    """16 diamonds in a row: 2^18 - 3 paths end at the sink, none is built."""
    import time

    from leavitt import graphs as gr

    k = 16
    vs = ["a0"]
    edges = []
    for i in range(1, k + 1):
        a, b, c, a2 = vs[-1], "b%d" % i, "c%d" % i, "a%d" % i
        vs += [b, c, a2]
        edges += [("p%d" % i, a, b), ("q%d" % i, a, c)]
        edges += [("r%d" % i, b, a2), ("s%d" % i, c, a2)]
    g = gr.Graph(tuple(vs), tuple(edges))

    def no_enumeration(*args):
        raise AssertionError("paths enumerated")

    monkeypatch.setattr(gr, "all_paths_to_sink", no_enumeration)
    start = time.perf_counter()
    report = ideal_chain(g)
    assert time.perf_counter() - start < 1.0
    assert _shape(report) == [[(MAT_F, 2 ** (k + 2) - 3)]]


def test_ne_sizes_match_entry_paths():
    from leavitt.graphs import analyze, entry_paths

    g = load("cycle3_tail")
    layer = ne_layer(g)
    assert len(layer) == 1
    cycle = analyze(g).ne_cycles[0]
    assert layer[0].size == len(entry_paths(g, cycle))


def test_report_json():
    doc = ideal_chain(load("toeplitz")).to_dict()
    assert doc["s"] == 1
    assert doc["layers"][0][0]["kind"] == MAT_INF_F


def test_corner_basis_line_graph():
    g = load("a3")
    field = make_field("Q")
    idems = [alg.vertex_element(g, field, v) for v in g.vertices]
    for e in idems:
        for f in idems:
            cb = corner_basis(g, e, f, maxdeg=6)
            # all three vertices feed the single sink w
            assert cb.dimension == 1
            assert cb.stabilized


def test_corner_basis_two_sinks():
    g = load("two_sinks")
    field = make_field("Q")
    # path idempotents p p* for full paths into each sink
    from leavitt.graphs import all_paths_to_sink

    q1, q2 = all_paths_to_sink(g, "s1")[-1], all_paths_to_sink(g, "s2")[-1]
    p1 = alg.monomial_element(g, field, q1, q1)
    p2 = alg.monomial_element(g, field, q2, q2)
    same = corner_basis(g, p1, p1, maxdeg=8)
    cross = corner_basis(g, p1, p2, maxdeg=8)
    assert same.dimension == 1 and same.stabilized
    assert cross.dimension == 0


def test_corner_basis_requires_idempotents():
    g = load("a3")
    field = make_field("Q")
    e1 = alg.edge_element(g, field, "e1")
    with pytest.raises(alg.AlgebraError):
        corner_basis(g, e1, e1, maxdeg=4)


def _brute_dims(g, a, n_max):
    """Independent computation of dim a G^n a by explicit span building."""
    from leavitt.linalg import SpanBasis

    field = a.field
    gens = alg.generator_elements(g, field)
    words = [w for w in gens]
    all_words = list(words)
    dims = []
    for n in range(1, n_max + 1):
        if n > 1:
            words = [gen * w for gen in gens for w in words if gen * w]
            all_words.extend(words)
        span = SpanBasis(field)
        for w in all_words:
            el = a * w * a
            if el:
                span.add(el.coordinates())
        dims.append(span.rank)
    return dims


def test_growth_probe_two_loops():
    g = load("two_loops")
    field = make_field("Q")
    v = alg.vertex_element(g, field, "v")
    u = alg.vertex_element(g, field, "u")
    pv = growth_probe(g, v, 8)
    pu = growth_probe(g, u, 6)
    assert pv.verdict == "Linear"
    assert pu.verdict == "SuperLinear"
    assert pv.dims == _brute_dims(g, v, 8)
    assert pu.dims == _brute_dims(g, u, 6)


def test_growth_probe_loop_linear():
    g = load("loop")
    field = make_field("Q")
    v = alg.vertex_element(g, field, "v")
    probe = growth_probe(g, v, 8)
    assert probe.verdict == "Linear"
    assert probe.dims == [2 * n + 1 for n in range(1, 9)]
