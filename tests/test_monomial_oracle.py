"""The monomial product and the NE-cycle image against the former helpers.

`algebra._mul_pair` must return the same (sign, monomial) list, in the
same order, as the former (R1) product `_mul_monomials` followed by the
(R2) normalisation `_normalize_monomial`, on random pairs of normal-form
monomials up to degree 4 over the corpus and 200 random polynomial-growth
graphs.  `laurent._image` must give every on-cycle monomial the same
(i, j, n) as the former winding-number walk, on every rotation of the
d-cycles for d = 1..6 with shuffled vertex order and of the NE cycle of
`cycle3_tail`.
"""

import random
from types import SimpleNamespace

import pytest

from leavitt import algebra as alg
from leavitt import laurent as la
from leavitt.fields import make_field
from leavitt.graphs import Cycle, GraphError, Path, analyze, graph_from_dict

from . import reference_algebra as ref
from .conftest import CORPUS, load
from .test_graph_oracle import random_growth_graph

QQ = make_field("Q")


def reference_product(g, m1, m2):
    raw = ref._mul_monomials(g, ref.Monomial(*m1), ref.Monomial(*m2))
    if raw is None:
        return []
    return [(sign, (m.p, m.q, m.vertex)) for sign, m in ref._normalize_monomial(g, *raw)]


def check_products(g, rng, pairs):
    """`pairs` uniform pairs, and as many products p (w*) of a path and a
    ghost path with a common range: the products that (R2) rewrites."""
    basis = alg.enumerate_basis(g, QQ, 4)
    ghosts = {}
    for m in basis:
        if not m.p:
            ghosts.setdefault(m.vertex, []).append(m)
    paths = [m for m in basis if not m.q]
    for _ in range(pairs):
        path = rng.choice(paths)
        ghost = rng.choice(ghosts[path.vertex])
        for m1, m2 in ((rng.choice(basis), rng.choice(basis)), (path, ghost)):
            got = alg._mul_pair(g, m1, m2)
            assert all(type(m) is alg.Monomial for _, m in got)
            assert [(s, tuple(m)) for s, m in got] == reference_product(g, m1, m2), (m1, m2)


@pytest.mark.parametrize("name", CORPUS)
def test_mul_pair_matches_reference_on_corpus(name):
    check_products(load(name), random.Random(name), 2000)


@pytest.mark.parametrize("block", range(4))
def test_mul_pair_matches_reference_on_random_graphs(block):
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(seed)
        check_products(random_growth_graph(rng), rng, 150)


def shuffled_cycle_graph(d, rng):
    vs = ["v%d" % i for i in range(1, d + 1)]
    es = [
        {"id": "a%d" % i, "source": vs[i - 1], "range": vs[i % d]}
        for i in range(1, d + 1)
    ]
    rng.shuffle(vs)
    return graph_from_dict({"vertices": vs, "edges": es})


def on_cycle_monomials(g, cycle, maxlen):
    """Every p q* with p, q paths along the cycle of length <= maxlen and a
    common range, normal or not."""
    d = len(cycle)
    paths = [
        Path(g.source(cycle.edges[i]), tuple(cycle.edges[(i + k) % d] for k in range(n)))
        for i in range(d)
        for n in range(maxlen + 1)
    ]
    return [(p, q) for p in paths for q in paths if p.range(g) == q.range(g)]


def check_images(g, cycle):
    """Each rotation of the cycle gives the images of its least vertex."""
    d = len(cycle)
    for r in range(d):
        check_images_of(g, Cycle(cycle.edges[r:] + cycle.edges[:r]))


def check_images_of(g, cycle):
    d = len(cycle)
    ordered, edges, pi, index = ref._cycle_data(g, cycle)
    pos, edge_set = la._positions(g, cycle), frozenset(cycle.edges)
    monos = on_cycle_monomials(g, cycle, 3 * d)
    assert monos
    for p, q in monos:
        m = alg.Monomial(p.edges, q.edges, p.range(g))
        el = SimpleNamespace(terms={ref.Monomial(*m): 1})  # all `_image_units` reads
        ((i, j, n, _),) = ref._image_units(g, el, pi, index, d)
        assert la._image(g, pos, edge_set, m) == (i, j, n), m.format()
        assert la.cycle_iso_image(g, p, q, cycle) == (i, j, n)


@pytest.mark.parametrize("d", range(1, 7))
def test_image_matches_reference_on_cycles(d):
    rng = random.Random(d)
    for _ in range(3):
        g = shuffled_cycle_graph(d, rng)
        check_images(g, analyze(g).ne_cycles[0])


def test_image_matches_reference_on_cycle_with_tail():
    g = load("cycle3_tail")
    (cycle,) = analyze(g).ne_cycles
    check_images(g, cycle)


def test_element_image_rejects_off_cycle_terms():
    g = load("cycle3_tail")
    (cycle,) = analyze(g).ne_cycles
    tail = alg.edge_element(g, QQ, "t1")
    with pytest.raises(GraphError):
        la.element_iso_image(g, tail, cycle)
    with pytest.raises(GraphError):
        la.element_iso_image(g, alg.vertex_element(g, QQ, "s"), cycle)
    with pytest.raises(GraphError):
        la.cycle_iso_image(g, Path("s", ("t1",)), Path("p", ()), cycle)
