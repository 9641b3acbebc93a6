"""The frontier-driven span engine: growth probe, graded dimensions,
corner bases and the splitting probe's corner dimensions against closed
forms, independent rebuilds and per-degree references, and the linear
number of products it makes."""

import random

import pytest

from leavitt import algebra as alg
from leavitt.fields import make_field
from leavitt.jacobson import (
    corner_dimension,
    jac_matrix_unit,
    jac_one,
    jac_x,
    jac_y,
    splitting_probe,
)
from leavitt.linalg import SpanBasis
from leavitt.structure import CornerBasis, corner_basis, growth_probe

from .conftest import CORPUS, load
from .test_graph_oracle import random_growth_graph
from .test_jacobson import _corner_dim_brute
from .test_structure import _brute_dims

FIELDS = ["Q", "gf3", "gf2^4"]


def _corner_basis_per_degree(g, e, f, maxdeg):
    """Reference corner_basis: one enumeration per degree, keeping
    the monomials of exactly that degree."""
    span = SpanBasis(e.field)
    basis = []
    dim_at = {}
    for d in range(maxdeg + 1):
        for m in alg.enumerate_basis(g, e.field, d):
            if m.degree != d:
                continue
            el = e * alg.AlgebraElement(g, e.field, {m: e.field.one()}) * f
            if el and span.add(el.coordinates()):
                basis.append(el)
        dim_at[d] = span.rank
    stabilized = maxdeg >= 2 and dim_at[maxdeg] == dim_at[maxdeg - 2]
    return CornerBasis(basis=basis, dimension=span.rank, stabilized=stabilized)


def test_growth_probe_two_loops_closed_form():
    g = load("two_loops")
    u = alg.vertex_element(g, make_field("Q"), "u")
    probe = growth_probe(g, u, 20)
    assert probe.dims == [(2 * n**3 - 3 * n**2 + 13 * n + 6) // 6 for n in range(1, 21)]
    assert probe.verdict == "SuperLinear"


def test_growth_probe_loop_closed_form():
    g = load("loop")
    v = alg.vertex_element(g, make_field("Q"), "v")
    probe = growth_probe(g, v, 30)
    assert probe.dims == [2 * n + 1 for n in range(1, 31)]
    assert probe.verdict == "Linear"


def test_growth_probe_matches_rebuild_on_random_graphs():
    rng = random.Random(20261018)
    checked = 0
    while checked < 16:
        g = random_growth_graph(rng)
        # the rebuild is exponential in n; keep graphs small but not bare
        if not 0 < len(g.edges) <= 7 or len(g.vertices) > 6:
            continue
        field = make_field(rng.choice(FIELDS))
        for v in g.vertices:
            a = alg.vertex_element(g, field, v)
            assert growth_probe(g, a, 4).dims == _brute_dims(g, a, 4), g.to_dict()
        checked += 1


@pytest.mark.parametrize("name", FIELDS)
def test_splitting_probe_corner_dims(name):
    F = make_field(name)
    b1 = jac_x(F) + jac_matrix_unit(F, 1, 2)
    bm1 = jac_y(F) + jac_matrix_unit(F, 2, 1)
    triples = [
        (jac_x(F), jac_y(F), jac_one(F)),
        (jac_x(F), jac_y(F), jac_one(F) + jac_matrix_unit(F, 1, 1)),
        (b1, bm1, b1 * bm1),
    ]
    for b1, bm1, b0 in triples:
        for n in (1, 2, 5, 9):
            dims = [corner_dimension(F, m) for m in range(n + 1)]
            assert dims == [_corner_dim_brute(F, m) for m in range(n + 1)]
            assert splitting_probe(b1, bm1, b0, n).corner_dims == dims


@pytest.mark.parametrize("name", CORPUS)
def test_corner_basis_matches_per_degree_reference(name):
    g = load(name)
    field = make_field("Q")
    idems = [alg.vertex_element(g, field, v) for v in g.vertices]
    idems.append(alg.identity_element(g, field))
    for e in idems:
        for f in idems:
            for maxdeg in (0, 1, 2, 4):
                got = corner_basis(g, e, f, maxdeg)
                want = _corner_basis_per_degree(g, e, f, maxdeg)
                assert got.basis == want.basis
                assert (got.dimension, got.stabilized) == (want.dimension, want.stabilized)


def _count_products(monkeypatch):
    counter = [0]
    original = alg.AlgebraElement.__mul__

    def counting(self, other):
        counter[0] += 1
        return original(self, other)

    monkeypatch.setattr(alg.AlgebraElement, "__mul__", counting)
    return counter


@pytest.mark.parametrize("n", [8, 12])
def test_growth_probe_products_linear_in_rank(monkeypatch, n):
    """Each basis element of G^n costs at most one product per generator
    and the two of a b a."""
    g = load("two_loops")
    field = make_field("Q")
    u = alg.vertex_element(g, field, "u")
    gens = alg.generator_elements(g, field)
    dim = alg.graded_dimension(g, field, n)
    counter = _count_products(monkeypatch)
    growth_probe(g, u, n)
    assert counter[0] <= (len(gens) + 2) * dim


def test_graded_dimension_products_linear_in_rank(monkeypatch):
    """Each basis element costs at most one product per generator."""
    g = load("two_loops")
    field = make_field("Q")
    gens = alg.generator_elements(g, field)
    counter = _count_products(monkeypatch)
    dim = alg.graded_dimension(g, field, 12)
    assert dim == 844
    assert counter[0] <= len(gens) * dim
