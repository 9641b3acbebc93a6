"""Normal forms, relation checks, basis enumeration, and the parser."""

import random
import re

import pytest

from leavitt import algebra as alg
from leavitt.algebra import (
    ParseError,
    edge_element,
    enumerate_basis,
    enumerate_paths,
    ghost_element,
    graded_dimension,
    identity_element,
    parse_element,
    vertex_element,
    zero,
)
from leavitt.fields import make_field
from leavitt.linalg import SpanBasis

from .conftest import CORPUS, load

FIELDS = ["Q", "gf2", "gf5"]


def _random_element(rng, g, field, maxdeg=3, nterms=3):
    basis = enumerate_basis(g, field, maxdeg)
    el = zero(g, field)
    for _ in range(nterms):
        m = rng.choice(basis)
        c = field.from_int(rng.randint(-4, 4))
        el = el + alg.AlgebraElement(g, field, {m: c} if c else {})
    return el


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("fname", FIELDS)
def test_ck_relations(name, fname):
    """The four defining relations normalize to zero."""
    g = load(name)
    field = make_field(fname)
    zero_el = zero(g, field)
    vs = {v: vertex_element(g, field, v) for v in g.vertices}
    # (i) orthogonal idempotents
    for v in g.vertices:
        assert vs[v] * vs[v] - vs[v] == zero_el
        for w in g.vertices:
            if w != v:
                assert vs[v] * vs[w] == zero_el
    for eid, s, r in g.edges:
        e = edge_element(g, field, eid)
        ge = ghost_element(g, field, eid)
        # (ii) source/range idempotents absorb
        assert vs[s] * e - e == zero_el
        assert e * vs[r] - e == zero_el
        assert vs[r] * ge - ge == zero_el
        assert ge * vs[s] - ge == zero_el
        # (iii) ghost-edge orthogonality
        for fid, _, fr in g.edges:
            f = edge_element(g, field, fid)
            expect = vs[r] if fid == eid else zero_el
            assert ge * f == expect
    # (iv) vertex = sum of e e* over out-edges
    for v in g.vertices:
        outs = g.out_edges(v)
        if not outs:
            continue
        acc = zero_el
        for eid in outs:
            e = edge_element(g, field, eid)
            acc = acc + e * ghost_element(g, field, eid)
        assert acc == vs[v]


@pytest.mark.parametrize("name", ["toeplitz", "two_loops", "two_sinks"])
def test_ring_axioms_fuzz(name):
    g = load(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for fname in FIELDS:
        field = make_field(fname)
        for _ in range(50):
            a = _random_element(rng, g, field)
            b = _random_element(rng, g, field)
            c = _random_element(rng, g, field)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert (a * b).star() == b.star() * a.star()
            assert a.star().star() == a


def test_normal_form_toeplitz():
    g = load("toeplitz")
    field = make_field("Q")
    c = edge_element(g, field, "c")
    cg = ghost_element(g, field, "c")
    f = edge_element(g, field, "f")
    v1 = vertex_element(g, field, "v1")
    # c* c = v1 but c c* = v1 - f f* (c is the special out-edge of v1)
    assert cg * c == v1
    assert c * cg == v1 - f * f.star()
    assert (c * cg).format() == "v1 - f f'"


def test_no_reducible_monomials_after_arithmetic():
    """Products of random elements stay inside the normal-form basis."""
    rng = random.Random(7)
    for name in ("toeplitz", "loop", "cycle3_tail"):
        g = load(name)
        field = make_field("Q")
        for _ in range(30):
            a = _random_element(rng, g, field)
            b = _random_element(rng, g, field)
            for m in (a * b).terms:
                assert not alg._is_reducible(g, m.p, m.q)


def test_basis_sizes():
    field = make_field("Q")
    # line graph: 3 vertices + 2 edges + 2 ghosts + e1e2 + (e1e2)* + e1'? no:
    # dim L(A3) = 9 (3x3 matrix algebra)
    assert len(enumerate_basis(load("a3"), field, 4)) == 9
    assert len(enumerate_basis(load("a3"), field, 10)) == 9
    # one loop: basis in degree <= 2 is {v, c', c, c'c', cc} wait c'c' and cc
    basis = enumerate_basis(load("loop"), field, 2)
    assert len(basis) == 5


def test_basis_is_linearly_independent():
    field = make_field("gf5")
    for name in ("toeplitz", "two_sinks", "cycle3_tail"):
        g = load(name)
        basis = enumerate_basis(g, field, 3)
        span = SpanBasis(field)
        for m in basis:
            span.add(alg.AlgebraElement(g, field, {m: field.one()}).coordinates())
        assert span.rank == len(basis)


def test_graded_dimension_loop():
    g = load("loop")
    field = make_field("Q")
    for n in range(11):
        assert graded_dimension(g, field, n) == 2 * n + 1


def test_graded_dimension_a3_stabilizes():
    g = load("a3")
    field = make_field("Q")
    dims = [graded_dimension(g, field, n) for n in range(7)]
    assert dims[-1] == dims[-2] == 9


def test_parser_roundtrip():
    g = load("toeplitz")
    field = make_field("Q")
    cases = [
        "v1 + v2",
        "c c' - v1",
        "2/3 c f",
        "(v1 - f f') c",
        "c' * c",
    ]
    for text in cases:
        el = parse_element(text, g, field)
        # formatting an element re-parses to the same normal form
        if el:
            assert parse_element(el.format(), g, field) == el


def test_parser_bindings_and_errors():
    g = load("toeplitz")
    field = make_field("Q")
    a = parse_element("c c'", g, field)
    el = parse_element("a - v1", g, field, {"a": a})
    assert el == -parse_element("f f'", g, field)
    ghosted = parse_element("a'", g, field, {"a": parse_element("c", g, field)})
    assert ghosted == parse_element("c'", g, field)
    for bad in ("", "c +", "c )", "(c", "2//3 c", "unknown"):
        with pytest.raises(ParseError):
            parse_element(bad, g, field)


def test_scalar_literals_gf_fields():
    g = load("loop")
    f4 = make_field("gf2^2")
    el = parse_element("x+1 c", g, f4)
    assert el.terms[alg.Monomial(("c",), (), "v")] == f4.parse("x+1")
    f5 = make_field("gf5")
    el = parse_element("7 v", g, f5)
    assert el.terms[alg.Monomial((), (), "v")] == f5.from_int(2)


def test_identity_element():
    g = load("two_sinks")
    field = make_field("Q")
    one = identity_element(g, field)
    rng = random.Random(11)
    for _ in range(10):
        a = _random_element(rng, g, field)
        assert one * a == a
        assert a * one == a


@pytest.mark.parametrize(
    "key",
    [
        alg.Monomial(("b",), ("b",), "u"),  # b b' ends in the special edge b of u
        alg.Monomial(("zz",), (), "u"),  # zz is no edge
        alg.Monomial(("g", "b"), (), "u"),  # r(g) = v but s(b) = u
        alg.Monomial(("b",), (), "v"),  # r(b) = u
        (("b",), (), "u"),  # a plain tuple
    ],
)
def test_constructor_rejects_keys_that_are_no_normal_form(key):
    g, field = load("two_loops"), make_field("Q")
    with pytest.raises(alg.AlgebraError, match=re.escape(repr(key))):
        alg.AlgebraElement(g, field, {key: 1})


@pytest.mark.parametrize("name", CORPUS)
def test_constructor_keys_fuzz(name):
    """A key is accepted exactly when it is a normal-form monomial, and an
    element built on accepted keys is its own normal form."""
    g, field = load(name), make_field("Q")
    rng = random.Random("keys " + name)
    by_range = {}
    for path in enumerate_paths(g, 3):
        by_range.setdefault(path.range(g), []).append(path.edges)
    ids = list(g.vertices) + [eid for eid, _, _ in g.edges] + ["zz"]
    basis = set(enumerate_basis(g, field, 7))
    one = identity_element(g, field)
    built = rejected = 0
    for _ in range(300):
        vertex = rng.choice(sorted(by_range))
        p, q = rng.choice(by_range[vertex]), rng.choice(by_range[vertex])
        if rng.random() < 0.25:
            p += (rng.choice(ids),)
        if rng.random() < 0.25:
            vertex = rng.choice(ids)
        key = alg.Monomial(p, q, vertex) if rng.random() < 0.9 else (p, q, vertex)
        try:
            a = alg.AlgebraElement(g, field, {key: field.from_int(2)})
        except alg.AlgebraError as exc:
            assert repr(key) in str(exc)
            assert not (type(key) is alg.Monomial and key in basis)
            rejected += 1
        else:
            assert key in basis and a * one == a
            built += 1
    assert built and rejected
