"""Laurent polynomial/matrix arithmetic and the NE-cycle isomorphism."""

import random

import pytest

from leavitt import algebra as alg
from leavitt.fields import make_field
from leavitt.graphs import GraphError, Path, analyze, graph_from_dict
from leavitt.laurent import (
    LaurentMatrix,
    LaurentPoly,
    cycle_iso_image,
    element_iso_image,
    verify_cycle_iso,
)

from .conftest import load


def conjugate_transpose(m):
    """Transpose with t -> t^-1 in every entry (the star image)."""
    return LaurentMatrix(m.field, m.d, {(j, i, -n): c for (i, j, n), c in m.terms.items()})


def cycle_graph(d):
    vs = ["v%d" % i for i in range(1, d + 1)]
    es = [
        {"id": "a%d" % i, "source": vs[i - 1], "range": vs[i % d]}
        for i in range(1, d + 1)
    ]
    return graph_from_dict({"vertices": vs, "edges": es})


def test_poly_arithmetic():
    field = make_field("Q")
    t = LaurentPoly.monomial(field, 1)
    tinv = LaurentPoly.monomial(field, -1)
    one = LaurentPoly.one(field)
    assert t * tinv == one
    assert (t + one) * (t + one) == LaurentPoly(
        field, {0: field.one(), 1: field.from_int(2), 2: field.one()}
    )
    assert conjugate_transpose(LaurentMatrix.unit(field, 1, 1, 1, t + one)) == (
        LaurentMatrix.unit(field, 1, 1, 1, tinv + one)
    )
    assert len(t.terms) == 1 and len((t + one).terms) != 1  # t is a unit, t + 1 not
    assert (t - t).format() == "0"
    assert (tinv * tinv + one + t).format() == "t^-2 + 1 + t"


def test_matrix_arithmetic():
    field = make_field("Q")
    rng = random.Random(99)
    d = 3

    def rand_matrix():
        m = LaurentMatrix.zero(field, d)
        for _ in range(4):
            i, j = rng.randint(1, d), rng.randint(1, d)
            coeff = LaurentPoly.monomial(
                field, rng.randint(-2, 2), field.from_int(rng.randint(-3, 3))
            )
            m = m + LaurentMatrix.unit(field, d, i, j, coeff)
        return m

    ident = LaurentMatrix.identity(field, d)
    for _ in range(25):
        a, b, c = rand_matrix(), rand_matrix(), rand_matrix()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ident == a and ident * a == a
        assert conjugate_transpose(a * b) == (
            conjugate_transpose(b) * conjugate_transpose(a)
        )


def test_unit_triples_match_matrix_products():
    """t^n e_ij products computed as triples agree with full matrix products."""
    field = make_field("Q")
    d = 3
    triples = [
        (i, j, n) for i in range(1, d + 1) for j in range(1, d + 1) for n in (-1, 0, 2)
    ]
    for i1, j1, n1 in triples:
        for i2, j2, n2 in triples:
            m1 = LaurentMatrix.unit(field, d, i1, j1, LaurentPoly.monomial(field, n1))
            m2 = LaurentMatrix.unit(field, d, i2, j2, LaurentPoly.monomial(field, n2))
            product = m1 * m2
            if j1 == i2:
                expect = LaurentMatrix.unit(
                    field, d, i1, j2, LaurentPoly.monomial(field, n1 + n2)
                )
            else:
                expect = LaurentMatrix.zero(field, d)
            assert product == expect


def test_matrix_indices_and_fields_are_checked():
    field = make_field("Q")
    for i, j in ((0, 1), (4, 1), (1, 0), (1, 4)):
        with pytest.raises(ValueError, match="outside 1..3"):
            LaurentMatrix.unit(field, 3, i, j)
    with pytest.raises(ValueError, match="field mismatch"):
        LaurentMatrix.unit(field, 3, 1, 1, LaurentPoly.one(make_field("gf5")))
    with pytest.raises(ValueError, match="outside 1..2"):
        LaurentMatrix(field, 2, {(1, 3, 0): 1})
    with pytest.raises(ValueError, match="size must be >= 1"):
        LaurentMatrix.identity(field, 0)


def test_cycle_iso_image_loop():
    g = load("loop")
    field = make_field("Q")
    cycle = analyze(g).ne_cycles[0]
    c2 = Path("v", ("c", "c"))
    c1 = Path("v", ("c",))
    triv = Path("v", ())
    assert cycle_iso_image(g, c2, triv, cycle) == (1, 1, 2)
    assert cycle_iso_image(g, triv, c1, cycle) == (1, 1, -1)
    assert cycle_iso_image(g, c1, c1, cycle) == (1, 1, 0)


def test_cycle_iso_image_rejects_off_cycle():
    g = load("toeplitz")
    cycle = analyze(g).cycles[0]
    with pytest.raises(GraphError):
        cycle_iso_image(g, Path("v1", ("f",)), Path("v1", ("f",)), cycle)


def test_element_iso_image_3cycle():
    g = cycle_graph(3)
    field = make_field("Q")
    cycle = analyze(g).ne_cycles[0]
    # a1 maps to e_12, a1 a2 a3 (full cycle at v1) maps to t e_11
    a1 = alg.edge_element(g, field, "a1")
    img = element_iso_image(g, a1, cycle)
    assert img == LaurentMatrix.unit(field, 3, 1, 2, LaurentPoly.one(field))
    full = alg.monomial_element(
        g, field, Path("v1", ("a1", "a2", "a3")), Path("v1", ())
    )
    assert element_iso_image(g, full, cycle) == LaurentMatrix.unit(
        field, 3, 1, 1, LaurentPoly.monomial(field, 1)
    )
    # star goes to the conjugate transpose
    assert element_iso_image(g, a1.star(), cycle) == conjugate_transpose(img)


def test_element_iso_additive_and_multiplicative_random():
    g = cycle_graph(2)
    field = make_field("gf5")
    cycle = analyze(g).ne_cycles[0]
    basis = [m for m in alg.enumerate_basis(g, field, 6)]
    rng = random.Random(31337)

    def rand_el():
        el = alg.zero(g, field)
        for _ in range(3):
            m = rng.choice(basis)
            el = el + alg.AlgebraElement(g, field, {m: field.from_int(rng.randint(1, 4))})
        return el

    for _ in range(40):
        a, b = rand_el(), rand_el()
        fa, fb = element_iso_image(g, a, cycle), element_iso_image(g, b, cycle)
        assert element_iso_image(g, a + b, cycle) == fa + fb
        assert element_iso_image(g, a * b, cycle) == fa * fb


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_cycle_iso_small(d):
    g = cycle_graph(d)
    cycle = analyze(g).ne_cycles[0]
    assert verify_cycle_iso(g, cycle, maxlen=2 * d, field=make_field("Q"))
