"""The sparse accumulate-and-cancel kernel, checked from two sides.

Equality of elements is equality of coefficient dicts, which holds only if
no dict stores a zero.  A differential test runs the Jacobson engine
against the Leavitt path algebra engine through the embedding of
A = <x, y | xy = 1> into the v1 corner of the Toeplitz graph
(y -> c, x -> c*, 1 -> v1); an invariant test checks that no sum,
difference or product leaves a zero behind in any stored dict.  Sums,
differences and products build their results without the public
constructors' zero filter, so those dicts, like `SpanBasis` rows, rest on
the kernel alone.
"""

import operator
import random
import re
from fractions import Fraction

import pytest

from leavitt import algebra as alg
from leavitt.automorphisms import ToeplitzAutomorphism
from leavitt.fields import FieldError, make_field
from leavitt.graphs import Path
from leavitt.jacobson import (
    AlmostToeplitzMatrix,
    JacobsonElement,
    JacobsonError,
    jac_monomial,
    jac_one,
)
from leavitt.laurent import LaurentMatrix, LaurentPoly
from leavitt.linalg import SpanBasis, SparseElement, accumulate

from .conftest import load
from .reference_toeplitz import split


def _scalar(rng, field):
    if field == make_field("Q"):
        return field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
    return rng.choice([c for c in field.elements() if c])


def _sparse(rng, field, keys, nterms):
    return {rng.choice(keys): _scalar(rng, field) for _ in range(nterms)}


def _jacobson(rng, field):
    keys = [(i, j) for i in range(4) for j in range(4)]
    return JacobsonElement(field, _sparse(rng, field, keys, rng.randint(1, 4)))


def _corner_image(g, a):
    """y^i x^j -> c^i (c*)^j, normalized by the rewriting engine."""
    out = alg.zero(g, a.field)
    for (i, j), coeff in a.terms.items():
        m = alg.monomial_element(g, a.field, Path("v1", ("c",) * i), Path("v1", ("c",) * j))
        out = out + m.scale(coeff)
    return out


@pytest.mark.parametrize("fname", ["Q", "gf3", "gf2^4"])
def test_jacobson_engine_matches_toeplitz_graph_corner(fname):
    field = make_field(fname)
    g = load("toeplitz")
    rng = random.Random(1401 + len(fname))
    one = alg.vertex_element(g, field, "v1")
    assert _corner_image(g, JacobsonElement(field, {(0, 0): field.one()})) == one
    for _ in range(100):
        a, b = _jacobson(rng, field), _jacobson(rng, field)
        ia, ib = _corner_image(g, a), _corner_image(g, b)
        assert _corner_image(g, a * b) == ia * ib
        assert _corner_image(g, a + b) == ia + ib
        assert _corner_image(g, a - b) == ia - ib
        assert bool(a * b) == bool(ia * ib)


def _makers(rng, field):
    g = load("toeplitz")
    basis = alg.enumerate_basis(g, field, 3)
    matrix_keys = [(i, j, n) for i in (1, 2) for j in (1, 2) for n in (-1, 0, 1)]
    return {
        "algebra": (
            lambda: alg.AlgebraElement(g, field, _sparse(rng, field, basis, rng.randint(1, 4))),
            lambda a: [a.terms],
        ),
        "jacobson": (lambda: _jacobson(rng, field), lambda a: [a.terms]),
        "laurent": (
            lambda: LaurentPoly(field, _sparse(rng, field, range(-3, 4), rng.randint(1, 4))),
            lambda a: [a.terms],
        ),
        "laurent_matrix": (
            lambda: LaurentMatrix(field, 2, _sparse(rng, field, matrix_keys, rng.randint(1, 4))),
            lambda a: [a.terms],
        ),
        "almost_toeplitz": (
            lambda: AlmostToeplitzMatrix(
                field,
                _sparse(rng, field, [(i, j) for i in range(1, 4) for j in range(1, 4)], 3),
                _sparse(rng, field, range(-2, 3), rng.randint(0, 2)),
            ),
            lambda a: list(split(a)),
        ),
    }


def _zero_free(dicts):
    return all(c for d in dicts for c in d.values())


@pytest.mark.parametrize("fname", ["gf2", "gf3", "Q"])
def test_no_stored_zeros_after_arithmetic(fname):
    field = make_field(fname)
    rng = random.Random(2014 + len(fname))
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b]
    for kind, (make, stored) in _makers(rng, field).items():
        pool = [make() for _ in range(4)]
        cancelled = 0
        for _ in range(60):
            a, b = rng.choice(pool), rng.choice(pool)
            c = rng.choice(ops)(a, b)
            assert _zero_free(stored(c)), kind
            assert not any(stored(a - a)), kind
            if sum(map(len, stored(c))) < sum(map(len, stored(a) + stored(b))):
                cancelled += 1
            pool[rng.randrange(len(pool))] = c if sum(map(len, stored(c))) < 40 else make()
        assert cancelled, kind


def test_accumulate_adds_and_cancels(QQ):
    d = {}
    accumulate(d, "k", QQ.one(), QQ.add)
    assert d == {"k": QQ.one()}
    accumulate(d, "k", QQ.one(), QQ.add)
    assert d == {"k": QQ.from_int(2)}
    accumulate(d, "j", QQ.one(), QQ.add)
    accumulate(d, "k", QQ.from_int(-2), QQ.add)
    assert d == {"j": QQ.one()}


@pytest.mark.parametrize("fname", ["gf2", "gf3", "Q"])
def test_span_rows_hold_no_zeros(fname):
    field = make_field(fname)
    rng = random.Random(7 + len(fname))
    basis = SpanBasis(field)
    for _ in range(60):
        row = _sparse(rng, field, range(8), rng.randint(1, 5))
        residue = basis.reduce(row)
        assert _zero_free([residue])
        basis.add(row)
        assert _zero_free(basis.pivots.values())
    assert basis.rank == 8


@pytest.mark.parametrize(
    "fname, bad", [("Q", 0.5), ("Q", True), ("gf5", 5), ("gf3", Fraction(1, 2)), ("gf2^4", 16)]
)
def test_entry_points_check_caller_values(fname, bad):
    """A coefficient from a caller is checked where it enters an element;
    one outside the field is a FieldError."""
    field = make_field(fname)
    g = load("toeplitz")
    m = alg.enumerate_basis(g, field, 1)[0]
    atm = AlmostToeplitzMatrix
    calls = [
        lambda: alg.AlgebraElement(g, field, {m: bad}),
        lambda: alg.vertex_element(g, field, "v1").scale(bad),
        lambda: JacobsonElement(field, {(0, 0): bad}),
        lambda: jac_monomial(field, 1, 2, bad),
        lambda: jac_one(field).scale(bad),
        lambda: LaurentPoly(field, {0: bad}),
        lambda: LaurentPoly.monomial(field, 3, bad),
        lambda: LaurentPoly.one(field).scale(bad),
        lambda: LaurentMatrix(field, 2, {(1, 2, 0): bad}),
        lambda: LaurentMatrix.identity(field, 2).scale(bad),
        lambda: atm(field, {(1, 1): bad}),
        lambda: atm(field, band={0: bad}),
        lambda: atm.unit(field, 1, 2, bad),
        lambda: atm.identity(field).scale(bad),
        lambda: ToeplitzAutomorphism(bad, atm.identity(field)),
    ]
    for call in calls:
        with pytest.raises(FieldError):
            call()


def _on_terms(cls, ctx=None):
    """A builder on `terms` itself: the public constructor rejects keys of
    other kinds, and every kind's keys must give a twin."""
    return lambda field, terms: cls._make(field, field.check_terms(terms), ctx)


def _element_kinds():
    """kind -> (builder(field, terms), three keys of that kind)."""
    g = load("toeplitz")
    return {
        "algebra": (
            _on_terms(alg.AlgebraElement, g),
            alg.enumerate_basis(g, make_field("Q"), 2)[:3],
        ),
        "jacobson": (_on_terms(JacobsonElement), [(0, 0), (1, 2), (2, 1)]),
        "laurent": (_on_terms(LaurentPoly), [-1, 0, 2]),
        "laurent_matrix": (
            lambda field, terms: LaurentMatrix(field, 3, terms),
            [(1, 1, 0), (1, 2, -1), (3, 2, 2)],
        ),
        # (0, 2) is the band c^(2)
        "almost_toeplitz": (_on_terms(AlmostToeplitzMatrix), [(1, 1), (0, 2), (3, 2)]),
    }


@pytest.mark.parametrize(
    "kind, error, message",
    [
        ("algebra", alg.AlgebraError, "elements live over different graphs or fields"),
        ("jacobson", JacobsonError, "elements over different fields"),
        ("laurent", ValueError, "Laurent polynomials over different fields"),
        ("laurent_matrix", ValueError, "Laurent matrix size or field mismatch"),
        ("almost_toeplitz", JacobsonError, "matrices over different fields"),
    ],
)
def test_sparse_element_contract(kind, error, message):
    """The five element types share sums, negation, scaling, equality and
    hashing; each raises its own error on a mismatch."""
    QQ, F3 = make_field("Q"), make_field("gf3")
    kinds = _element_kinds()
    build, keys = kinds[kind]
    terms = {keys[0]: 2, keys[1]: Fraction(-1, 3)}
    a = build(QQ, terms)
    b = build(QQ, {keys[1]: Fraction(1, 3), keys[2]: 5})
    others = [build(F3, {keys[0]: 1})]
    if kind == "algebra":
        loop = load("loop")
        others.append(alg.AlgebraElement(loop, QQ, {alg.Monomial((), (), "v"): 1}))
    if kind == "laurent_matrix":
        others.append(LaurentMatrix(QQ, 4, {keys[0]: 1}))
        assert a != LaurentMatrix(QQ, 4, terms)
    for other in others:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(error) as info:
                op(a, other)
            assert type(info.value) is error and str(info.value) == message
    for name, (other_build, _) in kinds.items():
        # a matrix takes only (i, j, n) keys with i, j in range
        if name not in (kind, "laurent_matrix"):
            twin = other_build(QQ, terms)
            assert a != twin and twin != a
    c = a + b - b
    assert c == a and hash(c) == hash(a)
    assert -(-a) == a and hash(-(-a)) == hash(a)
    assert not a - a and not a.scale(QQ.zero()) and a.scale(QQ.zero()) == a - a
    assert a.scale(2) == a + a
    with pytest.raises(FieldError):
        a.scale(0.5)


def test_equal_automorphisms_collapse_in_a_set():
    QQ = make_field("Q")
    atm = AlmostToeplitzMatrix
    g = atm.identity(QQ) + atm.unit(QQ, 1, 2, 3)
    phi, psi = ToeplitzAutomorphism(2, g), ToeplitzAutomorphism(2, atm(QQ, {(1, 2): 3}, {0: 1}))
    assert phi is not psi and phi == psi and hash(phi) == hash(psi)
    assert len({phi, psi, ToeplitzAutomorphism(3, g)}) == 2


@pytest.mark.parametrize(
    "kind, key",
    [
        ("jacobson", (-1, 2)),
        ("jacobson", (True, 2)),
        ("jacobson", 2),
        ("laurent", 0.5),
        ("laurent", True),
        ("laurent_matrix", (1, 2, 0.5)),
        ("laurent_matrix", (1, 2)),
    ],
)
def test_constructors_check_keys(kind, key):
    """A key from a caller is checked where it enters an element, and one
    that is no key of the kind raises the kind's error naming it."""
    QQ = make_field("Q")
    build, error = {
        "jacobson": (lambda terms: JacobsonElement(QQ, terms), JacobsonError),
        "laurent": (lambda terms: LaurentPoly(QQ, terms), ValueError),
        "laurent_matrix": (lambda terms: LaurentMatrix(QQ, 2, terms), ValueError),
    }[kind]
    with pytest.raises(error, match=re.escape(repr(key))):
        build({key: 1})


def test_sparse_element_is_the_one_home_of_the_contract():
    """No element kind redefines the construction, context, equality or
    hashing of `SparseElement`, and only `AlmostToeplitzMatrix`, whose band
    products emit finitary corrections, has a product loop of its own."""
    kinds = set(SparseElement.__subclasses__())
    assert kinds == {
        alg.AlgebraElement,
        JacobsonElement,
        LaurentPoly,
        LaurentMatrix,
        AlmostToeplitzMatrix,
    }
    for cls in kinds:
        own = vars(cls)
        assert not {"_make", "_like", "_compat", "__eq__", "__hash__"} & own.keys(), cls
        mul = own.get("__mul__", SparseElement.__mul__)
        assert mul is SparseElement.__mul__ or cls is AlmostToeplitzMatrix, cls
