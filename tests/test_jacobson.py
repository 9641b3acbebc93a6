"""The algebra on two generators with xy = 1: normal forms, the infinite
matrix model, descent into the finitary ideal, and the splitting probe."""

import random
import re

import pytest

from leavitt.expr import ParseError
from leavitt.fields import make_field
from leavitt.jacobson import (
    AlmostToeplitzMatrix,
    JacobsonElement,
    JacobsonError,
    corner_dimension,
    descent_measure,
    invert_id_plus_finitary,
    jac_matrix_unit,
    jac_monomial,
    jac_one,
    jac_parse,
    jac_quotient_laurent,
    jac_to_matrix,
    jac_x,
    jac_y,
    splitting_probe,
)
from leavitt.laurent import LaurentPoly
from leavitt.linalg import SpanBasis

from .reference_toeplitz import split


@pytest.fixture(scope="module")
def F():
    return make_field("Q")


def rand_jac(rng, field, maxexp=3, nterms=3):
    el = jac_one(field).scale(field.zero())
    for _ in range(nterms):
        el = el + jac_monomial(
            field,
            rng.randint(0, maxexp),
            rng.randint(0, maxexp),
            field.from_int(rng.randint(-4, 4)),
        )
    return el


def test_relations(F):
    x, y, one = jac_x(F), jac_y(F), jac_one(F)
    assert x * y == one
    assert y * x != one
    assert x * (y * x) == x
    assert (y * x) * y == y


def test_monomial_products_closed(F):
    # y^i x^j . y^k x^l collapses to a single monomial
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    prod = jac_monomial(F, i, j) * jac_monomial(F, k, l)
                    assert len(prod.terms) == 1
                    (ii, jj), c = next(iter(prod.terms.items()))
                    assert ii == i + max(0, k - j)
                    assert jj == l + max(0, j - k)
                    assert c == F.one()


def test_matrix_units(F):
    for i in range(1, 7):
        for j in range(1, 7):
            for p in range(1, 7):
                for q in range(1, 7):
                    prod = jac_matrix_unit(F, i, j) * jac_matrix_unit(F, p, q)
                    expect = (
                        jac_matrix_unit(F, i, q)
                        if j == p
                        else jac_one(F).scale(F.zero())
                    )
                    assert prod == expect


def test_normal_form_dimension(F):
    for n in range(6):
        monos = [
            jac_monomial(F, i, j) for i in range(n + 1) for j in range(n + 1 - i)
        ]
        span = SpanBasis(F)
        for m in monos:
            span.add(m.coordinates())
        assert span.rank == (n + 1) * (n + 2) // 2


def test_parse(F):
    assert jac_parse("x y", F) == jac_one(F)
    assert jac_parse("y*x - 1", F) == jac_y(F) * jac_x(F) - jac_one(F)
    assert jac_parse("y (1 - y x) x", F) == jac_matrix_unit(F, 2, 2)
    with pytest.raises(ParseError):
        jac_parse("x +", F)


def test_matrix_model_generators(F):
    mx = jac_to_matrix(jac_x(F))
    my = jac_to_matrix(jac_y(F))
    assert mx == AlmostToeplitzMatrix.shift_up(F)
    assert my == AlmostToeplitzMatrix.shift_down(F)
    assert mx * my == AlmostToeplitzMatrix.identity(F)
    # yx = identity minus the (1,1) unit
    assert my * mx == AlmostToeplitzMatrix.identity(F) - AlmostToeplitzMatrix.unit(
        F, 1, 1
    )


def test_matrix_model_homomorphism(F):
    rng = random.Random(4242)
    for _ in range(60):
        a, b = rand_jac(rng, F), rand_jac(rng, F)
        assert jac_to_matrix(a * b) == jac_to_matrix(a) * jac_to_matrix(b)
        assert jac_to_matrix(a + b) == jac_to_matrix(a) + jac_to_matrix(b)


def test_matrix_model_injective(F):
    seen = {}
    for i in range(5):
        for j in range(5):
            m = jac_to_matrix(jac_monomial(F, i, j))
            key = tuple(tuple(sorted(part)) for part in split(m))
            assert key not in seen
            seen[key] = (i, j)


def jac_to_matrix_by_shift_powers(a):
    """The former `jac_to_matrix`: products of memoised shift powers through
    the exact band arithmetic, kept as the reference for the closed form."""
    field = a.field
    down = AlmostToeplitzMatrix.shift_down(field)
    up = AlmostToeplitzMatrix.shift_up(field)
    powers = {}

    def power(base, n, tag):
        key = (tag, n)
        if key not in powers:
            m = AlmostToeplitzMatrix.identity(field)
            for _ in range(n):
                m = m * base
            powers[key] = m
        return powers[key]

    out = AlmostToeplitzMatrix.zero(field)
    for (i, j), c in a.terms.items():
        out = out + (power(down, i, "y") * power(up, j, "x")).scale(c)
    return out


@pytest.mark.parametrize("fname", ["Q", "gf2^4"])
def test_jac_to_matrix_closed_form_matches_shift_powers(fname):
    field = make_field(fname)
    for i in range(13):
        for j in range(13):
            a = jac_monomial(field, i, j)
            assert jac_to_matrix(a) == jac_to_matrix_by_shift_powers(a), (i, j)
    rng = random.Random(2024)
    coeff = {
        "Q": lambda: field.parse("%d/%d" % (rng.randint(-9, 9), rng.randint(1, 4))),
        "gf2^4": lambda: rng.randrange(16),  # a GF(2^4) value is a 4-bit mask
    }[fname]
    for _ in range(200):
        idx = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 6))]
        a = JacobsonElement(field, {ij: coeff() for ij in idx})
        assert jac_to_matrix(a) == jac_to_matrix_by_shift_powers(a), a.format()


def test_matrix_units_map_to_finitary_units(F):
    for i in range(1, 5):
        for j in range(1, 5):
            assert jac_to_matrix(jac_matrix_unit(F, i, j)) == AlmostToeplitzMatrix.unit(
                F, i, j
            )


def test_band_times_band_correction(F):
    # c^(-1) c^(1) = identity minus e_11 (shift up then down loses row 1)
    up = AlmostToeplitzMatrix.shift_up(F)
    down = AlmostToeplitzMatrix.shift_down(F)
    assert down * up == AlmostToeplitzMatrix.identity(F) - AlmostToeplitzMatrix.unit(
        F, 1, 1
    )
    assert up * down == AlmostToeplitzMatrix.identity(F)
    # deeper shifts: c^(-2) c^(2) misses e_11 and e_22
    expect = AlmostToeplitzMatrix.identity(F)
    for i in (1, 2):
        expect = expect - AlmostToeplitzMatrix.unit(F, i, i)
    assert (down * down) * (up * up) == expect


def test_matrix_entry_consistency(F):
    rng = random.Random(17)
    for _ in range(30):
        a, b = rand_jac(rng, F), rand_jac(rng, F)
        ma, mb = jac_to_matrix(a), jac_to_matrix(b)
        mprod = ma * mb
        n = max(ma.support_bound(), mb.support_bound()) + 2
        # entry-by-entry truncated product agrees with the closed product
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc = F.zero()
                for k in range(1, 2 * n + 2):
                    acc = F.add(acc, F.mul(ma.entry(i, k), mb.entry(k, j)))
                assert acc == mprod.entry(i, j)


def test_quotient_laurent(F):
    assert jac_quotient_laurent(jac_x(F)) == LaurentPoly.monomial(F, -1)
    assert jac_quotient_laurent(jac_y(F)) == LaurentPoly.monomial(F, 1)
    # matrix units die in the quotient
    assert not jac_quotient_laurent(jac_matrix_unit(F, 3, 5))
    assert jac_quotient_laurent(jac_parse("y y x + 1", F)) == LaurentPoly(
        F, {1: F.one(), 0: F.one()}
    )


def test_quotient_multiplicative(F):
    rng = random.Random(55)
    for _ in range(50):
        a, b = rand_jac(rng, F), rand_jac(rng, F)
        assert jac_quotient_laurent(a * b) == jac_quotient_laurent(
            a
        ) * jac_quotient_laurent(b)


def matrix_to_jacobson(field, fin):
    """Finitary matrix-unit support back to a normal-form element."""
    out = JacobsonElement(field, {})
    for (i, j), c in fin.items():
        out = out + jac_matrix_unit(field, i, j).scale(c)
    return out


def test_matrix_to_jacobson_roundtrip(F):
    fin = {(1, 3): F.from_int(2), (4, 2): F.from_int(-1)}
    el = matrix_to_jacobson(F, fin)
    assert split(jac_to_matrix(el))[0] == fin
    assert not split(jac_to_matrix(el))[1]


def test_invert_id_plus_finitary(F):
    m = AlmostToeplitzMatrix.identity(F) + AlmostToeplitzMatrix.unit(F, 1, 2)
    inv = invert_id_plus_finitary(m)
    assert m * inv == AlmostToeplitzMatrix.identity(F)
    singular = AlmostToeplitzMatrix.identity(F) - AlmostToeplitzMatrix.unit(F, 1, 1)
    assert invert_id_plus_finitary(singular) is None


def test_invert_scalar_plus_finitary(F):
    three = F.from_int(3)
    m = AlmostToeplitzMatrix.identity(F).scale(three) + AlmostToeplitzMatrix.unit(F, 2, 1)
    inv = invert_id_plus_finitary(m)
    assert split(inv)[1] == {0: F.inv(three)}
    assert m * inv == inv * m == AlmostToeplitzMatrix.identity(F)


def test_matrix_unit_indices_start_at_one(F):
    assert split(AlmostToeplitzMatrix.unit(F, 1, 1))[0] == {(1, 1): F.one()}
    for i, j in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(JacobsonError):
            AlmostToeplitzMatrix.unit(F, i, j)


def test_constructor_rejects_indices_below_one(F):
    """Row 0 and negative indices are no matrix entries; a finitary key
    (0, j) would otherwise read as the band c^(j)."""
    for fin in ({(0, 1): 1}, {(-2, 3): 1}, {(1, 0): 1}):
        with pytest.raises(JacobsonError, match="matrix unit indices must be >= 1"):
            AlmostToeplitzMatrix(F, fin)
    identity = AlmostToeplitzMatrix.identity(F)
    rng = random.Random(1806)
    for _ in range(50):
        m = AlmostToeplitzMatrix(
            F,
            {(rng.randint(1, 5), rng.randint(1, 5)): rng.randint(-3, 3) for _ in range(4)},
            {rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(2)},
        )
        assert identity * m == m * identity == m


@pytest.mark.parametrize(
    "finitary, band, key",
    [
        ({(1.5, 2): 1}, None, "(1.5, 2)"),
        (None, {0.5: 1}, "0.5"),
        ({1: 1}, None, "key 1"),
        ({(1, 2, 3): 1}, None, "(1, 2, 3)"),
    ],
)
def test_constructor_rejects_non_integer_keys(F, finitary, band, key):
    """A finitary key is a pair of integers >= 1 and a band offset an
    integer; anything else is a JacobsonError naming the key."""
    with pytest.raises(JacobsonError, match=re.escape(key)):
        AlmostToeplitzMatrix(F, finitary, band)


def test_descent_plain(F):
    state = descent_measure(jac_matrix_unit(F, 3, 5), jac_x(F))
    assert state.measures == [3, 2, 1]
    assert state.N == 3
    state = descent_measure(jac_matrix_unit(F, 1, 1), jac_x(F))
    assert state.N == 1


def test_descent_perturbed_b(F):
    b = jac_x(F) + jac_matrix_unit(F, 1, 1)
    state = descent_measure(jac_matrix_unit(F, 2, 2), b)
    assert state.N <= 2
    assert state.measures == sorted(state.measures, reverse=True)


def test_descent_rejects_bad_inputs(F):
    with pytest.raises(JacobsonError):
        descent_measure(jac_matrix_unit(F, 1, 1), jac_y(F))
    with pytest.raises(JacobsonError):
        descent_measure(jac_y(F), jac_x(F))


def _corner_dim_brute(field, n):
    """Rank of (1 - yx) y^i x^j over all i + j <= n, computed from scratch."""
    w = jac_one(field) - jac_y(field) * jac_x(field)
    span = SpanBasis(field)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            el = w * jac_monomial(field, i, j)
            if el:
                span.add(el.coordinates())
    return span.rank


def test_corner_dimension(F):
    for n in range(0, 12):
        assert corner_dimension(F, n) == n + 1
        assert corner_dimension(F, n) == _corner_dim_brute(F, n)


def test_splitting_probe_canonical(F):
    cert = splitting_probe(jac_x(F), jac_y(F), jac_one(F), 8)
    assert cert.kind == "dimension_contradiction"
    assert cert.dim_rho_cap_sigma == 0
    assert cert.corner_dims == [n + 1 for n in range(9)]
    doc = cert.to_dict()
    assert doc["kind"] == "dimension_contradiction"


def test_splitting_probe_perturbed(F):
    b1 = jac_x(F) + jac_matrix_unit(F, 1, 2)
    bm1 = jac_y(F) + jac_matrix_unit(F, 2, 1)
    b0 = b1 * bm1
    cert = splitting_probe(b1, bm1, b0, 6)
    assert cert.kind in ("dimension_contradiction", "closure_failure")
    if cert.kind == "dimension_contradiction":
        # recorded intersection dimension matches a direct span computation
        assert cert.dim_rho_cap_sigma == len(cert.P_rows) * len(cert.P_cols)


def test_splitting_probe_closure_failure(F):
    b1 = jac_x(F)
    bm1 = jac_y(F)
    b0 = jac_one(F) + jac_matrix_unit(F, 1, 1)  # wrong identity candidate
    cert = splitting_probe(b1, bm1, b0, 6)
    assert cert.kind == "closure_failure"
    assert cert.witness is not None
    assert cert.witness == b1 * bm1 - b0
