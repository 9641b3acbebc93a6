"""`AlmostToeplitzMatrix` on one `terms` dict against the two-dict oracle.

`tests/reference_toeplitz.py` keeps the product, transpose, sum, diagonal
conjugation and `jac_to_matrix` of the former two-dict matrix on plain
dicts.  Seeded matrices over Q, GF(3) and GF(2^4), with band offsets
-3..3 and finitary indices up to 5, must give the same finitary and band
parts through both.
"""

import random

import pytest

from leavitt.automorphisms import pi_conjugate
from leavitt.fields import make_field
from leavitt.jacobson import AlmostToeplitzMatrix, JacobsonElement, jac_to_matrix

from . import reference_toeplitz as ref


def _scalar(rng, field):
    if field == make_field("Q"):
        return field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
    return rng.choice([c for c in field.elements() if c])


def _parts(rng, field):
    fin = {
        (rng.randint(1, 5), rng.randint(1, 5)): _scalar(rng, field)
        for _ in range(rng.randint(0, 5))
    }
    band = {rng.randint(-3, 3): _scalar(rng, field) for _ in range(rng.randint(0, 3))}
    return fin, band


@pytest.mark.parametrize("fname", ["Q", "gf3", "gf2^4"])
def test_matrix_arithmetic_matches_two_dict_oracle(fname):
    field = make_field(fname)
    rng = random.Random(1807 + len(fname))
    for _ in range(300):
        a, b = _parts(rng, field), _parts(rng, field)
        ma, mb = AlmostToeplitzMatrix(field, *a), AlmostToeplitzMatrix(field, *b)
        assert ref.split(ma) == a and ref.split(mb) == b
        prod = ref.mul(field, a, b)
        assert ref.split(ma * mb) == prod
        # a product of products meets wider bands and deeper corrections
        assert ref.split(ma * mb * ma) == ref.mul(field, prod, a)
        assert ref.split(ma + mb) == ref.add(field, a, b)
        assert ref.split(ma.transpose()) == ref.transpose(a)
        alpha = _scalar(rng, field)
        assert ref.split(pi_conjugate(alpha, ma)) == ref.pi_conjugate(field, alpha, a)


@pytest.mark.parametrize("fname", ["Q", "gf3", "gf2^4"])
def test_jac_to_matrix_matches_two_dict_oracle(fname):
    field = make_field(fname)
    rng = random.Random(1808 + len(fname))
    for _ in range(300):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): _scalar(rng, field)
            for _ in range(rng.randint(1, 4))
        }
        assert ref.split(jac_to_matrix(JacobsonElement(field, terms))) == ref.jac_to_matrix(
            field, terms
        )
