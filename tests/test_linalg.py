"""Sparse exact span arithmetic and dense block inversion."""

import random

import pytest

from leavitt.fields import make_field
from leavitt.linalg import SpanBasis, invert_block


def span_rank(field, rows):
    basis = SpanBasis(field)
    for row in rows:
        basis.add(row)
    return basis.rank


def test_span_basis_rank():
    field = make_field("Q")
    rows = [
        {"a": field.from_int(1), "b": field.from_int(2)},
        {"b": field.from_int(1)},
        {"a": field.from_int(2), "b": field.from_int(4)},  # dependent on row 1
        {"c": field.from_int(5)},
    ]
    assert span_rank(field, rows) == 3


def test_span_contains():
    field = make_field("gf5")
    basis = SpanBasis(field)
    basis.add({"x": field.from_int(1), "y": field.from_int(2)})
    basis.add({"y": field.from_int(1)})
    assert not basis.reduce({"x": field.from_int(3), "y": field.from_int(4)})
    assert basis.reduce({"z": field.from_int(1)})


def test_span_rank_matches_dense_gauss():
    """Cross-check against a brute-force row reduction over GF(7)."""
    field = make_field("gf7")
    rng = random.Random(1234)
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 6)
        mat = [[rng.randint(0, 6) for _ in range(m)] for _ in range(n)]
        rows = [
            {j: field.from_int(v) for j, v in enumerate(row) if v} for row in mat
        ]
        # dense rank mod 7
        work = [row[:] for row in mat]
        rank = 0
        for col in range(m):
            piv = next(
                (r for r in range(rank, n) if work[r][col] % 7), None
            )
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            inv = pow(work[rank][col], -1, 7)
            work[rank] = [(v * inv) % 7 for v in work[rank]]
            for r in range(n):
                if r != rank and work[r][col] % 7:
                    f = work[r][col]
                    work[r] = [(a - f * b) % 7 for a, b in zip(work[r], work[rank])]
            rank += 1
        assert span_rank(field, rows) == rank


def test_invert_block():
    field = make_field("Q")
    block = [
        [field.from_int(2), field.from_int(1)],
        [field.zero(), field.from_int(3)],
    ]
    inv = invert_block(field, block, 2)
    assert _matmul(field, block, inv) == _identity(2)
    singular = [
        [field.one(), field.zero()],
        [field.one(), field.zero()],
    ]
    assert invert_block(field, singular, 2) is None


def _matmul(field, a, b):
    n = len(a)
    out = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = field.add(out[i][j], field.mul(a[i][k], b[k][j]))
    return out


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("fname", ["Q", "gf7", "gf2^8"])
def test_invert_block_random(fname):
    """invert_block(A) A = A invert_block(A) = I, and None iff singular
    (half of the blocks get a last row that is a multiple of the first)."""
    field = make_field(fname)
    rng = random.Random(4242 + len(fname))
    if fname == "Q":
        pick = lambda: field.parse("%d/%d" % (rng.randint(-5, 5), rng.randint(1, 4)))
    else:
        elems = field.elements()
        pick = lambda: rng.choice(elems)
    inverted = 0
    for trial in range(60):
        n = rng.randint(1, 7)
        a = [[pick() for _ in range(n)] for _ in range(n)]
        if trial % 2 and n > 1:
            c = pick()
            a[n - 1] = [field.mul(c, x) for x in a[0]]
            assert invert_block(field, a, n) is None
            continue
        inv = invert_block(field, a, n)
        if inv is None:
            continue  # a random block may be singular
        inverted += 1
        assert _matmul(field, inv, a) == _identity(n)
        assert _matmul(field, a, inv) == _identity(n)
    assert inverted >= 20
