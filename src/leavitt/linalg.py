"""Exact incremental Gaussian elimination over sparse coordinate dicts.

Rows are dicts mapping arbitrary hashable coordinates to nonzero raw
field values (see `fields`).  Used for span dimensions, basis extraction
and finite-block inversion.  `accumulate` is the one sparse update every
coefficient dict in the package goes through, so no dict ever stores a
zero.
"""

from __future__ import annotations

__all__ = ["accumulate", "SpanBasis", "span_rank", "invert_block"]


def accumulate(out, key, c, add):
    """out[key] += c for a nonzero c, with `add` the field's addition; the
    key is dropped when the sum cancels."""
    old = out.get(key)
    if old is not None:
        c = add(old, c)
        if not c:
            del out[key]
            return
    out[key] = c


class SpanBasis:
    """Maintains a reduced basis of sparse rows; supports rank queries."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # pivot coordinate -> reduced row (pivot coeff = 1)

    def reduce(self, row):
        """Reduce a row against the basis; returns the (possibly zero) residue."""
        field = self.field
        add, mul = field.add, field.mul
        row = dict(row)
        # pivot rows may contain later pivots, so iterate to a fixed point;
        # each elimination only reintroduces pivots inserted after it
        while True:
            hit = next((c for c in row if c in self.pivots), None)
            if hit is None:
                break
            c = field.neg(row[hit])
            for k, v in self.pivots[hit].items():
                accumulate(row, k, mul(c, v), add)
        return row

    def add(self, row):
        """Insert a row; returns True if it enlarged the span."""
        residue = self.reduce(row)
        if not residue:
            return False
        pivot = next(iter(residue))
        mul, inv = self.field.mul, self.field.inv(residue[pivot])
        self.pivots[pivot] = {k: mul(v, inv) for k, v in residue.items()}
        return True

    def contains(self, row):
        return not self.reduce(row)

    @property
    def rank(self):
        return len(self.pivots)


def span_rank(field, rows):
    basis = SpanBasis(field)
    for row in rows:
        basis.add(row)
    return basis.rank


def invert_block(field, block, n):
    """Invert an n x n dense matrix (lists of raw values); None if singular."""
    mul, sub = field.mul, field.sub
    aug = [list(block[i][:n]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        prow = aug[col] = [mul(x, inv) for x in aug[col]]
        # only the columns where the pivot row is nonzero change
        live = [j for j in range(col, 2 * n) if prow[j]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c:
                row = aug[r]
                for j in live:
                    row[j] = sub(row[j], mul(c, prow[j]))
    return [row[n:] for row in aug]
