"""Exact incremental Gaussian elimination over sparse coordinate dicts.

Rows are dicts mapping arbitrary hashable coordinates to nonzero raw
field values (see `fields`).  Used for span dimensions, basis extraction
and finite-block inversion.  `accumulate` is the one sparse update every
coefficient dict in the package goes through, so no dict ever stores a
zero; `SparseElement` is the one base of the elements built on such dicts.
"""

from __future__ import annotations

__all__ = ["accumulate", "SparseElement", "SpanBasis", "invert_block"]


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


class SparseElement:
    """A finite linear combination: `terms` maps keys to nonzero raw values
    of `field`.  Sums, negation, scaling, equality and hashing are the same
    for every kind of key.  A subclass gives its key product (`__mul__`),
    `format`, and the error class `_error` and message `_mismatch` that a
    sum or product of incompatible elements raises."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = field.check_terms(terms or {})

    @classmethod
    def _make(cls, field, terms):
        """An element on `terms` as given: zero-free values of `field`."""
        el = object.__new__(cls)
        el.field, el.terms = field, terms
        return el

    def _like(self, terms):
        """An element on `terms` in the context of `self`."""
        return self._make(self.field, terms)

    def _compat(self, other):
        # identity first: elements of one computation share their field
        if self.field is not other.field and self.field != other.field:
            raise self._error(self._mismatch)

    def __add__(self, other):
        self._compat(other)
        terms, add = dict(self.terms), self.field.add
        for k, c in other.terms.items():
            accumulate(terms, k, c, add)
        return self._like(terms)

    def __neg__(self):
        neg = self.field.neg
        return self._like({k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        field = self.field
        scalar = field.check_value(scalar)
        if not scalar:
            return self._like({})
        mul = field.mul
        return self._like({k: mul(c, scalar) for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coordinates(self):
        """The sparse coordinate row for exact linear algebra: `terms`
        itself, so read-only (`SpanBasis` copies what it reduces)."""
        return self.terms

    def __repr__(self):
        return "<%s>" % self.format()


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

    @property
    def rank(self):
        return len(self.pivots)


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
