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
    of `field`; `ctx` is what else two elements must share (a graph, a
    matrix size, or None).  A subclass gives `_pair(ctx, k1, k2)`, the
    (sign, key) pairs of the product of two keys, `format`, `_check_key`
    for a caller's key, and the error class `_error` and message
    `_mismatch` for operands that do not match."""

    __slots__ = ("field", "terms", "ctx")

    def __init__(self, field, terms=None, ctx=None):
        self.field, self.ctx, check = field, ctx, self._check_key
        for key in terms or ():
            check(key)
        self.terms = field.check_terms(terms or {})

    def _check_key(self, key):
        """Raise `_error` naming `key` when it is no key of this kind."""

    @classmethod
    def _make(cls, field, terms, ctx=None):
        """An element on `terms` as given: zero-free values of `field`."""
        el = object.__new__(cls)
        el.field, el.terms, el.ctx = field, terms, ctx
        return el

    def _like(self, terms):
        """An element on `terms` in the context of `self`."""
        return self._make(self.field, terms, self.ctx)

    def _compat(self, other):
        # identity first: elements of one computation share field and ctx
        if (self.field is not other.field and self.field != other.field) or (
            self.ctx is not other.ctx and self.ctx != other.ctx
        ):
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

    def __mul__(self, other):
        self._compat(other)
        ctx, pair, out = self.ctx, self._pair, {}
        add, mul, neg = self.field.add, self.field.mul, self.field.neg
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                pairs = pair(ctx, k1, k2)
                if pairs:
                    c = mul(c1, c2)
                    for sign, k in pairs:
                        accumulate(out, k, c if sign > 0 else neg(c), add)
        return self._make(self.field, out, ctx)

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
            and (self.ctx is other.ctx or self.ctx == other.ctx)
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
