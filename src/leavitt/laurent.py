"""Laurent polynomials F[t, t^-1], finite matrices over them, and the
explicit isomorphism from the algebra of an NE cycle onto M_d(F[t, t^-1]).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from .graphs import GraphError, Path
from .linalg import SparseElement, accumulate

__all__ = [
    "LaurentPoly",
    "LaurentMatrix",
    "cycle_iso_image",
    "element_iso_image",
    "verify_cycle_iso",
]


class LaurentPoly(SparseElement):
    """Finite-support map exponent -> nonzero raw field value."""

    __slots__ = ()
    _error = ValueError
    _mismatch = "Laurent polynomials over different fields"

    @classmethod
    def zero(cls, field):
        return cls._make(field, {})

    @classmethod
    def one(cls, field):
        return cls._make(field, {0: field.one()})

    @classmethod
    def monomial(cls, field, exponent, coeff=None):
        return cls(field, {exponent: coeff if coeff is not None else field.one()})

    def __mul__(self, other):
        self._compat(other)
        out, add, mul = {}, self.field.add, self.field.mul
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, e1 + e2, mul(c1, c2), add)
        return self._make(self.field, out)

    def substitute_inverse(self):
        """t -> t^-1."""
        return self._make(self.field, {-e: c for e, c in self.terms.items()})

    def is_unit(self):
        """Units of F[t, t^-1] are the nonzero monomials."""
        return len(self.terms) == 1

    def format(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            cs = self.field.to_str(self.terms[e])
            if e == 0:
                parts.append(cs)
                continue
            t = "t" if e == 1 else "t^%d" % e
            parts.append(t if cs == "1" else "%s%s" % (cs, t))
        return " + ".join(parts)


class LaurentMatrix:
    """d x d matrix of LaurentPoly entries."""

    __slots__ = ("field", "d", "entries")

    def __init__(self, field, d, entries=None):
        if d < 1:
            raise ValueError("matrix size must be >= 1")
        self.field = field
        self.d = d
        zero = LaurentPoly.zero(field)
        self.entries = [
            [entries[i][j] if entries else zero for j in range(d)] for i in range(d)
        ]

    @classmethod
    def zero(cls, field, d):
        return cls(field, d)

    @classmethod
    def identity(cls, field, d):
        m = cls(field, d)
        for i in range(d):
            m.entries[i][i] = LaurentPoly.one(field)
        return m

    @classmethod
    def unit(cls, field, d, i, j, poly=None):
        """Matrix unit e_ij (1-based) scaled by an optional polynomial."""
        m = cls(field, d)
        m.entries[i - 1][j - 1] = poly if poly is not None else LaurentPoly.one(field)
        return m

    def _compat(self, other):
        if self.field != other.field or self.d != other.d:
            raise ValueError("Laurent matrix size or field mismatch")

    def __add__(self, other):
        self._compat(other)
        out = LaurentMatrix(self.field, self.d)
        for i in range(self.d):
            for j in range(self.d):
                out.entries[i][j] = self.entries[i][j] + other.entries[i][j]
        return out

    def __neg__(self):
        return LaurentMatrix(self.field, self.d, [[-e for e in r] for r in self.entries])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compat(other)
        out = LaurentMatrix(self.field, self.d)
        for i in range(self.d):
            row = self.entries[i]
            for k in range(self.d):
                lik = row[k]
                if not lik:
                    continue
                orow = other.entries[k]
                for j in range(self.d):
                    if orow[j]:
                        out.entries[i][j] = out.entries[i][j] + lik * orow[j]
        return out

    def conjugate_transpose(self):
        """Transpose with t -> t^-1 in every entry (the star image)."""
        out = LaurentMatrix(self.field, self.d)
        for i in range(self.d):
            for j in range(self.d):
                out.entries[j][i] = self.entries[i][j].substitute_inverse()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and self.field == other.field
            and self.d == other.d
            and self.entries == other.entries
        )

    def __bool__(self):
        return any(any(e for e in row) for row in self.entries)

    def to_json(self):
        return [[e.format() for e in row] for row in self.entries]

    def __repr__(self):
        return "LaurentMatrix(%r)" % (self.to_json(),)


def _positions(g, cycle):
    """Position of each cycle vertex, counted from the least one (0-based)."""
    vs = cycle.vertices(g)
    base = min(range(len(vs)), key=lambda k: g.vertex_index(vs[k]))
    return {v: (k - base) % len(vs) for k, v in enumerate(vs)}


def _image(g, pos, edges, m):
    """(i, j, n) with m = p q* -> t^n e_ij, for the d-cycle with vertex
    positions `pos` and edge set `edges`; GraphError when m is off it.

    i, j are the 1-based positions of s(p), s(q).  With pi_k the path from
    the least vertex to position k along the cycle, pi_i p = c^(n_p) pi_r,
    so n = n_p - n_q = (i + |p| - j - |q|) / d.
    """
    p, q, v = m
    if v not in pos or not edges.issuperset(p + q):
        raise GraphError("monomial %s does not lie on the cycle" % m.format())
    i = pos[g.source(p[0])] if p else pos[v]
    j = pos[g.source(q[0])] if q else pos[v]
    n, rem = divmod(i + len(p) - j - len(q), len(edges))
    assert rem == 0, "winding number must be an integer"
    return i + 1, j + 1, n


def cycle_iso_image(g, p, q, cycle):
    """Image (i, j, t^n monomial) of the monomial p q* under the cycle
    isomorphism; i, j are 1-based positions of s(p), s(q) on the cycle."""
    r = p.range(g)
    if r != q.range(g):
        raise GraphError("paths have different ranges")
    m = alg.Monomial(p.edges, q.edges, r)
    return _image(g, _positions(g, cycle), frozenset(cycle.edges), m)


def element_iso_image(g, a, cycle):
    """Map an element supported on on-cycle monomials to a LaurentMatrix."""
    pos, edges, d, field = _positions(g, cycle), frozenset(cycle.edges), len(cycle), a.field
    coeffs = [[{} for _ in range(d)] for _ in range(d)]
    for m, c in a.terms.items():
        i, j, n = _image(g, pos, edges, m)
        accumulate(coeffs[i - 1][j - 1], n, c, field.add)
    return LaurentMatrix(field, d, [[LaurentPoly._make(field, e) for e in r] for r in coeffs])


def verify_cycle_iso(g, cycle, maxlen, field):
    """Check multiplicativity of the isomorphism on all on-cycle monomial
    pairs with path lengths <= maxlen.

    The left side goes through the rewriting engine; the right side is
    matrix-unit arithmetic, t^n1 e_{i1,j1} . t^n2 e_{i2,j2} =
    delta_{j1,i2} t^(n1+n2) e_{i1,j2}.  Matrix-unit products agree with
    full LaurentMatrix products, which the test suite checks separately.
    """
    pos, edges, d = _positions(g, cycle), frozenset(cycle.edges), len(cycle)
    add, mul = field.add, field.mul
    order = sorted(edges, key=lambda e: pos[g.source(e)])
    # on-cycle paths: determined by start position and length
    paths = [
        Path(g.source(order[i]), tuple(order[(i + k) % d] for k in range(length)))
        for i in range(d)
        for length in range(maxlen + 1)
    ]
    monos = []
    for p in paths:
        for q in paths:
            if p.range(g) == q.range(g):
                el = alg.monomial_element(g, field, p, q)
                ((m, c),) = el.terms.items()
                monos.append((el, _image(g, pos, edges, m), c))
    for m1, (i1, j1, n1), c1 in monos:
        for m2, (i2, j2, n2), c2 in monos:
            lhs = {}
            for m, c in (m1 * m2).terms.items():
                accumulate(lhs, _image(g, pos, edges, m), c, add)
            if lhs != ({(i1, j2, n1 + n2): mul(c1, c2)} if j1 == i2 else {}):
                return False
    return True
