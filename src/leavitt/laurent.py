"""Laurent polynomials F[t, t^-1], finite matrices over them, and the
explicit isomorphism from the algebra of an NE cycle onto M_d(F[t, t^-1]).
"""

from __future__ import annotations

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

    @staticmethod
    def _pair(ctx, e1, e2):
        return ((1, e1 + e2),)

    def _check_key(self, key):
        if type(key) is not int:
            raise ValueError("Laurent exponent %r is not an integer" % (key,))

    def format(self):
        parts = []
        for e in sorted(self.terms):
            cs = self.field.to_str(self.terms[e])
            t = "" if e == 0 else "t" if e == 1 else "t^%d" % e
            parts.append(t if t and cs == "1" else cs + t)
        return " + ".join(parts) or "0"


class LaurentMatrix(SparseElement):
    """d x d matrix over F[t, t^-1]: `terms` maps (i, j, n), with 1-based
    i, j, to the nonzero raw coefficient of t^n e_ij."""

    __slots__ = ()
    _error = ValueError
    _mismatch = "Laurent matrix size or field mismatch"

    def __init__(self, field, d, terms=None):
        if d < 1:
            raise ValueError("matrix size must be >= 1")
        super().__init__(field, terms, d)

    @property
    def d(self):
        return self.ctx

    def _check_key(self, key):
        if not (type(key) is tuple and len(key) == 3 and all(type(x) is int for x in key)):
            raise ValueError("matrix key %r is not a triple of integers" % (key,))
        if not (1 <= key[0] <= self.ctx and 1 <= key[1] <= self.ctx):
            raise ValueError("matrix index (%r, %r) outside 1..%d" % (*key[:2], self.ctx))

    @classmethod
    def zero(cls, field, d):
        return cls(field, d)

    @classmethod
    def identity(cls, field, d):
        return cls(field, d, {(i, i, 0): field.one() for i in range(1, d + 1)})

    @classmethod
    def unit(cls, field, d, i, j, poly=None):
        """Matrix unit e_ij (1-based) scaled by an optional polynomial."""
        m = cls(field, d, {(i, j, 0): field.one()})
        if poly is None:
            return m
        if poly.field != field:
            raise ValueError(cls._mismatch)
        return m._like({(i, j, n): c for n, c in poly.terms.items()})

    @staticmethod
    def _pair(ctx, k1, k2):
        # t^n1 e_ik . t^n2 e_kj = t^(n1+n2) e_ij
        (i, k, n1), (k2, j, n2) = k1, k2
        return ((1, (i, j, n1 + n2)),) if k == k2 else ()

    def format(self):
        entries = {}
        for (i, j, n), c in sorted(self.terms.items()):
            entries.setdefault((i, j), {})[n] = c
        if not entries:
            return "0"
        return " + ".join(
            "(%s) e_%d,%d" % (LaurentPoly._make(self.field, e).format(), i, j)
            for (i, j), e in entries.items()
        )


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
    pos, edges, add = _positions(g, cycle), frozenset(cycle.edges), a.field.add
    terms = {}
    for m, c in a.terms.items():
        accumulate(terms, _image(g, pos, edges, m), c, add)
    return LaurentMatrix._make(a.field, terms, len(cycle))


def verify_cycle_iso(g, cycle, maxlen, field):
    """Check multiplicativity of the isomorphism on all on-cycle monomial
    pairs with path lengths <= maxlen.

    The left side goes through the rewriting engine; the right side is
    matrix-unit arithmetic, t^n1 e_{i1,j1} . t^n2 e_{i2,j2} =
    delta_{j1,i2} t^(n1+n2) e_{i1,j2}: the rule of `LaurentMatrix._pair`,
    inlined here on bare (i, j, n) keys.
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
