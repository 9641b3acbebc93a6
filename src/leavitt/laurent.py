"""Laurent polynomials F[t, t^-1], finite matrices over them, and the
explicit isomorphism from the algebra of an NE cycle onto M_d(F[t, t^-1]).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from .graphs import GraphError, Path
from .linalg import accumulate

__all__ = [
    "LaurentPoly",
    "LaurentMatrix",
    "cycle_iso_image",
    "element_iso_image",
    "verify_cycle_iso",
]


class LaurentPoly:
    """Finite-support map exponent -> nonzero raw field value."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=None):
        self.field = field
        self.coeffs = field.check_terms(coeffs or {})

    @classmethod
    def _make(cls, field, coeffs):
        """A polynomial on `coeffs` as given: zero-free values of `field`."""
        p = object.__new__(cls)
        p.field, p.coeffs = field, coeffs
        return p

    @classmethod
    def zero(cls, field):
        return cls._make(field, {})

    @classmethod
    def one(cls, field):
        return cls._make(field, {0: field.one()})

    @classmethod
    def monomial(cls, field, exponent, coeff=None):
        return cls(field, {exponent: coeff if coeff is not None else field.one()})

    def _compat(self, other):
        if self.field != other.field:
            raise ValueError("Laurent polynomials over different fields")

    def __add__(self, other):
        self._compat(other)
        out, add = dict(self.coeffs), self.field.add
        for e, c in other.coeffs.items():
            accumulate(out, e, c, add)
        return self._make(self.field, out)

    def __neg__(self):
        neg = self.field.neg
        return self._make(self.field, {e: neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compat(other)
        out, add, mul = {}, self.field.add, self.field.mul
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                accumulate(out, e1 + e2, mul(c1, c2), add)
        return self._make(self.field, out)

    def scale(self, scalar):
        field = self.field
        scalar = field.check_value(scalar)
        if not scalar:
            return self._make(field, {})
        mul = field.mul
        return self._make(field, {e: mul(c, scalar) for e, c in self.coeffs.items()})

    def substitute_inverse(self):
        """t -> t^-1."""
        return self._make(self.field, {-e: c for e, c in self.coeffs.items()})

    def is_unit(self):
        """Units of F[t, t^-1] are the nonzero monomials."""
        return len(self.coeffs) == 1

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def format(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            cs = self.field.to_str(self.coeffs[e])
            if e == 0:
                parts.append(cs)
                continue
            t = "t" if e == 1 else "t^%d" % e
            parts.append(t if cs == "1" else "%s%s" % (cs, t))
        return " + ".join(parts)

    def __repr__(self):
        return "<%s>" % self.format()


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


def _cycle_data(g, cycle):
    """Base vertex (least id), vertex order around the cycle, canonical paths."""
    vs = cycle.vertices(g)
    base_pos = min(range(len(vs)), key=lambda i: g.vertex_index(vs[i]))
    ordered = vs[base_pos:] + vs[:base_pos]
    edges = cycle.edges[base_pos:] + cycle.edges[:base_pos]
    # pi[i] = canonical path base -> ordered[i] along the cycle
    pi = [Path(ordered[0], tuple(edges[:i])) for i in range(len(ordered))]
    index = {v: i for i, v in enumerate(ordered)}
    return ordered, edges, pi, index


def _on_cycle(g, path, cycle_vertices, cycle_edges):
    if path.edges:
        return all(e in cycle_edges for e in path.edges)
    return path.base in cycle_vertices


def _winding(g, path, pi, index, d):
    """n_p from pi_{i(s(p))} . p = c^{n_p} . pi_{i(r(p))}."""
    i = index[path.source(g)]
    k = index[path.range(g)]
    n, rem = divmod(len(pi[i]) + len(path) - len(pi[k]), d)
    assert rem == 0, "winding number must be an integer"
    return n


def cycle_iso_image(g, p, q, cycle):
    """Image (i, j, t^n monomial) of the monomial p q* under the cycle
    isomorphism; i, j are 1-based positions of s(p), s(q) on the cycle."""
    ordered, edges, pi, index = _cycle_data(g, cycle)
    cyc_vs = set(ordered)
    cyc_es = set(edges)
    for path in (p, q):
        if not _on_cycle(g, path, cyc_vs, cyc_es):
            raise GraphError("path %s does not lie on the cycle" % (path,))
    if p.range(g) != q.range(g):
        raise GraphError("paths have different ranges")
    d = len(cycle)
    n = _winding(g, p, pi, index, d) - _winding(g, q, pi, index, d)
    return (index[p.source(g)] + 1, index[q.source(g)] + 1, n)


def element_iso_image(g, a, cycle):
    """Map an element supported on on-cycle monomials to a LaurentMatrix."""
    ordered, edges, pi, index = _cycle_data(g, cycle)
    d = len(cycle)
    out = LaurentMatrix.zero(a.field, d)
    for m, c in a.terms.items():
        p = Path(m.vertex if not m.p else g.source(m.p[0]), m.p)
        q = Path(m.vertex if not m.q else g.source(m.q[0]), m.q)
        i, j, n = cycle_iso_image(g, p, q, cycle)
        out = out + LaurentMatrix.unit(
            a.field, d, i, j, LaurentPoly.monomial(a.field, n, c)
        )
    return out


def _image_units(g, a, pi, index, d):
    """Image of an element as a sorted tuple of (i, j, n, coeff) units."""
    units = []
    for m, c in a.terms.items():
        p = Path(m.vertex if not m.p else g.source(m.p[0]), m.p)
        q = Path(m.vertex if not m.q else g.source(m.q[0]), m.q)
        n = _winding(g, p, pi, index, d) - _winding(g, q, pi, index, d)
        units.append((index[p.source(g)] + 1, index[q.source(g)] + 1, n, c))
    units.sort(key=lambda u: u[:3])
    return tuple(units)


def verify_cycle_iso(g, cycle, maxlen, field):
    """Check multiplicativity of the isomorphism on all on-cycle monomial
    pairs with path lengths <= maxlen.

    The left side goes through the rewriting engine; the right side is
    matrix-unit arithmetic, t^n1 e_{i1,j1} . t^n2 e_{i2,j2} =
    delta_{j1,i2} t^(n1+n2) e_{i1,j2}.  Matrix-unit products agree with
    full LaurentMatrix products, which the test suite checks separately.
    """
    ok = True
    ordered, edges, pi, index = _cycle_data(g, cycle)
    d = len(cycle)
    # on-cycle paths: determined by start position and length
    paths = []
    for i in range(d):
        rotated = edges[i:] + edges[:i]
        for length in range(maxlen + 1):
            reps = (length // d) + 1
            seq = (rotated * reps)[:length]
            paths.append(Path(ordered[i], tuple(seq)))
    monos = []
    for p in paths:
        for q in paths:
            if p.range(g) == q.range(g):
                el = alg.monomial_element(g, field, p, q)
                units = _image_units(g, el, pi, index, d)
                assert len(units) == 1
                monos.append((el, units[0]))
    for m1, (i1, j1, n1, c1) in monos:
        for m2, (i2, j2, n2, c2) in monos:
            lhs = _image_units(g, m1 * m2, pi, index, d)
            if j1 == i2:
                rhs = ((i1, j2, n1 + n2, field.mul(c1, c2)),)
            else:
                rhs = ()
            if lhs != rhs:
                ok = False
    return ok
