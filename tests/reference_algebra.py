"""Reference monomial layer: the former implementation, kept as an oracle.

These are the `Monomial` class, the (R1) product and (R2) normalisation of
`leavitt.algebra`, and the cycle data, winding numbers and image units of
`leavitt.laurent`, as they were before `Monomial` became a NamedTuple,
`_mul_pair` replaced the three product helpers and `laurent._image`
replaced the per-path walks.  Only the imports differ.
"""

from leavitt.algebra import _is_reducible
from leavitt.graphs import Path


class Monomial:
    """A normal-form monomial p q*; `vertex` is the common range r(p) = r(q)."""

    __slots__ = ("p", "q", "vertex")

    def __init__(self, p, q, vertex):
        self.p = tuple(p)
        self.q = tuple(q)
        self.vertex = vertex

    @property
    def degree(self):
        return len(self.p) + len(self.q)

    def sort_key(self):
        return (self.degree, self.p, self.q, self.vertex)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.p == other.p
            and self.q == other.q
            and self.vertex == other.vertex
        )

    def __hash__(self):
        return hash((self.p, self.q, self.vertex))

    def __repr__(self):
        return "Monomial(%s)" % self.format()

    def format(self):
        parts = list(self.p) + ["%s'" % e for e in reversed(self.q)]
        if not parts:
            return str(self.vertex)
        return " ".join(parts)


def _path_start(g, edges, base):
    return g.source(edges[0]) if edges else base


def _mul_monomials(g, m1, m2):
    """Raw product (p q*)(u w*), or None when it is zero.

    Cancels q* against u edge by edge via (R1); the survivor is appended
    to p or to w.  Result is (p', q', vertex) before (R2) normalization.
    """
    q, u = m1.q, m2.p
    if _path_start(g, q, m1.vertex) != _path_start(g, u, m2.vertex):
        return None
    n = min(len(q), len(u))
    if q[:n] != u[:n]:
        return None
    if n == len(q):
        # q is a prefix of u: q* u = rest of u, compose onto p
        return (m1.p + u[n:], m2.q, m2.vertex)
    # u is a proper prefix of q: survivor is a ghost path, compose onto w
    return (m1.p, m2.q + q[n:], m1.vertex)


def _normalize_monomial(g, p, q, vertex):
    """Expand (R2) until normal; yields (sign, Monomial) pairs."""
    out = []
    stack = [(1, p, q, vertex)]
    while stack:
        sign, p, q, vertex = stack.pop()
        if _is_reducible(g, p, q):
            e = p[-1]
            v = g.source(e)
            stack.append((sign, p[:-1], q[:-1], v))
            for f in g.out_edges(v):
                if f != e:
                    out.append(
                        (-sign, Monomial(p[:-1] + (f,), q[:-1] + (f,), g.range(f)))
                    )
        else:
            out.append((sign, Monomial(p, q, vertex)))
    return out


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


def _winding(g, path, pi, index, d):
    """n_p from pi_{i(s(p))} . p = c^{n_p} . pi_{i(r(p))}."""
    i = index[path.source(g)]
    k = index[path.range(g)]
    n, rem = divmod(len(pi[i]) + len(path) - len(pi[k]), d)
    assert rem == 0, "winding number must be an integer"
    return n


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
