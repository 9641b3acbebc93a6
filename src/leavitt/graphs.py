"""Finite directed multigraphs and the combinatorics the structure theory needs.

Vertex and edge order is document order; all tie-breaking downstream relies
on it, so it is preserved exactly.

Structure is read off one cached, iterative pass of Tarjan's strongly
connected component algorithm: the graph has polynomial growth iff every
non-trivial component has as many edges as vertices (is a single cycle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "Graph",
    "Path",
    "Cycle",
    "GraphAnalysis",
    "InfiniteFamily",
    "Infinite",
    "GraphError",
    "NotPolynomialGrowth",
    "load_graph",
    "graph_from_dict",
    "analyze",
    "compute_V0",
    "compute_V1",
    "quotient_graph",
    "entry_paths",
    "count_paths_to_sink",
]

ENTRY_PATH_CAP = 10000


class GraphError(ValueError):
    """Malformed graph document or precondition failure."""


class NotPolynomialGrowth(GraphError):
    """Two distinct cycles intersect; carries a witness pair."""

    def __init__(self, c1, c2):
        self.witness = (c1, c2)
        super().__init__(
            "cycles %s and %s intersect; growth is not polynomial"
            % (c1.edges, c2.edges)
        )


class Infinite:
    """Sentinel for an infinite path count."""

    def __repr__(self):
        return "Infinite"

    def __eq__(self, other):
        return isinstance(other, Infinite)

    def __hash__(self):
        return hash("Infinite")


INFINITE = Infinite()


class _Adjacency(NamedTuple):
    position: dict  # vertex -> document index
    out: dict  # vertex -> tuple of out-edge ids, document order
    into: dict  # vertex -> tuple of in-edge ids, document order


class _Components(NamedTuple):
    rank: dict  # vertex -> position in Tarjan's output (successors first)
    on_cycle: set  # vertices of non-trivial components
    level: dict  # vertex -> level, see analyze
    growth: bool
    cycles: tuple  # one Cycle per non-trivial component if growth holds
    cycle_at: dict  # vertex -> index into cycles


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: tuple  # of (edge id, source, range)

    def __post_init__(self):
        if not self.vertices:
            raise GraphError("empty vertex set")
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise GraphError("duplicate vertex id %r" % v)
            seen.add(v)
        vset = set(self.vertices)
        eids = set()
        for eid, s, r in self.edges:
            if eid in eids or eid in vset:
                raise GraphError("duplicate id %r" % eid)
            eids.add(eid)
            if s not in vset:
                raise GraphError("edge %r has undeclared source %r" % (eid, s))
            if r not in vset:
                raise GraphError("edge %r has undeclared range %r" % (eid, r))

    def source(self, eid):
        return self._edge_map()[eid][0]

    def range(self, eid):
        return self._edge_map()[eid][1]

    def _edge_map(self):
        m = self.__dict__.get("_emap")
        if m is None:
            m = {eid: (s, r) for eid, s, r in self.edges}
            self.__dict__["_emap"] = m
        return m

    def _adjacency(self):
        adj = self.__dict__.get("_adj")
        if adj is None:
            out = {v: [] for v in self.vertices}
            into = {v: [] for v in self.vertices}
            for eid, s, r in self.edges:
                out[s].append(eid)
                into[r].append(eid)
            adj = self.__dict__["_adj"] = _Adjacency(
                {v: i for i, v in enumerate(self.vertices)},
                {v: tuple(es) for v, es in out.items()},
                {v: tuple(es) for v, es in into.items()},
            )
        return adj

    def _components(self):
        comps = self.__dict__.get("_scc")
        if comps is None:
            comps = self.__dict__["_scc"] = _tarjan(self)
        return comps

    def out_edges(self, v):
        """Edge ids with source v, in document order."""
        return self._adjacency().out.get(v, ())

    def in_edges(self, v):
        """Edge ids with range v, in document order."""
        return self._adjacency().into.get(v, ())

    def is_sink(self, v):
        return not self.out_edges(v)

    def sinks(self):
        return [v for v in self.vertices if self.is_sink(v)]

    def special_edge(self, v):
        """First out-edge of v in document order; None for sinks."""
        out = self.out_edges(v)
        return out[0] if out else None

    def vertex_index(self, v):
        return self._adjacency().position[v]

    def to_dict(self):
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"id": eid, "source": s, "range": r} for eid, s, r in self.edges
            ],
        }


@dataclass(frozen=True)
class Path:
    """A path: edge sequence, or the trivial path at `base`."""

    base: str
    edges: tuple = ()

    def __len__(self):
        return len(self.edges)

    def source(self, g):
        return g.source(self.edges[0]) if self.edges else self.base

    def range(self, g):
        return g.range(self.edges[-1]) if self.edges else self.base

    def vertices(self, g):
        """All vertices visited, in order (length + 1 entries)."""
        if not self.edges:
            return [self.base]
        vs = [g.source(self.edges[0])]
        vs.extend(g.range(e) for e in self.edges)
        return vs


@dataclass(frozen=True)
class Cycle:
    """Closed edge sequence with pairwise distinct source vertices."""

    edges: tuple

    def vertices(self, g):
        return [g.source(e) for e in self.edges]

    def __len__(self):
        return len(self.edges)


@dataclass
class GraphAnalysis:
    sinks: list
    cycles: list
    polynomial_growth: bool
    exits: dict = field(default_factory=dict)  # cycle -> edge list
    ne_cycles: list = field(default_factory=list)
    level: dict = field(default_factory=dict)  # vertex -> level


def graph_from_dict(doc):
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphError("graph document needs 'vertices' and 'edges'")
    edges = []
    for e in doc["edges"]:
        try:
            edges.append((e["id"], e["source"], e["range"]))
        except (TypeError, KeyError) as exc:
            raise GraphError("bad edge record %r" % (e,)) from exc
    return Graph(tuple(doc["vertices"]), tuple(edges))


def load_graph(path_or_file):
    """Load and validate a graph JSON document."""
    if hasattr(path_or_file, "read"):
        doc = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            doc = json.load(fh)
    return graph_from_dict(doc)


def _tarjan(g):
    """Components, growth test, levels and (under growth) the cycles.

    A component is completed after every component it reaches, so its
    level, the largest level it reaches plus one if it is non-trivial, is
    known when it is popped.  Cycles start at their least vertex.
    """
    position, out, _ = g._adjacency()
    emap = g._edge_map()
    index, low, rank, level, succ = {}, {}, {}, {}, {}
    stack, on_cycle, starts = [], set(), []
    growth = True
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, edges = work[-1]
            for eid in edges:
                w = emap[eid][1]
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if w not in level:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] != index[v]:
                    continue
                comp = [stack.pop()]
                while comp[-1] != v:
                    comp.append(stack.pop())
                inner = reach = 0
                for u in comp:
                    rank[u] = len(rank)
                    for eid in out[u]:
                        w = emap[eid][1]
                        if w in level:
                            reach = max(reach, level[w])
                        else:
                            inner += 1
                            succ[u] = eid
                if inner:
                    growth = growth and inner == len(comp)
                    on_cycle.update(comp)
                    starts.append(min(comp, key=position.get))
                    reach += 1
                for u in comp:
                    level[u] = reach
    cycles, cycle_at = [], {}
    if growth:
        for v in sorted(starts, key=position.get):
            edges = []
            while v not in cycle_at:
                cycle_at[v] = len(cycles)
                edges.append(succ[v])
                v = emap[succ[v]][1]
            cycles.append(Cycle(tuple(edges)))
    return _Components(rank, on_cycle, level, growth, tuple(cycles), cycle_at)


def _simple_cycles(g):
    """All edge-level simple cycles, each rotated to start at its least vertex.

    Iterative DFS from each cycle vertex in document order, forbidding
    revisits and restricted to vertices after the start that can get back
    to it through such vertices, so each cycle appears once.  Only graphs
    that fail the growth test need this.
    """
    order = g._adjacency().position
    cycles = []
    for start in sorted(g._components().on_cycle, key=order.get):
        live = _reaching(g, {start}, lambda v: order[v] > order[start])
        path, visited = [], {start}
        work = [iter(g.out_edges(start))]
        while work:
            for eid in work[-1]:
                nxt = g.range(eid)
                if nxt == start:
                    cycles.append(Cycle(tuple(path) + (eid,)))
                elif nxt in live and nxt not in visited:
                    visited.add(nxt)
                    path.append(eid)
                    work.append(iter(g.out_edges(nxt)))
                    break
            else:
                work.pop()
                if path:
                    visited.remove(g.range(path.pop()))
    return cycles


def analyze(g):
    """Sinks, cycles, exits, NE cycles, growth verdict and vertex levels.

    A vertex has level 0 if it reaches no cycle, and otherwise the largest
    height among the cycles it reaches; a cycle's height is 1 plus the
    largest height among the other cycles it reaches (1 if none).  Stage k
    of the ideal chain is the quotient by the vertices of level < k.

    Cycles come from the components when the growth test passes; otherwise
    every simple cycle is enumerated, which is exponential by nature.
    """
    comps = g._components()
    cycles = list(comps.cycles) if comps.growth else _simple_cycles(g)
    through = {}
    for i, c in enumerate(cycles):
        for v in c.vertices(g):
            through.setdefault(v, []).append(i)
    on_cycle = [set(c.edges) for c in cycles]
    exit_lists = [[] for _ in cycles]
    for eid, s, _ in g.edges:
        for i in through.get(s, ()):
            if eid not in on_cycle[i]:
                exit_lists[i].append(eid)
    return GraphAnalysis(
        sinks=g.sinks(),
        cycles=cycles,
        polynomial_growth=comps.growth,
        exits=dict(zip(cycles, exit_lists)),
        ne_cycles=[c for c, ex in zip(cycles, exit_lists) if not ex],
        level=dict(comps.level),
    )


def _require_growth(g):
    """Raise NotPolynomialGrowth, with a witness pair, if g fails the test."""
    if not g._components().growth:
        raise NotPolynomialGrowth(*_pick_intersecting(analyze(g), g))


def compute_V0(g):
    """Vertices from which no cycle vertex is reachable (self included)."""
    level = g._components().level
    return {v for v in g.vertices if level[v] == 0}


def compute_V1(g):
    """Vertices from which every reachable cycle is an NE cycle.

    Requires a sink-free polynomial-growth graph (the setting in which the
    Laurent layer is extracted).  There the NE cycles are the cycles of
    height 1, so these are the vertices of level <= 1.
    """
    if g.sinks():
        raise GraphError("graph has sinks: %s" % g.sinks())
    _require_growth(g)
    level = g._components().level
    return {v for v in g.vertices if level[v] <= 1}


def quotient_graph(g, hereditary):
    """Remove a hereditary vertex set and every edge ranging into it."""
    h = set(hereditary)
    for eid, s, r in g.edges:
        if s in h and r not in h:
            raise GraphError(
                "vertex set not hereditary: edge %r leaves %r" % (eid, s)
            )
    vertices = tuple(v for v in g.vertices if v not in h)
    if not vertices:
        return None
    edges = tuple(e for e in g.edges if e[2] not in h)
    return Graph(vertices, edges)


@dataclass(frozen=True)
class InfiniteFamily:
    """Witness that the idempotent family over an NE cycle is infinite."""

    witness_cycle: Cycle
    connecting_path: Path


def entry_paths(g, cycle, cap=ENTRY_PATH_CAP):
    """Paths q with r(q) on the NE cycle, meeting the cycle only at r(q).

    These index the distinct minimal idempotents over the cycle.  If some
    other cycle reaches this one the family is infinite and an
    InfiniteFamily witness is returned instead.
    """
    an = analyze(g)
    if cycle not in an.ne_cycles:
        raise GraphError("not an NE cycle: %s" % (cycle.edges,))
    if not an.polynomial_growth:
        raise NotPolynomialGrowth(*_pick_intersecting(an, g))
    return _entry_family(g, cycle, cap)


def _entry_family(g, cycle, cap=ENTRY_PATH_CAP):
    """entry_paths for an NE cycle of a polynomial-growth graph."""
    comps = g._components()
    cyc_vs = set(cycle.vertices(g))
    # the first other cycle (in cycle order) reaching this one => infinite
    reaching = {comps.cycle_at[v] for v in _reaching(g, cyc_vs) if v in comps.cycle_at}
    reaching.discard(comps.cycle_at[cycle.vertices(g)[0]])
    if reaching:
        other = comps.cycles[min(reaching)]
        path = _connecting_path(g, set(other.vertices(g)), cyc_vs)
        return InfiniteFamily(other, path)
    # finite: walk backwards from cycle vertices through off-cycle vertices
    return _paths_into(g, cycle.vertices(g), cyc_vs, cap)


def _paths_into(g, ends, avoid, cap):
    """Paths ending in `ends`, shortest first, grown backwards along edges
    whose source is not in `avoid`; more than `cap` of them is an error."""
    result = [Path(v) for v in ends]
    frontier = list(result)
    while frontier:
        if len(result) > cap:
            raise GraphError("entry path enumeration exceeded cap %d" % cap)
        frontier = [
            Path(p.base, (eid,) + p.edges)
            for p in frontier
            for eid in g.in_edges(p.source(g))
            if g.source(eid) not in avoid
        ]
        result.extend(frontier)
    return result


def _pick_intersecting(an, g):
    for i in range(len(an.cycles)):
        for j in range(i + 1, len(an.cycles)):
            ci, cj = an.cycles[i], an.cycles[j]
            if set(ci.vertices(g)) & set(cj.vertices(g)):
                return ci, cj
    raise AssertionError


def _reaching(g, targets, keep=None):
    """Vertices with a path (trivial included) ending in `targets`, through
    vertices accepted by `keep` (all by default)."""
    seen = set(targets)
    stack = list(seen)
    while stack:
        for eid in g.in_edges(stack.pop()):
            s = g.source(eid)
            if s not in seen and (keep is None or keep(s)):
                seen.add(s)
                stack.append(s)
    return seen


def _connecting_path(g, from_vs, to_vs):
    """Shortest path starting in from_vs and ending in to_vs (BFS)."""
    from collections import deque

    starts = sorted(from_vs, key=g.vertex_index)
    reached_by = dict.fromkeys(starts)  # vertex -> edge first reaching it
    queue = deque(starts)
    while queue:
        v = queue.popleft()
        if v in to_vs:
            edges = []
            while reached_by[v] is not None:
                edges.append(reached_by[v])
                v = g.source(reached_by[v])
            return Path(v, tuple(reversed(edges)))
        for eid in g.out_edges(v):
            r = g.range(eid)
            if r not in reached_by:
                reached_by[r] = eid
                queue.append(r)
    raise AssertionError("no connecting path despite reachability")


def count_paths_to_sink(g, v):
    """Number of paths ending at sink v (trivial path included), or Infinite."""
    comps = g._components()
    if v not in comps.rank or not g.is_sink(v):
        raise GraphError("%r is not a sink" % v)
    back = _reaching(g, {v})
    if not back.isdisjoint(comps.on_cycle):
        return INFINITE
    # acyclic feeding region, predecessors first (Tarjan's order reversed)
    ending = {}  # u -> number of paths ending at u
    for u in sorted(back, key=comps.rank.__getitem__, reverse=True):
        ending[u] = 1 + sum(ending[g.source(e)] for e in g.in_edges(u))
    return ending[v]


def all_paths_to_sink(g, v):
    """The actual paths ending at sink v; requires a finite count."""
    count = count_paths_to_sink(g, v)
    if count == INFINITE:
        raise GraphError("infinitely many paths end at %r" % v)
    return _paths_into(g, [v], (), count)
