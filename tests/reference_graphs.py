"""Reference graph layer: the original cycle-DFS implementation, kept as an oracle.

These are the functions `leavitt.graphs` and `leavitt.structure` used before
the single SCC pass: an exhaustive recursive cycle search, per-vertex
reachability sets, and an ideal chain built by alternating V0/V1 with
quotients.  They only scan `g.edges` and use the shared data types
(`Path`, `Cycle`, ...), so they do not depend on the adjacency or component
caches they are compared against.  Fine for small graphs only.
"""

from collections import deque

from leavitt.graphs import (
    INFINITE,
    Cycle,
    GraphError,
    InfiniteFamily,
    NotPolynomialGrowth,
    Path,
    quotient_graph,
)


def _out_edges(g, v):
    return [eid for eid, s, _ in g.edges if s == v]


def _sinks(g):
    return [v for v in g.vertices if not _out_edges(g, v)]


def _simple_cycles(g):
    order = {v: i for i, v in enumerate(g.vertices)}
    cycles = []

    def walk(start, current, path, visited):
        for eid in _out_edges(g, current):
            nxt = g.range(eid)
            if nxt == start:
                cycles.append(Cycle(tuple(path + [eid])))
            elif nxt not in visited and order[nxt] > order[start]:
                visited.add(nxt)
                walk(start, nxt, path + [eid], visited)
                visited.remove(nxt)

    for v in g.vertices:
        walk(v, v, [], {v})
    return cycles


def _reachability(g):
    adj = {v: set() for v in g.vertices}
    for _, s, r in g.edges:
        adj[s].add(r)
    reach = {}
    for v in g.vertices:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[v] = seen
    return reach


def analyze(g):
    """dict with sinks, cycles, growth, exits, ne_cycles, cycle_reachability."""
    cycles = _simple_cycles(g)
    vsets = [set(c.vertices(g)) for c in cycles]
    growth = True
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if vsets[i] & vsets[j]:
                growth = False
    exits = {}
    for c, vs in zip(cycles, vsets):
        on_cycle = set(c.edges)
        exits[c] = [eid for eid, s, _ in g.edges if s in vs and eid not in on_cycle]
    reach = _reachability(g)
    creach = set()
    for i, c in enumerate(cycles):
        for j, c2 in enumerate(cycles):
            if i != j and any(w in reach[v] for v in vsets[i] for w in vsets[j]):
                creach.add((c, c2))
    return {
        "sinks": _sinks(g),
        "cycles": cycles,
        "polynomial_growth": growth,
        "exits": exits,
        "ne_cycles": [c for c in cycles if not exits[c]],
        "cycle_reachability": creach,
    }


def pick_intersecting(an, g):
    cycles = an["cycles"]
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if set(cycles[i].vertices(g)) & set(cycles[j].vertices(g)):
                return cycles[i], cycles[j]
    raise AssertionError


def _require_growth(g):
    an = analyze(g)
    if not an["polynomial_growth"]:
        raise NotPolynomialGrowth(*pick_intersecting(an, g))
    return an


def compute_V0(g):
    cycle_vertices = set()
    for c in _simple_cycles(g):
        cycle_vertices.update(c.vertices(g))
    reach = _reachability(g)
    return {v for v in g.vertices if not (reach[v] & cycle_vertices)}


def compute_V1(g):
    if _sinks(g):
        raise GraphError("graph has sinks: %s" % _sinks(g))
    an = _require_growth(g)
    other = set()
    for c in an["cycles"]:
        if c not in an["ne_cycles"]:
            other.update(c.vertices(g))
    reach = _reachability(g)
    return {v for v in g.vertices if not (reach[v] & other)}


def _connecting_path(g, from_vs, to_vs):
    queue = deque(Path(v) for v in sorted(from_vs, key=g.vertices.index))
    seen = set(from_vs)
    while queue:
        p = queue.popleft()
        v = p.range(g)
        if v in to_vs:
            return p
        for eid in _out_edges(g, v):
            r = g.range(eid)
            if r not in seen:
                seen.add(r)
                queue.append(Path(p.base, p.edges + (eid,)))
    raise AssertionError("no connecting path despite reachability")


def entry_paths(g, cycle, cap=10000):
    an = analyze(g)
    if cycle not in an["ne_cycles"]:
        raise GraphError("not an NE cycle: %s" % (cycle.edges,))
    if not an["polynomial_growth"]:
        raise NotPolynomialGrowth(*pick_intersecting(an, g))
    cyc_vs = set(cycle.vertices(g))
    for other in an["cycles"]:
        if other != cycle and (other, cycle) in an["cycle_reachability"]:
            path = _connecting_path(g, set(other.vertices(g)), cyc_vs)
            return InfiniteFamily(other, path)
    result = [Path(v) for v in cycle.vertices(g)]
    frontier = list(result)
    while frontier:
        if len(result) > cap:
            raise GraphError("entry path enumeration exceeded cap %d" % cap)
        nxt = []
        for p in frontier:
            v = p.source(g)
            for eid, s, r in g.edges:
                if r == v and s not in cyc_vs:
                    q = Path(p.base, (eid,) + p.edges)
                    nxt.append(q)
                    result.append(q)
        frontier = nxt
    return result


def count_paths_to_sink(g, v):
    if _out_edges(g, v):
        raise GraphError("%r is not a sink" % v)
    cycle_vertices = set()
    for c in _simple_cycles(g):
        cycle_vertices.update(c.vertices(g))
    back = {v}
    changed = True
    while changed:
        changed = False
        for eid, s, r in g.edges:
            if r in back and s not in back:
                back.add(s)
                changed = True
    if back & cycle_vertices:
        return INFINITE
    paths_to = {v: 1}

    def npaths(u):
        if u in paths_to:
            return paths_to[u]
        n = 0
        for eid in _out_edges(g, u):
            r = g.range(eid)
            if r in back:
                n += npaths(r)
        paths_to[u] = n
        return n

    return sum(npaths(u) for u in back)


def _socle_layer(g):
    layer = []
    for v in _sinks(g):
        count = count_paths_to_sink(g, v)
        if count == INFINITE:
            layer.append({"kind": "MatInfOverF", "anchor": v})
        else:
            layer.append({"kind": "MatOverF", "anchor": v, "size": count})
    return layer


def _ne_layer(g):
    layer = []
    for c in analyze(g)["ne_cycles"]:
        fam = entry_paths(g, c)
        if isinstance(fam, InfiniteFamily):
            layer.append({"kind": "MatInfOverLaurent", "anchor": c.edges[0]})
        else:
            layer.append({"kind": "MatOverLaurent", "anchor": c.edges[0], "size": len(fam)})
    return layer


def ideal_chain(g):
    """(chain document, stage graphs) by iterated V0/V1 quotients."""
    _require_growth(g)
    layers = [_socle_layer(g)]
    stages = [g]
    current = quotient_graph(g, compute_V0(g))
    while current is not None:
        stages.append(current)
        layers.append(_ne_layer(current))
        current = quotient_graph(current, compute_V1(current))
    doc = {
        "layers": layers,
        "s": len(stages) - 1,
        "stages": [s.to_dict() for s in stages],
    }
    return doc, stages


def analyze_document(g):
    """The `leavitt analyze --json` document, without the chain."""
    an = analyze(g)
    return {
        "sinks": an["sinks"],
        "cycles": [list(c.edges) for c in an["cycles"]],
        "ne_cycles": [list(c.edges) for c in an["ne_cycles"]],
        "exits": {" ".join(c.edges): an["exits"][c] for c in an["cycles"]},
        "polynomial_growth": an["polynomial_growth"],
        "V0": sorted(compute_V0(g), key=g.vertices.index),
    }
