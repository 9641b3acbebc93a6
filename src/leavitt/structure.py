"""The ideal-chain engine: socle layer, NE-cycle layers and growth probes.

The chain is computed on graphs: each stage removes a hereditary saturated
vertex set and records the matrix-algebra factors it contributes.  Factor
descriptors are symbolic; infinite factors carry a witness, never a
materialized index set.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import ceil

from . import graphs as gr
from . import algebra as alg
from .linalg import SpanBasis

__all__ = [
    "FactorDescriptor",
    "StructureReport",
    "socle_layer",
    "ne_layer",
    "ideal_chain",
    "corner_basis",
    "growth_probe",
]

MAT_F = "MatOverF"
MAT_INF_F = "MatInfOverF"
MAT_LAURENT = "MatOverLaurent"
MAT_INF_LAURENT = "MatInfOverLaurent"


@dataclass
class FactorDescriptor:
    kind: str
    anchor: str  # sink id, or the first edge id of the NE cycle
    size: int | None = None
    witness: object = None  # InfiniteFamily or witness cycle, infinite case

    def to_dict(self):
        d = {"kind": self.kind, "anchor": self.anchor}
        if self.size is not None:
            d["size"] = self.size
        return d


@dataclass
class StructureReport:
    layers: list  # layers[0] = socle factors; layers[1..s] = NE stages
    stages: list  # graph at each stage (stages[0] = input graph)
    s: int

    def to_dict(self):
        return {
            "layers": [[f.to_dict() for f in layer] for layer in self.layers],
            "s": self.s,
            "stages": [g.to_dict() for g in self.stages if g is not None],
        }


def socle_layer(g):
    """One factor per sink: M_k(F) with k the path count, or M_inf(F)."""
    gr._require_growth(g)
    factors = []
    for v in g.sinks():
        count = gr.count_paths_to_sink(g, v)
        if count == gr.INFINITE:
            factors.append(FactorDescriptor(MAT_INF_F, anchor=v))
        else:
            factors.append(FactorDescriptor(MAT_F, anchor=v, size=count))
    return factors


def ne_layer(g):
    """One factor per NE cycle of a sink-free polynomial-growth graph."""
    if g.sinks():
        raise gr.GraphError("graph has sinks: %s" % g.sinks())
    gr._require_growth(g)
    an = gr.analyze(g)
    if not an.ne_cycles:
        # impossible for a nonempty sink-free polynomial-growth graph
        raise AssertionError("sink-free polynomial-growth graph without NE cycle")
    return [_ne_factor(g, c) for c in an.ne_cycles]


def _ne_factor(g, cycle):
    fam = gr._entry_family(g, cycle)
    if isinstance(fam, gr.InfiniteFamily):
        return FactorDescriptor(MAT_INF_LAURENT, anchor=cycle.edges[0], witness=fam)
    return FactorDescriptor(MAT_LAURENT, anchor=cycle.edges[0], size=len(fam))


def ideal_chain(g):
    """The full chain: socle layer, then NE stages until the graph is gone.

    Stage k is the quotient by the vertices of level < k (see
    graphs.analyze); its NE cycles are the cycles of height k.  Every
    vertex reaching such a cycle has level >= k, so its entry family is
    the same in the input as in the stage, and the input is analysed once.
    """
    gr._require_growth(g)
    an = gr.analyze(g)
    layers = [socle_layer(g)]
    stages = [g]
    for k in range(1, max(an.level.values()) + 1):
        stages.append(gr.quotient_graph(g, [v for v in g.vertices if an.level[v] < k]))
        layers.append(
            [_ne_factor(g, c) for c in an.cycles if an.level[g.source(c.edges[0])] == k]
        )
    return StructureReport(layers=layers, stages=stages, s=len(stages) - 1)


@dataclass
class CornerBasis:
    basis: list  # AlgebraElements
    dimension: int
    stabilized: bool


def corner_basis(g, e, f, maxdeg):
    """Basis of span{e m f : m a monomial of degree <= maxdeg}.

    The stabilization flag records whether the dimension was already
    attained two degrees earlier.
    """
    if not e.is_idempotent():
        raise alg.AlgebraError("left element is not idempotent")
    if not f.is_idempotent():
        raise alg.AlgebraError("right element is not idempotent")
    e._compat(f)
    span = SpanBasis(e.field)
    basis = []
    dim_at = {}
    for d in range(maxdeg + 1):
        for m in alg.enumerate_basis(g, e.field, d):
            if m.degree != d:
                continue
            el = e * alg.AlgebraElement(g, e.field, {m: e.field.one()}) * f
            if el and span.add(el.coordinates()):
                basis.append(el)
        dim_at[d] = span.rank
    stabilized = maxdeg >= 2 and dim_at[maxdeg] == dim_at[maxdeg - 2]
    return CornerBasis(basis=basis, dimension=span.rank, stabilized=stabilized)


@dataclass
class GrowthProbe:
    dims: list  # d_1 .. d_n_max
    verdict: str  # "Linear" | "SuperLinear"
    k: int


def growth_probe(g, a, n_max):
    """Exact dims of a G^n a for the canonical generator space G.

    Linear iff d_n <= k n for all n, with k the largest ratio seen in the
    first half of the range; ratios that keep climbing past the halfway
    point yield SuperLinear.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    field = a.field
    gens = alg.generator_elements(g, field)
    # basis of G^n built incrementally
    span = SpanBasis(field)
    current = []
    for gen in gens:
        if span.add(gen.coordinates()):
            current.append(gen)
    dims = []
    gn_basis = list(current)
    for n in range(1, n_max + 1):
        if n > 1:
            nxt = []
            for gen in gens:
                for el in current:
                    prod = gen * el
                    if prod and span.add(prod.coordinates()):
                        nxt.append(prod)
            gn_basis.extend(nxt)
            current = current + nxt if nxt else current
        corner = SpanBasis(field)
        for b in gn_basis:
            el = a * b * a
            if el:
                corner.add(el.coordinates())
        dims.append(corner.rank)
    half = max(1, n_max // 2)
    k = max(1, max(ceil(dims[n - 1] / n) for n in range(1, half + 1)))
    linear = all(dims[n - 1] <= k * n for n in range(1, n_max + 1))
    return GrowthProbe(dims=dims, verdict="Linear" if linear else "SuperLinear", k=k)
