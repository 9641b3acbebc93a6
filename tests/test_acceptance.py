"""Acceptance suite: twelve exact, property-based criteria.

Each test prints a single PASS line on success (sent past pytest's capture
so the verdicts are always visible); a failure shows up as an ordinary
pytest failure for that criterion.
"""

import random
import sys

import pytest

from leavitt import algebra as alg
from leavitt.automorphisms import (
    AlmostToeplitzMatrix,
    AutomorphismError,
    Involution,
    NoSquareRootError,
    ToeplitzAutomorphism,
    aut_apply,
    aut_compose,
    congruence_decompose,
    induced_scalar,
    involution_apply,
    involution_equivalence,
    reconstruct_conjugator,
)
from leavitt.fields import make_field
from leavitt.graphs import analyze, graph_from_dict
from leavitt.jacobson import (
    corner_dimension,
    invert_id_plus_finitary,
    jac_matrix_unit,
    jac_monomial,
    jac_one,
    jac_quotient_laurent,
    jac_to_matrix,
    jac_x,
    jac_y,
    splitting_probe,
)
from leavitt.laurent import verify_cycle_iso
from leavitt.linalg import SpanBasis
from leavitt.structure import (
    MAT_F,
    MAT_INF_F,
    MAT_INF_LAURENT,
    MAT_LAURENT,
    corner_basis,
    growth_probe,
    ideal_chain,
)

from .conftest import CORPUS, load
from .reference_toeplitz import split

FIELDS = ("Q", "gf2", "gf5")


def report(n, text):
    print("ACCEPTANCE %2d: PASS  %s" % (n, text), file=sys.__stdout__)


def _random_element(rng, g, field, maxdeg=3, nterms=3):
    basis = alg.enumerate_basis(g, field, maxdeg)
    el = alg.zero(g, field)
    for _ in range(nterms):
        m = rng.choice(basis)
        c = field.from_int(rng.randint(-4, 4))
        if c:
            el = el + alg.AlgebraElement(g, field, {m: c})
    return el


def test_criterion_01_ck_relations():
    checks = 0
    for name in CORPUS:
        g = load(name)
        for fname in FIELDS:
            field = make_field(fname)
            zero_el = alg.zero(g, field)
            vs = {v: alg.vertex_element(g, field, v) for v in g.vertices}
            for v in g.vertices:
                assert vs[v] * vs[v] - vs[v] == zero_el
                for w in g.vertices:
                    if w != v:
                        assert vs[v] * vs[w] == zero_el
                checks += 1
            for eid, s, r in g.edges:
                e = alg.edge_element(g, field, eid)
                ge = alg.ghost_element(g, field, eid)
                assert vs[s] * e - e == zero_el
                assert e * vs[r] - e == zero_el
                assert vs[r] * ge - ge == zero_el
                assert ge * vs[s] - ge == zero_el
                for fid, _, _ in g.edges:
                    f = alg.edge_element(g, field, fid)
                    expect = vs[r] if fid == eid else zero_el
                    assert ge * f - expect == zero_el
                checks += 1
            for v in g.vertices:
                outs = g.out_edges(v)
                if not outs:
                    continue
                acc = zero_el
                for eid in outs:
                    acc = acc + alg.edge_element(g, field, eid) * alg.ghost_element(
                        g, field, eid
                    )
                assert acc - vs[v] == zero_el
                checks += 1
    report(1, "CK relations (i)-(iv) over %d graph/field checks" % checks)


def test_criterion_02_ring_axioms():
    for name in CORPUS:
        g = load(name)
        for fname in FIELDS:
            field = make_field(fname)
            rng = random.Random(hash((name, fname)) & 0xFFFFFF)
            for _ in range(300):
                a = _random_element(rng, g, field, nterms=2)
                b = _random_element(rng, g, field, nterms=2)
                c = _random_element(rng, g, field, nterms=2)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c
                assert (a * b).star() == b.star() * a.star()
                assert a.star().star() == a
    report(2, "ring axioms and star laws, 300 fuzz triples per graph/field")


def test_criterion_03_structure_finite():
    field = make_field("Q")
    a3 = load("a3")
    report_a3 = ideal_chain(a3)
    assert [[(f.kind, f.size) for f in layer] for layer in report_a3.layers] == [
        [(MAT_F, 3)]
    ]
    assert len(alg.enumerate_basis(a3, field, 10)) == 9
    loop = load("loop")
    report_loop = ideal_chain(loop)
    assert [[(f.kind, f.size) for f in layer] for layer in report_loop.layers] == [
        [],
        [(MAT_LAURENT, 1)],
    ]
    for n in range(11):
        assert alg.graded_dimension(loop, field, n) == 2 * n + 1
    report(3, "finite structure: chain(A3)=[M_3(F)] dim 9; loop graded dim 2n+1")


def test_criterion_04_structure_toeplitz():
    rt = ideal_chain(load("toeplitz"))
    assert [[(f.kind, f.size) for f in layer] for layer in rt.layers] == [
        [(MAT_INF_F, None)],
        [(MAT_LAURENT, 1)],
    ]
    assert rt.s == 1
    rtt = ideal_chain(load("two_loops"))
    assert [[(f.kind, f.size) for f in layer] for layer in rtt.layers] == [
        [],
        [(MAT_INF_LAURENT, None)],
        [(MAT_LAURENT, 1)],
    ]
    assert rtt.s == 2
    report(4, "Toeplitz chains: [M_inf(F), M_1(Laurent)] and [-, M_inf(L), M_1(L)]")


def _minimal_idempotents(g, field):
    """Path idempotents p p* for full paths into each sink, keyed by sink."""
    from leavitt.graphs import INFINITE, all_paths_to_sink, count_paths_to_sink

    out = []
    for sink in g.sinks():
        if count_paths_to_sink(g, sink) is INFINITE:
            return None
        for p in all_paths_to_sink(g, sink):
            out.append((sink, alg.monomial_element(g, field, p, p)))
    return out


def _diameter(g):
    return max(len(p) for p in alg.enumerate_paths(g, len(g.vertices) + 1))


def test_criterion_05_corner_dimensions():
    field = make_field("Q")
    pairs_checked = 0
    for name in CORPUS:
        g = load(name)
        idems = _minimal_idempotents(g, field)
        if not idems or len(idems) > 30:
            continue
        maxdeg = _diameter(g) + 4
        for sink_e, e in idems:
            for sink_f, f in idems:
                cb = corner_basis(g, e, f, maxdeg)
                expect = 1 if sink_e == sink_f else 0
                assert cb.dimension == expect
                assert cb.stabilized
                pairs_checked += 1
    assert pairs_checked > 0
    report(5, "corner dim 1 iff same sink class on %d idempotent pairs" % pairs_checked)


def _cycle_graph(d):
    vs = ["v%d" % i for i in range(1, d + 1)]
    es = [
        {"id": "a%d" % i, "source": vs[i - 1], "range": vs[i % d]}
        for i in range(1, d + 1)
    ]
    return graph_from_dict({"vertices": vs, "edges": es})


def test_criterion_06_cycle_isomorphism():
    field = make_field("Q")
    for d in (1, 2, 3, 4):
        g = _cycle_graph(d)
        cycle = analyze(g).ne_cycles[0]
        assert verify_cycle_iso(g, cycle, maxlen=3 * d, field=field)
    report(6, "cycle isomorphism multiplicative for d=1..4, maxlen=3d")


def test_criterion_07_jacobson_basics():
    field = make_field("Q")
    zero_el = jac_one(field).scale(field.zero())
    for i in range(1, 13):
        for j in range(1, 13):
            for p in range(1, 13):
                for q in range(1, 13):
                    prod = jac_matrix_unit(field, i, j) * jac_matrix_unit(field, p, q)
                    expect = jac_matrix_unit(field, i, q) if j == p else zero_el
                    assert prod == expect
    for n in range(13):
        span = SpanBasis(field)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                span.add(jac_monomial(field, i, j).coordinates())
        assert span.rank == (n + 1) * (n + 2) // 2
    for n in range(21):
        assert corner_dimension(field, n) == n + 1
    report(7, "matrix-unit laws (<=12), basis dims (n+1)(n+2)/2, corner dim n+1")


def _rand_jac(rng, field, maxexp=4, nterms=3):
    el = jac_one(field).scale(field.zero())
    for _ in range(nterms):
        c = field.from_int(rng.randint(-4, 4))
        if c:
            el = el + jac_monomial(
                field, rng.randint(0, maxexp), rng.randint(0, maxexp), c
            )
    return el


def test_criterion_08_representation():
    field = make_field("Q")
    rng = random.Random(88)
    for _ in range(300):
        a, b = _rand_jac(rng, field), _rand_jac(rng, field)
        assert jac_to_matrix(a * b) == jac_to_matrix(a) * jac_to_matrix(b)
    seen = set()
    for i in range(9):
        for j in range(9 - i):
            m = jac_to_matrix(jac_monomial(field, i, j))
            key = tuple(tuple(sorted(part.items())) for part in split(m))
            assert key not in seen
            seen.add(key)
    for _ in range(500):
        a = _rand_jac(rng, field)
        in_kernel = not jac_quotient_laurent(a)
        assert in_kernel == jac_to_matrix(a).is_finitary()
    report(8, "matrix model: 300 products, injective to degree 8, kernel on 500")


def _corner_dims_brute(field, n_max):
    w = jac_one(field) - jac_y(field) * jac_x(field)
    dims = []
    for n in range(n_max + 1):
        span = SpanBasis(field)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                el = w * jac_monomial(field, i, j)
                if el:
                    span.add(el.coordinates())
        dims.append(span.rank)
    return dims


def test_criterion_09_splitting_probe():
    field = make_field("Q")
    x, y, one = jac_x(field), jac_y(field), jac_one(field)
    cert = splitting_probe(x, y, one, 8)
    assert cert.kind == "dimension_contradiction"
    assert cert.dim_rho_cap_sigma == 0
    assert cert.corner_dims == _corner_dims_brute(field, 8)
    # perturbed candidate still satisfying the product relation
    b1 = x + jac_matrix_unit(field, 1, 2)
    bm1 = y + jac_matrix_unit(field, 2, 1)
    cert2 = splitting_probe(b1, bm1, b1 * bm1, 8)
    assert cert2.kind == "dimension_contradiction"
    assert cert2.dim_rho_cap_sigma == len(cert2.P_rows) * len(cert2.P_cols)
    assert cert2.corner_dims == _corner_dims_brute(field, 8)
    # perturbed candidate breaking closure of the product
    cert3 = splitting_probe(x, y, one + jac_matrix_unit(field, 1, 1), 8)
    assert cert3.kind == "closure_failure"
    assert cert3.witness == x * y - (one + jac_matrix_unit(field, 1, 1))
    report(9, "probe certificates match enumerated dims for 3 candidates")


def _rand_conjugator(rng, field, corner=4):
    g = AlmostToeplitzMatrix.identity(field)
    for _ in range(3):
        i, j = rng.randint(1, corner), rng.randint(1, corner)
        if i == j:
            continue
        c = field.from_int(rng.randint(-3, 3))
        if c:
            g = g + AlmostToeplitzMatrix.unit(field, i, j, c)
    if invert_id_plus_finitary(g) is None:
        return AlmostToeplitzMatrix.identity(field)
    return g


def _rand_alpha(rng, field, fname):
    if fname == "Q":
        return field.parse(
            "%d/%d" % (rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
        )
    while True:
        a = field.from_int(rng.randint(1, 4))
        if a:
            return a


def test_criterion_10_automorphism_group():
    for fname in ("gf5", "Q"):
        field = make_field(fname)
        rng = random.Random(1000 if fname == "Q" else 2000)
        targets = [
            AlmostToeplitzMatrix.shift_down(field),
            AlmostToeplitzMatrix.shift_up(field),
            AlmostToeplitzMatrix.unit(field, 1, 1),
        ]
        for _ in range(100):
            phi = ToeplitzAutomorphism(
                _rand_alpha(rng, field, fname), _rand_conjugator(rng, field)
            )
            psi = ToeplitzAutomorphism(
                _rand_alpha(rng, field, fname), _rand_conjugator(rng, field)
            )
            for a in targets:
                assert aut_apply(aut_compose(phi, psi), a) == aut_apply(
                    psi, aut_apply(phi, a)
                )
            assert induced_scalar(aut_compose(phi, psi)) == field.mul(
                induced_scalar(phi), induced_scalar(psi)
            )
    field = make_field("Q")
    rng = random.Random(31415)
    m = 6
    recovered = 0
    while recovered < 50:
        hidden = _rand_conjugator(rng, field, corner=m - 1)
        hidden_inv = invert_id_plus_finitary(hidden)
        images = {}
        for j in range(1, m + 1):
            images[("col", j)] = hidden_inv * AlmostToeplitzMatrix.unit(field, j, 1) * hidden
            images[("row", j)] = hidden_inv * AlmostToeplitzMatrix.unit(field, 1, j) * hidden
        S = reconstruct_conjugator(field, images, m)
        ratio = S * hidden_inv
        assert split(ratio)[1].get(0) and not split(ratio)[0]
        recovered += 1
    report(10, "semidirect law on 200 pairs; 50 conjugators recovered up to scalar")


def _rand_symmetric_T(rng, field, corner=3):
    elems = [e for e in field.elements() if e]
    T = AlmostToeplitzMatrix.identity(field)
    for i in range(1, corner + 1):
        for j in range(i, corner + 1):
            if rng.random() < 0.5:
                c = rng.choice(elems)
                T = T + AlmostToeplitzMatrix.unit(field, i, j, c)
                if i != j:
                    T = T + AlmostToeplitzMatrix.unit(field, j, i, c)
    return T if invert_id_plus_finitary(T) is not None else None


def test_criterion_11_involutions():
    for fname in ("gf2", "gf2^2"):
        field = make_field(fname)
        rng = random.Random(42 if fname == "gf2" else 43)
        std = Involution.standard(field)
        done = 0
        while done < 25:
            T = _rand_symmetric_T(rng, field)
            if T is None:
                continue
            try:
                Q = congruence_decompose(T)
            except AutomorphismError:
                continue
            assert Q.transpose() * Q == T
            iota = Involution(T)
            Qe = involution_equivalence(iota)
            Qe_inv = invert_id_plus_finitary(Qe)
            elems = [e for e in field.elements() if e]
            samples = [
                AlmostToeplitzMatrix.shift_down(field),
                AlmostToeplitzMatrix.shift_up(field),
            ]
            for _ in range(50):
                samples.append(
                    AlmostToeplitzMatrix.unit(
                        field, rng.randint(1, 4), rng.randint(1, 4), rng.choice(elems)
                    )
                )
            for a in samples:
                lhs = Qe * involution_apply(iota, a) * Qe_inv
                rhs = involution_apply(std, Qe * a * Qe_inv)
                assert lhs == rhs
            done += 1
    field = make_field("Q")
    with pytest.raises(NoSquareRootError):
        congruence_decompose(
            AlmostToeplitzMatrix.identity(field).scale(field.from_int(2))
        )
    report(11, "25 involutions classified per char-2 field; 2 Id refused over Q")


def _probe_dims_brute(g, a, n_max):
    """dim a B_n a with B_n the normal-form basis up to degree n."""
    field = a.field
    dims = []
    for n in range(1, n_max + 1):
        span = SpanBasis(field)
        for m in alg.enumerate_basis(g, field, n):
            el = a * alg.AlgebraElement(g, field, {m: field.one()}) * a
            if el:
                span.add(el.coordinates())
        dims.append(span.rank)
    return dims


def test_criterion_12_growth_probe():
    g = load("two_loops")
    field = make_field("Q")
    v = alg.vertex_element(g, field, "v")
    u = alg.vertex_element(g, field, "u")
    c = alg.edge_element(g, field, "c")
    pv = growth_probe(g, v, 8)
    assert pv.verdict == "Linear"
    assert pv.dims == _probe_dims_brute(g, v, 8)
    pc = growth_probe(g, c * c.star(), 8)
    assert pc.verdict == "Linear"
    pu = growth_probe(g, u, 8)
    assert pu.verdict == "SuperLinear"
    assert pu.dims == _probe_dims_brute(g, u, 8)
    report(12, "growth verdicts Linear/SuperLinear with d_n matched to n=8")
