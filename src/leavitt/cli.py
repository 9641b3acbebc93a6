"""Command-line front end.

Subcommands: analyze (graph combinatorics and the ideal chain), calc (an
element calculator over a graph), and toeplitz (matrix units, the
non-splitting probe, automorphism and involution utilities).

Exit codes: 0 ok, 2 parse error, 3 polynomial-growth violation,
4 algebra/field mismatch, 5 field-capability failure (no square root or a
stuck alternating block).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import algebra as alg
from . import automorphisms as au
from . import graphs as gr
from . import jacobson as jb
from . import structure as st
from .expr import ParseError
from .fields import FieldError, make_field
from .graphs import DocumentError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GROWTH = 3
EXIT_ALGEBRA = 4
EXIT_CAPABILITY = 5

# Largest finitary index a toeplitz aut/involution JSON file, an
# `--apply 'e i j'` target or `toeplitz units` may use: the conjugator is
# inverted as a dense block of that size.
MAX_FINITARY_INDEX = 256
# Largest `toeplitz probe -n`: the corner dimensions take about n^2 time
# (0.4 s at n = 400 on a 2-vCPU x86-64 host, over 20 s at n = 3000).
MAX_PROBE_N = 400


def _emit(args, text, doc):
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_analyze(args):
    g = gr.load_graph(args.graph)
    an = gr.analyze(g)
    lines = []
    doc = {}
    lines.append("vertices: %s" % " ".join(g.vertices))
    lines.append("sinks: %s" % (" ".join(an.sinks) or "(none)"))
    doc["sinks"] = an.sinks
    cyc_strs = [" ".join(c.edges) for c in an.cycles]
    lines.append("cycles: %s" % ("; ".join(cyc_strs) or "(none)"))
    doc["cycles"] = [list(c.edges) for c in an.cycles]
    ne_strs = [" ".join(c.edges) for c in an.ne_cycles]
    lines.append("NE cycles: %s" % ("; ".join(ne_strs) or "(none)"))
    doc["ne_cycles"] = [list(c.edges) for c in an.ne_cycles]
    for c in an.cycles:
        lines.append(
            "exits(%s): %s" % (" ".join(c.edges), " ".join(an.exits[c]) or "(none)")
        )
    doc["exits"] = {" ".join(c.edges): an.exits[c] for c in an.cycles}
    lines.append("polynomial growth: %s" % an.polynomial_growth)
    doc["polynomial_growth"] = an.polynomial_growth
    v0 = sorted(gr.compute_V0(g), key=g.vertex_index)
    lines.append("V0: %s" % (" ".join(v0) or "(empty)"))
    doc["V0"] = v0
    if args.chain:
        report = st.ideal_chain(g)
        if args.json:
            # the stage graphs' dicts are printed in JSON mode only
            doc["chain"] = report.to_dict()
        lines.append("ideal chain (s = %d):" % report.s)
        for depth, layer in enumerate(report.layers):
            descr = ", ".join(_factor_str(f) for f in layer) or "(empty)"
            lines.append("  layer %d: %s" % (depth, descr))
    _emit(args, "\n".join(lines), doc)
    return EXIT_OK


def _factor_str(f):
    if f.kind == st.MAT_F:
        return "M_%d(F) at sink %s" % (f.size, f.anchor)
    if f.kind == st.MAT_INF_F:
        return "M_inf(F) at sink %s" % f.anchor
    if f.kind == st.MAT_LAURENT:
        return "M_%d(F[t,t^-1]) at cycle %s" % (f.size, f.anchor)
    return "M_inf(F[t,t^-1]) at cycle %s" % f.anchor


def cmd_calc(args):
    g = gr.load_graph(args.graph)
    field = make_field(args.field)
    bindings = {}
    lines = []
    results = []
    for expr in args.expressions:
        name = None
        body = expr
        if "=" in expr:
            name, body = expr.split("=", 1)
            name = name.strip()
            readable = name.isascii() and name.isidentifier()  # a calc id token
            if not readable or name in g.vertices or name in g.ends:  # ids shadow it
                raise ParseError("cannot bind %r: not an id token, or a graph id" % name, 0)
        el = alg.parse_element(body, g, field, bindings)
        if args.star:
            el = el.star()
        if name is not None:
            bindings[name] = el
            lines.append("%s = %s" % (name, el.format()))
        else:
            lines.append(el.format())
        results.append({"input": expr, "normal_form": el.format()})
    _emit(args, "\n".join(lines), {"field": args.field, "results": results})
    return EXIT_OK


def _check_unit_indices(i, j):
    if max(i, j) > MAX_FINITARY_INDEX:
        raise jb.JacobsonError(
            "matrix unit indices must be <= MAX_FINITARY_INDEX = %d" % MAX_FINITARY_INDEX
        )


def cmd_toeplitz_units(args):
    field = make_field(args.field)
    i, j = args.i, args.j
    _check_unit_indices(i, j)
    el = jb.jac_matrix_unit(field, i, j)
    factored = " ".join(["y"] * (i - 1) + ["(1 - y x)"] + ["x"] * (j - 1))
    _emit(
        args,
        "e_%d%d = %s = %s" % (i, j, factored, el.format()),
        {"i": i, "j": j, "factored": factored, "normal_form": el.format()},
    )
    return EXIT_OK


def cmd_toeplitz_probe(args):
    field = make_field(args.field)
    b1 = jb.jac_parse(args.b1, field)
    bm1 = jb.jac_parse(args.bm1, field)
    b0 = jb.jac_parse(args.b0, field)
    cert = jb.splitting_probe(b1, bm1, b0, args.truncation)
    doc = cert.to_dict()
    lines = ["refutation: %s" % cert.kind]
    lines.append("dim rho/\\sigma = %d" % cert.dim_rho_cap_sigma)
    lines.append(
        "corner dims (1-yx)A by degree: %s"
        % " ".join(str(d) for d in cert.corner_dims)
    )
    if cert.witness is not None:
        lines.append("closure defect: %s" % cert.witness.format())
    _emit(args, "\n".join(lines), doc)
    return EXIT_OK


def _scalar(field, value):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DocumentError("%s is not a scalar literal" % json.dumps(value))
    try:
        return field.parse(str(value))
    except FieldError as exc:
        raise DocumentError(str(exc)) from exc


def _records(field, doc, key, where):
    """{indices: scalar} from the [index, ..., scalar] records of doc[key]."""
    records = doc.get(key, [])
    if not isinstance(records, list):
        raise DocumentError("%s: %r is not a list of records" % (where, key))
    arity, shape = (3, "[i, j, scalar]") if key == "finitary" else (2, "[k, scalar]")
    out = {}
    for rec in records:
        try:
            if not (
                isinstance(rec, list)
                and len(rec) == arity
                and all(type(i) is int for i in rec[:-1])
            ):
                raise DocumentError("want %s with integer indices" % shape)
            if key == "finitary" and min(rec[:-1]) < 1:
                raise DocumentError("indices must be >= 1")
            if key == "finitary" and max(rec[:-1]) > MAX_FINITARY_INDEX:
                raise DocumentError(
                    "indices must be <= MAX_FINITARY_INDEX = %d" % MAX_FINITARY_INDEX
                )
            if tuple(rec[:-1]) in out:
                raise DocumentError("repeats an earlier record's indices")
            out[tuple(rec[:-1])] = _scalar(field, rec[-1])
        except DocumentError as exc:
            raise DocumentError(
                "%s: %s record %s: %s" % (where, key, json.dumps(rec), exc)
            ) from None
    return out


def _load_matrix(field, doc, where):
    if not isinstance(doc, dict):
        raise DocumentError(
            "%s: a matrix is a JSON object with 'finitary' and 'band' lists, not %s"
            % (where, type(doc).__name__)
        )
    fin = _records(field, doc, "finitary", where)
    band = {k: c for (k,), c in _records(field, doc, "band", where).items()}
    return jb.AlmostToeplitzMatrix(field, fin, band)


def _load_automorphism(field, path):
    doc = gr.read_json(path)
    if not isinstance(doc, dict):
        raise DocumentError(
            "%s: an automorphism is a JSON object, not %s" % (path, type(doc).__name__)
        )
    for key in ("alpha", "g"):
        if key not in doc:
            raise DocumentError("%s: the automorphism has no %r" % (path, key))
    try:
        alpha = _scalar(field, doc["alpha"])
    except DocumentError as exc:
        raise DocumentError("%s: alpha: %s" % (path, exc)) from None
    gdoc = doc["g"]
    if isinstance(gdoc, dict) and "band" not in gdoc:
        gdoc = dict(gdoc, band=[[0, "1"]])
    g = _load_matrix(field, gdoc, "%s: g" % path)
    return au.ToeplitzAutomorphism(alpha, g)


def _parse_target(field, text):
    if text == "c":
        return jb.AlmostToeplitzMatrix.shift_down(field)
    if text in ("c*", "c'"):
        return jb.AlmostToeplitzMatrix.shift_up(field)
    parts = text.split()
    if len(parts) == 3 and parts[0] == "e" and all(p.isdecimal() for p in parts[1:]):
        # int() refuses strings of over 4300 digits; 10 digits are past the cap
        i, j = (int(p) if len(p) < 10 else MAX_FINITARY_INDEX + 1 for p in parts[1:])
        _check_unit_indices(i, j)
        return jb.AlmostToeplitzMatrix.unit(field, i, j)
    raise FieldError("unknown target %r (use c, c*, or 'e i j')" % text)


def cmd_toeplitz_aut(args):
    field = make_field(args.field)
    phi = _load_automorphism(field, args.files[0])
    if args.compose:
        psi = _load_automorphism(field, args.files[1])
        out = au.aut_compose(phi, psi)
        _emit(args, json.dumps(out.to_dict()), out.to_dict())
        return EXIT_OK
    target = _parse_target(field, args.apply)
    image = au.aut_apply(phi, target)
    _emit(args, repr(image), image.to_json())
    return EXIT_OK


def cmd_toeplitz_involution(args):
    field = make_field(args.field)
    doc = gr.read_json(args.T)
    if isinstance(doc, dict) and "T" in doc:
        T = _load_matrix(field, doc["T"], "%s: T" % args.T)
    else:
        T = _load_matrix(field, doc, args.T)
    iota = au.Involution(T)
    Q = au.involution_equivalence(iota)
    doc = {"T": T.to_json(), "Q": Q.to_json()}
    _emit(args, "Q = %r\nQ^t Q = T holds" % Q, doc)
    return EXIT_OK


def truncation(text):
    n = int(text)
    if not 0 <= n <= MAX_PROBE_N:
        raise argparse.ArgumentTypeError("must be 0..MAX_PROBE_N = %d, got %d" % (MAX_PROBE_N, n))
    return n


@functools.cache
def build_parser():
    """The parser, built once per process: parsing leaves it unchanged, and
    a parser rebuilt per call is cyclic garbage that outlives many calls."""
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Exact computer algebra for Leavitt path algebras "
        "of polynomial growth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="graph combinatorics and ideal chain")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--chain", action="store_true", help="compute the ideal chain")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("calc", help="element calculator")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("expressions", nargs="+", help="expressions; 'name = expr' binds")
    p.add_argument("--field", default="Q")
    p.add_argument("--star", action="store_true", help="apply the involution")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_calc)

    p = sub.add_parser("toeplitz", help="Toeplitz algebra utilities")
    tsub = p.add_subparsers(dest="subcommand", required=True)

    q = tsub.add_parser("units", help="matrix unit normal forms")
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--field", default="Q")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_toeplitz_units)

    q = tsub.add_parser("probe", help="non-splitting refutation probe")
    q.add_argument("--b1", default="x", help="candidate mapping to t^-1")
    q.add_argument("--bm1", default="y", help="candidate mapping to t")
    q.add_argument("--b0", default="1", help="candidate identity")
    q.add_argument("-n", "--truncation", type=truncation, default=8)
    q.add_argument("--field", default="Q")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_toeplitz_probe)

    q = tsub.add_parser("aut", help="compose or apply automorphisms")
    q.add_argument("files", nargs="+", help="automorphism JSON file(s)")
    mode = q.add_mutually_exclusive_group(required=True)
    mode.add_argument("--compose", action="store_true", help="compose two files")
    mode.add_argument("--apply", metavar="TARGET", help="c, c*, or 'e i j'")
    q.add_argument("--field", default="Q")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_toeplitz_aut)

    q = tsub.add_parser("involution", help="classify an involution")
    q.add_argument("T", help="JSON file with the symmetric matrix T")
    q.add_argument("--field", default="gf2")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_toeplitz_involution)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_toeplitz_aut:
        mode, want, files = (
            ("--compose", 2, "two automorphism files")
            if args.compose
            else ("--apply", 1, "one automorphism file")
        )
        if len(args.files) != want:
            parser.error(
                "argument %s: needs exactly %s, got %d" % (mode, files, len(args.files))
            )
    try:
        return args.func(args)
    except gr.NotPolynomialGrowth as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_GROWTH
    except (au.NoSquareRootError, au.StuckAlternatingBlock) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAPABILITY
    except (
        ParseError,
        gr.GraphError,
        DocumentError,
        OSError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (alg.AlgebraError, jb.JacobsonError, au.AutomorphismError, FieldError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ALGEBRA


if __name__ == "__main__":
    sys.exit(main())
