"""Tracing of `leavitt` from outside: wrappers around public functions.

Functions called at most about 10^5 times per run get a span each (name,
start, end, parent span, job id), kept in memory and written out at the
end.  Hotter functions (field operations, products, span insertions) get
only a call count, plus accumulated time where a per-layer metric needs
it.  Nothing in `src/` is edited: the wrappers replace module and class
attributes while tracing is installed and are removed afterwards.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get spans.
SPANNED = [
    ("cli", "main"),
    ("graphs", "load_graph"),
    ("graphs", "analyze"),
    ("graphs", "compute_V0"),
    ("graphs", "compute_V1"),
    ("graphs", "quotient_graph"),
    ("graphs", "entry_paths"),
    ("graphs", "count_paths_to_sink"),
    ("graphs", "all_paths_to_sink"),
    ("structure", "ideal_chain"),
    ("structure", "socle_layer"),
    ("structure", "ne_layer"),
    ("structure", "growth_probe"),
    ("algebra", "parse_element"),
    ("linalg", "invert_block"),
    ("laurent", "verify_cycle_iso"),
    ("jacobson", "jac_parse"),
    ("jacobson", "jac_to_matrix"),
    ("jacobson", "corner_dimension"),
    ("jacobson", "splitting_probe"),
    ("jacobson", "invert_id_plus_finitary"),
    ("automorphisms", "aut_apply"),
    ("automorphisms", "aut_compose"),
    ("automorphisms", "congruence_decompose"),
]

# (module, class, method, timed): call counts, and accumulated time when
# timed.  These run too often for a span per call.
COUNTED = [
    ("fields", "Field", "add", False),
    ("fields", "Field", "sub", False),
    ("fields", "Field", "mul", False),
    ("fields", "Field", "div", False),
    ("fields", "Field", "neg", False),
    ("fields", "Field", "inv", False),
    ("graphs", "Graph", "out_edges", False),
    ("algebra", "AlgebraElement", "__mul__", True),
    ("linalg", "SpanBasis", "add", True),
    ("jacobson", "AlmostToeplitzMatrix", "__mul__", True),
    ("jacobson", "JacobsonElement", "__mul__", False),
]

# Per-layer metrics: name -> unit.  Order is the print order.
METRICS = {
    "graphs.analyze_calls": "count",
    "graphs.analyze_s": "s",
    "graphs.quotient_calls": "count",
    "graphs.count_paths_s": "s",
    "graphs.paths_materialised": "count",
    "graphs.out_edges_calls": "count",
    "structure.ideal_chain_s": "s",
    "structure.socle_s": "s",
    "structure.ne_layer_s": "s",
    "structure.growth_probe_s": "s",
    "algebra.mul_calls": "count",
    "algebra.term_pairs": "count",
    "algebra.mul_s": "s",
    "algebra.terms_per_pair": "ratio",
    "algebra.parse_s": "s",
    "fields.ops": "count",
    "fields.inv_calls": "count",
    "linalg.span_adds": "count",
    "linalg.span_useful_ratio": "ratio",
    "linalg.span_add_s": "s",
    "linalg.invert_block_calls": "count",
    "linalg.invert_block_s": "s",
    "laurent.verify_s": "s",
    "jacobson.atm_mul_calls": "count",
    "jacobson.atm_mul_s": "s",
    "jacobson.elem_mul_calls": "count",
    "jacobson.corner_dimension_s": "s",
    "automorphisms.invert_calls": "count",
    "automorphisms.apply_s": "s",
    "automorphisms.compose_s": "s",
    "automorphisms.congruence_s": "s",
    "cli.self_s": "s",
    "cli.uncaught_exceptions": "count",
}


class Tracer:
    def __init__(self, lv):
        self.lv = lv
        self.spans = []  # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.extra = defaultdict(int)  # counts read off arguments and results
        self.patches = []  # (owner, attribute, original)
        self.t0 = perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        for mod, fname in SPANNED:
            original = getattr(getattr(self.lv, mod), fname)
            wrapper = self._span_wrapper("%s.%s" % (mod, fname), original)
            # from-imports bind the same function under other modules
            for other in vars(self.lv).values():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, wrapper)
        for mod, cls, meth, timed in COUNTED:
            klass = getattr(getattr(self.lv, mod), cls)
            original = klass.__dict__[meth]
            key = "%s.%s.%s" % (mod, cls, meth)
            wrapper = (self._timed_wrapper if timed else self._count_wrapper)(key, original)
            self._patch(klass, meth, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        extra = self.extra

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), None, stack[-1] if stack else None, self.job]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "cli.main":
                    extra["cli.uncaught_exceptions"] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if name == "graphs.all_paths_to_sink":
                extra["graphs.paths_materialised"] += len(result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_wrapper(self, key, fn):
        counts, times, extra = self.counts, self.times, self.extra

        def wrapper(self_, *args, **kwargs):
            t0 = perf_counter()
            result = fn(self_, *args, **kwargs)
            times[key] += perf_counter() - t0
            counts[key] += 1
            if key == "algebra.AlgebraElement.__mul__":
                extra["algebra.term_pairs"] += len(self_.terms) * len(args[0].terms)
                extra["algebra.out_terms"] += len(result.terms)
            elif key == "linalg.SpanBasis.add" and result:
                extra["linalg.span_useful"] += 1
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def durations(self):
        """name -> (call count, total duration) over completed spans."""
        out = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return out

    def self_times(self):
        """name -> total self time: duration minus the time covered by
        direct child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self):
        dur = self.durations()
        selfs = self.self_times()
        c, t, x = self.counts, self.times, self.extra

        def calls(name):
            return dur[name][0] if name in dur else 0

        def secs(name):
            return dur[name][1] if name in dur else 0.0

        ops = sum(c["fields.Field.%s" % op] for op in ("add", "sub", "mul", "div", "neg"))
        muls = c["algebra.AlgebraElement.__mul__"]
        adds = c["linalg.SpanBasis.add"]
        values = {
            "graphs.analyze_calls": calls("graphs.analyze"),
            "graphs.analyze_s": secs("graphs.analyze"),
            "graphs.quotient_calls": calls("graphs.quotient_graph"),
            "graphs.count_paths_s": secs("graphs.count_paths_to_sink"),
            "graphs.paths_materialised": x["graphs.paths_materialised"],
            "graphs.out_edges_calls": c["graphs.Graph.out_edges"],
            "structure.ideal_chain_s": secs("structure.ideal_chain"),
            "structure.socle_s": secs("structure.socle_layer"),
            "structure.ne_layer_s": secs("structure.ne_layer"),
            "structure.growth_probe_s": secs("structure.growth_probe"),
            "algebra.mul_calls": muls,
            "algebra.term_pairs": x["algebra.term_pairs"],
            "algebra.mul_s": t["algebra.AlgebraElement.__mul__"],
            "algebra.terms_per_pair": (
                x["algebra.out_terms"] / x["algebra.term_pairs"] if x["algebra.term_pairs"] else 0.0
            ),
            "algebra.parse_s": secs("algebra.parse_element"),
            "fields.ops": ops,
            "fields.inv_calls": c["fields.Field.inv"],
            "linalg.span_adds": adds,
            "linalg.span_useful_ratio": x["linalg.span_useful"] / adds if adds else 0.0,
            "linalg.span_add_s": t["linalg.SpanBasis.add"],
            "linalg.invert_block_calls": calls("linalg.invert_block"),
            "linalg.invert_block_s": secs("linalg.invert_block"),
            "laurent.verify_s": secs("laurent.verify_cycle_iso"),
            "jacobson.atm_mul_calls": c["jacobson.AlmostToeplitzMatrix.__mul__"],
            "jacobson.atm_mul_s": t["jacobson.AlmostToeplitzMatrix.__mul__"],
            "jacobson.elem_mul_calls": c["jacobson.JacobsonElement.__mul__"],
            "jacobson.corner_dimension_s": secs("jacobson.corner_dimension"),
            "automorphisms.invert_calls": calls("jacobson.invert_id_plus_finitary"),
            "automorphisms.apply_s": secs("automorphisms.aut_apply"),
            "automorphisms.compose_s": secs("automorphisms.aut_compose"),
            "automorphisms.congruence_s": secs("automorphisms.congruence_decompose"),
            "cli.self_s": selfs.get("cli.main", 0.0),
            "cli.uncaught_exceptions": x["cli.uncaught_exceptions"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def module_self_times(self):
        out = defaultdict(float)
        for name, s in self.self_times().items():
            out[name.split(".")[0]] += s
        return dict(out)

    def dump(self, path, report):
        doc = dict(report)
        doc["spans"] = [
            {"name": n, "start": s - self.t0, "end": e - self.t0, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
        doc["counts"] = dict(self.counts)
        with open(path, "w") as fh:
            json.dump(doc, fh)
