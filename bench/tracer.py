"""Span recorder for the benchmark's traced runs.

`install` rebinds the public functions of each alexlab module (see
`LAYERS`) to wrappers that record one span per call: layer name, start,
end, parent span and request id.  A function that another module imported
by name (such as `obstruct.fox_matrix`) is rebound there too, so every call
site is seen.  Spans stay in memory in flat arrays and are written once,
when the run ends.  Nothing in alexlab itself changes.
"""

from __future__ import annotations

import json
import time
from array import array

LAYERS = {
    "fpgroup": ("parse_presentation", "abelianize", "fox_matrix", "free_product_many"),
    "exactla": ("smith_normal_form", "integer_rank", "solve_integer"),
    "laurent": (
        "gcd",
        "exact_div",
        "newton_dim",
        "line_support",
        "cyclotomic_decompose",
        "cyclotomic_polynomial",
        "evaluate_at_character",
    ),
    "alexinv": ("order_k", "rank_over_fractions", "first_order", "order_sequence", "cv_dim"),
    "norms": ("support_polytope", "hull_vertices", "in_convex_hull", "alexander_norm"),
    "torusgeo": ("intersect",),
    "obstruct": ("kahler_test", "qp_test", "connected_sum_report"),
    "cli": ("run",),
}

SPAN_NAMES = tuple("%s.%s" % (m, f) for m, fns in LAYERS.items() for f in fns)

# Counters read from arguments and results at the layer boundary.
COUNTERS = ("gcd_operand_terms", "gcd_unit_results", "exact_div_hits")


def _count_gcd(counters, args, result):
    counters["gcd_operand_terms"] += len(args[0].terms) + len(args[1].terms)
    if result.terms == (((0,) * result.nvars, 1),):
        counters["gcd_unit_results"] += 1


def _count_exact_div(counters, args, result):
    if result is not None:
        counters["exact_div_hits"] += 1


_HOOKS = {"laurent.gcd": _count_gcd, "laurent.exact_div": _count_exact_div}


class Tracer:
    """Spans in column arrays; `rid` is the id of the request in flight."""

    def __init__(self):
        self.name = array("H")
        self.rid_col = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 0 when nested in a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.rid = 0
        self._stack = []
        self._depth = [0] * len(SPAN_NAMES)

    def wrap(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        hook = _HOOKS.get(name)
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        cols = (self.name, self.rid_col, self.parent, self.outer, self.start, self.end)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(cols[0])
            for col in cols:
                col.append(0)
            cols[2][idx] = stack[-1] if stack else -1
            stack.append(idx)
            depth[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[nid] -= 1
                stack.pop()
                cols[0][idx] = nid
                cols[1][idx] = self.rid
                cols[3][idx] = depth[nid] == 0
                cols[4][idx] = start
                cols[5][idx] = end
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def aggregate(self, group_of=lambda rid: None) -> dict:
        """Per group of requests (`group_of` maps a request id to its group)
        and per span name: [calls, self seconds, total seconds].  Self time
        is the span's duration minus the time its child spans cover; total
        time counts only spans not nested in a span of the same name."""
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * len(self.name)
        for i in range(len(self.name)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        for i, nid in enumerate(self.name):
            group = out.setdefault(group_of(self.rid_col[i]), {})
            row = group.setdefault(SPAN_NAMES[nid], [0, 0.0, 0.0])
            dur = end[i] - start[i]
            row[0] += 1
            row[1] += dur - child[i]
            if self.outer[i]:
                row[2] += dur
        return out

    def write(self, path: str, header: dict):
        """Write the spans: one JSON header line, then the raw columns in
        header["columns"] order (native byte order, lengths in header)."""
        cols = (
            ("name", self.name),
            ("rid", self.rid_col),
            ("parent", self.parent),
            ("outer", self.outer),
            ("start", self.start),
            ("end", self.end),
        )
        header = dict(
            header,
            span_names=list(SPAN_NAMES),
            spans=len(self.name),
            columns=[[k, c.typecode] for k, c in cols],
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for _, c in cols:
                c.tofile(fh)


def install(package, tracer: Tracer):
    """Rebind every listed function, in every alexlab module that holds it,
    to a traced wrapper.  Returns a function that undoes the rebinding."""
    modules = [package] + [getattr(package, m) for m in LAYERS]
    undo = []
    for mod_name, fns in LAYERS.items():
        mod = getattr(package, mod_name)
        for fn_name in fns:
            orig = getattr(mod, fn_name)
            traced = tracer.wrap("%s.%s" % (mod_name, fn_name), orig)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, traced)
                        undo.append((holder, attr, orig))

    def uninstall():
        for holder, attr, orig in reversed(undo):
            setattr(holder, attr, orig)

    return uninstall
