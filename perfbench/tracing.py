"""Per-layer tracing from outside the program.

``Tracer.install()`` rebinds every module-level name in ``ncburgers.*`` that
refers to a traced public function, and patches ``FieldExpr.__mul__`` and
``__add__`` on the class.  Function-local imports inside the package resolve
through the defining module's attribute, so they see the wrapper too.
Private helpers are left alone.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory.  Counts are computed from call arguments and results only, so two
traced runs of the same code give the same counts.  The time spent
computing counts is kept out of every span's self time: a child's span is
subtracted from its parent up to the end of its counting.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

# (module, attribute, metric prefix).  ``verify`` functions are pooled into
# one ``verify`` prefix: their self time is claim assembly.
TRACED = (
    ("fields", "FieldExpr.__mul__", "fields.mul"),
    ("fields", "FieldExpr.__add__", "fields.add"),
    ("fields", "d_total", "fields.d_total"),
    ("fields", "normal_field", "fields.normal_field"),
    ("fields", "subst_test", "fields.subst_test"),
    ("reduction", "derinv", "reduction.derinv"),
    ("reduction", "deep_reduce", "reduction.deep_reduce"),
    ("operators", "apply_op", "operators.apply_op"),
    ("operators", "op_probe_equal", "operators.op_probe_equal"),
    ("variational", "frechet_op", "variational.frechet_op"),
    ("variational", "frechet_field", "variational.frechet_field"),
    ("variational", "member_operator", "variational.member_operator"),
    ("variational", "lie_bracket", "variational.lie_bracket"),
    ("hierarchy", "hierarchy_member", "hierarchy.hierarchy_member"),
    ("verify", "strong_symmetry_member", "verify"),
    ("verify", "strong_symmetry_defect", "verify"),
    ("verify", "hereditary_defect", "verify"),
    ("verify", "hereditary_bilinear", "verify"),
    ("verify", "flow_commutation", "verify"),
    ("verify", "verify_cole_hopf", "verify"),
    ("verify", "s_split", "verify"),
    ("oracle", "eval_field", "oracle.eval_field"),
    ("oracle", "eval_frechet_dual", "oracle.eval_frechet_dual"),
    ("lang", "parse_field", "lang.parse_field"),
    ("lang", "print_field", "lang.print_field"),
)

# quantities reported for each prefix besides ``self_s``
COUNTS = {
    "fields.mul": ("calls", "term_pairs"),
    "fields.add": ("calls", "terms_copied"),
    "fields.d_total": ("calls",),
    "fields.normal_field": ("calls",),
    "fields.subst_test": ("calls",),
    "reduction.derinv": (
        "calls", "terms_in", "terms_out", "integral_terms_out",
        "call_repeat_share", "word_repeat_share",
    ),
    "reduction.deep_reduce": ("calls", "terms_in", "terms_out"),
    "operators.apply_op": ("calls", "op_words"),
    "operators.op_probe_equal": ("calls",),
    "variational.frechet_op": ("calls",),
    "variational.frechet_field": ("calls",),
    "variational.member_operator": ("calls",),
    "variational.lie_bracket": ("calls",),
    "hierarchy.hierarchy_member": ("calls",),
    "verify": (),
    "oracle.eval_field": ("calls", "mat_muls", "atom_repeat_share"),
    "oracle.eval_frechet_dual": ("calls",),
    "lang.parse_field": ("calls", "chars_in"),
    "lang.print_field": ("calls", "chars_out"),
}


def _arg(args, kwargs, index: int, name: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _has_integral(word, Integral) -> bool:
    return any(isinstance(a, Integral) for a in word)


class Tracer:
    def __init__(self):
        self.prefixes: List[str] = []
        self.prefix_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stop = array("d")  # end of the span's own counting
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self._seen: Dict[str, set] = {"call": set(), "word": set(), "atom": set()}
        self._ctx_keys: Dict[int, tuple] = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, prefix: str, fn: Callable, count: Optional[Callable]) -> Callable:
        if prefix not in self.prefix_ids:
            self.prefix_ids[prefix] = len(self.prefixes)
            self.prefixes.append(prefix)
        pid = self.prefix_ids[prefix]
        names, parents, starts, ends, stops = self.name, self.parent, self.start, self.end, self.stop
        stack = self.stack
        clock = time.perf_counter
        calls = prefix + ".calls"
        tally = self.counts

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(pid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stops.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = stops[i] = clock()
                stack.pop()
            tally[calls] += 1
            if count is not None:
                count(args, kwargs, result)
            stops[i] = clock()
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever ``ncburgers.*`` binds it."""
        fields = importlib.import_module("ncburgers.fields")
        modules = {importlib.import_module("ncburgers." + m) for m, _, _ in TRACED}
        modules.add(importlib.import_module("ncburgers"))
        self._Integral = fields.Integral
        self._default_ctx = fields.DEFAULT_CONTEXT
        for mod_name, attr, prefix in TRACED:
            count = self._counter(prefix)
            if attr.startswith("FieldExpr."):
                meth = attr.split(".", 1)[1]
                setattr(fields.FieldExpr, meth, self.wrap(prefix, getattr(fields.FieldExpr, meth), count))
                continue
            orig = getattr(importlib.import_module("ncburgers." + mod_name), attr)
            wrapper = self.wrap(prefix, orig, count)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)

    # -- counts from arguments and results --------------------------------

    def _counter(self, prefix: str) -> Optional[Callable]:
        tally = self.counts
        Integral = self._Integral
        if prefix == "fields.mul":
            def count(args, kwargs, result):
                tally["fields.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            return count
        if prefix == "fields.add":
            def count(args, kwargs, result):
                tally["fields.add.terms_copied"] += len(args[0].terms)
            return count
        if prefix == "reduction.derinv":
            calls, words = self._seen["call"], self._seen["word"]

            def count(args, kwargs, result):
                tag, f = args[0], _arg(args, kwargs, 1, "f", None)
                ctx = self._ctx_key(_arg(args, kwargs, 2, "ctx", self._default_ctx))
                tally["reduction.derinv.terms_in"] += len(f.terms)
                tally["reduction.derinv.terms_out"] += len(result.terms)
                tally["reduction.derinv.integral_terms_out"] += sum(
                    1 for w in result.terms if _has_integral(w, Integral)
                )
                key = (tag, ctx, f)
                if key in calls:
                    tally["reduction.derinv.repeat_calls"] += 1
                calls.add(key)
                for w in f.terms:
                    key = (tag, ctx, w)
                    if key in words:
                        tally["reduction.derinv.repeat_words"] += 1
                    words.add(key)
            return count
        if prefix == "reduction.deep_reduce":
            def count(args, kwargs, result):
                tally["reduction.deep_reduce.terms_in"] += len(_arg(args, kwargs, 0, "f", None).terms)
                tally["reduction.deep_reduce.terms_out"] += len(result.terms)
            return count
        if prefix == "operators.apply_op":
            def count(args, kwargs, result):
                tally["operators.apply_op.op_words"] += len(_arg(args, kwargs, 0, "P", None).terms)
            return count
        if prefix == "oracle.eval_field":
            atoms = self._seen["atom"]

            def count(args, kwargs, result):
                e, scene, x0 = args[0], args[1], args[2]
                for word in e.terms:
                    tally["oracle.eval_field.mat_muls"] += len(word)
                    for atom in word:
                        key = (scene.seed, scene.dim, scene.degree, x0, atom)
                        if key in atoms:
                            tally["oracle.eval_field.repeat_atoms"] += 1
                        atoms.add(key)
            return count
        if prefix == "lang.parse_field":
            def count(args, kwargs, result):
                tally["lang.parse_field.chars_in"] += len(_arg(args, kwargs, 0, "src", ""))
            return count
        if prefix == "lang.print_field":
            def count(args, kwargs, result):
                tally["lang.print_field.chars_out"] += len(result)
            return count
        return None

    def _ctx_key(self, ctx) -> tuple:
        """Everything a Context holds, as a hashable key."""
        entry = self._ctx_keys.get(id(ctx))
        if entry is None or entry[0] is not ctx:
            fields = tuple(sorted((t.value, f) for t, f in ctx.tag_fields.items()))
            entry = (ctx, (fields, ctx.integral_depth, ctx.reduce_rounds, ctx.reduce_passes))
            self._ctx_keys[id(ctx)] = entry
        return entry[1]

    # -- results --------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per prefix: span duration minus the spans of its
        children, each counted up to the end of its counting."""
        n = len(self.start)
        covered = [0.0] * n
        starts, ends, stops, parents = self.start, self.end, self.stop, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += stops[i] - starts[i]
        out = {prefix: 0.0 for prefix in COUNTS}
        for i in range(n):
            out[self.prefixes[self.name[i]]] += ends[i] - starts[i] - covered[i]
        return out

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        c = self.counts
        out: Dict[str, float] = {}
        selfs = self.self_times()
        for prefix, quantities in COUNTS.items():
            for q in quantities:
                out["%s.%s" % (prefix, q)] = c[prefix + "." + q]
            out[prefix + ".self_s"] = selfs[prefix]
        calls = c["reduction.derinv.calls"]
        words = c["reduction.derinv.terms_in"]
        atoms = c["oracle.eval_field.mat_muls"]
        out["reduction.derinv.call_repeat_share"] = c["reduction.derinv.repeat_calls"] / calls if calls else 0.0
        out["reduction.derinv.word_repeat_share"] = c["reduction.derinv.repeat_words"] / words if words else 0.0
        out["oracle.eval_field.atom_repeat_share"] = c["oracle.eval_field.repeat_atoms"] / atoms if atoms else 0.0
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as tab-separated ``name start end parent``
        (times relative to the first span) and return how many."""
        n = len(self.start)
        t0 = self.start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(n):
                fh.write("%s\t%.7f\t%.7f\t%d\n" % (
                    self.prefixes[self.name[i]], self.start[i] - t0, self.end[i] - t0, self.parent[i],
                ))
        return n
