"""Spans around the public functions of each cfinite layer, from outside.

`Tracer.install` wraps every public function of the layer modules at every
module binding that refers to it (so `eval_terms` imported by name into
guess, roots, factor and dimers is wrapped in each), plus `Polynomial`'s
`*` and `divmod` on the class.  Each call records a span: name, start,
end, parent span, job id and an optional work count.  Spans stay in
memory; `metrics` turns them into the per-layer figures and `dump` writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time

LAYERS = ("core", "linalg", "gf", "guess", "roots", "factor", "dimers")
# only the two reported methods; the time of the others (`.primitive()`,
# `.monic()`, `+`, ...) stays in the self time of their callers
POLY_METHODS = {"__mul__": "mul", "__divmod__": "divmod"}
CLOSURE_OPS = ("add", "mul", "binomial_transform", "partial_sums", "subsequence")


def _nonzero(tm):
    return (sum(1 for row in tm.entries for x in row if x), len(tm.entries) ** 2)


def _stats(args):
    st = args.get("stats") or {}
    return (st.get("candidates", 0), st.get("screened", 0))


# work counted at a span: f(bound arguments, result) -> number or tuple
WORK = {
    "linalg.rref": lambda a, r: len(a["rows"]) * len(a["rows"][0]) if a["rows"] else 0,
    "core.eval_terms": lambda a, r: a["N"],
    "roots.char_roots": lambda a, r: a["digits"],
    "roots.ratio_profile": lambda a, r: len(a["bf"].roots) ** 2,
    "factor.factorize_integer": lambda a, r: _stats(a),
    "dimers.transfer_matrix": lambda a, r: _nonzero(r),
    "dimers.dimer_terms": lambda a, r: a["N"],
}

# the per-layer metrics and their units, in the order reported
PER_LAYER = {
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.solve.calls": "count",
    "guess.guess_rec.calls": "count",
    "guess.guess_rec.self_s": "s",
    "guess.guess_rec.solves_per_fit": "ratio",
    "core.minimize.self_s": "s",
    "core.poly_gcd.self_s": "s",
    "core.Polynomial.mul.self_s": "s",
    "core.Polynomial.divmod.self_s": "s",
    "gf.c_to_r.self_s": "s",
    "gf.r_to_c.self_s": "s",
    "gf.taylor.self_s": "s",
    "core.eval_terms.calls": "count",
    "core.eval_terms.self_s": "s",
    "core.eval_terms.terms": "count",
    "core.eval_at.self_s": "s",
    "guess.closure.self_s": "s",
    "guess.prove_equal.self_s": "s",
    "guess.guess_nlr.self_s": "s",
    "guess.verify_parametric_identity.self_s": "s",
    "roots.char_roots.calls": "count",
    "roots.char_roots.self_s": "s",
    "roots.char_roots.digits_mean": "digits",
    "roots.ratio_profile.self_s": "s",
    "roots.ratio_profile.ratios": "count",
    "roots.is_prod_g.calls": "count",
    "roots.is_prod_g.self_s": "s",
    "factor.factorize_roots.calls": "count",
    "factor.factorize_roots.self_s": "s",
    "factor.factorize_roots.rungs_per_call": "ratio",
    "factor.factorize_integer.self_s": "s",
    "factor.factorize_integer.candidates": "count",
    "factor.factorize_integer.screen_ratio": "ratio",
    "dimers.transfer_matrix.self_s": "s",
    "dimers.transfer_matrix.nonzero_ratio": "ratio",
    "dimers.dimer_terms.self_s": "s",
    "dimers.dimer_terms.terms": "count",
    "dimers.dimer_seq.self_s": "s",
    "dimers.dimer_product_report.self_s": "s",
    "dimers.kasteleyn_count.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, work]
        self.stack = []
        self.job = None
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self.stack, WORK.get(name)
        sig = inspect.signature(fn) if work else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = work(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every public layer function; undo with remove."""
        import cfinite
        import cfinite.cli
        from cfinite.core import Polynomial

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"cfinite.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        wrapped[id(cfinite.cli.main)] = (
            cfinite.cli.main, self._wrap("cli.main", cfinite.cli.main)
        )
        for name, mod in list(sys.modules.items()):
            if name == "cfinite" or name.startswith("cfinite."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                        setattr(mod, attr, wrapped[id(obj)][1])
                        self._undo.append((mod, attr, obj))
        for meth, short in POLY_METHODS.items():
            fn = Polynomial.__dict__[meth]
            setattr(Polynomial, meth, self._wrap(f"core.Polynomial.{short}", fn))
            self._undo.append((Polynomial, meth, fn))

    def remove(self):
        for target, attr, obj in reversed(self._undo):
            setattr(target, attr, obj)
        self._undo.clear()

    def metrics(self, speeds):
        """The PER_LAYER figures from the spans, in that order; each span's
        self time is scaled by the speed of its job (the primer's, job -1,
        by the median speed)."""
        spans = self.spans
        primer = statistics.median(speeds)
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, self_s, work = {}, {}, {}
        under = {}  # (parent name, child name) -> count of direct children
        for i, (name, start, end, parent, job, w) in enumerate(spans):
            if name.startswith("guess.") and name[6:] in CLOSURE_OPS:
                name = "guess.closure"
            calls[name] = calls.get(name, 0) + 1
            speed = speeds[job] if job >= 0 else primer
            self_s[name] = self_s.get(name, 0.0) + ((end - start) - child[i]) * speed
            if w is not None:
                work.setdefault(name, []).append(w)
            if parent >= 0:
                key = (spans[parent][0], name)
                under[key] = under.get(key, 0) + 1

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(span, 0)
            elif stat == "self_s":
                out[metric] = self_s.get(span, 0.0)
        out["linalg.rref.cells"] = sum(work.get("linalg.rref", []))
        out["guess.guess_rec.solves_per_fit"] = ratio(
            under.get(("guess.guess_rec", "linalg.solve"), 0),
            calls.get("guess.guess_rec", 0),
        )
        out["core.eval_terms.terms"] = sum(work.get("core.eval_terms", []))
        digits = work.get("roots.char_roots", [])
        out["roots.char_roots.digits_mean"] = ratio(sum(digits), len(digits))
        out["roots.ratio_profile.ratios"] = sum(work.get("roots.ratio_profile", []))
        out["factor.factorize_roots.rungs_per_call"] = ratio(
            under.get(("factor.factorize_roots", "roots.char_roots"), 0),
            calls.get("factor.factorize_roots", 0),
        )
        cands = work.get("factor.factorize_integer", [])
        out["factor.factorize_integer.candidates"] = sum(c for c, _ in cands)
        out["factor.factorize_integer.screen_ratio"] = ratio(
            sum(s for _, s in cands), sum(c for c, _ in cands)
        )
        tms = work.get("dimers.transfer_matrix", [])
        out["dimers.transfer_matrix.nonzero_ratio"] = ratio(
            sum(n for n, _ in tms), sum(s for _, s in tms)
        )
        out["dimers.dimer_terms.terms"] = sum(work.get("dimers.dimer_terms", []))
        return out  # trace.overhead_ratio is added by the caller

    def dump(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('["name", "start", "end", "parent", "job", "work"]\n')
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
