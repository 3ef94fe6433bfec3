"""Spans around the public functions of each toriccode layer.

`install()` wraps the functions listed in LAYERS and rebinds every
toriccode module namespace (and class) that holds the original, so calls
between modules go through the wrapper too.  No file of the program
changes.  A span is (job, name, parent, start, end, counts); spans stay in
memory and are written out, one JSON list per line, when the worker ends.

Figures are summed over the spans of a name that are not nested in a span
of the same name (field_from_q calls make_field; FiniteField.sub calls add
and neg):

* `<name>:s`: their time, and `<name>:calls`: their number;
* `<name>:self_s`: duration minus the time of direct child spans;
* `<name>:<count>`: the counts recorded by the wrapper.

METRICS maps these figures to the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter


def _nbytes(x) -> int:
    return x.nbytes if isinstance(x, np.ndarray) else 0


def _kernel_counts(args, kwargs, result):
    # args[0] is the FiniteField; bytes are computed from array sizes
    return {"elems": int(np.size(result)),
            "bytes": sum(_nbytes(a) for a in args[1:]) + _nbytes(np.asarray(result))}


def _enumerate_counts(args, kwargs, result):
    C, F = args[0], args[1]
    return {"tuples_walked": (F.q - 1) ** C.n, "points": len(result)}


def _bruteforce_counts(args, kwargs, result):
    q, k = args[0].field.q, args[0].dimension
    return {"classes": (q ** k - 1) // (q - 1)}


def _entries(args, kwargs, result):
    return {"entries": int(np.size(args[1]))}


# (module, attribute, span name, counts(args, kwargs, result) or None).
# Every span counts as one call; other counts are recorded only when the
# call returns.
LAYERS = [
    ("toriccode.clutter", "load_clutter", "clutter.load", None),
    ("toriccode.finite_field", "field_from_q", "finite_field.build", None),
    ("toriccode.finite_field", "make_field", "finite_field.build", None),
    ("toriccode.toric_set", "enumerate_X", "toric_set.enumerate", _enumerate_counts),
    ("toriccode.toric_set", "equals_torus", "toric_set.equals_torus", None),
    ("toriccode.eval_code", "hilbert_function", "eval_code.hilbert", None),
    ("toriccode.eval_code", "regularity", "eval_code.regularity", None),
    ("toriccode.eval_code", "code", "eval_code.code", None),
    ("toriccode.eval_code", "evaluate_rows", "eval_code.evaluate",
     lambda a, k, r: {"entries": int(r.size)}),
    ("toriccode._linalg", "rref", "linalg.rref", _entries),
    ("toriccode._linalg", "rank", "linalg.rank", _entries),
    ("toriccode.vanishing_ideal", "interpolate_gb", "vanishing_ideal.gb",
     lambda a, k, r: {"elements": len(r.elements)}),
    ("toriccode.vanishing_ideal", "verify_gb_structure", "vanishing_ideal.verify", None),
    ("toriccode.mindist", "min_distance_bruteforce", "mindist.bruteforce", _bruteforce_counts),
    ("toriccode.mindist", "min_distance_isd", "mindist.isd", None),
    ("toriccode.intlattice", "ci_classify", "intlattice.ci", None),
    ("toriccode.intlattice", "smith_normal_form", "intlattice.snf", None),
    ("toriccode.intlattice", "rank_rational", "intlattice.rank_rational", None),
]
KERNELS = ("add", "sub", "neg", "mul", "inv", "sum_axis")
CLI_SPAN = "cli.main"

# per-layer metric -> (unit, "<span>:<figure>") where the figure is s,
# self_s, calls or a count; classes_per_s is derived from two of them.
METRICS = {
    "cli.self_s": ("s", "cli.main:self_s"),
    "clutter.load_s": ("s", "clutter.load:s"),
    "finite_field.build_s": ("s", "finite_field.build:s"),
    "finite_field.kernel_s": ("s", "finite_field.kernel:s"),
    "finite_field.kernel_calls": ("count", "finite_field.kernel:calls"),
    "finite_field.kernel_elems": ("count", "finite_field.kernel:elems"),
    "finite_field.kernel_bytes": ("B", "finite_field.kernel:bytes"),
    "toric_set.enumerate_s": ("s", "toric_set.enumerate:s"),
    "toric_set.enumerate_calls": ("count", "toric_set.enumerate:calls"),
    "toric_set.tuples_walked": ("count", "toric_set.enumerate:tuples_walked"),
    "toric_set.points": ("count", "toric_set.enumerate:points"),
    "toric_set.equals_torus_s": ("s", "toric_set.equals_torus:s"),
    "eval_code.hilbert_s": ("s", "eval_code.hilbert:s"),
    "eval_code.hilbert_calls": ("count", "eval_code.hilbert:calls"),
    "eval_code.regularity_s": ("s", "eval_code.regularity:s"),
    "eval_code.code_s": ("s", "eval_code.code:s"),
    "eval_code.evaluate_s": ("s", "eval_code.evaluate:s"),
    "eval_code.eval_entries": ("count", "eval_code.evaluate:entries"),
    "linalg.rref_s": ("s", "linalg.rref:s"),
    "linalg.rref_calls": ("count", "linalg.rref:calls"),
    "linalg.rref_entries": ("count", "linalg.rref:entries"),
    "linalg.rank_s": ("s", "linalg.rank:s"),
    "linalg.rank_calls": ("count", "linalg.rank:calls"),
    "linalg.rank_entries": ("count", "linalg.rank:entries"),
    "vanishing_ideal.gb_s": ("s", "vanishing_ideal.gb:s"),
    "vanishing_ideal.gb_self_s": ("s", "vanishing_ideal.gb:self_s"),
    "vanishing_ideal.gb_elements": ("count", "vanishing_ideal.gb:elements"),
    "vanishing_ideal.verify_s": ("s", "vanishing_ideal.verify:s"),
    "mindist.bruteforce_s": ("s", "mindist.bruteforce:s"),
    "mindist.bruteforce_classes": ("count", "mindist.bruteforce:classes"),
    "mindist.classes_per_s": ("1/s", None),
    "mindist.isd_s": ("s", "mindist.isd:s"),
    "intlattice.ci_s": ("s", "intlattice.ci:s"),
    "intlattice.snf_s": ("s", "intlattice.snf:s"),
    "intlattice.rank_rational_s": ("s", "intlattice.rank_rational:s"),
}
SELF_TIMED = (CLI_SPAN, "vanishing_ideal.gb")


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics from the summed `<span>:<figure>` totals of a pass."""
    out = {name: float(totals.get(key, 0.0)) for name, (_, key) in METRICS.items() if key}
    bf = out["mindist.bruteforce_s"]
    out["mindist.classes_per_s"] = out["mindist.bruteforce_classes"] / bf if bf else 0.0
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def span(self, name, fn, counts=None):
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            rec = [self.job, name, stack[-1] if stack else -1, 0.0, 0.0,
                   depth[name] == 0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            depth[name] += 1
            rec[3] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _perf()
                depth[name] -= 1
                stack.pop()
            if counts is not None:
                rec[6] = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) as a span (used for cli.main)."""
        return self.span(name, fn)(*args)

    def totals(self, first: int) -> dict:
        """`<span>:<figure>` totals over the spans from index `first` on."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        spans = self.spans
        for i in range(first, len(spans)):
            rec = spans[i]
            child_time[rec[2]] += rec[4] - rec[3]
        for i in range(first, len(spans)):
            _, name, _, t0, t1, outermost, counts = spans[i]
            if not outermost:
                continue
            out[f"{name}:s"] += t1 - t0
            out[f"{name}:calls"] += 1
            if name in SELF_TIMED:
                out[f"{name}:self_s"] += t1 - t0 - child_time[i]
            for key, value in (counts or {}).items():
                out[f"{name}:{key}"] += value
        return dict(out)

    def dump(self, path: str):
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "job", "name", "parent", "start", "end", "counts"]) + "\n")
            for i, (job, name, parent, t0, t1, _, counts) in enumerate(self.spans):
                fh.write(json.dumps([i, job, name, parent, t0, t1, counts]) + "\n")


def install(tracer: Tracer):
    """Wrap every function in LAYERS and the FiniteField kernels."""
    mods = {k: m for k, m in sys.modules.items()
            if k == "toriccode" or k.startswith("toriccode.")}
    for modname, attr, name, counts in LAYERS:
        original = getattr(sys.modules[modname], attr)
        wrapped = tracer.span(name, original, counts)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    FiniteField = sys.modules["toriccode.finite_field"].FiniteField
    for attr in KERNELS:
        original = FiniteField.__dict__[attr]
        setattr(FiniteField, attr, tracer.span("finite_field.kernel", original, _kernel_counts))
