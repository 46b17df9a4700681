"""Outside-in tracer: wraps gscohom's public functions from the benchmark's
own files, records one span per call, and aggregates per-layer metrics.

A span is (name, start, end, parent index).  Spans are kept in memory and
aggregated when the run ends.  A layer's self time is the sum over its spans
of the span's duration minus the time its direct child spans cover.  The
tracer's own bookkeeping after a call (hashing the input, measuring the
output) is a span of its own, so it is no layer's self time.  A layer's
call count counts entries from outside the layer only (a kernel that builds
a Subspace, which runs a rank, is one elimination call), so it counts
requests, not the library's internal delegation.  Counters and named
checks come from the same wrappers.

Two lookup pitfalls are handled here:
  * `from .x import y` binds y as a separate name in each importing module,
    so a function is replaced in every gscohom module that holds it;
  * the package attribute `gscohom.deform` is the function `deform`, which
    shadows the module, so modules are fetched with importlib.
"""

import functools
import importlib
import sys
import time

MODULES = ("linalg", "algebra", "presheaf", "hochschild", "simplicial", "cech",
           "shuffles", "gs", "deform", "descent", "project", "cli")

# (module, attribute path, layer or None for count-only, named check or None)
TARGETS = [
    ("linalg", "RatMatrix.rank", "linalg.elim", None),
    ("linalg", "RatMatrix.pivot_columns", "linalg.elim", None),
    ("linalg", "RatMatrix.kernel", "linalg.elim", None),
    ("linalg", "RatMatrix.solve", "linalg.elim", None),
    ("linalg", "RatMatrix.solve_many", "linalg.elim", None),
    ("linalg", "RatMatrix.inverse", "linalg.elim", None),
    ("linalg", "RatMatrix.is_invertible", "linalg.elim", None),
    ("linalg", "Subspace.__init__", "linalg.elim", None),
    ("linalg", "cohomology", "linalg.cohomology", "cohomology"),
    ("linalg", "RatMatrix.__matmul__", "linalg.matmul", None),
    ("linalg", "RatMatrix.__add__", "linalg.add", None),
    ("hochschild", "hoch_differential", "hochschild.hoch_differential", None),
    ("simplicial", "PairComplex.differential", "simplicial.differential", None),
    ("gs", "GSComplex.differential", "gs.differential", None),
    ("gs", "GSComplex.hodge_projector", "gs.hodge_projector", None),
    ("gs", "GSComplex.check_subcomplex", None, "check_subcomplex"),
    ("gs", "GSComplex.check_hodge_stability", None, "hodge_stability"),
    ("shuffles", "eulerian_idempotents", "shuffles.idempotents",
     "eulerian_idempotents"),
    ("shuffles", "GroupAlgebraElement.__mul__", None, None),
    ("shuffles", "element_action_matrix", "shuffles.action", None),
    ("algebra", "tensor_over", "algebra.tensor_over", None),
    ("presheaf", "TwistedPresheaf.check", "presheaf.check", "presheaf_check"),
    ("deform", "deform", "deform", None),
    ("deform", "bidirectional_verdicts", None, "bidirectional_verdicts"),
    ("descent", "check_descent", "descent.check", "check_descent"),
    ("descent", "canonical_free_datum", "descent.free_datum", None),
    ("descent", "pointwise_kernel", "descent.pointwise", None),
    ("descent", "pointwise_cokernel", "descent.pointwise", None),
    ("descent", "q_functor_hom_check", "descent.q_hom", None),
    ("descent", "verify_pseudonatural", "descent.pseudonatural",
     "verify_pseudonatural"),
    ("cech", "CechComplex.differential", "cech.differential", None),
    ("cech", "compare_simp_cech", "cech.compare", "compare_simp_cech"),
    ("project", "load_project", "project.load", None),
    ("cli", "_emit", "cli.emit", None),
]

# span name of the tracer's own bookkeeping after an elimination or tensor
# quotient; it is nobody's self time and is not reported
HOOK = "trace.hook"

LAYERS = sorted({layer for _, _, layer, _ in TARGETS if layer})
CHECKS = sorted({check for _, _, _, check in TARGETS if check})

# per-layer metric names, in the order BENCHMARK.json lists them
PER_LAYER = ([f"{layer}.{field}" for layer in LAYERS
              for field in ("calls", "self_s")]
             + ["linalg.elim.cells", "linalg.elim.nnz",
                "linalg.elim.distinct_ratio", "linalg.elim.out_max_bits",
                "shuffles.compositions", "algebra.tensor_over.distinct_ratio",
                "deform.rejected"]
             + [f"checks.{check}.calls" for check in CHECKS]
             + ["cli.import_s", "trace.overhead_ratio"])

UNITS = {"calls": "count", "self_s": "s", "cells": "count", "nnz": "count",
         "distinct_ratio": "fraction", "out_max_bits": "bits",
         "compositions": "count", "rejected": "count", "import_s": "s",
         "overhead_ratio": "fraction"}


def unit_of(metric):
    return UNITS[metric.rsplit(".", 1)[1]]


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _out_bits(result):
    """Largest numerator or denominator bit length in an elimination
    result (a Subspace, a RatMatrix, or a vector); 0 for ranks and pivots."""
    if result is None or isinstance(result, (bool, int, list)):
        return 0
    basis = getattr(result, "basis", None)
    if basis is not None:
        return max((_bits(x) for v in basis for x in v), default=0)
    if hasattr(result, "items"):
        return max((_bits(v) for _, v in result.items()), default=0)
    return max((_bits(x) for x in result), default=0)


def _matrix_of(args):
    """The matrix an elimination entry point works on, and its key."""
    first = args[0]
    if hasattr(first, "items"):                        # RatMatrix method
        rest = tuple(tuple(a) if isinstance(a, (list, tuple)) else a
                     for a in args[1:])
        return first.rows, first.cols, first.nnz(), (first,) + rest
    # Subspace(ambient_dim, basis)
    ambient, basis = args[1], tuple(tuple(v) for v in args[2])
    nnz = sum(1 for v in basis for x in v if x)
    return ambient, len(basis), nnz, ("subspace", ambient, basis)


def _tensor_key(module, f):
    return (tuple(module.action), f.matrix,
            tuple(tuple(tuple(v) for v in row) for row in f.target.mult))


class Tracer:
    """Records spans and counters while installed; `uninstall` restores
    every replaced name."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self._stack = []
        self._depth = {}         # layer -> number of open spans
        self.counters = {}
        self.keys = {"linalg.elim": set(), "algebra.tensor_over": set()}
        self._restore = []
        self.missing = []

    def add(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping

    def _wrap(self, fn, layer, check, target):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        after = {"linalg.elim": self._after_elim,
                 "algebra.tensor_over": self._after_tensor}.get(layer)
        is_mul = target == "GroupAlgebraElement.__mul__"

        if layer is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if check:
                    self.add(f"checks.{check}.calls")
                if is_mul:
                    self.add("shuffles.compositions",
                             len(args[0].terms) * len(args[1].terms))
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            outer = not depth.get(layer)
            if outer:
                self.add(f"{layer}.calls")
            if check:
                self.add(f"checks.{check}.calls")
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            depth[layer] = depth.get(layer, 0) + 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if layer == "deform" and type(exc).__name__ == "NotACocycle":
                    self.add("deform.rejected")
                raise
            finally:
                depth[layer] -= 1
                stack.pop()
                end = spans[idx][2] = clock()
                if outer and after is not None:
                    # the hook's own span keeps its bookkeeping out of the
                    # parent layer's self time
                    after(args, result)
                    spans.append([HOOK, end, clock(),
                                  stack[-1] if stack else -1])
        return spanned

    def _after_elim(self, args, result):
        rows, cols, nnz, key = _matrix_of(args)
        self.add("linalg.elim.cells", rows * cols)
        self.add("linalg.elim.nnz", nnz)
        self.keys["linalg.elim"].add(key)
        bits = _out_bits(result)
        if bits > self.counters.get("linalg.elim.out_max_bits", 0):
            self.counters["linalg.elim.out_max_bits"] = bits

    def _after_tensor(self, args, result):
        self.keys["algebra.tensor_over"].add(_tensor_key(*args[:2]))

    def install(self, callers=()):
        """Replace every target, wherever a gscohom module or one of the
        `callers` modules binds it."""
        mods = {}
        for name in MODULES:
            mods[name] = importlib.import_module(f"gscohom.{name}")
        mods["gscohom"] = importlib.import_module("gscohom")
        for mod in callers:
            mods[mod.__name__] = mod
        for modname, path, layer, check in TARGETS:
            owner = mods[modname]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(fn, layer, check, path)
            if parents:                        # a method: one binding
                self._replace(owner, attr, wrapper)
                continue
            for mod in mods.values():          # a function: every alias
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, alias, wrapper)
        return self

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- aggregation

    def self_times(self):
        """{layer: self time}; a span's self time is its duration minus
        the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if name != HOOK:
                out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def summary(self):
        """Raw per-layer numbers: counters, self times, distinct counts."""
        out = dict(self.counters)
        for layer, value in self.self_times().items():
            out[f"{layer}.self_s"] = value
        for layer, keys in self.keys.items():
            out[f"{layer}.distinct"] = len(keys)
        return out


def merge(summaries):
    """Add raw summaries of several processes (maxima for bit lengths)."""
    out = {}
    for s in summaries:
        for k, v in s.items():
            if k.endswith("out_max_bits"):
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


def per_layer_metrics(raw, import_s, overhead_ratio):
    """The full per-layer metric set from a raw summary; layers a workload
    does not touch read 0."""
    values = {name: raw.get(name, 0) for name in PER_LAYER}
    for layer in ("linalg.elim", "algebra.tensor_over"):
        calls = raw.get(f"{layer}.calls", 0)
        values[f"{layer}.distinct_ratio"] = \
            raw.get(f"{layer}.distinct", 0) / calls if calls else 0.0
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit_of(name)}
            for name in PER_LAYER}


def main_cli():
    """Run `gscohom.cli` under the tracer (argv after the script name) and
    write the raw summary as the last line of stderr."""
    import json
    tracer = Tracer().install()
    cli = importlib.import_module("gscohom.cli")
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(json.dumps(tracer.summary()), file=sys.stderr)
    return code
