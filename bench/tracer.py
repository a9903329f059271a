"""Outside-in span tracer for ``wickops``, installed only in traced runs.

The tracer replaces public functions with timing wrappers in *every*
``wickops`` module namespace that binds them, because ``cli``, ``analysis``
and ``expansion`` import names directly and patching only the defining
module would miss their calls.  It also wraps ``numpy.linalg.eigvalsh`` and
``numpy.linalg.lstsq`` and files each call under its caller's layer.  Nothing
under ``src/`` changes; ``uninstall`` restores every original.

Spans are kept in memory with a job id and a parent id.  Hot per-point calls
are not spans: they are counted, with total and self time, under the
innermost open span.  A span's self time is its duration minus the time of
its child spans and counted calls, so the self times of all layers add up to
the time spent inside the root ``cli.main`` spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

import numpy as np

SPAN = "span"
COUNT = "count"

LAYERS = ("cli", "core", "hermite", "bargmann", "symbols", "expansion", "analysis")


def _matrix_sizes(args, kwargs, M):
    return {"matrix_entries": M.entries.size}


def _to_wick_sizes(args, kwargs, a):
    b = args[0]
    return {"terms_kept": len(a.terms),
            "unknowns": math.comb(b.total_degree + 2 * b.dimension, 2 * b.dimension)}


# (layer, attribute in the layer's module, span name, mode, sizes hook)
TARGETS = [
    ("cli", "main", "cli.main", SPAN, None),
    ("core", "gauss_hermite", "core.gauss_hermite", SPAN, None),
    ("core", "tensor_rule", "core.tensor_rule", SPAN,
     lambda a, k, r: {"quad_nodes": len(r[1])}),
    ("core", "CoefficientExpansion.__init__", "core.expansions", COUNT, None),
    ("hermite", "hermite_coefficients", "hermite.hermite_coefficients", SPAN, None),
    ("hermite", "synthesize", "hermite.synthesize", SPAN, None),
    ("hermite", "apply_ladder", "hermite.apply_ladder", COUNT, None),
    ("bargmann", "bargmann_coeff", "bargmann.bargmann_coeff", SPAN, None),
    ("bargmann", "bargmann_integral", "bargmann.bargmann_integral", SPAN, None),
    ("bargmann", "evaluate_fock", "bargmann.evaluate_fock", COUNT, None),
    ("symbols", "WickSymbol.evaluate", "symbols.evaluate", COUNT, None),
    ("symbols", "japanese_bracket", "symbols.japanese_bracket", COUNT, None),
    ("symbols", "pair_grid", "symbols.pair_grid", SPAN, None),
    ("symbols", "wick_matrix", "symbols.wick_matrix", SPAN, _matrix_sizes),
    ("symbols", "antiwick_matrix", "symbols.antiwick_matrix", SPAN, _matrix_sizes),
    ("symbols", "weyl_matrix", "symbols.weyl_matrix", SPAN, _matrix_sizes),
    ("symbols", "real_to_wick_symbol", "symbols.real_to_wick_symbol", SPAN, _to_wick_sizes),
    ("symbols", "symbol_bound_check", "symbols.symbol_bound_check", SPAN,
     lambda a, k, r: {"grid_pairs": r.params["grid_size"]}),
    ("symbols", "shubin_estimate_check", "symbols.shubin_estimate_check", SPAN,
     lambda a, k, r: {"grid_pairs": r.params["grid_size"]}),
    ("expansion", "decompose", "expansion.decompose", SPAN, None),
    ("expansion", "decomposition_matrix", "expansion.decomposition_matrix", SPAN, None),
    ("expansion", "verify_decomposition", "expansion.verify_decomposition", SPAN, None),
    ("analysis", "garding_check", "analysis.garding_check", SPAN,
     lambda a, k, r: {"diag_points": r.grid_points}),
    ("analysis", "classify_decay", "analysis.classify_decay", SPAN, None),
]

# numpy.linalg calls, named after the caller's layer (e.g. analysis.eigvalsh)
NUMPY_TARGETS = {
    "eigvalsh": lambda a, k, r: {"eig_computed": r.size},
    "lstsq": None,
}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "wickops" or name.startswith("wickops.")]


class Tracer:
    """Span recorder.  ``job`` tags the spans opened while it is set."""

    def __init__(self, package):
        self.package = package
        self.records = []
        self.job = None
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for layer, attr, name, mode, sizes in TARGETS:
            module = getattr(self.package, layer)
            if mode == SPAN:
                original = getattr(module, attr)
                self._patch_everywhere(modules, original,
                                       self._span_wrapper(original, name, sizes))
            else:
                owner, _, method = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = target.__dict__[method] if owner else getattr(module, method)
                wrapper = self._count_wrapper(original, name)
                if owner:
                    self._set(target, method, wrapper)
                else:
                    self._patch_everywhere(modules, original, wrapper)
        for name, fn in self._subcommands():
            self._patch_everywhere(modules, fn, self._span_wrapper(fn, name, None))
        for attr, sizes in NUMPY_TARGETS.items():
            original = getattr(np.linalg, attr)
            self._set(np.linalg, attr, self._span_wrapper(original, attr, sizes, caller_layer=True))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _subcommands(self):
        cli = self.package.cli
        for attr, fn in sorted(vars(cli).items()):
            if attr.startswith("cmd_") and callable(fn):
                yield "cli." + attr[4:].replace("_", "-"), fn

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._set(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------
    #
    # A frame on the stack is [child_ns, owning span record, layer].

    def _span_wrapper(self, fn, name, sizes, caller_layer=False):
        stack = self._stack
        records = self.records
        clock = time.perf_counter_ns
        layer = name.partition(".")[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller_layer and not stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            own_layer = parent[2] if caller_layer and parent else layer
            rec = {"id": len(records), "parent": parent[1]["id"] if parent else None,
                   "job": tracer.job, "layer": own_layer,
                   "name": f"{own_layer}.{name}" if caller_layer else name,
                   "counted": {}}
            records.append(rec)
            frame = [0, rec, own_layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec["start_ns"] = t0
                rec["dur_ns"] = dur
                rec["self_ns"] = dur - frame[0]
                if parent:
                    parent[0] += dur
            if sizes:
                rec["sizes"] = sizes(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        stack = self._stack
        clock = time.perf_counter_ns
        layer = name.partition(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0, parent[1], layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[0] += dur
                counted = parent[1]["counted"]
                entry = counted.get(name)
                if entry is None:
                    counted[name] = [1, dur, dur - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += dur - frame[0]

        return wrapper


def summarize(records) -> dict:
    """Totals over span records: calls and ms per name, self ms per layer and
    summed sizes (``name:key``)."""
    calls, ns, self_ns, sizes = Counter(), Counter(), Counter(), Counter()
    names = {r["id"]: r["name"] for r in records}
    for rec in records:
        calls[rec["name"]] += 1
        ns[rec["name"]] += rec["dur_ns"]
        self_ns[rec["layer"]] += rec["self_ns"]
        for key, value in rec.get("sizes", {}).items():
            sizes[f"{rec['name']}:{key}"] += value
        if rec["name"] == "core.tensor_rule" and names.get(rec["parent"]) == \
                "hermite.hermite_coefficients":
            sizes["hermite.samples"] += rec["sizes"]["quad_nodes"]
        for name, (n, dur, own) in rec["counted"].items():
            calls[name] += n
            ns[name] += dur
            self_ns[name.partition(".")[0]] += own
    return {"calls": calls, "ms": Counter({k: v / 1e6 for k, v in ns.items()}),
            "self_ms": Counter({k: v / 1e6 for k, v in self_ns.items()}), "sizes": sizes}


def unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("_kb"):
        return "kB"
    if metric.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, jobs: int, output_kb: float) -> dict:
    """The per-layer metrics, per traced job, from ``summarize`` totals."""
    calls, ms, self_ms, sizes = totals["calls"], totals["ms"], totals["self_ms"], totals["sizes"]
    out = {f"{layer}.self_ms": self_ms[layer] / jobs for layer in LAYERS}
    out["cli.output_kb"] = output_kb / jobs
    out["cli.calls"] = calls["cli.main"] / jobs
    for sub in ("garding", "bound-check", "weyl-matrix", "to-wick", "wick-matrix",
                "expand-antiwick", "hermite-coeffs", "bargmann", "classify"):
        out[f"cli.{sub}.ms"] = ms[f"cli.{sub}"] / jobs
    out["core.expansions"] = calls["core.expansions"] / jobs
    out["core.gauss_hermite.calls"] = calls["core.gauss_hermite"] / jobs
    out["core.gauss_hermite.ms"] = ms["core.gauss_hermite"] / jobs
    out["core.quad_nodes"] = sizes["core.tensor_rule:quad_nodes"] / jobs
    out["hermite.apply_ladder.calls"] = calls["hermite.apply_ladder"] / jobs
    out["hermite.hermite_coefficients.ms"] = ms["hermite.hermite_coefficients"] / jobs
    out["hermite.samples"] = sizes["hermite.samples"] / jobs
    out["bargmann.bargmann_integral.ms"] = ms["bargmann.bargmann_integral"] / jobs
    out["bargmann.evaluate_fock.calls"] = calls["bargmann.evaluate_fock"] / jobs
    out["symbols.evaluate.calls"] = calls["symbols.evaluate"] / jobs
    out["symbols.evaluate.ms"] = ms["symbols.evaluate"] / jobs
    out["symbols.japanese_bracket.calls"] = calls["symbols.japanese_bracket"] / jobs
    out["symbols.grid_pairs"] = (sizes["symbols.symbol_bound_check:grid_pairs"]
                                 + sizes["symbols.shubin_estimate_check:grid_pairs"]) / jobs
    for fn in ("symbol_bound_check", "shubin_estimate_check", "weyl_matrix", "wick_matrix",
               "antiwick_matrix", "real_to_wick_symbol", "lstsq"):
        out[f"symbols.{fn}.ms"] = ms[f"symbols.{fn}"] / jobs
    out["symbols.to_wick.kept_ratio"] = _ratio(
        sizes["symbols.real_to_wick_symbol:terms_kept"],
        sizes["symbols.real_to_wick_symbol:unknowns"])
    out["symbols.matrix_entries"] = sum(
        sizes[f"symbols.{fn}:matrix_entries"]
        for fn in ("wick_matrix", "antiwick_matrix", "weyl_matrix")) / jobs
    out["expansion.decompose.ms"] = ms["expansion.decompose"] / jobs
    out["expansion.verify_decomposition.ms"] = ms["expansion.verify_decomposition"] / jobs
    out["analysis.garding_check.ms"] = ms["analysis.garding_check"] / jobs
    out["analysis.diag_points"] = sizes["analysis.garding_check:diag_points"] / jobs
    out["analysis.eigvalsh.ms"] = ms["analysis.eigvalsh"] / jobs
    out["analysis.eig_used_ratio"] = _ratio(calls["analysis.eigvalsh"],
                                            sizes["analysis.eigvalsh:eig_computed"])
    out["analysis.classify_decay.ms"] = ms["analysis.classify_decay"] / jobs
    return out
