"""Spans and counters around the program's layers, installed from outside.

Each layer is one module of the package.  The tracer wraps the module's
public functions, plus the methods that carry the layer's hot work, and
rebinds each wrapper under every name in the package that refers to the
original, so calls made through ``from .series import name`` are seen too.

A call that re-enters a function already running (the recursive
``DescendentEngine.value``) is counted but not timed; only the outermost
activation of each function is timed.  A span record (name, start, end,
parent) is kept for every call that crosses from one layer into another;
calls inside one layer only add to that function's totals.  A layer's self
time is the time of its spans minus the child spans of other layers.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "qkzero"
LAYERS = ("series", "kring", "descendents", "correlators", "frobenius", "qde",
          "cli")
# Methods are wrapped only where they carry a layer's hot work; wrapping
# every method would multiply the tracing overhead for no metric.
METHODS = {
    "series": {"TruncatedSeries": ("__post_init__", "__add__", "__mul__",
                                   "derivative", "reciprocal"),
               "SeriesMatrix": ("__mul__",)},
    "kring": {"KClass": ("__mul__",)},
    "descendents": {"DescendentEngine": ("value",)},
}


class FunctionStats:
    __slots__ = ("layer", "calls", "active", "max_depth", "raised", "time",
                 "hook")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.active = 0
        self.max_depth = 0
        self.raised = 0
        self.time = 0.0
        self.hook = None


class Tracer:
    """Installs wrappers into the imported package and aggregates them."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionStats] = {}
        # Span records: (name, start, end, parent record index or -1).
        self.spans: list[tuple[str, float, float, int]] = []
        # Open timed calls: (layer, index of the layer span they belong to).
        self._open: list[tuple[str, int]] = []
        self.counters: dict[str, float] = {}
        self._engine = None
        self._memo_before = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        package_modules = [m for name, m in sys.modules.items()
                           if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{name}", layer)
                for target in package_modules:
                    for bound_name, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, bound_name, wrapper)
            for cls_name, method_names in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method_name in method_names:
                    fn = getattr(cls, method_name, None) if cls else None
                    if inspect.isfunction(fn):
                        setattr(cls, method_name, self._wrap(
                            fn, f"{layer}.{cls_name}.{method_name}", layer))
        self._add_hooks()
        self._engine = getattr(modules["descendents"], "_DEFAULT_ENGINE", None)
        self._memo_before = self._memo_size()

    def _wrap(self, fn, name: str, layer: str):
        stats = self.functions[name] = FunctionStats(layer)
        opened = self._open
        spans = self.spans

        def wrapper(*args, **kwargs):
            stats.calls += 1
            if stats.active:
                stats.active += 1
                if stats.active > stats.max_depth:
                    stats.max_depth = stats.active
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stats.raised += 1
                    raise
                finally:
                    stats.active -= 1
            stats.active = 1
            if not stats.max_depth:
                stats.max_depth = 1
            if opened and opened[-1][0] == layer:
                span = opened[-1][1]
                record = -1
            else:
                record = span = len(spans)
                spans.append((name, 0.0, 0.0, opened[-1][1] if opened else -1))
            opened.append((layer, span))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                end = perf_counter()
                opened.pop()
                stats.active = 0
                stats.time += end - start
                if record >= 0:
                    spans[record] = (name, start, end, spans[record][3])
            if stats.hook is not None:
                stats.hook(args, result)
            return result

        return wrapper

    def _add_hooks(self) -> None:
        c = self.counters
        for key in ("series.mul_pairs", "series.mul_terms_out",
                    "series.terms_stored", "series.max_coeff_bits",
                    "frobenius.potential_terms", "correlators.entries",
                    "correlators.pairs_checked"):
            c[key] = 0

        def on_mul(args, result):
            other = args[1]
            if hasattr(other, "coeffs"):
                c["series.mul_pairs"] += len(args[0].coeffs) * len(other.coeffs)
                c["series.mul_terms_out"] += len(result.coeffs)

        def on_construct(args, result):
            coeffs = args[0].coeffs
            c["series.terms_stored"] += len(coeffs)
            if coeffs:
                bits = max(max(v.numerator.bit_length(),
                               v.denominator.bit_length())
                           for v in coeffs.values())
                if bits > c["series.max_coeff_bits"]:
                    c["series.max_coeff_bits"] = bits

        def on_potential(args, result):
            c["frobenius.potential_terms"] += len(result.series.coeffs)

        def on_table(args, result):
            c["correlators.entries"] += (len(result.entries)
                                         + len(result.descendent_entries))

        def on_consistency(args, result):
            c["correlators.pairs_checked"] += result.checked_pairs

        for name, hook in (
                ("series.TruncatedSeries.__mul__", on_mul),
                ("series.TruncatedSeries.__post_init__", on_construct),
                ("frobenius.assemble_potential", on_potential),
                ("correlators.load_correlators", on_table),
                ("correlators.point_descendent_table", on_table),
                ("correlators.table_consistency_check", on_consistency)):
            if name in self.functions:
                self.functions[name].hook = hook

    def _memo_size(self) -> int:
        memo = getattr(self._engine, "_memo", None)
        return len(memo) if memo is not None else 0

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Each layer's span time minus the child spans of other layers."""
        own = dict.fromkeys(LAYERS, 0.0)
        layer_of = {name: stats.layer for name, stats in self.functions.items()}
        for name, start, end, parent in self.spans:
            own[layer_of[name]] += end - start
            if parent >= 0:
                own[layer_of[self.spans[parent][0]]] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since ``install``."""
        f = self.functions

        def stat(name, field):
            return getattr(f[name], field) if name in f else 0

        def calls(name):
            return stat(name, "calls")

        def seconds(name):
            return stat(name, "time")

        own = self.self_times()
        c = self.counters
        value_calls = calls("descendents.DescendentEngine.value")
        value_raised = stat("descendents.DescendentEngine.value", "raised")
        memo_entries = self._memo_size()
        misses = memo_entries - self._memo_before + value_raised
        return {
            "series.mul_calls": calls("series.TruncatedSeries.__mul__"),
            "series.mul_pairs": c["series.mul_pairs"],
            "series.mul_terms_out": c["series.mul_terms_out"],
            "series.mul_yield": (c["series.mul_terms_out"] / c["series.mul_pairs"]
                                 if c["series.mul_pairs"] else 0.0),
            "series.mul_s": seconds("series.TruncatedSeries.__mul__"),
            "series.construct_calls": calls("series.TruncatedSeries.__post_init__"),
            "series.construct_s": seconds("series.TruncatedSeries.__post_init__"),
            "series.add_calls": calls("series.TruncatedSeries.__add__"),
            "series.add_s": seconds("series.TruncatedSeries.__add__"),
            "series.derivative_calls": calls("series.TruncatedSeries.derivative"),
            "series.derivative_s": seconds("series.TruncatedSeries.derivative"),
            "series.matmul_s": seconds("series.SeriesMatrix.__mul__"),
            "series.reciprocal_calls": calls("series.TruncatedSeries.reciprocal"),
            "series.inverse_geometric_s": seconds("series.matrix_inverse_geometric"),
            "series.inverse_direct_s": seconds("series.matrix_inverse_direct"),
            "series.terms_stored": c["series.terms_stored"],
            "series.max_coeff_bits": c["series.max_coeff_bits"],
            "series.self_s": own["series"],
            "frobenius.assemble_potential_s": seconds("frobenius.assemble_potential"),
            "frobenius.quantized_metric_s": seconds("frobenius.quantized_metric"),
            "frobenius.build_s": seconds("frobenius.build_frobenius_data"),
            "frobenius.product_tensor_s": seconds("frobenius.product_tensor"),
            "frobenius.wdvv_s": seconds("frobenius.wdvv_residual"),
            "frobenius.flatness_s": seconds("frobenius.flatness_residuals"),
            "frobenius.unit_s": seconds("frobenius.unit_residual"),
            "frobenius.classical_s": seconds("frobenius.classical_limit_residual"),
            "frobenius.potential_terms": c["frobenius.potential_terms"],
            "frobenius.self_s": own["frobenius"],
            "qde.assemble_s": seconds("qde.assemble_fundamental_solution"),
            "qde.residual_s": seconds("qde.qde_residual"),
            "qde.gwdvv_s": seconds("qde.gwdvv_residuals"),
            "qde.self_s": own["qde"],
            "descendents.euler_calls": calls("descendents.descendent_euler"),
            "descendents.value_calls": value_calls,
            "descendents.memo_entries": memo_entries,
            "descendents.memo_hit_ratio": ((value_calls - misses) / value_calls
                                           if value_calls else 0.0),
            "descendents.not_reducible": stat("descendents.descendent_euler",
                                              "raised"),
            "descendents.max_depth": stat("descendents.DescendentEngine.value",
                                          "max_depth"),
            "descendents.euler_s": seconds("descendents.descendent_euler"),
            "descendents.self_s": own["descendents"],
            "correlators.load_s": seconds("correlators.load_correlators"),
            "correlators.entries": c["correlators.entries"],
            "correlators.consistency_s": seconds("correlators.table_consistency_check"),
            "correlators.pairs_checked": c["correlators.pairs_checked"],
            "correlators.point_table_s": seconds("correlators.point_descendent_table"),
            "correlators.beta_zero_calls": calls("correlators.beta_zero_correlator"),
            "correlators.beta_zero_s": seconds("correlators.beta_zero_correlator"),
            "correlators.self_s": own["correlators"],
            "kring.class_mul_calls": calls("kring.KClass.__mul__"),
            "kring.self_s": own["kring"],
            "cli.main_s": seconds("cli.main"),
            "cli.self_s": own["cli"],
        }

    def span_dump(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]
