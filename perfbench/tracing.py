"""Outside-in layer trace for the fredkern benchmark.

`Tracer.install` wraps, from the benchmark's side, every public module-level
function of the six layers (kernels, quadrature, fredholm, resolvent,
convergence, cli), the `ResolventHandle` methods `columns_at`,
`eval_grid_matrix` and `apply`, and the `lu_factor`/`lu_solve` bindings of
fredholm, resolvent and convergence.  Every module attribute that refers to a
wrapped function is rebound, so calls between layers are timed too.  No
package file changes.

Spans are kept in memory as [name, start, end, parent, op, extra] and
written out when the run ends.  Self time is a span's duration minus the
durations of its children.
"""

import inspect
import os
import time

LAYERS = ("kernels", "quadrature", "fredholm", "resolvent", "convergence", "cli")
HANDLE_METHODS = ("columns_at", "eval_grid_matrix", "apply")
LU_MODULES = ("fredholm", "resolvent", "convergence")


def _lu_factor_work(args, kwargs, result):
    n = args[0].shape[0]
    return {"gflop": 8.0 * n**3 / 3.0 / 1e9}


def _lu_solve_work(args, kwargs, result):
    b = args[1]
    k = 1 if b.ndim == 1 else b.shape[1]
    return {"gflop": 8.0 * b.shape[0] ** 2 * k / 1e9}


# Work counted at a span boundary, from arguments and results.
COUNTERS = {
    "kernels.eval_kernel": lambda a, kw, r: {"points": getattr(r, "size", 1)},
    "quadrature.nystrom_matrix": lambda a, kw, r: {"entries": r.entries.size},
    "resolvent.columns_at": lambda a, kw, r: {"cols": 1 if r.ndim == 1 else r.shape[1]},
    "fredholm.char_scan": lambda a, kw, r: {"zeros": len(r.zeros)},
    "convergence.resolvent_convergence_diagnostic": lambda a, kw, r: {"skipped": len(r.skipped)},
    "cli.emit_grid_csv": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
}
for _layer in LU_MODULES:
    COUNTERS[f"{_layer}.lu_factor"] = _lu_factor_work
    COUNTERS[f"{_layer}.lu_solve"] = _lu_solve_work


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.names = set()
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTERS.get(name)
        self.names.add(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                span[5] = {"raised": 1}
                raise
            finally:
                tracer.stack.pop()
            span[2] = time.perf_counter()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, fk):
        mods = {layer: getattr(fk, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[val] = self._wrap(f"{layer}.{attr}", val)
        # Rebind every reference to a wrapped function: the package namespace
        # and each module's imported names.
        for mod in (fk, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._set(mod, attr, wrapped[val])
        handle = fk.resolvent.ResolventHandle
        for attr in HANDLE_METHODS:
            self._set(handle, attr, self._wrap(f"resolvent.{attr}", getattr(handle, attr)))
        for layer in LU_MODULES:
            mod = mods[layer]
            for attr in ("lu_factor", "lu_solve"):
                self._set(mod, attr, self._wrap(f"{layer}.{attr}", getattr(mod, attr)))

    def uninstall(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)


def aggregate(spans):
    """Per-name totals: calls, total_ms, self_ms, raised and counted work."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        st["calls"] += 1
        st["total_ms"] += (end - start) * 1e3
        st["self_ms"] += (end - start - child[i]) * 1e3
        for key, value in (extra or {}).items():
            st[key] = st.get(key, 0) + value
    return stats


def top_level_ms(spans):
    return sum(end - start for _, start, end, parent, _, _ in spans if parent < 0) * 1e3


# Per-layer metrics: (name, unit).  "<layer>.<function>.<stat>" reads one
# aggregate; the rest are derived in `per_layer`.
PER_LAYER = (
    ("kernels.eval_kernel.calls", "count"),
    ("kernels.eval_kernel.self_ms", "ms"),
    ("kernels.eval_kernel.points", "count"),
    ("kernels.subkernel_eval.self_ms", "ms"),
    ("quadrature.build_grid.calls", "count"),
    ("quadrature.nystrom_matrix.calls", "count"),
    ("quadrature.nystrom_matrix.self_ms", "ms"),
    ("quadrature.nystrom_matrix.entries", "count"),
    ("quadrature.full_matrix.calls", "count"),
    ("quadrature.full_matrix.self_ms", "ms"),
    ("quadrature.matrix_norm_estimate.calls", "count"),
    ("quadrature.top_singular_value.calls", "count"),
    ("quadrature.top_singular_value.self_ms", "ms"),
    ("quadrature.tail_norm.calls", "count"),
    ("quadrature.tail_norm.self_ms", "ms"),
    ("fredholm.char_scan.calls", "count"),
    ("fredholm.char_scan.self_ms", "ms"),
    ("fredholm.lu_factor.calls", "count"),
    ("fredholm.lu_factor.self_ms", "ms"),
    ("fredholm.lu_solve.calls", "count"),
    ("fredholm.lu_solve.self_ms", "ms"),
    ("fredholm.det_matrix.calls", "count"),
    ("fredholm.det_series.self_ms", "ms"),
    ("fredholm.fredholm_coefficients.self_ms", "ms"),
    ("fredholm.linalg_gflop", "Gflop"),
    ("fredholm.scan_useful_ratio", "ratio"),
    ("resolvent.make_resolvent.calls", "count"),
    ("resolvent.make_resolvent.self_ms", "ms"),
    ("resolvent.make_resolvent.raised", "count"),
    ("resolvent.lu_factor.calls", "count"),
    ("resolvent.lu_factor.self_ms", "ms"),
    ("resolvent.lu_solve.calls", "count"),
    ("resolvent.lu_solve.self_ms", "ms"),
    ("resolvent.linalg_gflop", "Gflop"),
    ("resolvent.columns_at.calls", "count"),
    ("resolvent.columns_at.cols", "count"),
    ("resolvent.columns_at.self_ms", "ms"),
    ("resolvent.eval_grid_matrix.calls", "count"),
    ("resolvent.eval_grid_matrix.self_ms", "ms"),
    ("resolvent.apply.self_ms", "ms"),
    ("resolvent.solve_equation.calls", "count"),
    ("resolvent.residual_check.calls", "count"),
    ("resolvent.residual_check.self_ms", "ms"),
    ("resolvent.neumann_kernel_matrix.calls", "count"),
    ("resolvent.neumann_kernel_matrix.self_ms", "ms"),
    ("convergence.resolvent_convergence_diagnostic.calls", "count"),
    ("convergence.resolvent_convergence_diagnostic.self_ms", "ms"),
    ("convergence.compact_sweep.calls", "count"),
    ("convergence.compact_sweep.self_ms", "ms"),
    ("convergence.tail_condition_report.calls", "count"),
    ("convergence.skipped_n", "count"),
    ("cli.run_command.calls", "count"),
    ("cli.run_command.self_ms", "ms"),
    ("cli.parse_config.calls", "count"),
    ("cli.parse_config.self_ms", "ms"),
    ("cli.emit_grid_csv.calls", "count"),
    ("cli.emit_grid_csv.self_ms", "ms"),
    ("cli.emit_grid_csv.bytes", "bytes"),
    ("kernels.self_ms", "ms"),
    ("quadrature.self_ms", "ms"),
    ("fredholm.self_ms", "ms"),
    ("resolvent.self_ms", "ms"),
    ("convergence.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("top_span_coverage", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
    ("known_defect_fail_frac", "ratio"),
)


def per_layer(stats, traced_ms, overhead, fail_frac, probe_fail_frac, spans):
    """Values of every PER_LAYER metric; names absent from `stats` read 0."""

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def layer_sum(prefix, key):
        return sum(st.get(key, 0) for name, st in stats.items() if name.startswith(prefix))

    lu_calls = get("fredholm.lu_factor", "calls")
    derived = {
        "fredholm.linalg_gflop": get("fredholm.lu_factor", "gflop") + get("fredholm.lu_solve", "gflop"),
        "resolvent.linalg_gflop": get("resolvent.lu_factor", "gflop") + get("resolvent.lu_solve", "gflop"),
        "fredholm.scan_useful_ratio": get("fredholm.char_scan", "zeros") / lu_calls if lu_calls else 0.0,
        "convergence.skipped_n": get("convergence.resolvent_convergence_diagnostic", "skipped"),
        "top_span_coverage": top_level_ms(spans) / traced_ms if traced_ms else 0.0,
        "trace_overhead_frac": overhead,
        "fail_frac": fail_frac,
        "known_defect_fail_frac": probe_fail_frac,
    }
    for layer in LAYERS:
        derived[f"{layer}.self_ms"] = layer_sum(layer + ".", "self_ms")
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            fn, key = name.rsplit(".", 1)
            value = get(fn, key)
        out[name] = {"value": float(value), "unit": unit}
    return out


def absent(tracer):
    """PER_LAYER function names the installed trace could not find."""
    missing = set()
    for name, _ in PER_LAYER:
        parts = name.split(".")
        if len(parts) == 3 and f"{parts[0]}.{parts[1]}" not in tracer.names:
            missing.add(f"{parts[0]}.{parts[1]}")
    return sorted(missing)
