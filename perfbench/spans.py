"""Per-layer tracing for the benchmark, installed from outside the package.

`Recorder.install()` replaces the public functions of each zdspectra
module with timing wrappers, in every module namespace that holds them
(`cli` binds `from .spectra import ...` names into its own namespace, so
patching the defining module alone would miss its calls).  Each wrapped
call records its self time: the span's duration minus the time covered
by wrapped calls made inside it.  Spans stay in memory and are returned
by `spans()` once the run ends.

The arithmetic methods of `QuadraticNumber` run about 10^5 times per
exact-sweep pass; they are counted and timed like the rest, but are not
kept as individual spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# Which per-layer metric each wrapped function's self time counts toward.
LAYER_MAP = {
    "zdspectra.cli": {
        "main": "cli.render_s",
        "assemble_report": "cli.render_s",
        "run_battery": "cli.battery_s",
    },
    "zdspectra.graph": {
        "build_graph": "graph.build_s",
        "build_bipartite": "graph.build_s",
        "adjacency_matrix": "graph.adjacency_s",
        "empirical_quotient": "graph.quotient_s",
        "expected_cell_sizes": "graph.quotient_s",
    },
    "zdspectra.spectra": {
        "symmetric_eigen": "spectra.eigen_s",
        "eigen_bundle": "spectra.classify_s",
        "classify_main": "spectra.classify_s",
        "krylov_rank": "spectra.krylov_s",
        "predicted_spectrum": "spectra.predict_s",
        "quotient_eigenvalues": "spectra.predict_s",
        "verify_spectrum_theorem": "spectra.theorem_s",
        "verify_main_correspondences": "spectra.theorem_s",
        "q_eigen_exact_check": "spectra.annihilation_s",
    },
    "zdspectra.quotient": {
        "build_p": "quotient.build_s",
        "build_q": "quotient.build_s",
        "walk_matrix_iterative": "quotient.walk_s",
        "walk_matrix_closed_p": "quotient.walk_s",
        "walk_matrix_closed_q": "quotient.walk_s",
        "h_coefficients": "quotient.walk_s",
        "exact_rank": "quotient.rank_s",
        "exact_det": "quotient.det_s",
        "det_walk_formula": "quotient.det_s",
        "factorize_walk": "quotient.det_s",
    },
    "zdspectra.fib": {
        "docagne_residual": "fib.residual_s",
        "golden_pair": "fib.quadratic_s",
    },
}

QUADRATIC_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__",
    "conjugate",
)
QUADRATIC_METRIC = "fib.quadratic_s"

# Call counts reported as per-layer metrics, by wrapped function.
CALL_COUNTS = {
    "zdspectra.cli.main": "cli.invocations",
    "zdspectra.spectra.symmetric_eigen": "spectra.eigen_calls",
    "zdspectra.spectra.krylov_rank": "spectra.krylov_calls",
    "zdspectra.quotient.exact_rank": "quotient.rank_calls",
}

PACKAGE_MODULES = ("zdspectra",) + tuple(LAYER_MAP)


def _count_vertices(counters, args, result):
    counters["graph.vertices"] += result.vertex_count


def _count_adjacency(counters, args, result):
    # computed, not measured: one int8 byte per entry of the N x N matrix
    counters["graph.adjacency_bytes"] += result.shape[0] ** 2


def _count_eigen_order(counters, args, result):
    order = len(result[0])
    counters["spectra.eigen_order_max"] = max(
        counters["spectra.eigen_order_max"], order
    )


def _count_dets(counters, args, result):
    counters["spectra.annihilation_dets"] += len(result.checks)


OBSERVERS = {
    "zdspectra.graph.build_graph": _count_vertices,
    "zdspectra.graph.build_bipartite": _count_vertices,
    "zdspectra.graph.adjacency_matrix": _count_adjacency,
    "zdspectra.spectra.symmetric_eigen": _count_eigen_order,
    "zdspectra.spectra.q_eigen_exact_check": _count_dets,
}


class Recorder:
    """Spans, self times and counts of the wrapped zdspectra functions."""

    def __init__(self) -> None:
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[list] = []  # [start, child time, own or parent span index]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keep_span: bool):
        stack = self._stack
        spans = self._spans
        self_time = self.self_time
        calls = self.calls
        counters = self.counters
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, parent]
            if keep_span:
                frame[2] = len(spans)
                spans.append([name, parent, 0.0, 0.0])
            stack.append(frame)
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_time[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    spans[frame[2]][2:] = [frame[0], end]
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every mapped function wherever a zdspectra module binds it."""
        modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
        for module_name, functions in LAYER_MAP.items():
            home = importlib.import_module(module_name)
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original, True)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cls = importlib.import_module("zdspectra.fib").QuadraticNumber
        for op in QUADRATIC_OPS:
            original = cls.__dict__[op]
            self._restore.append((cls, op, original))
            setattr(cls, op, self._wrap(f"QuadraticNumber.{op}", original, False))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self times and counts, keyed by per-layer metric name."""
        metric_of = {
            f"{module}.{fname}": metric
            for module, functions in LAYER_MAP.items()
            for fname, metric in functions.items()
        }
        metrics = {metric: 0.0 for metric in metric_of.values()}
        for name, seconds in self.self_time.items():
            metric = metric_of.get(name, QUADRATIC_METRIC)
            metrics[metric] += seconds / passes
        for name, metric in CALL_COUNTS.items():
            metrics[metric] = self.calls[name] / passes
        metrics["fib.quadratic_ops"] = sum(
            count for name, count in self.calls.items()
            if name.startswith("QuadraticNumber.")
        ) / passes
        for metric in ("graph.vertices", "graph.adjacency_bytes",
                       "spectra.annihilation_dets"):
            metrics[metric] = self.counters[metric] / passes
        metrics["spectra.eigen_order_max"] = self.counters["spectra.eigen_order_max"]
        return metrics

    def spans(self) -> dict:
        """Kept spans as parallel columns; parent -1 marks a root span."""
        names = sorted({span[0] for span in self._spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "name": [index[s[0]] for s in self._spans],
            "parent": [s[1] for s in self._spans],
            "start": [round(s[2], 7) for s in self._spans],
            "end": [round(s[3], 7) for s in self._spans],
        }
