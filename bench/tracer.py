"""Span tracing at the layer boundaries of polarsolve, from outside the package.

Each layer is a module of ``polarsolve``. A call crosses a layer boundary
when one module calls a public function of another through a name it
imported, so the tracer replaces exactly those imported names with
wrappers that record a span: (name, start, end, parent, pass). Calls
inside one module are not traced and count as that module's own time.
Two same-module calls are traced on purpose: the runner's CSV emitters,
so that their share of the runner shows, and the oracle's functions,
which the runner calls through the module object.

Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its direct children; a layer's number is
the sum of the self times of its spans in one pass.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "runner", "grids", "model", "single_elite", "two_elite", "oracle")
SAME_MODULE = {"runner": ("emit_policy_csv", "emit_value_csv")}
ROOT = "bench.pass"

# Per-layer metric -> unit. Lower is better for all of them.
PER_LAYER = {
    "model.evaluate_cost_ms": "ms",
    "model.delta_threshold_calls": "count",
    "grids.build_grid_ms": "ms",
    "config.load_validate_ms": "ms",
    "cli.self_ms": "ms",
    "single_elite.solve_infinite_s": "s",
    "single_elite.sweeps": "count",
    "single_elite.ms_per_sweep_n1001": "ms",
    "single_elite.period1_solve_ms": "ms",
    "two_elite.mpe_solve_s": "s",
    "two_elite.steps": "count",
    "two_elite.ms_per_step": "ms",
    "two_elite.stackelberg_solve_ms": "ms",
    "oracle.response_tables_ms": "ms",
    "oracle.brute_force_ms": "ms",
    "runner.self_ms": "ms",
    "runner.emit_csv_ms": "ms",
}


def _solve_infinite_counts(result):
    return (result.value.grid.n, result.iterations)


def _mpe_counts(result):
    return (result.grid.n, result.horizon_used)


# Work counts read from a traced call's return value: (grid size, iterations).
COUNTS = {
    "single_elite.solve_infinite": _solve_infinite_counts,
    "two_elite.mpe_solve": _mpe_counts,
}


class Tracer:
    """Records spans around boundary calls; install() patches, remove() restores.

    Spans are kept in flat arrays (about 30 bytes each), since a pass of
    the two-period workload makes tens of thousands of them.
    """

    def __init__(self):
        self.names = []  # span name of each name id
        self._name_ids = {}
        self.name_id = array("H")
        self.pass_no_of = array("H")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")  # index of the enclosing span, -1 for none
        self.counts = {}  # span index -> (grid size, iterations)
        self.pass_no = 0
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def __len__(self):
        return len(self.start_ns)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        ids, passes, starts, ends, parents = self.name_id, self.pass_no_of, self.start_ns, self.end_ns, self.parent
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        counter = COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(nid)
            passes.append(self.pass_no)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counts[index] = counter(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"polarsolve.{layer}") for layer in LAYERS}
        public = {}  # function object -> span name
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    public[obj] = f"{layer}.{attr}"
        targets = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = public.get(obj) if inspect.isfunction(obj) else None
                if name is None:
                    continue
                owner = name.split(".", 1)[0]
                if owner != layer or attr in SAME_MODULE.get(layer, ()) or layer == "oracle":
                    targets.append((module, attr, obj, name))
        for module, attr, obj, name in targets:
            setattr(module, attr, self._wrap(name, obj))
            self._patched.append((module, attr, obj))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _columns(self):
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        passes = np.frombuffer(self.pass_no_of, dtype=np.uint16)
        dur = np.frombuffer(self.end_ns, dtype=np.int64) - np.frombuffer(self.start_ns, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return ids, passes, dur - np.rint(child).astype(np.int64)

    def write(self, path):
        """Write every span, with its self time, as one compressed .npz file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        counted = sorted(self.counts)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            pass_no=np.frombuffer(self.pass_no_of, dtype=np.uint16),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            self_ns=self._columns()[2],
            counted_span=np.array(counted, dtype=np.int64),
            counted_grid_n=np.array([self.counts[i][0] for i in counted], dtype=np.int64),
            counted_iterations=np.array([self.counts[i][1] for i in counted], dtype=np.int64),
        )

    def pass_metrics(self):
        """Per-layer metrics of every traced pass, as {metric: [value per pass]}."""
        ids, passes, self_ns = self._columns()
        root = self._name_ids.get(ROOT)
        out = {metric: [] for metric in PER_LAYER}
        for p in np.unique(passes[ids == root]):
            mask = (passes == p) & (ids != root)
            busy = np.bincount(ids[mask], weights=self_ns[mask], minlength=len(self.names))
            calls = np.bincount(ids[mask], minlength=len(self.names))
            totals = _PassTotals(
                {name: float(busy[i]) for i, name in enumerate(self.names)},
                {name: int(calls[i]) for i, name in enumerate(self.names)},
                [(self.names[ids[i]], n, iters, float(self_ns[i]))
                 for i, (n, iters) in self.counts.items() if passes[i] == p],
            )
            for metric, value in totals.metrics().items():
                out[metric].append(value)
        return out

    def median_metrics(self):
        return {
            metric: {"value": statistics.median(values), "unit": PER_LAYER[metric]}
            for metric, values in self.pass_metrics().items()
        }


class _PassTotals:
    """Reads the per-layer metrics off one pass's summed self times and counts."""

    def __init__(self, busy_ns, calls, counted):
        self.busy_ns = busy_ns  # span name -> summed self time
        self.calls = calls  # span name -> number of spans
        self.counted = counted  # (span name, grid size, iterations, self time)

    def _ns(self, *names):
        return sum(self.busy_ns.get(n, 0.0) for n in names)

    def _layer_ns(self, layer):
        return sum(v for name, v in self.busy_ns.items() if name.split(".", 1)[0] == layer)

    def _iterations(self, name, n=None):
        rows = [(iters, busy) for span, grid_n, iters, busy in self.counted
                if span == name and (n is None or grid_n == n)]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    def _ms_per_iteration(self, name, n=None):
        iters, busy = self._iterations(name, n)
        return busy / iters * 1e-6 if iters else 0.0

    def metrics(self):
        ms = 1e-6
        return {
            "model.evaluate_cost_ms": self._ns("model.evaluate_cost") * ms,
            "model.delta_threshold_calls": self.calls.get("model.delta_threshold", 0),
            "grids.build_grid_ms": self._layer_ns("grids") * ms,
            "config.load_validate_ms": self._layer_ns("config") * ms,
            "cli.self_ms": self._layer_ns("cli") * ms,
            "single_elite.solve_infinite_s": self._ns("single_elite.solve_infinite") * 1e-9,
            "single_elite.sweeps": self._iterations("single_elite.solve_infinite")[0],
            "single_elite.ms_per_sweep_n1001": self._ms_per_iteration("single_elite.solve_infinite", 1001),
            "single_elite.period1_solve_ms": self._ns("single_elite.period1_solve") * ms,
            "two_elite.mpe_solve_s": self._ns("two_elite.mpe_solve") * 1e-9,
            "two_elite.steps": self._iterations("two_elite.mpe_solve")[0],
            "two_elite.ms_per_step": self._ms_per_iteration("two_elite.mpe_solve"),
            "two_elite.stackelberg_solve_ms": self._ns("two_elite.stackelberg_solve") * ms,
            "oracle.response_tables_ms": self._ns(
                "oracle.period2_response_tables", "oracle.rival_response_tables"
            ) * ms,
            "oracle.brute_force_ms": self._ns(
                "oracle.brute_force_one_step",
                "oracle.brute_force_two_period_single",
                "oracle.brute_force_stackelberg",
            ) * ms,
            "runner.self_ms": self._layer_ns("runner") * ms,
            "runner.emit_csv_ms": self._ns("runner.emit_policy_csv", "runner.emit_value_csv") * ms,
        }
