"""Span tracer for the traced run, and the per-layer metrics derived from it.

Spans are recorded from the benchmark's side only: `install` replaces
public functions on the qsprep modules, at the attribute their callers
look up, by wrappers that record a span (name, start, end, parent) and
update counters.  No qsprep source is changed.  A layer's self time is
its spans' durations minus the time covered by their child spans.

Tracing costs a few microseconds per wrapped call (about 10^5 calls to
`solve_grid_1d` per high-b sweep), so end-to-end numbers come from
untraced runs and the traced run reports its own overhead.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Rz precision levels whose per-angle cost the traced run reports.
RZ_CURVE_BITS = (4, 12, 14, 16)

# (module, attribute, layer) for every wrapped function.  `realized_marginal`
# is the analytic stand-in for simulation, so it counts as a simulator span.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("cli_bench", "run_sweep", "cli_bench"),
    ("cli_bench", "make_state", "benchmark_states"),
    ("cli_bench", "synthesize_dense", "rotation_synthesis"),
    ("cli_bench", "synthesize_sparse", "rotation_synthesis"),
    ("cli_bench", "prepare_alias_state", "alias_prepare"),
    ("cli_bench", "compile_circuit", "cliffordt_compile"),
    ("cli_bench", "simulate", "simulator"),
    ("cli_bench", "address_marginal", "simulator"),
    ("cli_bench", "realized_marginal", "simulator"),
    ("cliffordt_compile", "synthesize_rz_tags", "gridsynth"),
    ("cliffordt_compile", "count_resources", "circuit_core"),
    ("gridsynth", "solve_grid_1d", "gridsynth"),
    ("gridsynth", "solve_diophantine", "gridsynth"),
    ("alias_prepare", "build_qrom", "alias_prepare"),
    ("alias_prepare", "build_selectswap", "alias_prepare"),
    ("alias_prepare", "count_resources", "circuit_core"),
)

LAYERS = ("benchmark_states", "rotation_synthesis", "alias_prepare",
          "cliffordt_compile", "gridsynth", "simulator", "circuit_core",
          "cli_bench")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "gridsynth.rz_s": ("s", "lower"),
    "gridsynth.rz_calls_approx": ("count", "lower"),
    "gridsynth.rz_calls_exact": ("count", "lower"),
    **{f"gridsynth.rz_ms_{q}.b{b}": ("ms", "lower")
       for b in RZ_CURVE_BITS for q in ("p50", "p90")},
    "gridsynth.grid_calls": ("count", "lower"),
    "gridsynth.grid_points": ("count", "lower"),
    "gridsynth.dioph_attempts": ("count", "lower"),
    "gridsynth.dioph_success_ratio": ("ratio", "higher"),
    "gridsynth.T_per_angle": ("count", "lower"),
    "gridsynth.self_s": ("s", "lower"),
    "simulator.simulate_s": ("s", "lower"),
    "simulator.gates_applied": ("count", "lower"),
    "simulator.amp_updates": ("count", "lower"),
    "simulator.ns_per_amp_update": ("ns", "lower"),
    "simulator.marginal_s": ("s", "lower"),
    "simulator.rows_simulated": ("count", "higher"),
    "simulator.rows_analytic": ("count", "lower"),
    "simulator.self_s": ("s", "lower"),
    "cliffordt_compile.compile_s": ("s", "lower"),
    "cliffordt_compile.lower_self_s": ("s", "lower"),
    "cliffordt_compile.rz_requests": ("count", "lower"),
    "cliffordt_compile.rz_memo_hits": ("count", "higher"),
    "cliffordt_compile.compiled_gates": ("count", "lower"),
    "alias_prepare.prepare_s": ("s", "lower"),
    "alias_prepare.lookup_builds": ("count", "lower"),
    "alias_prepare.lookup_build_s": ("s", "lower"),
    "alias_prepare.lookups_kept_ratio": ("ratio", "higher"),
    "alias_prepare.logical_gates": ("count", "lower"),
    "alias_prepare.self_s": ("s", "lower"),
    "rotation_synthesis.synth_s": ("s", "lower"),
    "rotation_synthesis.logical_gates": ("count", "lower"),
    "benchmark_states.make_state_s": ("s", "lower"),
    "circuit_core.count_resources_s": ("s", "lower"),
    "circuit_core.count_resources_calls": ("count", "lower"),
    "cli_bench.glue_s": ("s", "lower"),
    "trace.sweep_s": ("s", "lower"),
    "trace.residual_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# the metric that holds each layer's self time
SELF_TIME = {
    "benchmark_states": "benchmark_states.make_state_s",
    "rotation_synthesis": "rotation_synthesis.synth_s",
    "alias_prepare": "alias_prepare.self_s",
    "cliffordt_compile": "cliffordt_compile.lower_self_s",
    "gridsynth": "gridsynth.self_s",
    "simulator": "simulator.self_s",
    "circuit_core": "circuit_core.count_resources_s",
    "cli_bench": "cli_bench.glue_s",
}

_LOOKUP_BUILDS = ("build_qrom", "build_selectswap")


def _is_pi4_multiple(theta: float) -> bool:
    r = theta / (math.pi / 4)
    return abs(r - round(r)) <= 1e-12


class Tracer:
    """In-memory spans and counters for one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self.layer_of: List[str] = []
        # one [name index, start, end, parent span index or -1] per call
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.rz_ms: Dict[int, List[float]] = defaultdict(list)
        self.rz_t: List[int] = []
        self._restore: List[tuple] = []

    def wrap(self, module, attr: str, layer: str,
             on_result: Optional[Callable] = None) -> None:
        fn = getattr(module, attr)
        idx = len(self.names)
        self.names.append(attr)
        self.layer_of.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [idx, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(rec, args, kwargs, out)
            return out

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "layers": self.layer_of,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, f)

    # -- derived numbers ---------------------------------------------------

    def _durations(self):
        if not self.spans:
            z = np.zeros(0)
            return z, z, np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        arr = np.array(self.spans, dtype=float)
        name = arr[:, 0].astype(int)
        parent = arr[:, 3].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur, dur - child, name, parent

    def metrics(self, sweep_s: float) -> Dict[str, float]:
        dur, self_t, name, parent = self._durations()

        def total(arr, attrs, top_only=False):
            ids = [i for i, a in enumerate(self.names) if a in attrs]
            mask = np.isin(name, ids)
            if top_only:   # skip spans nested in a span of the same set
                mask &= ~np.isin(np.where(parent >= 0, name[parent], -1), ids)
            return float(arr[mask].sum())

        def layer_self(layer):
            ids = [i for i, l in enumerate(self.layer_of) if l == layer]
            return float(self_t[np.isin(name, ids)].sum())

        c = self.counters
        m: Dict[str, float] = {}
        m["gridsynth.rz_s"] = total(dur, {"synthesize_rz_tags"})
        m["gridsynth.rz_calls_approx"] = c["rz_approx"]
        m["gridsynth.rz_calls_exact"] = c["rz_exact"]
        for b in RZ_CURVE_BITS:
            ms = self.rz_ms.get(b, [])
            m[f"gridsynth.rz_ms_p50.b{b}"] = float(np.percentile(ms, 50)) if ms else 0.0
            m[f"gridsynth.rz_ms_p90.b{b}"] = float(np.percentile(ms, 90)) if ms else 0.0
        m["gridsynth.grid_calls"] = c["grid_calls"]
        m["gridsynth.grid_points"] = c["grid_points"]
        m["gridsynth.dioph_attempts"] = c["dioph_attempts"]
        m["gridsynth.dioph_success_ratio"] = (
            c["dioph_ok"] / c["dioph_attempts"] if c["dioph_attempts"] else 0.0)
        m["gridsynth.T_per_angle"] = statistics.fmean(self.rz_t) if self.rz_t else 0.0
        m["gridsynth.self_s"] = layer_self("gridsynth")
        m["simulator.simulate_s"] = total(dur, {"simulate"})
        m["simulator.gates_applied"] = c["gates_applied"]
        m["simulator.amp_updates"] = c["amp_updates"]
        m["simulator.ns_per_amp_update"] = (
            m["simulator.simulate_s"] * 1e9 / c["amp_updates"] if c["amp_updates"] else 0.0)
        m["simulator.marginal_s"] = total(dur, {"address_marginal", "realized_marginal"})
        m["simulator.rows_simulated"] = c["simulate_calls"]
        m["simulator.rows_analytic"] = c["analytic_rows"]
        m["simulator.self_s"] = layer_self("simulator")
        m["cliffordt_compile.compile_s"] = total(dur, {"compile_circuit"})
        m["cliffordt_compile.lower_self_s"] = layer_self("cliffordt_compile")
        m["cliffordt_compile.rz_requests"] = c["rz_requests"]
        m["cliffordt_compile.rz_memo_hits"] = c["rz_requests"] - c["rz_approx"]
        m["cliffordt_compile.compiled_gates"] = c["compiled_gates"]
        m["alias_prepare.prepare_s"] = total(dur, {"prepare_alias_state"})
        m["alias_prepare.lookup_builds"] = c["lookup_builds"]
        m["alias_prepare.lookup_build_s"] = total(dur, set(_LOOKUP_BUILDS), top_only=True)
        m["alias_prepare.lookups_kept_ratio"] = (
            2 * c["sampling_rows"] / c["lookup_builds"] if c["lookup_builds"] else 0.0)
        m["alias_prepare.logical_gates"] = c["alias_logical_gates"]
        m["alias_prepare.self_s"] = layer_self("alias_prepare")
        m["rotation_synthesis.synth_s"] = layer_self("rotation_synthesis")
        m["rotation_synthesis.logical_gates"] = c["rotation_logical_gates"]
        m["benchmark_states.make_state_s"] = layer_self("benchmark_states")
        m["circuit_core.count_resources_s"] = layer_self("circuit_core")
        m["circuit_core.count_resources_calls"] = c["count_resources_calls"]
        m["cli_bench.glue_s"] = layer_self("cli_bench")
        m["trace.sweep_s"] = sweep_s
        m["trace.residual_s"] = sweep_s - sum(m[SELF_TIME[l]] for l in LAYERS)
        return {k: float(v) for k, v in m.items()}


def install(tracer: Tracer, modules: Dict[str, object]) -> None:
    """Wrap every function in PROBES that the given modules define.

    A probe whose attribute is missing is skipped; its counters stay 0.
    """
    c, spans, names = tracer.counters, tracer.spans, tracer.names

    def rotation_synth(rec, args, kwargs, circ):
        c["rotation_logical_gates"] += len(circ.gates)

    def alias(rec, args, kwargs, pipe):
        c["alias_logical_gates"] += len(pipe.circuit.gates)
        c["sampling_rows"] += 1

    def lookup(rec, args, kwargs, circ):
        parent = rec[3]
        if parent < 0 or names[spans[parent][0]] not in _LOOKUP_BUILDS:
            c["lookup_builds"] += 1

    def compiled(rec, args, kwargs, out):
        circ, report = out
        c["rz_requests"] += report.n_rz_synth
        c["compiled_gates"] += len(circ.gates)

    def simulated(rec, args, kwargs, psi):
        circ = args[0]
        c["simulate_calls"] += 1
        c["gates_applied"] += len(circ.gates)
        c["amp_updates"] += len(circ.gates) << circ.n_qubits

    def analytic(rec, args, kwargs, out):
        c["analytic_rows"] += 1

    def rz(rec, args, kwargs, tags):
        theta, eps = args[0], args[1]
        if _is_pi4_multiple(theta):
            c["rz_exact"] += 1
            return
        c["rz_approx"] += 1
        tracer.rz_ms[round(-math.log2(eps))].append((rec[2] - rec[1]) * 1e3)
        tracer.rz_t.append(sum(1 for t in tags if t in ("T", "Tdg")))

    def counted(rec, args, kwargs, out):
        c["count_resources_calls"] += 1

    def grid(rec, args, kwargs, sols):
        c["grid_calls"] += 1
        c["grid_points"] += len(sols)

    def dioph(rec, args, kwargs, t):
        c["dioph_attempts"] += 1
        c["dioph_ok"] += t is not None

    hooks = {
        "synthesize_dense": rotation_synth, "synthesize_sparse": rotation_synth,
        "prepare_alias_state": alias, "build_qrom": lookup,
        "build_selectswap": lookup, "compile_circuit": compiled,
        "simulate": simulated, "realized_marginal": analytic,
        "synthesize_rz_tags": rz, "count_resources": counted,
        "solve_grid_1d": grid, "solve_diophantine": dioph,
    }
    for mod_name, attr, layer in PROBES:
        mod = modules[mod_name]
        if hasattr(mod, attr):
            tracer.wrap(mod, attr, layer, hooks.get(attr))
