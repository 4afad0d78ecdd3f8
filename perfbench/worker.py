"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --mode {timed,check,traced} --sweeps JSON
                                [--trace-out FILE]

Prints one JSON object on its last stdout line: the CSV rows (without
the timing column), the wall time of the sweeps, the machine-speed probe
times taken before, between and after the sweeps, and peak RSS.

- timed:  nothing is wrapped; the sweep time is an end-to-end sample.
- check:  outputs are captured at the public functions `cli_bench`
          calls and verified by perfbench/check.py after each call
          returns; the time is not used.
- traced: perfbench/tracer.py wraps every layer's public functions and
          the per-layer metrics are returned.

qsprep must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402  (perfbench/check.py)
import probe  # noqa: E402
import tracer as tracing  # noqa: E402

# Largest compiled circuit the reference statevector runs (2^22 amplitudes).
REFERENCE_QUBITS = 22


def row_record(row) -> dict:
    """A sweep row as compared across repetitions: every CSV column but
    the timing one, with the infidelity as its exact repr."""
    d = asdict(row)
    d.pop("synth_time_ms")
    d["infidelity"] = repr(float(d["infidelity"]))
    return d


class Checker:
    """Captures what `run_sweep` computes and checks it against check.py.

    Rows are numbered in the order `compile_circuit` is called, which is
    the order `run_sweep` emits them.
    """

    def __init__(self, qs):
        self.qs = qs
        self.row = -1
        self.budget = 0
        self.state = None
        self.sampling: Dict[int, tuple] = {}      # row -> (counts, total, probs)
        self.facts: Dict[int, dict] = {}
        self.failures: Dict[int, List[str]] = defaultdict(list)
        self.rz_checked = 0
        self._restore: List[tuple] = []

    def _wrap(self, module, attr, after):
        fn = getattr(module, attr)

        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, kwargs, out)
            return out

        setattr(module, attr, captured)
        self._restore.append((module, attr, fn))

    def install(self) -> None:
        cb, cc = self.qs["cli_bench"], self.qs["cliffordt_compile"]
        self._wrap(cb, "make_state", self._on_state)
        self._wrap(cb, "prepare_alias_state", self._on_pipeline)
        self._wrap(cb, "compile_circuit", self._on_compiled)
        if hasattr(cc, "synthesize_rz_tags"):
            self._wrap(cc, "synthesize_rz_tags", self._on_rz)

    def _fail(self, row: int, msg: str) -> None:
        self.failures[row].append(msg)

    def _on_state(self, args, kwargs, state):
        self.state = state

    def _on_pipeline(self, args, kwargs, pipe):
        row = self.row + 1
        b = args[1] if len(args) > 1 else kwargs["b"]
        probs = list(args[0])
        address = list(pipe.circuit.register("address"))
        try:
            counts, total = check.pipeline_histogram(pipe.circuit, address)
            check.check_histogram_exact(
                counts, total, self.qs["alias_prepare"].realized_marginal(pipe.table))
            check.check_within_target(counts, total, probs, b)
        except check.CheckError as e:
            self._fail(row, f"alias pipeline: {e}")
            return
        self.sampling[row] = (counts, total, probs)

    def _on_compiled(self, args, kwargs, out):
        self.row += 1
        row = self.row
        compiled, report = out
        facts = check.circuit_counts(compiled)
        facts["n_rz"] = report.n_rz_synth
        facts["b"] = (args[1] if len(args) > 1 else kwargs["cfg"]).b
        self.facts[row] = facts
        if compiled.n_qubits > REFERENCE_QUBITS:
            return
        try:
            if row in self.sampling:
                if compiled.n_qubits <= self.budget:
                    self._check_compiled_sampling(row, compiled)
            else:
                psi = check.statevector(compiled)
                facts["infidelity"] = check.state_infidelity(
                    psi, self.state.amplitudes, self.state.n)
        except check.CheckError as e:
            self._fail(row, f"compiled circuit: {e}")

    def _check_compiled_sampling(self, row, compiled):
        # the Clifford+T lowering (AND gadgets included) must give the same
        # address distribution as the logical pipeline
        counts, total, _ = self.sampling[row]
        psi = check.statevector(compiled)
        dist = check.address_distribution(psi, list(compiled.register("address")))
        err = float(abs(dist - counts / total).max())
        if err > 1e-9:
            raise check.CheckError(f"compiled address distribution differs by {err:.3e}")

    def _on_rz(self, args, kwargs, tags):
        theta, eps = args[0], args[1]
        self.rz_checked += 1
        try:
            check.check_rz_word(theta, 0.0 if eps >= 1 else eps, tags)
        except check.CheckError as e:
            self._fail(self.row + 1, f"Rz word: {e}")

    def finish(self, rows) -> None:
        """Checks that need the row as `run_sweep` reported it."""
        if len(self.facts) != len(rows):
            for i in range(len(rows)):
                self._fail(i, f"{len(self.facts)} compile calls for {len(rows)} rows")
            return
        for i, r in enumerate(rows):
            facts = self.facts[i]
            for col in ("compiled_T", "t_proxy", "total_gates", "qubits"):
                if getattr(r, col) != facts[col]:
                    self._fail(i, f"{col} = {getattr(r, col)}, circuit has {facts[col]}")
            if i in self.sampling:
                counts, total, probs = self.sampling[i]
                target = list(probs) + [0.0] * (len(counts) - len(probs))
                ref = check.prob_infidelity(target, counts / total)
                if not abs(r.infidelity - ref) <= 1e-9:
                    self._fail(i, f"infidelity {r.infidelity!r}, reference {ref!r}")
            elif r.fidelity_kind == "state":
                # operator errors add up, so 1-F <= (n_rz * 2^-b)^2
                bound = min(1.0, (facts["n_rz"] * 2.0 ** -facts["b"]) ** 2) + 1e-12
                ref = facts.get("infidelity", r.infidelity)
                if not abs(r.infidelity - ref) <= 1e-9:
                    self._fail(i, f"infidelity {r.infidelity!r}, reference {ref!r}")
                elif not ref <= bound:
                    self._fail(i, f"1-F = {ref!r} above (n_rz 2^-b)^2 = {bound:.3e}")
            else:
                self._fail(i, f"sampling row {i} has no checked pipeline")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def load_qsprep() -> Dict[str, object]:
    import qsprep.alias_prepare
    import qsprep.benchmark_states
    import qsprep.cli_bench
    import qsprep.cliffordt_compile
    import qsprep.gridsynth
    return {"alias_prepare": qsprep.alias_prepare,
            "benchmark_states": qsprep.benchmark_states,
            "cli_bench": qsprep.cli_bench,
            "cliffordt_compile": qsprep.cliffordt_compile,
            "gridsynth": qsprep.gridsynth}


def run_rep(sweeps: List[dict], mode: str, trace_out: str = "",
            qs: Dict[str, object] = None) -> dict:
    """Run the sweeps once and return the repetition's result record."""
    qs = qs or load_qsprep()
    spec_cls = qs["benchmark_states"].BenchmarkSpec
    specs = [spec_cls(family=sw["family"], n=sw["n"], seed=sw["seed"])
             for sw in sweeps]
    checker = tracer = None
    if mode == "check":
        checker = Checker(qs)
        checker.install()
    elif mode == "traced":
        tracer = tracing.Tracer(os.path.basename(trace_out) or "traced")
        tracing.install(tracer, qs)
    rows = []
    sweep_s = 0.0
    probes = [probe.probe()]
    try:
        for spec, sw in zip(specs, sweeps):
            if checker is not None:
                checker.budget = sw["budget"]
            t0 = time.perf_counter()
            rows += qs["cli_bench"].run_sweep(spec, sw["methods"], sw["bs"],
                                              budget=sw["budget"])
            sweep_s += time.perf_counter() - t0
            probes.append(probe.probe())
    finally:
        if checker is not None:
            checker.uninstall()
        if tracer is not None:
            tracer.uninstall()
    out = {"mode": mode, "rows": [row_record(r) for r in rows],
           "sweep_s": sweep_s, "probe_s": probes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if checker is not None:
        checker.finish(rows)
        out["failures"] = {str(k): v for k, v in checker.failures.items()}
        out["rz_words_checked"] = checker.rz_checked
    if tracer is not None:
        out["layers"] = tracer.metrics(sweep_s)
        if trace_out:
            tracer.dump(trace_out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("timed", "check", "traced"), required=True)
    ap.add_argument("--sweeps", required=True, help="JSON list of run_sweep arguments")
    ap.add_argument("--trace-out", default="", help="file for the traced spans")
    args = ap.parse_args(argv)
    result = run_rep(json.loads(args.sweeps), args.mode, args.trace_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
