"""Command-line front end and sweep harness.

Subcommands: synth (state -> logical circuit file), compile (circuit file
-> Clifford+T file + report), estimate (resource report only), bench
(matched-precision sweep -> CSV), verify (run the acceptance test suite).

One precision parameter b drives both sides of every comparison: rotation
methods synthesize at eps = 2^-b, sampling methods use b-bit alias keep
thresholds.  Rotation rows report 1 - F_state (statevector overlap); sampling
rows report 1 - F_prob of the address marginal, counted exactly by bit planes
over the logical pipeline within the qubit and input bounds (equal bit for bit
to the alias table's analytic realized marginal, which rows over them report).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .alias_prepare import ValidationError, prepare_alias_state, realized_marginal
from .benchmark_states import (
    BenchmarkSpec, DegenerateSurrogateError, ParameterError, ParseError, make_state,
)
from .circuit_core import Circuit, CircuitError, deserialize, serialize
from .cliffordt_compile import CompileError, SynthesisConfig, compile_circuit
from .gridsynth import SynthesisError
from .rotation_synthesis import StateValidationError, TargetState, synthesize_dense, synthesize_sparse
from .simulator import (
    DEFAULT_QUBIT_BUDGET, CapacityError, fidelity_prob, fidelity_state,
    pipeline_histogram, simulate,
)

METHODS = ("dense", "sparse", "qrom", "selectswap")
ROTATION_METHODS = ("dense", "sparse")

CSV_FIELDS = ("family", "n", "seed", "method", "b", "t_proxy", "compiled_T",
              "total_gates", "qubits", "infidelity", "fidelity_kind",
              "synth_time_ms")

FAMILIES = ("w", "dicke", "dense_random", "sparse_uniform", "sparse_random",
            "t_friendly", "thc_toy", "thc_file", "syk", "magnus")

# fixed settings for distribution-loading benchmarks over permutation weights
MAGNUS_B_DEFAULT = (11, 18, 25)
# sampling rows with more Hadamard inputs than this report the analytic
# marginal: each bit plane of the histogram has 2^inputs bits
HISTOGRAM_MAX_INPUTS = 24


@dataclass(frozen=True)
class SweepRow:
    family: str
    n: int
    seed: int
    method: str
    b: int
    t_proxy: int
    compiled_T: int
    total_gates: int
    qubits: int
    infidelity: float            # nan when unavailable (over budget)
    fidelity_kind: str           # "state" | "prob"
    synth_time_ms: float


class UsageError(ValueError):
    """Unknown family/method or malformed flag value."""


def _logical_circuit(state: TargetState, method: str) -> Circuit:
    """The logical circuit of a rotation method, "dense" or "sparse"."""
    return synthesize_dense(state) if method == "dense" else synthesize_sparse(state)


def _build_and_compile(state: TargetState, method: str, cfg: SynthesisConfig):
    """A method's logical circuit (for a sampling method, its alias
    pipeline at b = cfg.b) compiled: (pipeline or None, compiled, report)."""
    if method in ROTATION_METHODS:
        pipe, logical = None, _logical_circuit(state, method)
    else:
        pipe = prepare_alias_state(state.probabilities(), cfg.b, backend=method)
        logical = pipe.circuit
    compiled, rep = compile_circuit(logical, cfg)
    return pipe, compiled, rep


def _rotation_row(state: TargetState, method: str, cfg: SynthesisConfig,
                  budget: int):
    t0 = time.perf_counter()
    _, compiled, rep = _build_and_compile(state, method, cfg)
    ms = (time.perf_counter() - t0) * 1e3
    infid = float("nan")
    if cfg.rz_mode == "gridsynth" and compiled.n_qubits <= budget:
        psi = simulate(compiled, budget=budget)
        extra = compiled.n_qubits - state.n
        target = state.to_vector().astype(complex)
        if extra:
            anc0 = np.zeros(1 << extra)
            anc0[0] = 1.0
            target = np.kron(target, anc0)
        infid = 1.0 - fidelity_state(psi, target)
    return rep, infid, "state", ms


def _sampling_row(state: TargetState, method: str, cfg: SynthesisConfig, budget: int):
    t0 = time.perf_counter()
    pipe, _, rep = _build_and_compile(state, method, cfg)
    ms = (time.perf_counter() - t0) * 1e3
    p = state.probabilities()
    target = np.zeros(pipe.table.L)
    target[:len(p)] = p
    address = pipe.circuit.register("address")
    if pipe.circuit.n_qubits <= budget and len(address) + cfg.b <= HISTOGRAM_MAX_INPUTS:
        counts, total = pipeline_histogram(pipe.circuit, address)
        marg = counts / total
    else:
        marg = np.array([float(x) for x in realized_marginal(pipe.table)])
    infid = 1.0 - fidelity_prob(target, marg)
    return rep, infid, "prob", ms


def run_sweep(spec: BenchmarkSpec, methods: Sequence[str], bs: Sequence[int],
              cfg: Optional[SynthesisConfig] = None,
              budget: int = DEFAULT_QUBIT_BUDGET) -> List[SweepRow]:
    """One row per (method, b), deterministically ordered."""
    if not methods:
        raise UsageError("methods must be nonempty")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    if any(b < 1 for b in bs):
        raise UsageError("every b must be >= 1")
    if budget < 0:
        raise UsageError(f"qubit budget {budget} is negative")
    state = make_state(spec)
    rows: List[SweepRow] = []
    for method in sorted(methods, key=METHODS.index):
        for b in sorted(bs):
            c = replace(cfg or SynthesisConfig(), b=b)
            row = _rotation_row if method in ROTATION_METHODS else _sampling_row
            rep, infid, kind, ms = row(state, method, c, budget)
            rows.append(SweepRow(
                family=spec.family, n=state.n, seed=spec.seed, method=method,
                b=b, t_proxy=rep.t_proxy, compiled_T=rep.compiled_T,
                total_gates=rep.total_gates, qubits=rep.qubits,
                infidelity=infid, fidelity_kind=kind, synth_time_ms=ms))
    return rows


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        d = asdict(r)
        d["infidelity"] = ("nan" if math.isnan(r.infidelity)
                           else repr(float(r.infidelity)))
        d["synth_time_ms"] = f"{r.synth_time_ms:.3f}"
        w.writerow(d)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_b_values(args) -> List[int]:
    if args.b is not None:
        return [args.b]
    if args.b_range:
        try:
            lo, hi = args.b_range.split(":")
            lo, hi = int(lo), int(hi)
        except ValueError as e:
            raise UsageError(f"bad --b-range {args.b_range!r}: want LO:HI") from e
        if lo < 1 or hi < lo:
            raise UsageError("b range must satisfy 1 <= LO <= HI")
        return list(range(lo, hi + 1))
    if args.family == "magnus":
        return list(MAGNUS_B_DEFAULT)
    return list(range(4, 11))


def _spec_from(args) -> BenchmarkSpec:
    if args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    return BenchmarkSpec(family=args.family, n=args.n, k=args.k,
                         seed=args.seed, path=getattr(args, "path", None))


def _cfg_from(args) -> SynthesisConfig:
    cfg = SynthesisConfig(
        toffoli_mode=args.backend_mode,
        rz_mode="cost-model" if args.fallback_cost_model else "gridsynth")
    if args.b is None:                   # bench: run_sweep sets b per row
        return cfg
    if args.b < 1:
        raise UsageError("b must be >= 1")
    return replace(cfg, b=args.b)


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _report_json(rep) -> str:
    d = asdict(rep)
    d["histogram"] = dict(sorted(d["histogram"].items()))
    return json.dumps(d, indent=2) + "\n"


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path", help="coefficient file for family thc_file")


def _add_compile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend-mode", default="gidney_and_measured",
                   choices=("gidney_and_measured", "textbook_7T"),
                   help="Toffoli lowering mode")
    p.add_argument("--fallback-cost-model", action="store_true",
                   help="skip rotation synthesis; charge ceil(3b)+11 T per "
                        "rotation and keep Rz placeholders")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qsprep")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="synthesize one state to a circuit file")
    _add_state_flags(p)
    p.add_argument("--method", required=True, choices=ROTATION_METHODS)
    p.add_argument("--out")

    p = sub.add_parser("compile", help="lower a circuit file to Clifford+T")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--b", type=int, default=10)
    _add_compile_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("estimate", help="resource report without simulation")
    _add_state_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--b", type=int, default=10)
    _add_compile_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="matched-precision sweep to CSV")
    _add_state_flags(p)
    p.add_argument("--method", action="append", dest="methods",
                   help="repeatable; default all four")
    p.add_argument("--b", type=int)
    p.add_argument("--b-range", help="inclusive LO:HI")
    _add_compile_flags(p)
    p.add_argument("--budget-qubits", type=int, default=DEFAULT_QUBIT_BUDGET)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance test suite")
    p.add_argument("-k", dest="select", help="test selection expression")
    return ap


def _cmd_synth(args) -> int:
    state = make_state(_spec_from(args))
    circ = _logical_circuit(state, args.method)
    _write_out(serialize(circ), args.out)
    return 0


def _cmd_compile(args) -> int:
    cfg = _cfg_from(args)
    try:
        with open(args.circuit, encoding="utf-8") as f:
            circ = deserialize(f.read())
    except UnicodeDecodeError as e:
        raise CircuitError(f"circuit file {args.circuit}: not UTF-8 text: {e}") from e
    except CircuitError as e:
        raise CircuitError(f"circuit file {args.circuit}: {e}") from e
    compiled, rep = compile_circuit(circ, cfg)
    _write_out(serialize(compiled), args.out)
    sys.stdout.write(_report_json(rep))
    return 0


def _cmd_estimate(args) -> int:
    state = make_state(_spec_from(args))
    _, _, rep = _build_and_compile(state, args.method, _cfg_from(args))
    _write_out(_report_json(rep), args.out)
    return 0


def _cmd_bench(args) -> int:
    methods = args.methods or list(METHODS)
    bs = _parse_b_values(args)
    rows = run_sweep(_spec_from(args), methods, bs, cfg=_cfg_from(args),
                     budget=args.budget_qubits)
    _write_out(rows_to_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    # the suite ships with the source tree, two levels above the package
    root = Path(__file__).resolve().parents[2]
    suite = root / "tests" / "test_acceptance.py"
    if not suite.is_file():
        raise OSError(f"acceptance suite not found at {suite}; "
                      "verify needs a source checkout")
    cmd = [sys.executable, "-m", "pytest", str(suite), "-v"]
    if args.select:
        cmd += ["-k", args.select]
    rc = subprocess.call(cmd, cwd=root)
    return 0 if rc == 0 else 3


def _innermost_module(e: BaseException) -> str:
    """The qsprep module nearest to where e was raised."""
    name, tb = __name__, e.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("qsprep."):
            name = mod
        tb = tb.tb_next
    return name


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.cmd == "synth":
            return _cmd_synth(args)
        if args.cmd == "compile":
            return _cmd_compile(args)
        if args.cmd == "estimate":
            return _cmd_estimate(args)
        if args.cmd == "bench":
            return _cmd_bench(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        return 2
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (CapacityError, SynthesisError) as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 4
    except MemoryError as e:
        print(f"capacity error: out of memory in {_innermost_module(e)}",
              file=sys.stderr)
        return 4
    except (ValidationError, ParameterError, ParseError, CompileError,
            CircuitError, StateValidationError, DegenerateSurrogateError,
            OSError, UnicodeDecodeError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
