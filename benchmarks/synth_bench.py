"""Logical synthesis and lowering cost: ms per call of each routine.

Times `rotation_synthesis.synthesize_sparse`, `synthesize_dense` and
`alias_prepare.prepare_alias_state` (QROM back end, b = 10) on the paper's
sparse instances and one dense-random one: thc_toy seed 3 (n = 8, 233
support entries), dense_random n=10 seed 1 (512), magnus k=5 (n = 15, 120)
and magnus k=6 (n = 18, 720).  A routine whose work grows like the square
of the support shows up on the magnus rows first.

The "lower" columns time `cliffordt_compile.compile_circuit` at b = 10 on
the sparse and the alias circuit.  One untimed call first fills the memo
of Rz words, so they time the lowering, not Rz synthesis.  The dense
circuit is left out to keep the run short: on magnus k=6 it has 786 k
logical gates, and one warm lowering of it takes about 2 s.

The alias pipeline is timed twice.  prepare_alias_state keeps the Vose
pass of the last distribution it saw, so "alias warm" (every call after the
first on one distribution, as in a sweep over b) times the b-dependent part
only, and "alias cold" clears that cache before each call and times the
whole build, Vose pass included.

Each routine is called until MIN_SECONDS have passed (at least once) and the
median ms per call is printed.  The alias table is built from
`TargetState.probabilities()`, computed once outside the timed calls.

Run:  PYTHONPATH=src python3 benchmarks/synth_bench.py
"""
import statistics
import time

from qsprep import alias_prepare
from qsprep.alias_prepare import prepare_alias_state
from qsprep.benchmark_states import BenchmarkSpec, make_state
from qsprep.cliffordt_compile import SynthesisConfig, compile_circuit
from qsprep.rotation_synthesis import TargetState, synthesize_dense, synthesize_sparse

B = 10                 # alias table and lowering precision bits
MIN_SECONDS = 1.0
# smallest first: the smoke test runs CASES[0]
CASES = (
    ("thc_toy seed 3", BenchmarkSpec("thc_toy", seed=3)),
    ("dense_random n=10 seed 1", BenchmarkSpec("dense_random", n=10, seed=1)),
    ("magnus k=5", BenchmarkSpec("magnus", k=5)),
    ("magnus k=6", BenchmarkSpec("magnus", k=6)),
)
ROUTINES = ("sparse", "dense", "alias cold", "alias warm", "lower sparse", "lower alias")


def ms_per_call(call, min_seconds: float) -> float:
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def alias_cold(p) -> None:
    """prepare_alias_state(p, B) with the cached Vose pass dropped first."""
    alias_prepare._vose.cache_clear()
    prepare_alias_state(p, B)


def time_case(state: TargetState, min_seconds: float = MIN_SECONDS) -> dict:
    """Median ms per call of each of ROUTINES on `state`."""
    p = state.probabilities()
    cfg = SynthesisConfig(b=B)
    sparse, alias = synthesize_sparse(state), prepare_alias_state(p, B).circuit
    for circuit in (sparse, alias):
        compile_circuit(circuit, cfg)          # untimed: fills the Rz word memo
    calls = (lambda: synthesize_sparse(state), lambda: synthesize_dense(state),
             lambda: alias_cold(p), lambda: prepare_alias_state(p, B),
             lambda: compile_circuit(sparse, cfg), lambda: compile_circuit(alias, cfg))
    return {name: ms_per_call(call, min_seconds) for name, call in zip(ROUTINES, calls)}


def main() -> None:
    print(f"{'instance':<26}{'n':>4}{'S':>6}" + "".join(f"{name:>13}" for name in ROUTINES)
          + f"   (median ms per call, >= {MIN_SECONDS:g} s each)")
    for label, spec in CASES:
        state = make_state(spec)
        row = time_case(state)
        print(f"{label:<26}{state.n:>4}{len(state.amplitudes):>6}"
              + "".join(f"{row[name]:>13.2f}" for name in ROUTINES))


if __name__ == "__main__":
    main()
