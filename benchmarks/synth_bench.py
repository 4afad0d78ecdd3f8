"""Logical synthesis cost: ms per call of each state-preparation routine.

Times `rotation_synthesis.synthesize_sparse`, `synthesize_dense` and
`alias_prepare.prepare_alias_state` (QROM back end, b = 10) on the paper's
sparse instances and one dense-random one: thc_toy seed 3 (n = 8, 233
support entries), dense_random n=10 seed 1 (512), magnus k=5 (n = 15, 120)
and magnus k=6 (n = 18, 720).  The logical circuit is all they build; no
lowering or Rz synthesis is timed.  A routine whose work grows like the
square of the support shows up on the magnus rows first.

Each routine is called until MIN_SECONDS have passed (at least once) and the
median ms per call is printed.  The alias table is built from
`TargetState.probabilities()`, computed once outside the timed calls.

Run:  PYTHONPATH=src python3 benchmarks/synth_bench.py
"""
import statistics
import time

from qsprep.alias_prepare import prepare_alias_state
from qsprep.benchmark_states import BenchmarkSpec, make_state
from qsprep.rotation_synthesis import TargetState, synthesize_dense, synthesize_sparse

ALIAS_B = 10
MIN_SECONDS = 1.0
# smallest first: the smoke test runs CASES[0]
CASES = (
    ("thc_toy seed 3", BenchmarkSpec("thc_toy", seed=3)),
    ("dense_random n=10 seed 1", BenchmarkSpec("dense_random", n=10, seed=1)),
    ("magnus k=5", BenchmarkSpec("magnus", k=5)),
    ("magnus k=6", BenchmarkSpec("magnus", k=6)),
)
ROUTINES = ("sparse", "dense", f"alias b={ALIAS_B}")


def ms_per_call(call, min_seconds: float) -> float:
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def time_case(state: TargetState, min_seconds: float = MIN_SECONDS) -> dict:
    """Median ms per call of each of ROUTINES on `state`."""
    p = state.probabilities()
    calls = (lambda: synthesize_sparse(state), lambda: synthesize_dense(state),
             lambda: prepare_alias_state(p, ALIAS_B))
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
