"""Statevector simulation cost: microseconds per gate, by tag and qubit count,
and milliseconds per `simulate` call on compiled circuits.

For every gate tag and n = 6, 10, 14, 18, simulates a fixed seeded circuit
of that one tag on random operands and prints the best-of-REPEATS wall time
per gate.  A kernel whose per-gate cost has a large fixed part shows up at
small n; one that touches more amplitudes than the gate changes shows up at
large n.  The multi-controlled Ry uses CONTROLS controls.
Single-tag circuits on random operands rarely fill a fusion group, so they
mostly time the gate-by-gate path.

The second table times whole circuits whose simulation the benchmark and the
tests pay for: the rotation_sim circuit (thc_toy seed 3, sparse, b = 4, 14
qubits), dense_random n=6 seed 1 at b = 12, and a 20-qubit alias pipeline
(dense_random n=3 seed 1, qrom, b = 3).  Next to the time it prints how many
fused groups one call applies as a dense pass and how many distinct ones it
builds a unitary for; a compiled circuit repeats interned lowered blocks, so
most of its groups are the same gate objects again.  Last, it prints the
dense passes by their active qubit count (`2:1092` is 1,092 passes that
multiply by 2x2-qubit blocks): a unitary that is block-diagonal on some of its
qubits is applied as its diagonal blocks on the others.

Run:  PYTHONPATH=src python3 benchmarks/sim_bench.py
"""
import math
import random
import time
from collections import Counter
from typing import Dict, Tuple

import numpy as np

from qsprep import simulator
from qsprep.alias_prepare import prepare_alias_state
from qsprep.benchmark_states import BenchmarkSpec, make_state
from qsprep.circuit_core import TAGS, Circuit, Gate
from qsprep.cliffordt_compile import SynthesisConfig, compile_circuit
from qsprep.rotation_synthesis import synthesize_dense, synthesize_sparse
from qsprep.simulator import simulate

N_VALUES = (6, 10, 14, 18)
GATES = {6: 4000, 10: 2000, 14: 400, 18: 40}     # gates per timed circuit
REPEATS = 3
CONTROLS = 3
SEED = 12345
_ARITY = {"CNOT": 2, "Swap": 2, "Toffoli": 3, "ControlledSwap": 3, "ANDU": 3}


def random_gate(tag: str, n: int, rng: random.Random) -> Gate:
    angle = rng.uniform(-math.pi, math.pi)
    if tag == "MultiControlledRy":
        qs = tuple(rng.sample(range(n), CONTROLS + 1))
        mask = tuple(rng.randrange(2) for _ in range(CONTROLS))
        return Gate(tag, qs, angle=angle, mask=mask)
    qs = tuple(rng.sample(range(n), _ARITY.get(tag, 1)))
    return Gate(tag, qs, angle=angle if tag in ("Rz", "Ry") else None)


def us_per_gate(tag: str, n: int) -> float:
    rng = random.Random(f"{SEED}-{tag}-{n}")
    circ = Circuit(n, [random_gate(tag, n, rng) for _ in range(GATES[n])])
    nrng = np.random.default_rng(SEED)
    psi0 = nrng.normal(size=1 << n) + 1j * nrng.normal(size=1 << n)
    psi0 /= np.linalg.norm(psi0)
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        simulate(circ, initial=psi0)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6 / len(circ.gates)


def compiled_circuits():
    """(label, circuit) of each compiled-circuit row."""
    thc = make_state(BenchmarkSpec("thc_toy", seed=3))
    dense = make_state(BenchmarkSpec("dense_random", n=6, seed=1))
    alias = make_state(BenchmarkSpec("dense_random", n=3, seed=1)).probabilities()
    return [
        ("rotation_sim thc_toy sparse b=4",
         compile_circuit(synthesize_sparse(thc), SynthesisConfig(b=4))[0]),
        ("dense_random n=6 dense b=12",
         compile_circuit(synthesize_dense(dense), SynthesisConfig(b=12))[0]),
        ("alias n=3 qrom b=3", prepare_alias_state(alias, 3, backend="qrom").circuit),
    ]


def ms_per_call(circ: Circuit) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        simulate(circ)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def group_counts(circ: Circuit) -> Tuple[int, int, Dict[int, int]]:
    """(fused, built, active): the groups one `simulate` call applies as a
    dense pass, the calls it makes to `_group_unitary`, one per distinct
    group, and its dense passes by active qubit count."""
    real_build, real_pass = simulator._group_unitary, simulator._apply_blocks
    built, active = 0, Counter()

    def counting_build(group, qs):
        nonlocal built
        built += 1
        return real_build(group, qs)

    def counting_pass(v, axes, blocks, scratch=None):
        active[blocks.shape[-1].bit_length() - 1] += 1
        return real_pass(v, axes, blocks, scratch)

    simulator._group_unitary, simulator._apply_blocks = counting_build, counting_pass
    try:
        simulate(circ)
    finally:
        simulator._group_unitary, simulator._apply_blocks = real_build, real_pass
    fused = len(simulator._fusion_plan(circ.gates, 1 << circ.n_qubits))
    return fused, built, dict(sorted(active.items()))


def main() -> None:
    print(f"{'tag':<22}" + "".join(f"{'n=' + str(n):>10}" for n in N_VALUES)
          + f"   (us per gate, best of {REPEATS})")
    for tag in TAGS:
        cells = "".join(f"{us_per_gate(tag, n):>10.1f}" for n in N_VALUES)
        print(f"{tag:<22}{cells}")
    print(f"\n{'compiled circuit':<34}{'qubits':>7}{'gates':>8}{'fused':>7}{'built':>7}"
          f"{'ms':>10}   active:passes   (ms per simulate call, best of {REPEATS})")
    for label, circ in compiled_circuits():
        fused, built, active = group_counts(circ)
        passes = " ".join(f"{a}:{count}" for a, count in active.items())
        print(f"{label:<34}{circ.n_qubits:>7}{len(circ.gates):>8}{fused:>7}{built:>7}"
              f"{ms_per_call(circ):>10.1f}   {passes}")


if __name__ == "__main__":
    main()
