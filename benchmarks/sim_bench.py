"""Statevector simulation cost: microseconds per gate, by tag and qubit count.

For every gate tag and n = 6, 10, 14, 18, simulates a fixed seeded circuit
of that one tag on random operands and prints the best-of-REPEATS wall time
per gate.  A kernel whose per-gate cost has a large fixed part shows up at
small n; one that touches more amplitudes than the gate changes shows up at
large n.  The multi- and uniformly controlled Ry use CONTROLS controls.

Run:  PYTHONPATH=src python3 benchmarks/sim_bench.py
"""
import math
import random
import time

import numpy as np

from qsprep.circuit_core import TAGS, Circuit, Gate
from qsprep.simulator import simulate

N_VALUES = (6, 10, 14, 18)
GATES = {6: 4000, 10: 2000, 14: 400, 18: 40}     # gates per timed circuit
REPEATS = 3
CONTROLS = 3
SEED = 12345
_ARITY = {"CNOT": 2, "Swap": 2, "Toffoli": 3, "ControlledSwap": 3, "ANDU": 3}


def random_gate(tag: str, n: int, rng: random.Random) -> Gate:
    angle = rng.uniform(-math.pi, math.pi)
    if tag in ("MultiControlledRy", "UniformlyControlledRy"):
        qs = tuple(rng.sample(range(n), CONTROLS + 1))
        if tag == "MultiControlledRy":
            mask = tuple(rng.randrange(2) for _ in range(CONTROLS))
            return Gate(tag, qs, angle=angle, mask=mask)
        angles = tuple(rng.uniform(-math.pi, math.pi) for _ in range(1 << CONTROLS))
        return Gate(tag, qs, angles=angles)
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


def main() -> None:
    print(f"{'tag':<22}" + "".join(f"{'n=' + str(n):>10}" for n in N_VALUES)
          + f"   (us per gate, best of {REPEATS})")
    for tag in TAGS:
        cells = "".join(f"{us_per_gate(tag, n):>10.1f}" for n in N_VALUES)
        print(f"{tag:<22}{cells}")


if __name__ == "__main__":
    main()
