"""Rz synthesis cost as precision grows: median ms per angle at b = 10..40.

Synthesizes fixed seeded angles at eps = 2^-b and prints, per b, the
median and worst wall time per angle and the mean T-count.  The 2D grid
solver keeps the time roughly flat in b; a solver whose work grows like
2^(b/2) shows up here first.

Run:  PYTHONPATH=src python3 benchmarks/rz_bench.py
"""
import math
import random
import statistics
import time

from qsprep.gridsynth import synthesize_rz_tags

N_ANGLES = 20
B_VALUES = (10, 20, 30, 40)
SEED = 12345


def bench(b: int, angles) -> dict:
    times, tcounts = [], []
    for theta in angles:
        t0 = time.perf_counter()
        tags = synthesize_rz_tags(theta, 2.0 ** -b)
        times.append(time.perf_counter() - t0)
        tcounts.append(sum(1 for t in tags if t in ("T", "Tdg")))
    return {"b": b, "median_ms": statistics.median(times) * 1e3,
            "max_ms": max(times) * 1e3, "mean_T": statistics.fmean(tcounts)}


def main() -> None:
    rng = random.Random(SEED)
    angles = [rng.uniform(-math.pi, math.pi) for _ in range(N_ANGLES)]
    print(f"{'b':>3} {'median ms/angle':>16} {'max ms':>9} {'mean T':>7}  ({N_ANGLES} angles)")
    for b in B_VALUES:
        r = bench(b, angles)
        print(f"{r['b']:>3} {r['median_ms']:>16.1f} {r['max_ms']:>9.1f} {r['mean_T']:>7.1f}")


if __name__ == "__main__":
    main()
