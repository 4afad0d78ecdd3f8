"""Rz synthesis cost as precision grows: median ms per angle at b = 10..150.

Synthesizes fixed seeded angles at eps = 2^-b and prints, per b, the
median and worst wall time per angle, the mean T-count and the mean gate
count of the words, and a digest of the words: the first 8 hex digits of
the sha256 of all of them joined, so two commits that print the same
digest at a b gave the same words there.  The 2D grid solver keeps the
time roughly flat in b; a solver whose work grows like 2^(b/2) shows up
here first.

It also prints the median ms per angle spent inside four phases of the
synthesis, timed by wrapping them: the per-angle region set-up
(`gridsynth._EpsRegion.__init__`, which finds the grid operator), candidate
enumeration (`_EpsRegion.candidates`, every k), `gridsynth.solve_diophantine`
and `gridsynth.exact_synthesize`.  Together they account for the time per
angle; the rest is the octant reduction and the loop over k.

Run:  PYTHONPATH=src python3 benchmarks/rz_bench.py
"""
import hashlib
import math
import random
import statistics
import time

from qsprep import gridsynth
from qsprep.gridsynth import synthesize_rz_tags

N_ANGLES = 20
B_VALUES = (10, 20, 30, 40, 60, 100, 150)
SEED = 12345
# phase name -> (owner, attribute) of the function it times
PHASES = {
    "setup": (gridsynth._EpsRegion, "__init__"),
    "candidates": (gridsynth._EpsRegion, "candidates"),
    "dioph": (gridsynth, "solve_diophantine"),
    "exact": (gridsynth, "exact_synthesize"),
}


def time_phases() -> dict:
    """Wrap each phase so it adds its wall time to the returned dict."""
    spent = dict.fromkeys(PHASES, 0.0)
    for name, (owner, attr) in PHASES.items():
        fn = getattr(owner, attr)

        def timed(*args, _fn=fn, _name=name, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent[_name] += time.perf_counter() - t0

        setattr(owner, attr, timed)
    return spent


def bench(b: int, angles, spent: dict) -> dict:
    times, tcounts, lengths, words = [], [], [], []
    phase_times = {name: [] for name in PHASES}
    for theta in angles:
        for name in PHASES:
            spent[name] = 0.0
        t0 = time.perf_counter()
        tags = synthesize_rz_tags(theta, 2.0 ** -b)
        times.append(time.perf_counter() - t0)
        tcounts.append(sum(1 for t in tags if t in ("T", "Tdg")))
        lengths.append(len(tags))
        words.append(" ".join(tags))
        for name in PHASES:
            phase_times[name].append(spent[name])
    out = {"b": b, "median_ms": statistics.median(times) * 1e3,
           "max_ms": max(times) * 1e3, "mean_T": statistics.fmean(tcounts),
           "mean_gates": statistics.fmean(lengths),
           "digest": hashlib.sha256("\n".join(words).encode()).hexdigest()[:8]}
    for name in PHASES:
        out[name] = statistics.median(phase_times[name]) * 1e3
    return out


def main() -> None:
    spent = time_phases()
    rng = random.Random(SEED)
    angles = [rng.uniform(-math.pi, math.pi) for _ in range(N_ANGLES)]
    print(f"{'b':>3} {'median ms/angle':>16} {'max ms':>9} {'mean T':>7} {'mean gates':>10}"
          + "".join(f" {name + ' ms':>13}" for name in PHASES)
          + f" {'words':>8}  ({N_ANGLES} angles)")
    for b in B_VALUES:
        r = bench(b, angles, spent)
        print(f"{r['b']:>3} {r['median_ms']:>16.1f} {r['max_ms']:>9.1f} {r['mean_T']:>7.1f}"
              f" {r['mean_gates']:>10.1f}"
              + "".join(f" {r[name]:>13.2f}" for name in PHASES) + f" {r['digest']:>8}")


if __name__ == "__main__":
    main()
