"""Rz synthesis cost as precision grows: median ms per angle at b = 4..150.

Synthesizes fixed seeded angles at eps = 2^-b and prints, per b, the
median and worst wall time per angle, the mean T-count and the mean gate
count of the words, and a digest of the words: the first 8 hex digits of
the sha256 of all of them joined, so two commits that print the same
digest at a b gave the same words there.  The 2D grid solver keeps the
time roughly flat in b; a solver whose work grows like 2^(b/2) shows up
here first.

It also prints the median ms per angle spent inside six phases of the
synthesis, timed by wrapping them: the octant reduction
(`gridsynth._octant`), the per-angle region set-up
(`gridsynth._EpsRegion.__init__`, which finds the grid operator), cos phi0,
sin phi0 within it (`gridsynth._cos_sin`), candidate enumeration
(`_EpsRegion.candidates`, every k), `gridsynth.solve_diophantine` and
`gridsynth.exact_synthesize`.  Apart from cos_sin, which the set-up
includes, they account for the time per angle; the rest is the loop over k.

`--vs-mpmath` times the octant reduction and cos phi0, sin phi0 alone, in
microseconds per angle at b = 4..1000, against the mpmath set-up they
replaced (`tests/reference_trig.py`; needs mpmath), and checks that both
give the same octant, snap decision and fixed-point cos and sin.

Run:  PYTHONPATH=src python3 benchmarks/rz_bench.py [--vs-mpmath]
"""
import argparse
import hashlib
import math
import random
import statistics
import sys
import time
from pathlib import Path

from qsprep import gridsynth
from qsprep.gridsynth import synthesize_rz_tags

N_ANGLES = 20
B_VALUES = (4, 10, 20, 30, 40, 60, 100, 150)
TRIG_ANGLES = 200
TRIG_B_VALUES = (4, 14, 40, 100, 150, 300, 500, 1000)
SEED = 12345
TESTS = Path(__file__).resolve().parents[1] / "tests"
# phase name -> (owner, attribute) of the function it times
PHASES = {
    "octant": (gridsynth, "_octant"),
    "setup": (gridsynth._EpsRegion, "__init__"),
    "cos_sin": (gridsynth, "_cos_sin"),
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


def integer_setup(theta: float, eps: float):
    """(octant, snapped, (cos phi0, sin phi0) or None) as synthesize_rz_tags
    and the region set-up compute them."""
    prec = gridsynth._working_bits(eps)
    mth, theta_p = gridsynth._octant(theta, prec + 64)
    if abs(theta_p) <= min(1e-12, 2 * eps):
        return mth, True, None
    return mth, False, gridsynth._cos_sin(-theta_p / 2, prec)


def vs_mpmath(b: int, angles, rounds: int = 3) -> dict:
    """Best-of-rounds microseconds per angle of the integer set-up and of
    the mpmath one, run alternately, and whether every result agreed."""
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    import reference_trig

    eps = 2.0 ** -b
    fns = {"int": integer_setup, "mpmath": reference_trig.octant_and_trig}
    best, outs = dict.fromkeys(fns, math.inf), {}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            outs[name] = [fn(theta, eps) for theta in angles]
            best[name] = min(best[name], (time.perf_counter() - t0) / len(angles) * 1e6)
    return {"b": b, "int_us": best["int"], "mpmath_us": best["mpmath"],
            "same": outs["int"] == outs["mpmath"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vs-mpmath", action="store_true",
                    help="time the integer octant and cos/sin against mpmath")
    rng = random.Random(SEED)
    if ap.parse_args().vs_mpmath:
        angles = [rng.uniform(-math.pi, math.pi) for _ in range(TRIG_ANGLES)]
        print(f"{'b':>4} {'integer us':>11} {'mpmath us':>10} {'ratio':>6} same  "
              f"({TRIG_ANGLES} angles, best of 3)")
        for b in TRIG_B_VALUES:
            r = vs_mpmath(b, angles)
            print(f"{b:>4} {r['int_us']:>11.1f} {r['mpmath_us']:>10.1f}"
                  f" {r['int_us'] / r['mpmath_us']:>6.2f} {r['same']}")
        return
    spent = time_phases()
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
