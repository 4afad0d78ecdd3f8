"""qsprep benchmark: timed or traced `qsprep bench` sweeps, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a qsprep checkout; the program is imported from its
src/ directory.  Every repetition runs in a fresh interpreter, one at a
time, with BLAS pinned to one thread.  Times are scaled to a reference
machine speed by the probe in perfbench/probe.py (see README.md).

--trace 0: set-up time (fresh interpreter to `import qsprep` done, median
    of several), one check repetition whose outputs are verified by
    perfbench/check.py, then unwrapped timed repetitions for --seconds;
    prints the end-to-end metrics.
--trace 1: the check repetition, then traced and untraced repetitions
    alternating for --seconds; prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Attempted counts the sweep rows of every repetition;
a row fails when it raised, failed a reference check, or differs from the
check repetition in any CSV column but synth_time_ms.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402  (perfbench/probe.py)
import tracer as tracing  # noqa: E402  (perfbench/tracer.py)
from workloads import WORKLOADS, expected_rows, sweeps_for  # noqa: E402

# name -> unit; all lower-is-better (see BENCHMARK.json for the bounds)
END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "compiled_T_total": "count",
    "total_gates_total": "count",
    "qubits_total": "count",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 5
MIN_TIMED_REPS = 2
MAX_REPS = 40
BLAS_THREADS = 1
TRACE_DIR = ROOT / ".perfbench_out"
# every run must end within 180 s; leave room for reporting
DEADLINE_S = 165.0


class Run:
    """State of one benchmark run: its deadline, child env and row tally."""

    def __init__(self, workload: str, sweeps: List[dict], seconds: float):
        self.workload = workload
        self.sweeps = sweeps
        self.seconds = seconds
        self.start = time.monotonic()
        self.n_rows = expected_rows(sweeps)
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.reference: Optional[List[dict]] = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def _spawn(self, cmd: List[str]) -> Tuple[int, str, str, float]:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                err += "\n(killed at the run deadline)"
            except BaseException:   # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
        return proc.returncode, out, err, time.perf_counter() - t0

    def setup_seconds(self) -> Tuple[float, float]:
        """Median time from a fresh interpreter to `import qsprep` done:
        probe-scaled and raw.  Each sample is scaled by the probes taken
        just before and after it."""
        cmd = [sys.executable, "-c", "import qsprep"]
        walls, probes = [], []
        for i in range(SETUP_SAMPLES + 1):     # the first one warms the file cache
            rc, _, err, wall = self._spawn(cmd)
            if rc != 0:
                raise RuntimeError(f"import qsprep failed:\n{err.strip()}")
            probes.append(probe.probe())
            if i:
                walls.append(wall)
        scaled = [w * probe.scale(probes[j:j + 2]) for j, w in enumerate(walls)]
        return statistics.median(scaled), statistics.median(walls)

    def rep(self, mode: str, trace_out: str = "") -> Optional[dict]:
        """One repetition in a fresh interpreter; tallies its rows."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--sweeps", json.dumps(self.sweeps)]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        rc, out, err, _ = self._spawn(cmd)
        self.attempted += self.n_rows
        result = None
        if rc == 0 and out.strip():
            result = json.loads(out.strip().splitlines()[-1])
        if result is None or len(result["rows"]) != self.n_rows:
            self.failed += self.n_rows
            tail = err.strip().splitlines()[-3:]
            self.reasons.append(f"{mode} repetition failed (exit {rc}): " + " | ".join(tail))
            return None
        bad = {int(k): v for k, v in result.get("failures", {}).items()}
        if self.reference is None:
            self.reference = result["rows"]
        for i, row in enumerate(result["rows"]):
            if row != self.reference[i]:
                bad.setdefault(i, []).append(
                    f"{mode} row differs from the check repetition: {row}")
        self.failed += len(bad)
        for i, msgs in sorted(bad.items()):
            self.reasons.append(f"row {i}: " + "; ".join(msgs))
        return result

    def repeat(self, modes: Tuple[str, ...], min_rounds: int) -> Dict[str, List[dict]]:
        """Repeat rounds of `modes` for `seconds`; at least `min_rounds`."""
        done: Dict[str, List[dict]] = {m: [] for m in modes}
        walls: List[float] = []
        t0 = time.monotonic()
        for k in range(MAX_REPS):
            est = statistics.median(walls) if walls else 0.0
            spent = time.monotonic() - t0
            if k >= min_rounds and spent + est > self.seconds:
                break
            if est * 1.2 > self.remaining():
                break
            r0 = time.monotonic()
            for m in modes:
                trace_out = ""
                if m == "traced":
                    TRACE_DIR.mkdir(exist_ok=True)
                    trace_out = str(TRACE_DIR / f"{self.workload}-{k}.json")
                res = self.rep(m, trace_out)
                if res is not None:
                    done[m].append(res)
            walls.append(time.monotonic() - r0)
        return done


def scaled_sweep(rep: dict) -> float:
    """A repetition's sweep time, scaled by the probes taken around it."""
    return rep["sweep_s"] * probe.scale(rep["probe_s"])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize_trace(layers: Dict[str, float]) -> List[str]:
    lines = ["layer self time (traced):"]
    total = layers["trace.sweep_s"]
    shares = {l: layers[tracing.SELF_TIME[l]] for l in tracing.LAYERS}
    for l, s in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {l:20s} {s:8.3f} s  {100 * s / total:5.1f} %")
    lines.append(f"  {'residual':20s} {layers['trace.residual_s']:8.3f} s")
    lines.append(f"dominant layer: {max(shares, key=shares.get)}")
    return lines


def run_benchmark(workload: str, sweeps: List[dict], seconds: float,
                  trace: bool) -> Tuple[dict, List[str]]:
    """Run one benchmark; return the result object and the report lines."""
    run = Run(workload, sweeps, seconds)
    report = [f"workload {workload}: {json.dumps(sweeps)}",
              f"BLAS threads pinned to {BLAS_THREADS}; one process at a time"]
    metrics: Dict[str, dict] = {}
    if not trace:
        setup, setup_raw = run.setup_seconds()
    checked = run.rep("check")
    if checked is None:
        raise RuntimeError("; ".join(run.reasons))
    report.append(f"check repetition: {len(checked['rows'])} rows, "
                  f"{checked['rz_words_checked']} Rz words verified")
    if trace:
        done = run.repeat(("timed", "traced"), min_rounds=1)
        if not done["traced"] or not done["timed"]:
            raise RuntimeError("; ".join(run.reasons) or "no traced repetition")
        layers = {k: statistics.median(r["layers"][k] for r in done["traced"])
                  for k in done["traced"][0]["layers"]}
        layers["trace.overhead_ratio"] = (
            statistics.median(scaled_sweep(r) for r in done["traced"])
            / statistics.median(scaled_sweep(r) for r in done["timed"]))
        for name, (unit, _) in tracing.PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
        report += summarize_trace(layers)
        report.append(f"traced repetitions: {len(done['traced'])}; "
                      f"tracing overhead x{layers['trace.overhead_ratio']:.2f}")
    else:
        timed = run.repeat(("timed",), min_rounds=MIN_TIMED_REPS)["timed"]
        if not timed:
            raise RuntimeError("; ".join(run.reasons))
        q1, med, q3 = quartiles([scaled_sweep(r) for r in timed])
        rows = checked["rows"]
        values = {
            "sweep_s": med,
            "setup_s": setup,
            "compiled_T_total": sum(r["compiled_T"] for r in rows),
            "total_gates_total": sum(r["total_gates"] for r in rows),
            "qubits_total": sum(r["qubits"] for r in rows),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        report.append("raw sweep wall time @ probe scale: " + " ".join(
            f"{r['sweep_s']:.3f}@{probe.scale(r['probe_s']):.3f}" for r in timed)
            + f"; raw set-up median {setup_raw:.4f} s")
        report.append(f"sweep_s median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f}, "
                      f"n = {len(timed)}")
        for name in END_TO_END:
            report.append(f"  {name:18s} {values[name]:.6g} {END_TO_END[name]}")
    report.append(f"row_fail_ratio {run.failed / run.attempted:.4g} "
                  f"({run.failed} of {run.attempted} rows)")
    report += run.reasons[:10]
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qsprep sweep benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "qsprep" / "__init__.py").is_file():
        print(f"no qsprep source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, report = run_benchmark(args.workload, sweeps_for(args.workload, args.seed),
                                       args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
