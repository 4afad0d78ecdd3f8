"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A reduced-size run of every workload, timed and traced, must pass its
   checks and emit exactly the metrics BENCHMARK.json names, with their
   units.
2. Fault injection: the checker must reject a perturbed Rz word and a
   corrupted alias marginal, so the reference check is not vacuous.

Each fault runs in its own spawned interpreter, because qsprep memoizes
Rz words per process.  Exits 0 when every case passes.
"""
from __future__ import annotations

import json
import multiprocessing
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, sweeps_for  # noqa: E402


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_declared_metrics() -> None:
    assert _declared("end_to_end") == run.END_TO_END, "end_to_end differs from run.py"
    assert _declared("per_layer") == {k: u for k, (u, _) in tracer.PER_LAYER.items()}, \
        "per_layer differs from tracer.py"


def reduced_run(workload: str, trace: bool) -> None:
    result, report = run.run_benchmark(workload, sweeps_for(workload, 1, reduced=True),
                                       seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0, "\n".join(report)
    want = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload}: metrics {sorted(got)} != {sorted(want)}"
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _failures(workload: str) -> dict:
    qs = worker.load_qsprep()
    return worker.run_rep(sweeps_for(workload, 1, reduced=True), "check", qs=qs)["failures"]


def inject_rz_fault() -> dict:
    """Append a T gate to every approximate Rz word the compiler receives."""
    qs = worker.load_qsprep()
    cc = qs["cliffordt_compile"]
    honest = cc.synthesize_rz_tags

    def perturbed(theta, eps, *args, **kwargs):
        tags = list(honest(theta, eps, *args, **kwargs))
        return tags + ["T"] if eps < 1 else tags

    cc.synthesize_rz_tags = perturbed
    return _failures("rotation_highb")


def inject_marginal_fault() -> dict:
    """Move 2^-b / L of probability between the first two realized bins."""
    qs = worker.load_qsprep()
    ap = qs["alias_prepare"]
    honest = ap.realized_marginal

    def corrupted(table):
        out = list(honest(table))
        step = Fraction(1, (1 << table.b) * table.L)
        out[0] += step
        out[1] -= step
        return out

    ap.realized_marginal = corrupted
    return _failures("sampling_alias")


def in_fresh_interpreter(fn) -> dict:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn)


def main() -> int:
    cases = [("BENCHMARK.json matches the emitted metric names", check_declared_metrics)]
    for w in sorted(WORKLOADS):
        for trace in (False, True):
            cases.append((f"reduced {w}, trace {int(trace)}",
                          lambda w=w, trace=trace: reduced_run(w, trace)))

    def expect(fn, marker):
        fails = in_fresh_interpreter(fn)
        msgs = [m for ms in fails.values() for m in ms]
        assert any(marker in m for m in msgs), f"no {marker!r} failure in {msgs}"

    cases.append(("perturbed Rz word is rejected",
                  lambda: expect(inject_rz_fault, "Rz word")))
    cases.append(("corrupted alias marginal is rejected",
                  lambda: expect(inject_marginal_fault, "alias pipeline")))
    failed = 0
    for name, fn in cases:
        try:
            fn()
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok   {name}")
    print(f"{len(cases) - failed} of {len(cases)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
