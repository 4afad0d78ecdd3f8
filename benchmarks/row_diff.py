"""The `qsprep bench` rows that moved against tests/rows_golden.json.

The fixture holds every CSV column but synth_time_ms for two sets of
sweeps: small instances of every family under the four methods at b = 4
and 8, and the seed-1 sweeps of the three perfbench workloads (read from
perfbench/workloads.py).  A row moves when any column but infidelity
differs, or when its infidelity differs by more than 1e-16 per compiled
gate: float64 rounding in the simulator may move the last bits of a long
row, and nothing else may.  Moved rows are printed per family, method and
b, as before -> after of each column that moved; the exit status is 1 when
any row moved.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/row_diff.py            # print moved rows
    PYTHONPATH=src python3 benchmarks/row_diff.py --record   # re-record the fixture

A change that moves rows on purpose re-records the fixture and quotes the
printed diff.  The 98 rows take a few seconds to recompute.
"""
import argparse
import importlib.util
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

from qsprep.benchmark_states import BenchmarkSpec
from qsprep.cli_bench import METHODS, run_sweep

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "rows_golden.json"
THC_FILE = "tests/rows_thc_file.txt"        # relative to ROOT
INFIDELITY_TOL_PER_GATE = 1e-16

# (family, n, k, seed) of the small instances
SMALL = (
    ("w", 4, 0, 0), ("dicke", 4, 2, 0), ("dense_random", 4, 0, 1),
    ("sparse_uniform", 4, 0, 1), ("sparse_random", 4, 0, 1),
    ("t_friendly", 4, 0, 1), ("thc_toy", 0, 0, 3), ("thc_file", 0, 0, 0),
    ("syk", 4, 0, 1), ("magnus", 0, 3, 0),
)


def _perfbench_sweeps() -> List[dict]:
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [sw for name in sorted(module.WORKLOADS) for sw in module.sweeps_for(name, 1)]


def sweeps() -> List[dict]:
    """Every sweep of the fixture, as keyword arguments of run_sweep."""
    out = [dict(family=f, n=n, k=k, seed=seed, methods=list(METHODS), bs=[4, 8],
                path=THC_FILE if f == "thc_file" else None)
           for f, n, k, seed in SMALL]
    for sw in _perfbench_sweeps():
        out.append(dict(family=sw["family"], n=sw["n"], k=0, seed=sw["seed"],
                        methods=sw["methods"], bs=sw["bs"], path=None,
                        budget=sw["budget"]))
    return out


def row_record(row) -> dict:
    """A row's CSV columns but synth_time_ms; infidelity as its exact repr."""
    d = asdict(row)
    del d["synth_time_ms"]
    d["infidelity"] = repr(float(d["infidelity"]))
    return d


def run(sw: dict) -> List[dict]:
    path = sw["path"] and str(ROOT / sw["path"])
    spec = BenchmarkSpec(family=sw["family"], n=sw["n"], k=sw["k"],
                         seed=sw["seed"], path=path)
    kwargs = {"budget": sw["budget"]} if "budget" in sw else {}
    return [row_record(r) for r in run_sweep(spec, sw["methods"], sw["bs"], **kwargs)]


def moved_columns(old: dict, new: dict) -> Dict[str, tuple]:
    """column -> (before, after) for each column in which new moved from old."""
    out = {c: (old.get(c), new.get(c)) for c in old.keys() | new.keys()
           if c != "infidelity" and old.get(c) != new.get(c)}
    a, b = float(old["infidelity"]), float(new["infidelity"])
    both_nan = math.isnan(a) and math.isnan(b)
    if not both_nan and not abs(a - b) <= INFIDELITY_TOL_PER_GATE * new["total_gates"]:
        out["infidelity"] = (old["infidelity"], new["infidelity"])
    return out


def diff(fixture: List[dict]) -> List[str]:
    """One line per moved row of the fixture's sweeps recomputed (or one
    line saying the sweeps themselves changed); [] when nothing moved."""
    if [case["sweep"] for case in fixture] != sweeps():
        return ["the sweep list differs from the fixture's; re-record it"]
    lines = []
    for case in fixture:
        new_rows = run(case["sweep"])
        if len(new_rows) != len(case["rows"]):
            lines.append(f"{case['sweep']}: {len(case['rows'])} rows -> {len(new_rows)}")
            continue
        for old, new in zip(case["rows"], new_rows):
            cols = moved_columns(old, new)
            if cols:
                what = ", ".join(f"{c} {a} -> {b}" for c, (a, b) in sorted(cols.items()))
                lines.append(f"{old['family']} n={old['n']} seed={old['seed']} "
                             f"{old['method']} b={old['b']}: {what}")
    return lines


def load() -> List[dict]:
    with open(FIXTURE, encoding="utf-8") as f:
        return json.load(f)["cases"]


def record() -> int:
    """Rewrite the fixture, one line per sweep and per row, so that a
    re-recording's diff shows the rows that moved; returns the row count."""
    cases = [{"sweep": sw, "rows": run(sw)} for sw in sweeps()]
    with open(FIXTURE, "w", encoding="utf-8") as f:
        f.write('{"cases": [\n' + ",\n".join(
            '{"sweep": %s, "rows": [\n  %s]}' % (
                json.dumps(c["sweep"]), ",\n  ".join(map(json.dumps, c["rows"])))
            for c in cases) + "\n]}\n")
    return sum(len(c["rows"]) for c in cases)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true",
                    help="rewrite the fixture from this tree's rows")
    args = ap.parse_args(argv)
    if args.record:
        print(f"recorded {record()} rows to {FIXTURE.relative_to(ROOT)}")
        return 0
    lines = diff(load())
    print("\n".join(lines) if lines else "no row moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
