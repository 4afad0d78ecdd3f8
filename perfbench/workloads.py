"""The benchmark's workloads: each is a list of `qsprep bench` sweeps.

A sweep is one `cli_bench.run_sweep(spec, methods, bs, budget=...)` call.
The benchmark seed picks the instance: every sweep uses family seed
``seed + seed_offset``, so ``--seed 1`` reproduces the instances named in
README.md (dense_random/sparse_random seed 1, thc_toy seed 3).
"""
from __future__ import annotations

from typing import Dict, List

# name -> (why, sweeps); each sweep is a dict of run_sweep arguments
WORKLOADS: Dict[str, tuple] = {
    "rotation_highb": (
        "high-precision Rz synthesis on few qubits: exercises the grid solver, "
        "bypasses the statevector simulator",
        # ~270 distinct angles from separate states average out the spread
        # in the cost of single angles, which grows with b; the b = 16
        # angles of the sparse sweep extend the ms-per-angle curve
        [
            dict(family="dense_random", n=6, methods=["dense"], bs=[12],
                 budget=20, seed_offset=0),
            dict(family="dense_random", n=6, methods=["dense"], bs=[12],
                 budget=20, seed_offset=3000),
            dict(family="dense_random", n=6, methods=["dense"], bs=[14],
                 budget=20, seed_offset=1000),
            dict(family="dense_random", n=6, methods=["dense"], bs=[14],
                 budget=20, seed_offset=2000),
            dict(family="sparse_random", n=6, methods=["sparse"], bs=[12, 14, 16],
                 budget=20, seed_offset=0),
        ],
    ),
    "rotation_sim": (
        "THC-like state at low b: 14-qubit statevector simulation of ~30k "
        "compiled gates, with a small low-b Rz share",
        [
            dict(family="thc_toy", n=0, methods=["sparse"], bs=[4],
                 budget=16, seed_offset=2),
        ],
    ),
    "sampling_alias": (
        "alias-table pipelines (QROM, SelectSwap): lookup construction and "
        "Toffoli lowering, many-qubit permutation simulation, no Rz synthesis",
        [
            dict(family="dense_random", n=10, methods=["qrom", "selectswap"],
                 bs=[8, 10, 12], budget=20, seed_offset=0),
            dict(family="sparse_random", n=3, methods=["qrom", "selectswap"],
                 bs=[2, 3], budget=20, seed_offset=0),
        ],
    ),
}

# Reduced sizes with the same layer mix, for the self-test only.
REDUCED: Dict[str, list] = {
    "rotation_highb": [
        dict(family="dense_random", n=3, methods=["dense"], bs=[14],
             budget=20, seed_offset=0),
    ],
    "rotation_sim": [
        dict(family="sparse_random", n=5, methods=["sparse"], bs=[4],
             budget=16, seed_offset=0),
    ],
    "sampling_alias": [
        dict(family="dense_random", n=4, methods=["qrom", "selectswap"],
             bs=[4], budget=20, seed_offset=0),
        dict(family="sparse_random", n=3, methods=["qrom"], bs=[2],
             budget=20, seed_offset=0),
    ],
}


def sweeps_for(workload: str, seed: int, reduced: bool = False) -> List[dict]:
    """run_sweep arguments for one workload, with concrete family seeds."""
    table = REDUCED if reduced else {k: v[1] for k, v in WORKLOADS.items()}
    out = []
    for sw in table[workload]:
        sw = dict(sw)
        sw["seed"] = seed + sw.pop("seed_offset")
        out.append(sw)
    return out


def expected_rows(sweeps: List[dict]) -> int:
    return sum(len(sw["methods"]) * len(sw["bs"]) for sw in sweeps)
