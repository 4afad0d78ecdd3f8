"""Reference sparse rotation synthesis: the support-scan routine.

This is `rotation_synthesis.synthesize_sparse` as it was before the routine
moved to bit planes of the support.  It rescans the support index by index
for every bit it fixes, so it costs O(S^2 * n) interpreted steps on an
S-entry support.  It is kept only as a test oracle: the bit-plane routine
must emit the same gate list.
"""
import math
from typing import Dict, List, Tuple

from qsprep.circuit_core import Circuit, Gate
from qsprep.rotation_synthesis import TargetState


def _bit(j: int, q: int, n: int) -> int:
    return (j >> (n - 1 - q)) & 1


def _greedy_isolate(support: List[int], n: int) -> Tuple[int, List[Tuple[int, int]]]:
    """Fix informative bits until one index remains; return (i0, fixed)."""
    T = list(support)
    fixed: List[Tuple[int, int]] = []
    while len(T) > 1:
        best = None  # (minority_size, bit, val)
        for q in range(n):
            ones = sum(_bit(j, q, n) for j in T)
            zeros = len(T) - ones
            if not ones or not zeros:
                continue
            if zeros <= ones:
                size, val = zeros, 0
            else:
                size, val = ones, 1
            if best is None or size > best[0]:
                best = (size, q, val)
        _, q, val = best
        fixed.append((q, val))
        T = [j for j in T if _bit(j, q, n) == val]
    return T[0], fixed


def synthesize_sparse(state: TargetState) -> Circuit:
    """Algorithm: support-reduction loop, one merge per iteration."""
    n = state.n
    s: Dict[int, float] = dict(state.amplitudes)
    # each record: (cnots, (controls, mask, q, theta))
    records: List[Tuple[List[Tuple[int, int]], Tuple[Tuple[int, ...], Tuple[int, ...], int, float]]] = []

    while len(s) > 1:
        support = sorted(s)
        i0, fixed = _greedy_isolate(support, n)
        q, _v = fixed[-1]
        prefix = fixed[:-1]
        compat = [j for j in support
                  if j != i0 and all(_bit(j, fb, n) == fv for fb, fv in prefix)]
        i1 = min(compat)

        qmask = 1 << (n - 1 - q)
        flip = (i0 ^ i1) & ~qmask
        cnots = [(q, d) for d in range(n) if flip & (1 << (n - 1 - d))]
        if flip:
            s = {(j ^ flip) if j & qmask else j: a for j, a in s.items()}
        j0 = (i0 ^ flip) if i0 & qmask else i0
        j1 = (i1 ^ flip) if i1 & qmask else i1
        assert (j0 ^ j1) == qmask

        # control set: the remaining fixed-bit conditions, extended until the
        # pair is isolated from the rest of the (relabeled) support
        ctrl: Dict[int, int] = {fb: fv for fb, fv in prefix}
        others = [j for j in s if j not in (j0, j1)]
        while True:
            clash = [o for o in others
                     if all(_bit(o, cb, n) == cv for cb, cv in ctrl.items())]
            if not clash:
                break
            for d in range(n):
                if d == q or d in ctrl:
                    continue
                if any(_bit(o, d, n) != _bit(j0, d, n) for o in clash):
                    ctrl[d] = _bit(j0, d, n)
                    break

        idx0, idx1 = (j0, j1) if not j0 & qmask else (j1, j0)
        a0, a1 = s.get(idx0, 0.0), s.get(idx1, 0.0)
        theta = 2 * math.atan2(a1, a0)
        controls = tuple(sorted(ctrl))
        mask = tuple(ctrl[c] for c in controls)
        records.append((cnots, (controls, mask, q, theta)))

        s.pop(idx1, None)
        s.pop(idx0, None)
        s[idx0] = math.hypot(a0, a1)

    gates: List[Gate] = []
    (final_idx,) = s
    for qq in range(n):
        if _bit(final_idx, qq, n):
            gates.append(Gate("PauliX", (qq,)))
    for cnots, (controls, mask, q, theta) in reversed(records):
        if controls:
            gates.append(Gate("MultiControlledRy", controls + (q,),
                              angle=theta, mask=mask))
        else:
            gates.append(Gate("Ry", (q,), angle=theta))
        for c, d in reversed(cnots):
            gates.append(Gate("CNOT", (c, d)))
    return Circuit(n, gates)
