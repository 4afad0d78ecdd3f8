"""Dense and sparse rotation-based state preparation.

Dense: qubit-reduction loop.  Pick the pivot minimizing occupied-branch
imbalance, build the angle table theta_y = 2*atan2(a1(y), a0(y)) over the
other varying qubits, prune controls the table is constant on, merge branch
pairs into sqrt(a0^2 + a1^2), and finally emit the recorded uniformly
controlled Ry gates (demultiplexed to Ry/CNOT) in reverse order.

Sparse: cardinality-reduction loop.  Greedily fix informative bits until one
occupied index remains, pick a compatible partner, align the pair with CNOTs
so it differs on a single qubit, and merge with a multi-controlled Ry whose
polarity mask encodes negative controls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit_core import Circuit, Gate

_ANGLE_TOL = 1e-12      # angles closer than this count as equal
_AMP_TOL = 1e-14        # from_vector drops amplitudes at or below this


class StateValidationError(ValueError):
    pass


@dataclass(frozen=True)
class TargetState:
    n: int
    amplitudes: Dict[int, float]   # sparse: only nonzero entries

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", dict(self.amplitudes))
        if any(j < 0 or j >= (1 << self.n) for j in self.amplitudes):
            raise StateValidationError("basis index out of range")
        if any(a == 0 for a in self.amplitudes.values()):
            raise StateValidationError("stored support must be nonzero entries")
        norm = sum(a * a for a in self.amplitudes.values())
        if abs(norm - 1.0) > 1e-10:
            raise StateValidationError(f"state norm^2 = {norm}, not 1")

    @property
    def support(self) -> List[int]:
        return sorted(self.amplitudes)

    def to_vector(self) -> np.ndarray:
        v = np.zeros(1 << self.n)
        for j, a in self.amplitudes.items():
            v[j] = a
        return v

    def probabilities(self) -> np.ndarray:
        return self.to_vector() ** 2

    @staticmethod
    def from_vector(vec: Sequence[float]) -> "TargetState":
        vec = np.asarray(vec, dtype=float)
        n = int(round(math.log2(len(vec))))
        if 1 << n != len(vec):
            raise StateValidationError("vector length must be a power of two")
        amps = {int(j): float(vec[j]) for j in np.nonzero(np.abs(vec) > _AMP_TOL)[0]}
        return TargetState(n, amps)


def _bit(j: int, q: int, n: int) -> int:
    return (j >> (n - 1 - q)) & 1


def choose_pivot(support: Sequence[int], n: int,
                 qubits: Optional[Sequence[int]] = None) -> Optional[int]:
    """Qubit minimizing |#(bit=0) - #(bit=1)| over occupied indices.

    Ties break toward the lowest index.  Returns None when the support is
    constant on every candidate qubit (singleton support).
    """
    support = list(support)
    if not support:
        raise StateValidationError("empty support")
    cand = list(qubits) if qubits is not None else list(range(n))
    best, best_imb = None, None
    varying = False
    for q in cand:
        ones = sum(_bit(j, q, n) for j in support)
        zeros = len(support) - ones
        if ones and zeros:
            varying = True
        imb = abs(zeros - ones)
        if best_imb is None or imb < best_imb:
            best, best_imb = q, imb
    if not varying:
        return None
    return best


@dataclass(frozen=True)
class AngleTable:
    pivot: int
    controls: Tuple[int, ...]     # controls[0] is the MSB of the pattern y
    thetas: Tuple[float, ...]     # length 2^len(controls); theta_y in (-2pi, 2pi]


def prune_constant_controls(table: AngleTable) -> AngleTable:
    controls, thetas = list(table.controls), list(table.thetas)
    changed = True
    while changed and controls:
        changed = False
        c = len(controls)
        for i in range(c):
            stride = 1 << (c - 1 - i)
            const = all(
                abs(thetas[y] - thetas[y | stride]) <= _ANGLE_TOL
                for y in range(1 << c) if not y & stride)
            if const:
                thetas = [thetas[y] for y in range(1 << c) if not y & stride]
                controls.pop(i)
                changed = True
                break
    return AngleTable(table.pivot, tuple(controls), tuple(thetas))


def demux_ucry(table: AngleTable) -> List[Gate]:
    """Gray-code demultiplexing: up to 2^c CNOT and 2^c Ry implementing the
    table; a leaf Ry with |theta| <= 1e-15 is the identity and is skipped,
    and so is the CNOT pair around a subtree of skipped leaves."""
    def rec(thetas: Sequence[float], ctrls: Sequence[int]) -> List[Gate]:
        if not ctrls:
            if abs(thetas[0]) <= 1e-15:
                return []
            return [Gate("Ry", (table.pivot,), angle=thetas[0])]
        half = len(thetas) // 2
        t0, t1 = thetas[:half], thetas[half:]
        left = [(x + y) / 2 for x, y in zip(t0, t1)]
        right = [(x - y) / 2 for x, y in zip(t0, t1)]
        q = ctrls[0]
        out = rec(left, ctrls[1:])
        inner = rec(right, ctrls[1:])
        if inner:              # else the two CNOTs cancel
            cnot = Gate("CNOT", (q, table.pivot))
            out += [cnot, *inner, cnot]
        return out

    return rec(list(table.thetas), list(table.controls))


def _varying_qubits(amps: Dict[int, float], n: int) -> List[int]:
    support = list(amps)
    return [q for q in range(n)
            if 0 < sum(_bit(j, q, n) for j in support) < len(support)]


def synthesize_dense(state: TargetState) -> Circuit:
    """Algorithm: qubit-reduction loop; recorded gates replayed in reverse."""
    n = state.n
    s: Dict[int, float] = dict(state.amplitudes)
    tables: List[AngleTable] = []

    while len(s) > 1:
        varying = _varying_qubits(s, n)
        # two distinct indices differ on some qubit, so varying is nonempty
        # and the pivot exists
        pivot = choose_pivot(list(s), n, varying)
        table = _table_from_dict(s, n, pivot, [q for q in varying if q != pivot])
        tables.append(prune_constant_controls(table))
        s = _merge_pivot(s, n, pivot)

    gates: List[Gate] = []
    (final_idx,) = s
    for q in range(n):
        if _bit(final_idx, q, n):
            gates.append(Gate("PauliX", (q,)))
    for table in reversed(tables):
        gates.extend(demux_ucry(table))
    return Circuit(n, gates)


def _table_from_dict(s: Dict[int, float], n: int, pivot: int,
                     controls: Sequence[int]) -> AngleTable:
    """theta_y = 2*atan2(a1(y), a0(y)); absent branches give theta = 0."""
    controls = tuple(controls)
    c = len(controls)
    a0 = [0.0] * (1 << c)
    a1 = [0.0] * (1 << c)
    for j, amp in s.items():
        y = 0
        for q in controls:
            y = (y << 1) | _bit(j, q, n)
        if _bit(j, pivot, n):
            a1[y] = amp
        else:
            a0[y] = amp
    thetas = tuple(2 * math.atan2(x1, x0) if (x0 or x1) else 0.0
                   for x0, x1 in zip(a0, a1))
    return AngleTable(pivot, controls, thetas)


def _merge_pivot(s: Dict[int, float], n: int, pivot: int) -> Dict[int, float]:
    mask = 1 << (n - 1 - pivot)
    out: Dict[int, float] = {}
    for j, amp in s.items():
        base = j & ~mask
        if base in out:
            continue
        a0 = s.get(base, 0.0)
        a1 = s.get(base | mask, 0.0)
        out[base] = math.hypot(a0, a1)
    return out


# ---------------------------------------------------------------------------
# Sparse routine


def _row_index(planes: Sequence[int], row: int) -> int:
    """Basis index of the one-bit row mask `row`; planes[0] is the MSB."""
    j = 0
    for plane in planes:
        j = (j << 1) | ((plane & row) != 0)
    return j


def synthesize_sparse(state: TargetState) -> Circuit:
    """Algorithm: support-reduction loop, one merge per iteration.

    The support is held as bit planes: row r is the r-th smallest input
    index, bit r of planes[q] is qubit q of row r, and `alive` masks the rows
    not merged away yet.  Each scan of the support is a few big-int ANDs, and
    a CNOT relabel XORs the control's plane into each flipped plane.
    Ties break on basis indices, never on rows: the lowest qubit with the
    largest minority, value 0 when zeros <= ones, the smallest compatible
    partner index, and the lowest qubit that separates a clash.
    """
    n = state.n
    support = state.support
    amps = [state.amplitudes[j] for j in support]
    planes = [sum(1 << r for r, j in enumerate(support) if _bit(j, q, n))
              for q in range(n)]
    alive = (1 << len(support)) - 1
    # each record: (cnots, (controls, mask, q, theta))
    records: List[Tuple[List[Tuple[int, int]], Tuple[Tuple[int, ...], Tuple[int, ...], int, float]]] = []

    while alive & (alive - 1):
        # greedy isolation: fix the qubit with the largest minority, to the
        # minority's value, until one row (i0) is left; `prev` keeps the
        # rows that match every fixed bit but the last
        fixed: List[Tuple[int, int]] = []
        rows = prev = alive
        while rows & (rows - 1):
            size = rows.bit_count()
            best = None  # (minority_size, bit, val)
            for q in range(n):
                ones = (planes[q] & rows).bit_count()
                zeros = size - ones
                if not ones or not zeros:
                    continue
                minority = (zeros, q, 0) if zeros <= ones else (ones, q, 1)
                if best is None or minority[0] > best[0]:
                    best = minority
            _, q, val = best
            fixed.append((q, val))
            prev = rows
            rows &= planes[q] if val else ~planes[q]
        r0 = rows
        # partner i1: the smallest index among the other rows of `prev`
        r1 = prev & ~r0
        for plane in planes:
            low = r1 & ~plane
            if low:
                r1 = low
        i0, i1 = _row_index(planes, r0), _row_index(planes, r1)

        qmask = 1 << (n - 1 - q)
        flip = (i0 ^ i1) & ~qmask
        cnots = [(q, d) for d in range(n) if flip & (1 << (n - 1 - d))]
        for _, d in cnots:
            planes[d] ^= planes[q]
        j0 = (i0 ^ flip) if i0 & qmask else i0
        j1 = (i1 ^ flip) if i1 & qmask else i1
        if (j0 ^ j1) != qmask:
            raise RuntimeError(
                f"rotation_synthesis: sparse merge pair {i0}, {i1} differs "
                f"on more than qubit {q} after its CNOT relabel")

        # control set: the remaining fixed-bit conditions, extended until the
        # pair is isolated from the rest of the (relabeled) support; the
        # prefix bits are not relabeled, so `prev` still matches them
        ctrl: Dict[int, int] = dict(fixed[:-1])
        clash = prev & ~(r0 | r1)
        while clash:
            for d in range(n):
                if d == q or d in ctrl:
                    continue
                v = _bit(j0, d, n)
                agree = clash & (planes[d] if v else ~planes[d])
                if agree != clash:
                    ctrl[d] = v
                    clash = agree
                    break

        keep, drop = (r0, r1) if not j0 & qmask else (r1, r0)
        k = keep.bit_length() - 1
        a0, a1 = amps[k], amps[drop.bit_length() - 1]
        theta = 2 * math.atan2(a1, a0)
        controls = tuple(sorted(ctrl))
        mask = tuple(ctrl[c] for c in controls)
        records.append((cnots, (controls, mask, q, theta)))
        amps[k] = math.hypot(a0, a1)
        alive &= ~drop

    gates: List[Gate] = []
    final_idx = _row_index(planes, alive)
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
