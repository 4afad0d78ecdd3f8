"""Exact simulation: a statevector kernel, a bit-plane evaluator for
reversible classical circuits, and the two fidelity metrics.

Convention: qubit 0 is the most significant bit of the basis index, so the
amplitude vector reads off |q0 q1 ... q_{n-1}> in the usual string order.

`_apply` is the one definition of gate semantics.  It acts in place on a
(2,)*n view of the state and touches only the slices a gate changes: phase
gates multiply one, permutation gates swap two, Hadamard and the Ry family
are butterflies on a q=0 / q=1 pair.  A measured temporary-AND uncompute
(ANDU marker) is, by deferred measurement, H.CCZ.H on the ancilla: exactly a
Toffoli onto it, which returns the ancilla to |0> with the fixup the
classically controlled CZ would apply.

`simulate` fuses gates (Haner & Steiger, arXiv:1704.01127): it groups runs
of consecutive fixed-matrix gates on at most _K distinct qubits.  A group is
applied as its 2^k x 2^k unitary, in one dense pass over the state, when that
pass is estimated to cost less than the group's gates one by one (a fixed
cost per gate for its NumPy calls plus the amplitudes it touches) minus the
cost of building the unitary.  The unitary is the product of per-gate local
matrices that `_apply` itself builds on an identity.  Any other group, and
every Rz and Ry-family gate, goes through `_apply` gate by gate.

A dense pass multiplies only the active blocks of the unitary.  A qubit whose
flipping entries are all exactly 0 is passive: the unitary is block-diagonal
on it, as on the controls of the CNOT and Toffoli gates and the phase gates
of a lowered block.  The pass gathers the state in the order passive qubits,
active qubits, the rest, and multiplies each passive value's slice by its
2^a x 2^a diagonal block in one batched matmul (in the rotation_sim circuit,
1,092 of 1,126 passes have 2 active qubits of 4).  A zero entry adds nothing
to a sum, so each amplitude gets the full product's nonzero terms in the
same order and the same bits.  The fusion weights below were fitted to the
full 2^k x 2^k pass and are deliberately left as they are: the plan decides
which gates are multiplied together, and so the bits of every state.

Each call builds a distinct group's pass once.  `compile_circuit`
concatenates memoized, interned lowered blocks, so most groups of a compiled
circuit are the same gate objects again, on the same qubits, with the same
product.  A group is keyed by the hash of its gates' ids, and a hit is
checked against the gates that built it.  A pre-pass counts each key's
uses: only a key that recurs keeps its blocks, until its last use, so a
circuit of distinct groups (a parsed circuit file's gates are not interned)
holds nothing more.

`simulate` allocates one scratch array per call, at most two states long.
Every temporary of the gate loop is written into it with `out=` or
`np.copyto`: the swap copy, the Hadamard and Ry products (two half-state
slots), and a dense pass's gathered chunk and matmul product (two chunk
slots).  So the loop allocates nothing per gate; a fresh half-state
temporary per gate costs a page fault per 4 KiB whenever the allocator
returns its memory to the system.  The arithmetic is the same with or
without scratch, so the states are bit-identical; `apply_gate` and
`_local_matrix` pass none and get fresh arrays.

A sampling pipeline is Hadamards on m fresh inputs plus classical gates, so
`pipeline_histogram` runs all 2^m input assignments at once on bit planes
(one Python int per qubit, one bit per assignment) and counts the address
values exactly, whatever the ancilla count; `classical_simulate` runs one.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .circuit_core import Circuit, Gate

DEFAULT_QUBIT_BUDGET = 26


class CapacityError(RuntimeError):
    """Circuit exceeds the statevector qubit budget."""


_R = 1 / math.sqrt(2)
_PHASES = {"S": 1j, "Sdg": -1j,
           "T": np.exp(1j * math.pi / 4), "Tdg": np.exp(-1j * math.pi / 4)}


def _pin(v: np.ndarray, pins: Iterable) -> np.ndarray:
    """View of v with qubit q fixed to bit for each (q, bit) in pins."""
    idx = [slice(None)] * v.ndim
    for q, bit in pins:
        idx[q] = bit
    return v[(*idx, ...)]         # the Ellipsis keeps a view when every axis is pinned


def _halves(v: np.ndarray, q: int, pins: Iterable = ()):
    """The q=0 and q=1 slices of v, with the qubits in pins fixed."""
    pins = tuple(pins)
    return _pin(v, pins + ((q, 0),)), _pin(v, pins + ((q, 1),))


def _tmp(scratch: Optional[np.ndarray], like: np.ndarray, slot: int = 0) -> np.ndarray:
    """An uninitialized C-ordered array of like's shape: slot 0 or 1 of
    `scratch` (each slot like.size long), or a new array if scratch is None."""
    if scratch is None:
        return np.empty(like.shape, dtype=complex)
    return scratch[slot * like.size:(slot + 1) * like.size].reshape(like.shape)


def _swap(a: np.ndarray, b: np.ndarray, scratch: Optional[np.ndarray]) -> None:
    t = _tmp(scratch, a)
    np.copyto(t, a)
    a[...] = b
    b[...] = t


def _apply(v: np.ndarray, g: Gate, scratch: Optional[np.ndarray] = None) -> None:
    """Apply g in place to the (2,)*n view v; its temporaries, half the
    state at most, go to `scratch` (v.size amplitudes) if given."""
    tag, qs = g.tag, g.qubits
    if tag in _PHASES:
        a = _pin(v, ((qs[0], 1),))
        a *= _PHASES[tag]
    elif tag in ("PauliX", "CNOT", "Toffoli", "ANDU"):    # X on the last operand
        _swap(*_halves(v, qs[-1], ((c, 1) for c in qs[:-1])), scratch)
    elif tag in ("Swap", "ControlledSwap"):
        *flag, a, b = qs
        on = tuple((f, 1) for f in flag)
        _swap(_pin(v, on + ((a, 0), (b, 1))), _pin(v, on + ((a, 1), (b, 0))), scratch)
    elif tag == "Hadamard":
        a0, a1 = _halves(v, qs[0])
        t = np.multiply(a1, _R, out=_tmp(scratch, a1))
        a0 *= _R
        np.subtract(a0, t, out=a1)
        a0 += t
    elif tag == "Rz":
        a0, a1 = _halves(v, qs[0])
        a0 *= np.exp(-0.5j * g.angle)
        a1 *= np.exp(0.5j * g.angle)
    elif tag in ("Ry", "MultiControlledRy"):
        # (a0, a1) <- (c a0 - s a1, s a0 + c a1) where the controls match
        a0, a1 = _halves(v, qs[-1], zip(qs[:-1], g.mask or ()))
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        t = np.multiply(a0, s, out=_tmp(scratch, a0))
        a0 *= c
        a0 -= np.multiply(a1, s, out=_tmp(scratch, a1, 1))
        a1 *= c
        a1 += t
    else:
        raise ValueError(f"cannot simulate gate tag {tag!r}")


def apply_gate(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply g to an n-qubit statevector and return it flattened.

    The update is in place when `state` is a complex array that NumPy can
    view as (2,)*n; any other input is converted to a new array first."""
    v = np.asarray(state, dtype=complex).reshape((2,) * n)
    _apply(v, g)
    return v.reshape(-1)


# Gate fusion.  A group holds at most _K distinct qubits.  Costs are
# estimated in nanoseconds.  The weights were fitted to timings of `_apply`
# (the per-tag costs that benchmarks/sim_bench.py prints), of the dense pass
# and of `_group_unitary` at n = 6 and 14 on a 2-CPU x86-64 VM (NumPy 2.4,
# one BLAS thread); only their ratios matter.
_K = 4
# tag -> `_apply`'s fixed ns (its NumPy calls), its ns per state amplitude
# (the amplitudes it touches), and the ns it adds to `_group_unitary`
_GATE_COST = {
    "S": (4300, 1.2, 1700), "Sdg": (4300, 1.2, 1700),
    "T": (4300, 1.2, 1700), "Tdg": (4300, 1.2, 1700),
    "Hadamard": (14500, 3.85, 1700), "PauliX": (6100, 2.4, 1700),
    "CNOT": (6500, 1.6, 5900), "Swap": (6200, 1.9, 5900),
    "Toffoli": (6300, 1.15, 5900), "ANDU": (6300, 1.15, 5900),
    "ControlledSwap": (6200, 1.3, 5900),
}
# `_group_unitary` also applies each run of one-qubit gates once
_RUN_NS = 7800
# one dense pass on k qubits: fixed ns (with the fixed part of
# `_group_unitary`), and ns per state amplitude by k (gather, matmul, scatter),
# as fitted to the full 2^k x 2^k pass; the module docstring says why they stay
_DENSE_NS = 29000
_DENSE_AMP_NS = (0.0, 5.3, 7.0, 8.6, 12.0)
# a dense pass works on chunks of at most 2^_CHUNK_QUBITS amplitudes, so
# its temporaries stay small however large the state
_CHUNK_QUBITS = 14


@lru_cache(maxsize=None)    # <= 11 tags x local operands x k <= _K: a few hundred
def _local_matrix(tag: str, qs: Tuple[int, ...], k: int) -> np.ndarray:
    """The 2^k x 2^k matrix of Gate(tag, qs) on k qubits, built by `_apply`."""
    m = np.eye(1 << k, dtype=complex).reshape((2,) * (2 * k))
    _apply(m, Gate(tag, qs))     # acts on the row bits: U @ I
    m = m.reshape(1 << k, 1 << k)
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def _one_qubit(tag: str) -> Tuple[complex, ...]:
    """The 2x2 matrix of a one-qubit tag as Python numbers, row-major."""
    return tuple(_local_matrix(tag, (0,), 1).ravel().tolist())


def _mul2(a: Tuple[complex, ...], b: Tuple[complex, ...]) -> Tuple[complex, ...]:
    """a @ b for 2x2 matrices given row-major."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _apply_2x2(u: np.ndarray, a: Tuple[complex, ...], j: int) -> np.ndarray:
    """(I x a x I) @ u, with a on the j-th most significant row bit."""
    x = u.reshape(1 << j, 2, -1)
    return np.matmul(np.array(a).reshape(2, 2), x).reshape(u.shape)


def _group_unitary(group: Sequence[Gate], qs: List[int]) -> np.ndarray:
    """The product of the group's local matrices on qs (MSB first).

    Gates on other qubits commute, so each qubit's run of one-qubit gates is
    multiplied out as a 2x2 and applied to the product only before a
    multi-qubit gate on that qubit, or at the end."""
    k = len(qs)
    pos = {q: i for i, q in enumerate(qs)}
    u = np.eye(1 << k, dtype=complex)
    runs: Dict[int, Tuple[complex, ...]] = {}
    for g in group:
        loc = [pos[q] for q in g.qubits]
        if len(loc) == 1:
            j = loc[0]
            runs[j] = _mul2(_one_qubit(g.tag), runs[j]) if j in runs else _one_qubit(g.tag)
            continue
        for j in loc:
            if j in runs:
                u = _apply_2x2(u, runs.pop(j), j)
        u = np.dot(_local_matrix(g.tag, tuple(loc), k), u)
    for j, a in runs.items():
        u = _apply_2x2(u, a, j)
    return u


def _active_blocks(u: np.ndarray, qs: Sequence[int], n: int) -> Tuple[List[int], np.ndarray]:
    """(axes, blocks): the dense pass of u on the qubits qs (the row index
    reads them MSB first) in an n-qubit state.

    A qubit of qs is passive when every entry of u that flips it is exactly
    0; u is then block-diagonal on the c passive qubits, and `blocks` holds
    its 2^c diagonal blocks on the a active ones as a contiguous
    (2^c, 2^a, 2^a) array.  `axes` orders the state's qubits as the chunk
    qubits (the first n - _CHUNK_QUBITS others, if any), the passive, the
    active, and the other qubits, each in qubit order."""
    k = len(qs)
    # bit k-1-j of `flips` is set when a nonzero entry's row and column
    # differ in qubit qs[j].  When qs is the whole state, each block would
    # multiply one column, which NumPy hands to BLAS's matrix-vector kernel;
    # that kernel does not add a row's terms in column order, so there u
    # stays whole (c = 0).
    rows, cols = np.nonzero(u)
    flips = int(np.bitwise_or.reduce(rows ^ cols)) if k < n else (1 << k) - 1
    local = sorted(range(k), key=lambda j: flips >> (k - 1 - j) & 1)    # passive first
    c = k - flips.bit_count()
    t = u.reshape((2,) * (2 * k)).transpose(local + [k + j for j in local])
    t = t.reshape(1 << c, 1 << (k - c), 1 << c, -1)
    diag = np.arange(1 << c)
    others = [q for q in range(n) if q not in qs]
    outer = others[:max(0, n - _CHUNK_QUBITS)]
    return outer + [qs[j] for j in local] + others[len(outer):], t[diag, :, diag]


def _apply_blocks(v: np.ndarray, axes: Sequence[int], blocks: np.ndarray,
                  scratch: Optional[np.ndarray] = None) -> None:
    """Apply the pass (axes, blocks) of `_active_blocks` in place to the
    (2,)*n view v, one chunk of at most 2^_CHUNK_QUBITS amplitudes at a
    time: gather the chunk in axes order, multiply each passive value's
    slice by its block, and write it back.  The gathered chunk and the
    product go to `scratch` (twice the chunk size) if given.

    A zero entry adds nothing to a sum, so each amplitude gets the nonzero
    terms of the full matrix product, in the same order."""
    moved = v.transpose(axes)
    shape = blocks.shape[:2] + (-1,)
    for i in itertools.product((0, 1), repeat=max(0, v.ndim - _CHUNK_QUBITS)):
        x = moved[i]
        gathered, out = _tmp(scratch, x), _tmp(scratch, x, 1)
        np.copyto(gathered, x)
        np.matmul(blocks, gathered.reshape(shape), out=out.reshape(shape))
        np.copyto(x, out)


def _fusion_plan(gates: Sequence[Gate], size: int) -> List[Tuple[int, int, int]]:
    """(start, stop, mask) of each group gates[start:stop] that `simulate`
    applies as one dense pass on the qubits set in mask, for a state of
    `size` amplitudes.

    Groups are the maximal runs of consecutive fixed-matrix gates on at most
    _K qubits.  A group is fused when its estimated dense pass costs less
    than the ns that building its unitary saves over applying its gates one
    by one."""
    saves = {tag: ns + amp_ns * size - build_ns
             for tag, (ns, amp_ns, build_ns) in _GATE_COST.items()}
    dense = [_DENSE_NS + amp_ns * size for amp_ns in _DENSE_AMP_NS]
    masks: Dict[Tuple[int, ...], int] = {}     # operands -> bit mask
    plan: List[Tuple[int, int, int]] = []
    # the open group is gates[start:i] on the qubits in `mask`; `runs` has
    # the qubits whose last gate in it is a one-qubit gate
    start, mask, runs, saved = 0, 0, 0, 0.0
    for i, g in enumerate(gates):
        c = saves.get(g.tag)
        m = None
        if c is not None:
            m = masks.get(g.qubits)
            if m is None:
                m = masks[g.qubits] = sum(1 << q for q in g.qubits)
        if m is None or (mask | m).bit_count() > _K:    # g closes the open group
            if i - start > 1 and saved > dense[mask.bit_count()]:
                plan.append((start, i, mask))
            start, mask, runs, saved = i, 0, 0, 0.0
            if m is None:                # Rz or the Ry family: applied alone
                start += 1
                continue
        mask |= m
        if m & (m - 1):
            runs &= ~m
        elif not runs & m:
            runs |= m
            c -= _RUN_NS
        saved += c
    if len(gates) - start > 1 and saved > dense[mask.bit_count()]:
        plan.append((start, len(gates), mask))
    return plan


def simulate(circuit: Circuit, initial: Optional[np.ndarray] = None,
             budget: int = DEFAULT_QUBIT_BUDGET) -> np.ndarray:
    """Final statevector of circuit; `initial` (default |0...0>) is not modified."""
    if circuit.n_qubits > budget:
        raise CapacityError(
            f"{circuit.n_qubits} qubits exceeds budget {budget}; "
            "use pipeline_histogram for sampling circuits")
    n = circuit.n_qubits
    if initial is None:
        try:
            state = np.zeros(1 << n, dtype=complex)
        except ValueError:  # beyond NumPy's largest array; nothing was allocated
            raise CapacityError(f"statevector simulator cannot allocate the "
                                f"2^{n} amplitudes of n={n} qubits") from None
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex).reshape(-1).copy()
        if state.size != 1 << n:
            raise ValueError("initial state dimension mismatch")
    # room for two half-state temporaries of `_apply`, or two chunks of a
    # dense pass: one state at n > _CHUNK_QUBITS, else two
    scratch = np.empty(max(state.size, 2 * min(state.size, 1 << _CHUNK_QUBITS)),
                       dtype=complex)
    _run(state.reshape((2,) * n), circuit.gates, scratch)
    return state


def _run(v: np.ndarray, gates: Sequence[Gate], scratch: Optional[np.ndarray] = None) -> None:
    """Apply gates in place to the (2,)*n view v, fused as `_fusion_plan`
    says, with every temporary in `scratch` if given; the dense pass of a
    group whose gate ids recur is built once and kept until its last use."""
    plan = _fusion_plan(gates, v.size)
    keys = [hash(tuple(map(id, gates[start:stop]))) for start, stop, _ in plan]
    uses: Dict[int, int] = {}
    for key in keys:
        uses[key] = uses.get(key, 0) + 1
    # key -> (group, (axes, blocks))
    memo: Dict[int, Tuple[Sequence[Gate], Tuple[List[int], np.ndarray]]] = {}
    done = 0
    with np.errstate():
        # restored on exit; 1024-value ufunc buffers ran strided slices ~18 % faster
        np.setbufsize(1024)
        for (start, stop, mask), key in zip(plan, keys):
            for g in gates[done:start]:
                _apply(v, g, scratch)
            qs = [q for q in range(v.ndim) if mask >> q & 1]
            group = gates[start:stop]
            hit = memo.get(key)
            if hit is not None and hit[0] == group:     # equal gates, equal unitary
                dense = hit[1]
            else:
                dense = _active_blocks(_group_unitary(group, qs), qs, v.ndim)
            uses[key] -= 1
            if not uses[key]:
                memo.pop(key, None)
            elif hit is None:
                memo[key] = group, dense
            _apply_blocks(v, *dense, scratch)
            done = stop
        for g in gates[done:]:
            _apply(v, g, scratch)


def _propagate(circuit: Circuit, planes: List[int], ones: int, inputs: Dict[int, int]) -> None:
    """Run circuit in place on bit planes: bit i of planes[q] is qubit q under
    input assignment i, and `ones` sets every assignment's bit.  A Hadamard on
    q loads inputs[q]; a gate other than X/CNOT/Toffoli/Swap/CSWAP raises."""
    for g in circuit.gates:
        tag, qs = g.tag, g.qubits
        if tag == "CNOT":
            planes[qs[1]] ^= planes[qs[0]]
        elif tag == "Toffoli":
            planes[qs[2]] ^= planes[qs[0]] & planes[qs[1]]
        elif tag == "PauliX":
            planes[qs[0]] ^= ones
        elif tag == "Swap":
            planes[qs[0]], planes[qs[1]] = planes[qs[1]], planes[qs[0]]
        elif tag == "ControlledSwap":
            f, a, b = qs
            d = (planes[a] ^ planes[b]) & planes[f]
            planes[a] ^= d
            planes[b] ^= d
        elif tag == "Hadamard" and qs[0] in inputs:
            planes[qs[0]] = inputs[qs[0]]
        else:
            raise ValueError(f"non-classical gate {tag} on qubits {qs}")


def classical_simulate(circuit: Circuit, bits: int) -> int:
    """Basis-state propagation for reversible-classical circuits.

    `bits` is the basis index (qubit 0 = MSB).  Works at any qubit count;
    rejects non-classical gates.
    """
    n = circuit.n_qubits
    planes = [(bits >> (n - 1 - q)) & 1 for q in range(n)]
    _propagate(circuit, planes, 1, {})
    return sum(v << (n - 1 - q) for q, v in enumerate(planes))


def pipeline_histogram(circuit: Circuit, address: Sequence[int]) -> Tuple[np.ndarray, int]:
    """(counts, total): counts[j] of the total = 2^inputs Hadamard-input
    assignments give the address register (qubits MSB first) the value j, so
    counts[j] / total is its exact probability from |0...0>.  A Hadamard may
    act only on a qubit no earlier gate used; every other gate is classical.
    """
    used, inputs = set(), []
    for g in circuit.gates:
        if g.tag == "Hadamard":
            if g.qubits[0] in used:
                raise ValueError(f"Hadamard on qubit {g.qubits[0]} after it was used")
            inputs.append(g.qubits[0])
        used.update(g.qubits)
    total = 1 << len(inputs)
    # bit i of input k's plane is bit k of i (the string lists bits MSB first)
    loads = {q: int(("1" * (1 << k) + "0" * (1 << k)) * (total >> (k + 1)), 2)
             for k, q in enumerate(inputs)}
    planes = [0] * circuit.n_qubits
    _propagate(circuit, planes, (1 << total) - 1, loads)
    value = np.zeros(total, dtype=np.int64)
    for q in address:
        raw = np.frombuffer(planes[q].to_bytes((total + 7) // 8, "little"), np.uint8)
        value = (value << 1) | np.unpackbits(raw, bitorder="little")[:total]
    return np.bincount(value, minlength=1 << len(address)), total


def fidelity_state(psi: np.ndarray, phi: np.ndarray) -> float:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if psi.shape != phi.shape:
        raise ValueError("state dimension mismatch")
    return float(abs(np.vdot(psi, phi)) ** 2)


def fidelity_prob(p: Sequence[float], q: Sequence[float]) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distribution dimension mismatch")
    if (p < -1e-15).any() or (q < -1e-15).any():
        raise ValueError("negative probability entry")
    return float(np.sum(np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None))) ** 2)


def address_marginal(psi: np.ndarray, address: Iterable[int], n: int) -> np.ndarray:
    """Probability distribution over the address-register value.

    `address` lists qubit indices (MSB of the address value first).
    """
    addr = list(address)
    probs = np.abs(np.asarray(psi).reshape([2] * n)) ** 2
    other = [q for q in range(n) if q not in addr]
    marg = probs.sum(axis=tuple(other)) if other else probs
    # axes currently ordered by qubit index; reorder to address order
    order = [sorted(addr).index(q) for q in addr]
    marg = np.transpose(marg, order)
    return marg.reshape(-1)
