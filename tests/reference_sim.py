"""Reference statevector simulation: one dense matrix per gate.

This is the simulator qsprep used before the structure-aware kernel: every
gate becomes its full 2^k x 2^k matrix on its k operands and is applied with
`np.tensordot`.  It is kept only as a test oracle; `simulate(circuit,
initial)` returns a new state and never touches `initial`.

`fused_simulate` is the second oracle: qsprep's fusion plan, with each fused
group applied as its full 2^k x 2^k unitary by one matmul over the state, as
qsprep did before its dense pass skipped the zero blocks.  The active-block
pass must give its states bit for bit.

ANDU (the measured uncompute of a temporary AND) is built as written in the
compiler, H on the ancilla, CCZ, H again, not as the Toffoli it equals.
"""
import math
from typing import Optional, Sequence

import numpy as np

from qsprep.circuit_core import Circuit, Gate
# bound at import, so that tests which spy on the simulator's names see
# only the simulator's own calls
from qsprep.simulator import _CHUNK_QUBITS, _apply, _fusion_plan, _group_unitary


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_FIXED_1Q = {
    "PauliX": np.array([[0, 1], [1, 0]], dtype=complex),
    "Hadamard": _H,
    "S": np.diag([1, 1j]).astype(complex),
    "Sdg": np.diag([1, -1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "Tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
}

_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
# ControlledSwap operands (flag, x, y)
_CSWAP = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]
_CCZ = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
# ANDU operands (a, b, anc): H_anc . CCZ . H_anc
_HA = np.kron(np.eye(4, dtype=complex), _H)
_ANDU = _HA @ _CCZ @ _HA


def _mcry_matrix(n_ctrl: int, mask: Sequence[int], theta: float) -> np.ndarray:
    """Matrix on (controls..., target) applying Ry(theta) when controls == mask."""
    u = np.eye(1 << (n_ctrl + 1), dtype=complex)
    pat = 0
    for b in mask:
        pat = (pat << 1) | b
    base = pat << 1
    u[base:base + 2, base:base + 2] = _ry(theta)
    return u


def gate_matrix(g: Gate) -> np.ndarray:
    if g.tag in _FIXED_1Q:
        return _FIXED_1Q[g.tag]
    if g.tag == "Rz":
        return _rz(g.angle)
    if g.tag == "Ry":
        return _ry(g.angle)
    if g.tag == "CNOT":
        return _CNOT
    if g.tag == "Swap":
        return _SWAP
    if g.tag == "Toffoli":
        return _TOFFOLI
    if g.tag == "ControlledSwap":
        return _CSWAP
    if g.tag == "ANDU":
        return _ANDU
    if g.tag == "MultiControlledRy":
        return _mcry_matrix(len(g.qubits) - 1, g.mask, g.angle)
    raise ValueError(f"cannot simulate gate tag {g.tag!r}")


def apply_gate(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    k = len(g.qubits)
    u = gate_matrix(g).reshape([2] * (2 * k))
    psi = np.asarray(state).reshape([2] * n)
    psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(g.qubits)))
    psi = np.moveaxis(psi, list(range(k)), list(g.qubits))
    return psi.reshape(-1)


def simulate(circuit: Circuit, initial: Optional[np.ndarray] = None) -> np.ndarray:
    n = circuit.n_qubits
    if initial is None:
        state = np.zeros(1 << n, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex).reshape(-1)
    for g in circuit.gates:
        state = apply_gate(state, g, n)
    return state


def _apply_matrix(v: np.ndarray, u: np.ndarray, qs: Sequence[int]) -> None:
    """v <- u on the qubits qs (the row index reads them MSB first), in place,
    one chunk of the other qubits' values at a time."""
    k = len(qs)
    outer = [q for q in range(v.ndim) if q not in qs][:max(0, v.ndim - _CHUNK_QUBITS)]
    moved = np.moveaxis(v, outer + list(qs), range(len(outer) + k))
    for i in np.ndindex(moved.shape[:len(outer)]):
        x = moved[i]
        rows = np.ascontiguousarray(x).reshape(1 << k, -1)
        x[...] = np.dot(u, rows).reshape(x.shape)


def fused_simulate(circuit: Circuit, initial: Optional[np.ndarray] = None) -> np.ndarray:
    """The state qsprep.simulator.simulate gives, with every fused group
    applied as its full unitary; `initial` is not modified."""
    n = circuit.n_qubits
    if initial is None:
        state = np.zeros(1 << n, dtype=complex)
        state[0] = 1.0
    else:
        state = np.array(initial, dtype=complex).reshape(-1)
    v, gates, done = state.reshape((2,) * n), circuit.gates, 0
    for start, stop, mask in _fusion_plan(gates, state.size):
        for g in gates[done:start]:
            _apply(v, g)
        qs = [q for q in range(n) if mask >> q & 1]
        _apply_matrix(v, _group_unitary(gates[start:stop], qs), qs)
        done = stop
    for g in gates[done:]:
        _apply(v, g)
    return state
