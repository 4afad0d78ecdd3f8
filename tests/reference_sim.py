"""Reference statevector simulation: one dense matrix per gate.

This is the simulator qsprep used before the structure-aware kernel: every
gate becomes its full 2^k x 2^k matrix on its k operands and is applied with
`np.tensordot`.  It is kept only as a test oracle; `simulate(circuit,
initial)` returns a new state and never touches `initial`.

ANDU (the measured uncompute of a temporary AND) is built as written in the
compiler, H on the ancilla, CCZ, H again, not as the Toffoli it equals.
"""
import math
from typing import Optional, Sequence

import numpy as np

from qsprep.circuit_core import Circuit, Gate


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
