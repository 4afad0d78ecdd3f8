"""Shared test oracles: dense unitaries and phase-invariant distances."""
import cmath
import math

import numpy as np

from qsprep.circuit_core import Circuit
from qsprep.simulator import apply_gate

_M1 = {
    "Hadamard": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "T": np.diag([1, cmath.exp(1j * math.pi / 4)]),
    "Tdg": np.diag([1, cmath.exp(-1j * math.pi / 4)]),
    "S": np.diag([1, 1j]).astype(complex),
    "Sdg": np.diag([1, -1j]).astype(complex),
    "PauliX": np.array([[0, 1], [1, 0]], dtype=complex),
}


def tags_to_unitary(tags):
    u = np.eye(2, dtype=complex)
    for t in tags:
        u = _M1[t] @ u
    return u


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Column-by-column dense unitary, one simulated basis state per column."""
    n = circ.n_qubits
    N = 1 << n
    cols = []
    for b in range(N):
        v = np.zeros(N, dtype=complex)
        v[b] = 1.0
        for g in circ.gates:
            v = apply_gate(v, g, n)
        cols.append(v)
    return np.array(cols).T


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def phase_dist_1q(a: np.ndarray, b: np.ndarray) -> float:
    """min_phi ||a - e^{i phi} b|| for 2x2 unitaries (exact closed form)."""
    w = np.linalg.eigvals(b.conj().T @ a)
    d = abs(math.remainder(float(np.angle(w[0]) - np.angle(w[1])), 2 * math.pi))
    return 2 * abs(math.sin(d / 4))


def phase_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-minimized spectral distance, any dimension (grid + refine)."""
    if a.shape == (2, 2):
        return phase_dist_1q(a, b)

    def at(phi):
        return np.linalg.norm(a - cmath.exp(1j * phi) * b, 2)

    grid = np.linspace(-math.pi, math.pi, 257)
    phi0 = min(grid, key=at)
    lo, hi = phi0 - 0.05, phi0 + 0.05
    for _ in range(60):             # golden-free ternary refinement
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if at(m1) < at(m2):
            hi = m2
        else:
            lo = m1
    return at((lo + hi) / 2)


def phase_dist_1q_mp(tags, theta):
    """min_phi ||U - e^{i phi} Rz(theta)|| of a tag word, in mpmath.

    For W = Rz(theta)^dagger U with eigenphases a, b the distance is
    2 sin(|a - b| / 4) = sqrt(2 (1 - c)) with c = |Re(tr W / sqrt(det W))| / 2
    = |cos((a - b) / 2)|.  A distance d ~ 2^-b leaves 1 - c ~ d^2 / 2, which
    takes 0.6 b digits to resolve, and a word within 2^-b has ~6b gates,
    so the precision grows with the word: 40 + len(tags) digits.
    """
    import mpmath as mp
    with mp.workdps(40 + len(tags)):
        h = 1 / mp.sqrt(2)
        t = mp.expjpi(mp.mpf(1) / 4)
        gate = {
            "Hadamard": mp.matrix([[h, h], [h, -h]]),
            "T": mp.diag([1, t]), "Tdg": mp.diag([1, mp.conj(t)]),
            "S": mp.diag([1, 1j]), "Sdg": mp.diag([1, -1j]),
            "PauliX": mp.matrix([[0, 1], [1, 0]]),
        }
        u = mp.eye(2)
        for tag in tags:
            u = gate[tag] * u
        half = mp.mpf(theta) / 2
        w = mp.diag([mp.expj(half), mp.expj(-half)]) * u
        c = abs(mp.re((w[0, 0] + w[1, 1]) / mp.sqrt(mp.det(w)))) / 2
        return mp.sqrt(2 * max(0, 1 - c))
