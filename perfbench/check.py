"""Reference checks for sweep outputs, written independently of qsprep.

Nothing here calls into the compiler under test: gate semantics, the
statevector, the Rz distance and the alias-pipeline evaluator are this
file's own.  Inputs are plain circuits (objects with ``n_qubits``,
``gates`` and ``registers``) and numbers, so a check can be run on
captured outputs after the timed region.

Qubit 0 is the most significant bit of a basis index, as in the CSV
contract; ancillas and work qubits follow the data qubits.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np


class CheckError(ValueError):
    """An output that the reference rejects."""


# ---------------------------------------------------------------------------
# Single-qubit Clifford+T words, in extended precision

_LD = np.longdouble
_R2 = np.sqrt(_LD(2)) / 2
_W = _R2 + 1j * _R2                        # e^{i pi/4}
_WORD_MATRICES = {
    "Hadamard": np.array([[_R2, _R2], [_R2, -_R2]], dtype=np.clongdouble),
    "PauliX": np.array([[0, 1], [1, 0]], dtype=np.clongdouble),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.clongdouble),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=np.clongdouble),
    "T": np.array([[1, 0], [0, _W]], dtype=np.clongdouble),
    "Tdg": np.array([[1, 0], [0, np.conj(_W)]], dtype=np.clongdouble),
}

# Slack on the squared distance: longdouble products of ~10^2 matrices
# carry ~1e-17 rounding, far below the 2^-36 = 1.5e-11 of b = 18.
_DIST2_SLACK = 1e-15


def rz_word_distance_sq(theta: float, tags: Sequence[str]) -> float:
    """Squared phase-invariant operator distance min_phi ||U - e^{i phi} Rz(theta)||^2.

    ``tags`` is the word in temporal order, so U = M_last ... M_first.
    For W = Rz(theta)^dagger U the minimum over phases is 2 - |tr W|.
    """
    u = np.eye(2, dtype=np.clongdouble)
    for tag in tags:
        try:
            u = _WORD_MATRICES[tag] @ u
        except KeyError:
            raise CheckError(f"gate {tag!r} in an Rz word") from None
    half = _LD(theta) / 2
    # tr(Rz^dagger U) with Rz = diag(e^{-i theta/2}, e^{i theta/2})
    tr = (np.cos(half) + 1j * np.sin(half)) * u[0, 0] \
        + (np.cos(half) - 1j * np.sin(half)) * u[1, 1]
    return float(max(_LD(0), 2 - abs(tr)))


def check_rz_word(theta: float, eps: float, tags: Sequence[str]) -> None:
    """Raise unless the word is within eps of Rz(theta) up to phase."""
    d2 = rz_word_distance_sq(theta, tags)
    if d2 > eps * eps + _DIST2_SLACK:
        raise CheckError(f"Rz({theta!r}) word of {len(tags)} gates is at "
                         f"distance {math.sqrt(d2):.3e} > eps {eps:.3e}")


# ---------------------------------------------------------------------------
# Gate counts of a circuit


def circuit_counts(circuit) -> Dict[str, int]:
    """The CSV's count columns recomputed from the gate list."""
    t = sum(1 for g in circuit.gates if g.tag in ("T", "Tdg"))
    ccx = sum(1 for g in circuit.gates if g.tag in ("Toffoli", "ControlledSwap"))
    return {"compiled_T": t, "t_proxy": t + 4 * ccx,
            "total_gates": len(circuit.gates), "qubits": circuit.n_qubits}


# ---------------------------------------------------------------------------
# Statevector reference over the compiled gate set
#
# ANDU (the measured uncompute of a temporary AND) is modelled as the
# reversible uncompute anc ^= a & b.  When the ancilla holds a AND b, as
# a correct AND gadget leaves it, this equals measurement plus the CZ
# fix-up; when it does not, the ancilla is left dirty and the overlap
# with the target drops, so a broken gadget cannot hide.

_PHASES = {"S": 1j, "Sdg": -1j, "T": complex(math.cos(math.pi / 4), math.sin(math.pi / 4)),
           "Tdg": complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))}
_ISQ2 = 1 / math.sqrt(2)


def _at(n: int, fixed: Dict[int, int]):
    idx = [slice(None)] * n
    for q, v in fixed.items():
        idx[q] = v
    return tuple(idx)


def _swap(psi: np.ndarray, i0, i1) -> None:
    tmp = psi[i0].copy()
    psi[i0] = psi[i1]
    psi[i1] = tmp


def statevector(circuit) -> np.ndarray:
    """Amplitudes after running ``circuit`` on |0...0>, shape (2,) * n."""
    n = circuit.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in circuit.gates:
        tag, q = g.tag, g.qubits
        if tag in _PHASES:
            psi[_at(n, {q[0]: 1})] *= _PHASES[tag]
        elif tag == "Hadamard":
            i0, i1 = _at(n, {q[0]: 0}), _at(n, {q[0]: 1})
            a, b = psi[i0].copy(), psi[i1].copy()
            psi[i0] = (a + b) * _ISQ2
            psi[i1] = (a - b) * _ISQ2
        elif tag == "PauliX":
            _swap(psi, _at(n, {q[0]: 0}), _at(n, {q[0]: 1}))
        elif tag == "CNOT":
            c, t = q
            _swap(psi, _at(n, {c: 1, t: 0}), _at(n, {c: 1, t: 1}))
        elif tag in ("Toffoli", "ANDU"):
            a, b, t = q
            _swap(psi, _at(n, {a: 1, b: 1, t: 0}), _at(n, {a: 1, b: 1, t: 1}))
        elif tag == "Swap":
            x, y = q
            _swap(psi, _at(n, {x: 0, y: 1}), _at(n, {x: 1, y: 0}))
        elif tag == "ControlledSwap":
            c, x, y = q
            _swap(psi, _at(n, {c: 1, x: 0, y: 1}), _at(n, {c: 1, x: 1, y: 0}))
        else:
            raise CheckError(f"reference simulator has no gate {tag!r}")
    return psi


def state_infidelity(psi: np.ndarray, amplitudes: Dict[int, float], n_data: int) -> float:
    """1 - |<target|psi>|^2, target = sum_j a_j |j> on the first n_data
    qubits with every later qubit in |0>."""
    n = psi.ndim
    flat = psi.reshape(1 << n_data, 1 << (n - n_data))[:, 0]
    overlap = sum(a * flat[j] for j, a in amplitudes.items())
    return 1.0 - abs(overlap) ** 2


def address_distribution(psi: np.ndarray, address: Sequence[int]) -> np.ndarray:
    probs = np.abs(psi) ** 2
    addr = list(address)
    if addr != sorted(addr):
        raise CheckError("address register must be in ascending qubit order")
    rest = tuple(q for q in range(psi.ndim) if q not in addr)
    return probs.sum(axis=rest).reshape(-1)


# ---------------------------------------------------------------------------
# Bit-plane evaluator for sampling pipelines
#
# A pipeline is a layer of Hadamards on fresh qubits (address and random
# registers) followed by a reversible classical circuit, so the output
# distribution is a histogram over every assignment of those input bits.
# Each qubit is a plane of 64-bit words, one bit per input assignment;
# the last (up to) six inputs are packed inside a word and the others
# are array axes.  Planes keep size-1 axes for inputs they do not depend
# on, so lookups that read only the address stay small.

_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _packed_pattern(pos: int, width: int) -> np.uint64:
    """Word whose bit v is bit `pos` (MSB first) of v mod 2^width."""
    w = 0
    for v in range(64):
        if ((v % (1 << width)) >> (width - 1 - pos)) & 1:
            w |= 1 << v
    return np.uint64(w)


def pipeline_histogram(circuit, address: Sequence[int]) -> Tuple[np.ndarray, int]:
    """(counts, total): how many input assignments land on each address value.

    counts[j] / total is the exact probability of reading j from the
    address register.  Raises CheckError unless the circuit is a Hadamard
    layer on untouched qubits followed by X/CNOT/Toffoli/Swap/CSWAP gates.
    """
    touched = set()
    inputs: List[int] = []
    for g in circuit.gates:
        if g.tag == "Hadamard":
            (q,) = g.qubits
            if q in touched:
                raise CheckError(f"Hadamard on qubit {q} after it was used")
            inputs.append(q)
        touched.update(g.qubits)
    m = len(inputs)
    packed = min(6, m)
    axes = m - packed
    ones = (1,) * axes
    zero = np.zeros(ones, dtype=np.uint64)
    input_plane = {}
    for i, q in enumerate(inputs):
        if i < axes:
            shape = list(ones)
            shape[i] = 2
            input_plane[q] = np.array([0, _ALL], dtype=np.uint64).reshape(shape)
        else:
            input_plane[q] = np.full(ones, _packed_pattern(i - axes, packed),
                                     dtype=np.uint64)
    planes: List[np.ndarray] = [zero] * circuit.n_qubits
    for g in circuit.gates:
        tag, q = g.tag, g.qubits
        if tag == "Hadamard":
            planes[q[0]] = input_plane[q[0]]
        elif tag == "PauliX":
            planes[q[0]] = planes[q[0]] ^ _ALL
        elif tag == "CNOT":
            planes[q[1]] = planes[q[1]] ^ planes[q[0]]
        elif tag == "Toffoli":
            planes[q[2]] = planes[q[2]] ^ (planes[q[0]] & planes[q[1]])
        elif tag == "Swap":
            planes[q[0]], planes[q[1]] = planes[q[1]], planes[q[0]]
        elif tag == "ControlledSwap":
            c, x, y = q
            d = (planes[x] ^ planes[y]) & planes[c]
            planes[x] = planes[x] ^ d
            planes[y] = planes[y] ^ d
        else:
            raise CheckError(f"non-classical gate {tag!r} after the Hadamard layer")
    full = (2,) * axes
    value = np.zeros(64 << axes, dtype=np.int64)
    addr = list(address)
    for i, q in enumerate(addr):
        words = np.broadcast_to(planes[q], full).astype("<u8").reshape(-1)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        value |= bits.astype(np.int64) << (len(addr) - 1 - i)
    counts = np.bincount(value, minlength=1 << len(addr))
    return counts, 64 << axes


def check_histogram_exact(counts: np.ndarray, total: int,
                          marginal: Sequence[Fraction]) -> None:
    """Raise unless counts/total equals the exact marginal bin by bin."""
    if len(counts) != len(marginal):
        raise CheckError(f"{len(counts)} address bins, marginal has {len(marginal)}")
    for j, (c, f) in enumerate(zip(counts, marginal)):
        f = Fraction(f)
        if int(c) * f.denominator != f.numerator * total:
            raise CheckError(f"bin {j}: circuit gives {int(c)}/{total}, "
                             f"realized marginal is {f}")


def check_within_target(counts: np.ndarray, total: int,
                        target: Sequence[float], b: int) -> None:
    """Raise unless every bin is within 2^-b of the target probability."""
    tol = 2.0 ** -b + 1e-15
    for j, c in enumerate(counts):
        p = float(target[j]) if j < len(target) else 0.0
        if abs(int(c) / total - p) > tol:
            raise CheckError(f"bin {j}: {int(c) / total:.6g} vs target {p:.6g} "
                             f"exceeds 2^-{b}")


def prob_infidelity(target: Sequence[float], marginal: Sequence[float]) -> float:
    p = np.clip(np.asarray(target, dtype=float), 0, None)
    q = np.clip(np.asarray(marginal, dtype=float), 0, None)
    return 1.0 - float(np.sum(np.sqrt(p * q))) ** 2

