"""Lowering of logical circuits to explicit Clifford+T gate streams.

`compile_circuit` is the one path from a logical gate to Clifford+T
gates; `_Lowerer` emits every gate of the output stream.

- Rz: a multiple of pi/4 becomes its minimal S/T word (zero error); any
  other angle becomes a grid-synthesized word within eps = 2^-b.  Every
  word comes from `synthesize_rz_tags`, memoized per (theta, eps).
- Ry is an Rz conjugated by the Clifford S.H basis change; a controlled
  Ry is the standard two-rotation split around a pair of CNOTs.
- Toffolis and multi-controlled gates share one V-chain: a ladder of
  temporary ANDs into ancillas (Gidney, arXiv:1709.06648; 4 T each and
  a measured uncompute) or of textbook 7-T Toffolis.

A documented fallback ("cost-model") keeps large resource sweeps cheap:
instead of synthesizing, each residual Rz stays in the output as a
placeholder and is charged ceil(3*log2(1/eps)) + 11 T gates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .circuit_core import (
    Circuit, Gate, ResourceReport, count_resources, gate, is_pi4_multiple,
)
from .gridsynth import synthesize_rz_tags


class CompileError(ValueError):
    """Bad parameter or unloweable gate tag."""


TOFFOLI_MODES = ("gidney_and_measured", "textbook_7T")
RZ_MODES = ("gridsynth", "cost-model")


@dataclass(frozen=True)
class SynthesisConfig:
    b: int = 10                                  # eps = 2^-b
    toffoli_mode: str = "gidney_and_measured"
    rz_mode: str = "gridsynth"

    def __post_init__(self):
        if self.b < 1:
            raise CompileError("precision bits b must be >= 1")
        if self.toffoli_mode not in TOFFOLI_MODES:
            raise CompileError(f"unknown toffoli mode {self.toffoli_mode!r}")
        if self.rz_mode not in RZ_MODES:
            raise CompileError(f"unknown rz mode {self.rz_mode!r}")

    @property
    def eps(self) -> float:
        return 2.0 ** (-self.b)


def cost_model_t_count(eps: float) -> int:
    """Placeholder T-count charged per rotation in cost-model mode."""
    return math.ceil(3 * math.log2(1 / eps)) + 11


# ---------------------------------------------------------------------------
# Rz words

@lru_cache(maxsize=None)
def _rz_tags(theta: float, eps: float) -> Tuple[str, ...]:
    """The word for Rz(theta) at eps, shared across compile calls."""
    return tuple(synthesize_rz_tags(theta, eps))


# ---------------------------------------------------------------------------
# Toffoli / temporary-AND lowering

def _and_compute(a: int, b: int, anc: int) -> List[Gate]:
    # temporary AND: |a,b,0> -> |a,b,ab> exactly, 4 T gates
    g = gate
    return [
        g("Hadamard", (anc,)), g("T", (anc,)),
        g("CNOT", (a, anc)), g("CNOT", (b, anc)),
        g("CNOT", (anc, a)), g("CNOT", (anc, b)),
        g("Tdg", (a,)), g("Tdg", (b,)), g("T", (anc,)),
        g("CNOT", (anc, a)), g("CNOT", (anc, b)),
        g("Hadamard", (anc,)), g("S", (anc,)),
    ]


def _toffoli_7t(a: int, b: int, t: int) -> List[Gate]:
    g = gate
    return [
        g("Hadamard", (t,)), g("CNOT", (b, t)), g("Tdg", (t,)),
        g("CNOT", (a, t)), g("T", (t,)), g("CNOT", (b, t)),
        g("Tdg", (t,)), g("CNOT", (a, t)), g("T", (b,)), g("T", (t,)),
        g("Hadamard", (t,)), g("CNOT", (a, b)), g("T", (a,)),
        g("Tdg", (b,)), g("CNOT", (a, b)),
    ]


def _v_chain(controls: Sequence[int], ancillas: Sequence[int], mode: str
             ) -> Tuple[List[Gate], Optional[int], List[Gate]]:
    """AND of all `controls` into one qubit via len(controls)-1 ANDs.

    Returns (compute, top, uncompute): after `compute` the qubit `top`
    holds the AND, and `uncompute` returns the ancillas to |0>.  One
    control is its own top; no controls give top None.
    """
    if mode not in TOFFOLI_MODES:
        raise CompileError(f"unknown toffoli mode {mode!r}")
    if len(ancillas) < len(controls) - 1:
        raise CompileError("V-chain needs len(controls)-1 ancillas")
    compute: List[Gate] = []
    uncompute: List[Gate] = []
    top = controls[0] if controls else None
    for b, anc in zip(controls[1:], ancillas):
        if mode == "gidney_and_measured":
            compute += _and_compute(top, b, anc)
            uncompute = [gate("ANDU", (top, b, anc))] + uncompute
        else:
            compute += _toffoli_7t(top, b, anc)
            uncompute = _toffoli_7t(top, b, anc) + uncompute
        top = anc
    return compute, top, uncompute


def lower_mcx(controls: Sequence[int], target: int, ancillas: Sequence[int],
              mode: str = "gidney_and_measured") -> List[Gate]:
    """Multi-controlled X via a V-chain of len(controls)-1 temporary ANDs."""
    compute, top, uncompute = _v_chain(controls, ancillas, mode)
    if top is None:
        return [gate("PauliX", (target,))]
    return compute + [gate("CNOT", (top, target))] + uncompute


@lru_cache(maxsize=1 << 16)
def _lowered_toffoli(a: int, b: int, t: int, anc: Optional[int],
                     mode: str) -> Tuple[Gate, ...]:
    """One Toffoli as explicit gates; gidney mode borrows ancilla `anc`."""
    return tuple(_toffoli_7t(a, b, t) if mode == "textbook_7T"
                 else lower_mcx((a, b), t, (anc,), mode))


# ---------------------------------------------------------------------------
# Full-circuit compilation

_PASSTHROUGH = {"PauliX", "Hadamard", "S", "Sdg", "T", "Tdg", "CNOT", "ANDU"}


class _Lowerer:
    def __init__(self, n_logical: int, cfg: SynthesisConfig):
        self.n = n_logical
        self.cfg = cfg
        self.gates: List[Gate] = []
        self.max_anc = 0
        self.n_rz_synth = 0
        self.n_placeholders = 0

    def ancillas(self, count: int) -> List[int]:
        self.max_anc = max(self.max_anc, count)
        return [self.n + i for i in range(count)]

    def emit_rz(self, q: int, theta: float) -> None:
        if is_pi4_multiple(theta):
            for tag in _rz_tags(theta, 1.0):
                self.gates.append(gate(tag, (q,)))
            return
        self.n_rz_synth += 1
        if self.cfg.rz_mode == "cost-model":
            self.n_placeholders += 1
            self.gates.append(Gate("Rz", (q,), angle=theta))
            return
        for tag in _rz_tags(theta, self.cfg.eps):
            self.gates.append(gate(tag, (q,)))

    def emit_ry(self, q: int, theta: float) -> None:
        self.gates.append(gate("Sdg", (q,)))
        self.gates.append(gate("Hadamard", (q,)))
        self.emit_rz(q, theta)
        self.gates.append(gate("Hadamard", (q,)))
        self.gates.append(gate("S", (q,)))

    def emit_cry(self, c: int, t: int, theta: float) -> None:
        # Ry(theta/2) . CNOT . Ry(-theta/2) . CNOT as a matrix product
        self.gates.append(gate("CNOT", (c, t)))
        self.emit_ry(t, -theta / 2)
        self.gates.append(gate("CNOT", (c, t)))
        self.emit_ry(t, theta / 2)

    def emit_toffoli(self, a: int, b: int, t: int) -> None:
        mode = self.cfg.toffoli_mode
        anc = self.ancillas(1)[0] if mode == "gidney_and_measured" else None
        self.gates += _lowered_toffoli(a, b, t, anc, mode)

    def emit_mcry(self, controls: Sequence[int], target: int,
                  mask: Sequence[int], theta: float) -> None:
        flips = [gate("PauliX", (q,)) for q, m in zip(controls, mask) if m == 0]
        compute, top, uncompute = _v_chain(
            controls, self.ancillas(len(controls) - 1), self.cfg.toffoli_mode)
        self.gates += flips + compute
        self.emit_cry(top, target, theta)
        self.gates += uncompute + flips

    def lower(self, g: Gate) -> None:
        tag = g.tag
        if tag in _PASSTHROUGH:
            self.gates.append(g)
        elif tag == "Swap":
            a, b = g.qubits
            self.gates += [gate("CNOT", (a, b)), gate("CNOT", (b, a)),
                           gate("CNOT", (a, b))]
        elif tag == "Toffoli":
            self.emit_toffoli(*g.qubits)
        elif tag == "ControlledSwap":
            c, x, y = g.qubits
            self.gates.append(gate("CNOT", (y, x)))
            self.emit_toffoli(c, x, y)
            self.gates.append(gate("CNOT", (y, x)))
        elif tag == "Rz":
            self.emit_rz(g.qubits[0], g.angle)
        elif tag == "Ry":
            self.emit_ry(g.qubits[0], g.angle)
        elif tag == "MultiControlledRy":
            self.emit_mcry(g.qubits[:-1], g.qubits[-1], g.mask, g.angle)
        else:
            raise CompileError(f"cannot lower gate tag {tag!r}")


def compile_circuit(circuit: Circuit,
                    cfg: SynthesisConfig) -> Tuple[Circuit, ResourceReport]:
    """Lower a logical circuit to {X, H, S, Sdg, T, Tdg, CNOT, ANDU}.

    Returns the compiled circuit and its resource report; in cost-model
    mode each Rz placeholder is charged ceil(3b)+11 toward compiled_T.
    """
    low = _Lowerer(circuit.n_qubits, cfg)
    for g in circuit.gates:
        low.lower(g)
    registers = dict(circuit.registers)
    if low.max_anc and "ancilla" not in registers:
        registers["ancilla"] = (circuit.n_qubits,
                                circuit.n_qubits + low.max_anc)
    out = Circuit(circuit.n_qubits + low.max_anc, low.gates, registers)
    report = count_resources(out)
    extra = low.n_placeholders * cost_model_t_count(cfg.eps)
    report = replace(report,
                     n_rz_synth=low.n_rz_synth,
                     compiled_T=report.compiled_T + extra,
                     t_proxy=report.t_proxy + extra)
    return out, report
