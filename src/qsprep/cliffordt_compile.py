"""Lowering of logical circuits to explicit Clifford+T gate streams.

`compile_circuit` is the one path from a logical gate to Clifford+T
gates.  `_lower` maps one logical gate to its block of gates, the ancillas
it uses and its count of non-exact rotations, from the gate alone; a dict
local to each call lowers every distinct gate once.  One peephole rule
joins the blocks: an X cancels the X on its qubit anywhere in the trailing
run of X gates (X gates commute), and a CNOT cancels an equal last gate.
Every passthrough gate goes through it, and so does each block up to its
first gate that stays and is not an X; no block holds such a pair, so the
rest of the block is appended whole.  The output has no qubit twice in a
run of X gates and no equal adjacent CNOTs, and compiling it again gives
it back.  So the X flips that two MultiControlledRy gates put on a shared
control cancel, and the CNOTs around an empty rotation cancel, as do
cascades of such pairs.

- Rz: a multiple of pi/4 becomes its minimal S/T word (zero error); any
  other angle becomes a grid-synthesized word within eps = 2^-b.  Every
  word comes from `synthesize_rz_tags`, memoized per (theta, eps).
- Ry is an Rz conjugated by the Clifford S.H basis change, less the H.H
  pair where the word begins or ends with H, and nothing for the empty
  word; a controlled Ry is the standard two-rotation split around a pair
  of CNOTs, and nothing when both its words are empty.
- Toffolis and multi-controlled gates share one V-chain: a ladder of
  temporary ANDs into ancillas (Gidney, arXiv:1709.06648; 4 T each and
  a measured uncompute) or of textbook 7-T Toffolis.

A documented fallback ("cost-model") keeps large resource sweeps cheap:
instead of synthesizing, each residual Rz stays in the output as a
placeholder and is charged ceil(3*log2(1/eps)) + 11 T gates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .circuit_core import (
    Circuit, Gate, ResourceReport, count_resources, gate, is_pi4_multiple,
)
from .gridsynth import SynthesisError, synthesize_rz_tags


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


def cost_model_t_count(b: int) -> int:
    """Placeholder T-count charged per rotation in cost-model mode at
    eps = 2^-b: ceil(3*log2(1/eps)) + 11, computed from b because 2^-b
    underflows from b = 1075 on."""
    return 3 * b + 11


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


# ---------------------------------------------------------------------------
# Full-circuit compilation

_PASSTHROUGH = {"PauliX", "Hadamard", "S", "Sdg", "T", "Tdg", "CNOT", "ANDU"}
_SELF_INVERSE = {"PauliX", "CNOT"}    # the tags _emit may cancel


def _rz(q: int, theta: float, eps: Optional[float]) -> Tuple[List[Gate], int]:
    """Rz(theta) on q and its count of non-exact rotations (0 or 1)."""
    exact = is_pi4_multiple(theta)
    if not exact and eps is None:
        return [Gate("Rz", (q,), angle=theta)], 1
    if not exact and eps == 0.0:
        raise SynthesisError(f"Rz synthesis failed for theta={theta!r}: "
                             "eps = 2^-b underflows to 0.0 for b >= 1075")
    word = _rz_tags(theta, 1.0 if exact else eps)
    on_q = {tag: gate(tag, (q,)) for tag in set(word)}
    return [on_q[tag] for tag in word], 0 if exact else 1


def _ry(q: int, theta: float, eps: Optional[float]) -> Tuple[List[Gate], int]:
    """Ry(theta) = S H Rz(theta) H Sdg on q, less the H.H pair at each end
    of the frame where the Rz word begins or ends with H; no gates for an
    empty Rz word."""
    rz, rot = _rz(q, theta, eps)
    if not rz:
        return [], rot
    h = gate("Hadamard", (q,))
    out = [gate("Sdg", (q,)), h, *rz, h, gate("S", (q,))]
    if out[2] == h:
        del out[1:3]
    if out[-3:-1] == [h, h]:
        del out[-3:-1]
    return out, rot


def _lower(g: Gate, n: int, toffoli_mode: str, eps: Optional[float]
           ) -> Tuple[List[Gate], int, int]:
    """One logical gate on n qubits as (gates, ancillas, rotations).

    The gates use the ancillas n, n+1, ...; rotations counts the non-exact
    Rz among them, each a placeholder Rz gate when eps is None.
    """
    tag, qs = g.tag, g.qubits
    if tag in _PASSTHROUGH:
        return [g], 0, 0
    if tag == "Swap":
        a, b = qs
        return [gate("CNOT", (a, b)), gate("CNOT", (b, a)), gate("CNOT", (a, b))], 0, 0
    if tag in ("Toffoli", "ControlledSwap"):
        c, x, y = qs
        tof, anc = ((_toffoli_7t(c, x, y), 0) if toffoli_mode == "textbook_7T"
                    else (lower_mcx((c, x), y, (n,), toffoli_mode), 1))
        if tag == "ControlledSwap":
            tof = [gate("CNOT", (y, x))] + tof + [gate("CNOT", (y, x))]
        return tof, anc, 0
    if tag in ("Rz", "Ry"):
        rot_gates, rot = (_rz if tag == "Rz" else _ry)(qs[0], g.angle, eps)
        return rot_gates, 0, rot
    if tag == "MultiControlledRy":
        controls, t, half = qs[:-1], qs[-1], g.angle / 2
        # controlled Ry(theta) = Ry(theta/2) . CNOT . Ry(-theta/2) . CNOT
        ry1, r1 = _ry(t, -half, eps)
        ry2, r2 = _ry(t, half, eps)
        if not ry1 and not ry2:                 # both words are the identity
            return [], 0, r1 + r2
        anc = len(controls) - 1
        flips = [gate("PauliX", (q,)) for q, m in zip(controls, g.mask) if m == 0]
        compute, top, uncompute = _v_chain(controls, range(n, n + anc), toffoli_mode)
        cnot = gate("CNOT", (top, t))
        return [*flips, *compute, cnot, *ry1, cnot, *ry2, *uncompute, *flips], anc, r1 + r2
    raise CompileError(f"cannot lower gate tag {tag!r}")


def _emit(gates: List[Gate], g: Gate) -> bool:
    """Append g to gates, or cancel it: an X against the X on its qubit in
    the trailing run of X gates, a CNOT against an equal last gate.
    Returns whether g stays."""
    if g.tag == "PauliX":
        i = len(gates) - 1
        while i >= 0 and gates[i].tag == "PauliX":
            if gates[i].qubits == g.qubits:
                del gates[i]
                return False
            i -= 1
    elif g.tag == "CNOT" and gates and gates[-1] == g:
        gates.pop()
        return False
    gates.append(g)
    return True


def compile_circuit(circuit: Circuit,
                    cfg: SynthesisConfig) -> Tuple[Circuit, ResourceReport]:
    """Lower a logical circuit to {X, H, S, Sdg, T, Tdg, CNOT, ANDU}.

    Returns the compiled circuit and its resource report; in cost-model
    mode each Rz placeholder is charged cost_model_t_count(b) toward
    compiled_T.
    """
    n = circuit.n_qubits
    eps = cfg.eps if cfg.rz_mode == "gridsynth" else None
    blocks: Dict[Gate, Tuple[List[Gate], int, int]] = {}
    gates: List[Gate] = []
    n_anc = n_rot = 0
    last_qubits = None           # gates[-1].qubits, kept apart for speed
    for g in circuit.gates:
        tag = g.tag
        if tag in _PASSTHROUGH:
            # only an X, or a gate on the last gate's qubits, can cancel
            if tag != "PauliX" and g.qubits != last_qubits:
                gates.append(g)
                last_qubits = g.qubits
                continue
            _emit(gates, g)
        else:
            block = blocks.get(g)
            if block is None:
                block = blocks[g] = _lower(g, n, cfg.toffoli_mode, eps)
            body, anc, rot = block
            n_rot += rot
            n_anc = max(n_anc, anc)
            # a block cancels into the output only through its leading X
            # gates and first other gate: no block holds a pair that _emit
            # cancels, so once one of those stays the rest stays too
            if body and body[0].tag not in _SELF_INVERSE:
                gates += body
            else:
                for i, x in enumerate(body):
                    if _emit(gates, x) and x.tag != "PauliX":
                        gates += body[i + 1:]
                        break
        last_qubits = gates[-1].qubits if gates else None
    registers = dict(circuit.registers)
    if n_anc and "ancilla" not in registers:
        registers["ancilla"] = (n, n + n_anc)
    out = Circuit(n + n_anc, gates, registers)
    report = count_resources(out)
    extra = n_rot * cost_model_t_count(cfg.b) if eps is None else 0
    report = replace(report, n_rz_synth=n_rot, compiled_T=report.compiled_T + extra,
                     t_proxy=report.t_proxy + extra)
    return out, report
