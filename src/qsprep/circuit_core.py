"""Gate-level IR, register bookkeeping, and resource accounting.

Circuits are immutable gate lists over a flat qubit index space, with named
register ranges carried as metadata so downstream passes (simulator, alias
pipeline) can find e.g. the address register without re-parsing anything.

The proxy T-count charges each Toffoli-equivalent as 4 T gates (clean-ancilla
model):  t_proxy = n_T + n_Tdg + 4 * n_CCX.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

# Gate tags. Rz/Ry carry an angle; MultiControlledRy additionally carries a
# control-polarity mask.
# AND / ANDU are the compute / measured-uncompute halves of a temporary-AND
# (appear only in compiled circuits; AND compute is emitted as explicit
# Clifford+T gates, ANDU is a measurement-fixup marker).
TAGS = (
    "PauliX", "Hadamard", "S", "Sdg", "T", "Tdg",
    "CNOT", "Toffoli", "Swap", "ControlledSwap",
    "Rz", "Ry", "MultiControlledRy", "ANDU",
)

_ANGLED = {"Rz", "Ry", "MultiControlledRy"}

_PI4_TOL = 1e-12    # is_pi4_multiple's tolerance, in units of pi/4

# arity by tag; None means variable
_ARITY = {
    "PauliX": 1, "Hadamard": 1, "S": 1, "Sdg": 1, "T": 1, "Tdg": 1,
    "CNOT": 2, "Toffoli": 3, "Swap": 2, "ControlledSwap": 3,
    "Rz": 1, "Ry": 1, "MultiControlledRy": None, "ANDU": 3,
}


class CircuitError(ValueError):
    """Structural error in a circuit or gate."""


def _check_tag(tag: str) -> None:
    if tag not in _ARITY:
        raise CircuitError(f"unknown gate tag {tag!r}")


@dataclass(frozen=True)
class Gate:
    tag: str
    qubits: Tuple[int, ...]
    angle: Optional[float] = None
    mask: Optional[Tuple[int, ...]] = None       # control polarities, MultiControlledRy

    def __post_init__(self):
        _check_tag(self.tag)
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"{self.tag} repeats a qubit: {self.qubits}")
        arity = _ARITY[self.tag]
        if arity is not None and len(self.qubits) != arity:
            raise CircuitError(f"{self.tag} expects {arity} qubits, got {len(self.qubits)}")
        if self.tag in _ANGLED:
            if self.angle is None or not math.isfinite(self.angle):
                raise CircuitError(f"{self.tag} needs a finite angle")
        if self.tag == "MultiControlledRy":
            # operands are (controls..., target); mask covers the controls
            if len(self.qubits) < 2:
                raise CircuitError("MultiControlledRy needs >= 1 control")
            if self.mask is None or len(self.mask) != len(self.qubits) - 1:
                raise CircuitError("mask length must equal control count")
            if any(b not in (0, 1) for b in self.mask):
                raise CircuitError("mask entries must be 0/1")


@lru_cache(maxsize=1 << 16)
def gate(tag: str, qubits: Tuple[int, ...]) -> Gate:
    """Gate(tag, qubits), built and checked once per distinct pair and then
    shared; an invalid pair raises on every call (errors are not cached)."""
    return Gate(tag, qubits)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: Tuple[Gate, ...] = ()
    # role -> (start, stop) half-open ranges; disjoint, within [0, n_qubits)
    registers: Mapping[str, Tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "registers", dict(self.registers))
        if self.n_qubits < 0:
            raise CircuitError(f"qubit count {self.n_qubits} is negative")
        # one check per distinct gate object: emitters share interned gates
        for g in dict(zip(map(id, self.gates), self.gates)).values():
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise CircuitError(f"gate {g.tag} operand out of range for {self.n_qubits} qubits")
        spans: List[Tuple[int, int]] = []
        for name, (a, b) in self.registers.items():
            if not (0 <= a <= b <= self.n_qubits):
                raise CircuitError(f"register {name} range {(a, b)} invalid")
            spans.append((a, b))
        spans.sort()
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            if a2 < b1:
                raise CircuitError("register ranges overlap")

    def __len__(self) -> int:
        return len(self.gates)

    def register(self, role: str) -> range:
        a, b = self.registers[role]
        return range(a, b)


@dataclass(frozen=True)
class ResourceReport:
    n_T: int
    n_Tdg: int
    n_CCX: int
    t_proxy: int
    compiled_T: int
    total_gates: int
    qubits: int
    histogram: Mapping[str, int]
    # rotations routed through approximate synthesis (filled by the compiler;
    # 0 for raw logical circuits)
    n_rz_synth: int = 0


def tally_gates(gates: Sequence[Gate], n_qubits: int) -> ResourceReport:
    """Resource report of a gate list on n_qubits qubits; see count_resources."""
    hist = dict(Counter(map(attrgetter("tag"), gates)))
    n_t, n_tdg = hist.get("T", 0), hist.get("Tdg", 0)
    n_ccx = hist.get("Toffoli", 0) + hist.get("ControlledSwap", 0)
    return ResourceReport(
        n_T=n_t, n_Tdg=n_tdg, n_CCX=n_ccx, t_proxy=n_t + n_tdg + 4 * n_ccx,
        compiled_T=n_t + n_tdg, total_gates=len(gates), qubits=n_qubits,
        histogram=hist)


def count_resources(circuit: Circuit) -> ResourceReport:
    """Tally gate counts and the proxy T-count t_proxy = n_T + n_Tdg + 4*n_CCX.

    Toffoli and ControlledSwap (one Toffoli plus CNOT conjugation) each count
    as one CCX.  compiled_T counts only literal T/Tdg gates.
    """
    return tally_gates(circuit.gates, circuit.n_qubits)


def _fmt_angle(x: float) -> str:
    return repr(float(x))


def serialize(circuit: Circuit) -> str:
    """Line-oriented text form; bit-exact round trip (angles via repr)."""
    lines = [f"qubits {circuit.n_qubits}"]
    for name in sorted(circuit.registers):
        a, b = circuit.registers[name]
        lines.append(f"register {name} {a} {b}")
    for g in circuit.gates:
        parts = [g.tag] + [str(q) for q in g.qubits]
        if g.angle is not None:
            parts.append(f"angle={_fmt_angle(g.angle)}")
        if g.mask is not None:
            parts.append("mask=" + "".join(str(b) for b in g.mask))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Circuit:
    n_qubits = None
    registers: Dict[str, Tuple[int, int]] = {}
    gates: List[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        try:
            if toks[0] == "qubits":
                n_qubits = int(toks[1])
            elif toks[0] == "register":
                registers[toks[1]] = (int(toks[2]), int(toks[3]))
            else:
                tag = toks[0]
                _check_tag(tag)          # name an unknown tag, not its fields
                qubits: List[int] = []
                angle = mask = None
                for t in toks[1:]:
                    if t.startswith("angle="):
                        angle = float(t[6:])
                    elif t.startswith("mask="):
                        mask = tuple(int(c) for c in t[5:])
                    else:
                        qubits.append(int(t))
                gates.append(Gate(tag, tuple(qubits), angle=angle, mask=mask))
        except (ValueError, IndexError, CircuitError) as e:
            raise CircuitError(f"line {lineno}: {e}") from e
    if n_qubits is None:
        raise CircuitError("missing qubits header")
    return Circuit(n_qubits, gates, registers)


def is_pi4_multiple(theta: float) -> bool:
    """True when theta is a multiple of pi/4 (Clifford+T angle), within
    _PI4_TOL in units of pi/4.  From |theta| ~ 6434 on, floats there are
    spaced wider than that tolerance, so landing on a multiple says
    nothing, and no such angle counts as exact."""
    r = theta / (math.pi / 4)
    return math.ulp(r) <= _PI4_TOL and abs(r - round(r)) <= _PI4_TOL
