"""Alias-table construction and the coherent alias-sampling pipeline.

Classical stage: Vose small/large worklists produce an exact (tau, alias)
table in rational arithmetic, then quantize keep_j = floor(tau_j * 2^b).
Bins with tau_j = 1 self-alias (alias_j = j, keep_j = 2^b) so the comparator
outcome is irrelevant for them and they contribute no quantization error.

Quantum stage: uniform superposition on the address register, two reversible
lookups (alias words of width n, keep words of width b), Hadamards on the
b-bit sigma register, a ripple comparator writing sigma >= keep into a flag,
and n flag-controlled swaps between address and alias.  Nothing is
uncomputed; only the address-register marginal is contractual.

Both lookups come from one emitter, _emit_lookup, written straight onto the
pipeline's qubits: lambda = 1 is unary-iteration QROM, lambda > 1 is
SelectSwap.  Under the selectswap backend each lookup's lambda is the power
of two minimizing its exact proxy cost 4 * (max(0, 2L/lambda - 4) +
(lambda - 1) * w), ties to the smaller lambda; nothing is built to choose
it.  optimal_lambda is the separate textbook cost model.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .circuit_core import Circuit, CircuitError, Gate, ResourceReport, count_resources


class ValidationError(ValueError):
    """Bad distribution or parameter."""


@dataclass(frozen=True)
class AliasTable:
    L: int
    b: int
    keep: Tuple[int, ...]
    alias: Tuple[int, ...]
    tau: Tuple[Fraction, ...]


@dataclass(frozen=True)
class LookupSpec:
    L: int
    w: int
    data: Tuple[int, ...]
    backend: str = "qrom"      # "qrom" | "selectswap"
    lam: int = 1               # selectswap block size (power of two)

    def __post_init__(self):
        if self.L < 1 or self.L & (self.L - 1):
            raise ValidationError("L must be a positive power of two")
        if self.w < 1:
            raise ValidationError("word width must be >= 1")
        if len(self.data) != self.L:
            raise CircuitError("data length must equal L")
        if any(d < 0 or d >= (1 << self.w) for d in self.data):
            raise CircuitError("data word exceeds width")
        if self.backend == "selectswap":
            _check_lambda(self.lam, self.L)


def _check_lambda(lam: int, L: int) -> None:
    if lam < 1 or lam > L or lam & (lam - 1):
        raise ValidationError("lambda must be a power of two in [1, L]")


def _pad_pow2(p: Sequence[Fraction]) -> List[Fraction]:
    L = 2
    while L < len(p):
        L <<= 1
    return list(p) + [Fraction(0)] * (L - len(p))


def build_alias_table(p: Sequence[float], b: int) -> AliasTable:
    """Vose construction with exact rational thresholds, then b-bit keep."""
    if b < 1:
        raise ValidationError("b must be >= 1")
    if any(x < 0 for x in p):
        raise ValidationError("negative probability entry")
    total = sum(Fraction(x) for x in p)
    if abs(float(total) - 1.0) > 1e-12:
        raise ValidationError(f"probabilities sum to {float(total)}, not 1")
    probs = _pad_pow2([Fraction(x) / total for x in p])
    L = len(probs)

    scaled = [q * L for q in probs]
    small: deque = deque()
    large: deque = deque()
    for j in range(L):
        (small if scaled[j] < 1 else large).append(j)

    tau = [Fraction(1)] * L
    alias = list(range(L))
    while small and large:
        s = small.popleft()
        if scaled[s] == 0:
            # padding / zero bins take their alias from the largest surplus
            l = max(large, key=lambda j: scaled[j])
            large.remove(l)
        else:
            l = large.popleft()
        tau[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] + scaled[s] - 1
        (small if scaled[l] < 1 else large).append(l)
    # drained bins keep tau = 1 and self-alias

    two_b = 1 << b
    keep = tuple(int(t * two_b) if t < 1 else two_b for t in tau)  # floor for tau < 1
    return AliasTable(L=L, b=b, keep=keep, alias=tuple(alias), tau=tuple(tau))


def reproduced_distribution(table: AliasTable) -> List[Fraction]:
    """p_j = (tau_j + sum_{alias_k=j, k!=j} (1 - tau_k)) / L, exact."""
    L = table.L
    out = [table.tau[j] for j in range(L)]
    for k in range(L):
        j = table.alias[k]
        if j != k:
            out[j] += 1 - table.tau[k]
    return [x / L for x in out]


def realized_marginal(table: AliasTable) -> List[Fraction]:
    """Exact address marginal induced by the quantized circuit."""
    L, two_b = table.L, 1 << table.b
    num = [Fraction(table.keep[j]) for j in range(L)]
    for k in range(L):
        j = table.alias[k]
        if j != k:
            num[j] += two_b - table.keep[k]
    return [x / (two_b * L) for x in num]


def serialize_alias_table(table: AliasTable) -> str:
    lines = [f"{table.L} {table.b}"]
    for j in range(table.L):
        t = table.tau[j]
        lines.append(f"{j} {table.keep[j]} {table.alias[j]} {t.numerator}/{t.denominator}")
    return "\n".join(lines) + "\n"


def deserialize_alias_table(text: str) -> AliasTable:
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    L, b = int(rows[0][0]), int(rows[0][1])
    keep, alias, tau = [0] * L, [0] * L, [Fraction(0)] * L
    for r in rows[1:]:
        j = int(r[0])
        keep[j], alias[j] = int(r[1]), int(r[2])
        tau[j] = Fraction(r[3])
    return AliasTable(L=L, b=b, keep=tuple(keep), alias=tuple(alias), tau=tuple(tau))


# ---------------------------------------------------------------------------
# Reversible lookups


def optimal_lambda(L: int, w: int) -> int:
    """Power-of-two lambda minimizing 4*ceil(L/lambda) + 8*lambda*w; ties -> smaller."""
    best_lam, best_cost = 1, None
    lam = 1
    while lam <= L:
        cost = 4 * ((L + lam - 1) // lam) + 8 * lam * w
        if best_cost is None or cost < best_cost:
            best_lam, best_cost = lam, cost
        lam <<= 1
    return best_lam


def _emit_unary_loads(gates: List[Gate], addr: Sequence[int], anc: Sequence[int],
                      leaf_load) -> None:
    """Unary iteration over the address tree, calling leaf_load(index, ctrl).

    ctrl is a qubit known to hold the full selector for that leaf, or None
    when there is no address (single leaf).  Ancilla `anc` must have length
    len(addr) - 1 and is returned to zero.
    """
    n = len(addr)
    if n == 0:
        leaf_load(0, None)
        return

    def walk(lo: int, hi: int, depth: int, ctrl: Optional[int]) -> None:
        if hi - lo == 1:
            leaf_load(lo, ctrl)
            return
        mid = (lo + hi) // 2
        bit = addr[depth]
        if ctrl is None:
            # root: the address bit itself selects; X-sandwich for the 0 branch
            gates.append(Gate("PauliX", (bit,)))
            walk(lo, mid, depth + 1, bit)
            gates.append(Gate("PauliX", (bit,)))
            walk(mid, hi, depth + 1, bit)
        else:
            a = anc[depth - 1]
            gates.append(Gate("Toffoli", (ctrl, bit, a)))
            gates.append(Gate("CNOT", (ctrl, a)))      # a = ctrl AND NOT bit
            walk(lo, mid, depth + 1, a)
            gates.append(Gate("CNOT", (ctrl, a)))      # a = ctrl AND bit
            walk(mid, hi, depth + 1, a)
            gates.append(Gate("Toffoli", (ctrl, bit, a)))  # a -> 0

    walk(0, 1 << n, 0, None)


def _word_load(gates: List[Gate], word: int, w: int, out: Sequence[int],
               ctrl: Optional[int]) -> None:
    for i in range(w):
        if (word >> (w - 1 - i)) & 1:
            if ctrl is None:
                gates.append(Gate("PauliX", (out[i],)))
            else:
                gates.append(Gate("CNOT", (ctrl, out[i])))


def _lookup_work(n: int, w: int, lam: int) -> int:
    """Work qubits of a lookup over 2^n words: unary-iteration ancillas over
    the quotient bits, then (for lam > 1) the lam temp words."""
    nq = n - (lam.bit_length() - 1)
    return max(0, nq - 1) + (lam * w if lam > 1 else 0)


def _lookup_t_proxy(L: int, w: int, lam: int) -> int:
    """Exact t_proxy of _emit_lookup: two Toffolis per non-root node of the
    unary tree over L/lam leaves, plus (lam - 1) * w CSWAPs."""
    return 4 * (max(0, 2 * L // lam - 4) + (lam - 1) * w)


def _emit_lookup(gates: List[Gate], data: Sequence[int], w: int, lam: int,
                 addr: Sequence[int], out: Sequence[int],
                 work: Sequence[int]) -> None:
    """Append |j>|z> -> |j>|z xor data[j]> onto the given qubits.

    lam = 1 is QROM: unary iteration with CNOT fanout loads straight onto
    `out`.  lam > 1 is SelectSwap: the quotient selects a block of lam words
    into temp registers, the remainder drives a controlled-swap network, and
    the routed word is copied onto `out`.  Ancillas return to zero; temps are
    left dirty (no uncompute).  `work` holds _lookup_work(len(addr), w, lam)
    qubits: the ancillas, then the temps.
    """
    nq = len(addr) - (lam.bit_length() - 1)     # quotient bits
    anc = work[:max(0, nq - 1)]
    temps = [out] if lam == 1 else [
        work[len(anc) + s * w:len(anc) + (s + 1) * w] for s in range(lam)]

    def load_block(q: int, ctrl: Optional[int]) -> None:
        for s, t in enumerate(temps):
            _word_load(gates, data[q * lam + s], w, t, ctrl)

    _emit_unary_loads(gates, addr[:nq], anc, load_block)
    if lam == 1:
        return

    # route word `remainder` to temps[0]
    stride = lam >> 1
    for bit in addr[nq:]:               # remainder bit of weight `stride`
        for s in range(stride):
            for i in range(w):
                gates.append(Gate("ControlledSwap", (bit, temps[s][i], temps[s + stride][i])))
        stride >>= 1

    for i in range(w):
        gates.append(Gate("CNOT", (temps[0][i], out[i])))


def _lookup_circuit(spec: LookupSpec, lam: int) -> Circuit:
    n, w = spec.L.bit_length() - 1, spec.w
    top = n + w + _lookup_work(n, w, lam)
    gates: List[Gate] = []
    _emit_lookup(gates, spec.data, w, lam, range(n), range(n, n + w), range(n + w, top))
    regs = {"address": (0, n), "output": (n, n + w)}
    if top > n + w:
        regs["work"] = (n + w, top)
    return Circuit(top, gates, regs)


def build_qrom(spec: LookupSpec) -> Circuit:
    """|j>|z> -> |j>|z xor D_j> via unary iteration + CNOT fanout loads."""
    return _lookup_circuit(spec, 1)


def build_selectswap(spec: LookupSpec) -> Circuit:
    """SelectSwap lookup with block size spec.lam; lam = 1 equals build_qrom."""
    if spec.backend != "selectswap":
        raise ValidationError("spec.backend must be 'selectswap'")
    return _lookup_circuit(spec, spec.lam)


# ---------------------------------------------------------------------------
# Comparator


def comparator_gates(x: Sequence[int], y: Sequence[int], flag: int,
                     work: Sequence[int]) -> List[Gate]:
    """Write (y >= x) into flag; x, y given MSB-first; work = b dirty carries.

    Ripple of the carry of y + ~x + 1: one MAJ Toffoli per bit into a fresh
    carry ancilla, inputs restored by CNOT/X sandwiches.  Exactly b Toffolis.
    """
    b = len(x)
    gates: List[Gate] = [Gate("PauliX", (work[0],))]  # carry-in = 1
    carry = work[0]
    for i in range(b):
        xi, yi = x[b - 1 - i], y[b - 1 - i]           # LSB first
        nxt = flag if i == b - 1 else work[i + 1]
        gates.append(Gate("PauliX", (xi,)))
        gates.append(Gate("CNOT", (carry, yi)))
        gates.append(Gate("CNOT", (carry, xi)))
        gates.append(Gate("CNOT", (carry, nxt)))
        gates.append(Gate("Toffoli", (yi, xi, nxt)))
        gates.append(Gate("CNOT", (carry, yi)))
        gates.append(Gate("CNOT", (carry, xi)))
        gates.append(Gate("PauliX", (xi,)))
        carry = nxt
    return gates


def build_comparator(b: int) -> Circuit:
    """Standalone |x>|y>|0> -> |x>|y>|y >= x| comparator circuit."""
    if b < 1:
        raise ValidationError("b must be >= 1")
    x = list(range(b))
    y = list(range(b, 2 * b))
    flag = 2 * b
    work = list(range(2 * b + 1, 3 * b + 1))
    gates = comparator_gates(x, y, flag, work)
    regs = {"x": (0, b), "y": (b, 2 * b), "flag": (2 * b, 2 * b + 1),
            "work": (2 * b + 1, 3 * b + 1)}
    return Circuit(3 * b + 1, gates, regs)


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass(frozen=True)
class AliasPipeline:
    circuit: Circuit
    table: AliasTable
    stages: Dict[str, ResourceReport]
    lam: Dict[str, int]     # chosen lambda per lookup ("alias", "keep")


def _lambda_for(L: int, w: int, backend: str, lam: Optional[int]) -> int:
    if backend == "qrom":
        return 1
    if lam is not None:
        _check_lambda(lam, L)
        return lam
    # exact cost minimum; ties toward smaller lambda
    return min((_lookup_t_proxy(L, w, 1 << r), 1 << r) for r in range(L.bit_length()))[1]


def prepare_alias_state(p: Sequence[float], b: int, backend: str = "qrom",
                        lam: Optional[int] = None) -> AliasPipeline:
    if backend not in ("qrom", "selectswap"):
        raise ValidationError(f"unknown backend {backend!r}")
    table = build_alias_table(p, b)
    L, n = table.L, table.L.bit_length() - 1

    alias_words = table.alias
    # keep = 2^b (self-alias) stores as all-ones; the swap branch is then
    # index-invariant so the off-by-one cannot change the marginal
    keep_words = [min(k, (1 << b) - 1) for k in table.keep]
    lam_a = _lambda_for(L, n, backend, lam)
    lam_k = _lambda_for(L, b, backend, lam)

    addr = list(range(n))
    alias_out = list(range(n, 2 * n))
    keep_out = list(range(2 * n, 2 * n + b))
    sigma = list(range(2 * n + b, 2 * n + 2 * b))
    flag = 2 * n + 2 * b
    comp_work = list(range(flag + 1, flag + 1 + b))
    alias_work = range(flag + 1 + b, flag + 1 + b + _lookup_work(n, n, lam_a))
    keep_work = range(alias_work.stop, alias_work.stop + _lookup_work(n, b, lam_k))
    cursor = keep_work.stop

    gates: List[Gate] = []
    marks: List[Tuple[str, int]] = []

    def stage(name: str) -> None:
        marks.append((name, len(gates)))

    stage("superposition")
    for q in addr:
        gates.append(Gate("Hadamard", (q,)))
    stage("lookup_alias")
    _emit_lookup(gates, alias_words, n, lam_a, addr, alias_out, alias_work)
    stage("lookup_keep")
    _emit_lookup(gates, keep_words, b, lam_k, addr, keep_out, keep_work)
    stage("random")
    for q in sigma:
        gates.append(Gate("Hadamard", (q,)))
    stage("comparator")
    gates.extend(comparator_gates(keep_out, sigma, flag, comp_work))
    stage("swap")
    for i in range(n):
        gates.append(Gate("ControlledSwap", (flag, addr[i], alias_out[i])))
    marks.append(("end", len(gates)))

    regs = {
        "address": (0, n), "alias": (n, 2 * n), "keep": (2 * n, 2 * n + b),
        "random": (2 * n + b, 2 * n + 2 * b), "flag": (flag, flag + 1),
        "work": (flag + 1, cursor),
    }
    circ = Circuit(cursor, gates, regs)

    stages: Dict[str, ResourceReport] = {}
    for (name, start), (_, stop) in zip(marks, marks[1:]):
        stages[name] = count_resources(Circuit(cursor, gates[start:stop]))
    return AliasPipeline(circuit=circ, table=table, stages=stages,
                         lam={"alias": lam_a, "keep": lam_k})
