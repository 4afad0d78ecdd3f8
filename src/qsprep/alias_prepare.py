"""Alias-table construction and the coherent alias-sampling pipeline.

Classical stage: Vose small/large worklists in exact integers.  Float
probabilities are dyadic, so p_j = a_j / A over one common denominator and
each threshold tau_j = s_j / A is held as the integer s_j; keep_j =
floor(s_j * 2^b / A).  A zero bin takes its alias from the largest surplus
(ties to the bin that entered the large list first) through a lazily pruned
heap, any other small bin from the head of the large FIFO, so the build is
O(L log L).
Bins with tau_j = 1 self-alias (alias_j = j, keep_j = 2^b) so the comparator
outcome is irrelevant for them and they contribute no quantization error.

Quantum stage: uniform superposition on the address register, one
reversible lookup of the (n + b)-bit word alias_j << b | min(keep_j, 2^b - 1)
written straight onto the adjacent alias and keep registers (after Babbush
et al., arXiv:1805.03662, Fig. 11), Hadamards on the b-bit sigma register, a
ripple comparator writing sigma >= keep into a flag, and n flag-controlled
swaps between address and alias.  Nothing is uncomputed; only the
address-register marginal is contractual.

The lookup comes from _emit_lookup, written straight onto the pipeline's
qubits: lambda = 1 is unary-iteration QROM, lambda > 1 is SelectSwap.  Each
control qubit of a leaf gets one row of w load gates per target register,
built once per lookup (a CNOT from the control to each output bit, or an X
at the root), and each word takes the gates of its set bits from that row.
The lookup's exact proxy cost over L words of width w is
4 * (max(0, 2L/lambda - 4) + (lambda - 1) * w); under the selectswap backend
lambda is the power of two minimizing it for w = n + b, ties to the smaller
lambda, and nothing is built to choose it.  optimal_lambda is the separate
textbook cost model.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from typing import Dict, List, Optional, Sequence, Tuple

from .circuit_core import Circuit, CircuitError, Gate, ResourceReport, gate, tally_gates


class ValidationError(ValueError):
    """Bad distribution or parameter."""


@dataclass(frozen=True)
class AliasTable:
    L: int
    b: int
    keep: Tuple[int, ...]
    alias: Tuple[int, ...]


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


def build_alias_table(p: Sequence[float], b: int) -> AliasTable:
    """Vose construction in exact integers, then b-bit keep thresholds."""
    if b < 1:
        raise ValidationError("b must be >= 1")
    if any(x < 0 for x in p):
        raise ValidationError("negative probability entry")
    ratios = [x.as_integer_ratio() for x in p]
    den = math.lcm(*(d for _, d in ratios))
    a = [x * (den // d) for x, d in ratios]
    A = sum(a)       # p_j = a_j / A exactly
    if abs(A / den - 1.0) > 1e-12:
        raise ValidationError(f"probabilities sum to {A / den}, not 1")
    L = max(2, 1 << (len(a) - 1).bit_length())
    s = [x * L for x in a] + [0] * (L - len(a))    # scaled_j = s_j / A

    # a large bin sits in a FIFO and in a max-heap at once; live[j] is its
    # current entry, so the copy taken through the other list is skipped.
    # The heap's seq breaks ties in FIFO order, as max() over the FIFO would.
    small, large, heap, live = deque(), deque(), [], [None] * L
    seq = count()

    def file(j: int) -> None:
        if s[j] < A:
            small.append(j)
        else:
            live[j] = e = (-s[j], next(seq), j)
            large.append(e)
            heapq.heappush(heap, e)

    for j in range(L):
        file(j)
    keep, alias = [1 << b] * L, list(range(L))
    while small:        # exact sums keep `large` nonempty while `small` is
        k = small.popleft()
        # zero bins take their alias from the largest surplus, the others
        # from the FIFO head; stale entries are popped and dropped
        pop = large.popleft if s[k] else (lambda: heapq.heappop(heap))
        l = next(e for e in iter(pop, None) if live[e[2]] is e)[2]
        live[l] = None
        keep[k], alias[k] = (s[k] << b) // A, l
        s[l] += s[k] - A
        file(l)
    # bins left in `large` hold exactly 1: keep = 2^b, self-alias
    return AliasTable(L=L, b=b, keep=tuple(keep), alias=tuple(alias))


def marginal_numerators(table: AliasTable) -> Tuple[List[int], int]:
    """(num, den): the quantized circuit's address marginal is num[j] / den."""
    L, two_b = table.L, 1 << table.b
    num = list(table.keep)
    for k, j in enumerate(table.alias):
        if j != k:
            num[j] += two_b - table.keep[k]
    return num, two_b * L


def realized_marginal(table: AliasTable) -> List[Fraction]:
    """Exact address marginal induced by the quantized circuit."""
    num, den = marginal_numerators(table)
    return [Fraction(x, den) for x in num]


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
            gates.append(gate("PauliX", (bit,)))
            walk(lo, mid, depth + 1, bit)
            gates.append(gate("PauliX", (bit,)))
            walk(mid, hi, depth + 1, bit)
        else:
            a = anc[depth - 1]
            gates.append(gate("Toffoli", (ctrl, bit, a)))
            gates.append(gate("CNOT", (ctrl, a)))      # a = ctrl AND NOT bit
            walk(lo, mid, depth + 1, a)
            gates.append(gate("CNOT", (ctrl, a)))      # a = ctrl AND bit
            walk(mid, hi, depth + 1, a)
            gates.append(gate("Toffoli", (ctrl, bit, a)))  # a -> 0

    walk(0, 1 << n, 0, None)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")   # "0"/"1" -> selector bytes


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

    # the w load gates of each (control, temp) pair, built once; a word
    # takes the gates of its set bits, MSB first
    rows: Dict[Tuple[Optional[int], int], List[Gate]] = {}
    spec = f"0{w}b"

    def load_block(q: int, ctrl: Optional[int]) -> None:
        for s, t in enumerate(temps):
            row = rows.get((ctrl, s))
            if row is None:
                row = rows[ctrl, s] = [gate("PauliX", (o,)) if ctrl is None
                                       else gate("CNOT", (ctrl, o)) for o in t]
            bits = format(data[q * lam + s], spec).encode().translate(_BIT_BYTES)
            gates.extend(compress(row, bits))

    _emit_unary_loads(gates, addr[:nq], anc, load_block)
    if lam == 1:
        return

    # route word `remainder` to temps[0]
    stride = lam >> 1
    for bit in addr[nq:]:               # remainder bit of weight `stride`
        for s in range(stride):
            for i in range(w):
                gates.append(gate("ControlledSwap", (bit, temps[s][i], temps[s + stride][i])))
        stride >>= 1

    for i in range(w):
        gates.append(gate("CNOT", (temps[0][i], out[i])))


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
    gates: List[Gate] = [gate("PauliX", (work[0],))]  # carry-in = 1
    carry = work[0]
    for i in range(b):
        xi, yi = x[b - 1 - i], y[b - 1 - i]           # LSB first
        nxt = flag if i == b - 1 else work[i + 1]
        gates.append(gate("PauliX", (xi,)))
        gates.append(gate("CNOT", (carry, yi)))
        gates.append(gate("CNOT", (carry, xi)))
        gates.append(gate("CNOT", (carry, nxt)))
        gates.append(gate("Toffoli", (yi, xi, nxt)))
        gates.append(gate("CNOT", (carry, yi)))
        gates.append(gate("CNOT", (carry, xi)))
        gates.append(gate("PauliX", (xi,)))
        carry = nxt
    return gates


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass(frozen=True)
class AliasPipeline:
    circuit: Circuit
    table: AliasTable
    stages: Dict[str, ResourceReport]
    lam: int                # lambda of the lookup (1 under qrom)


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

    # one word per address, alias_j above min(keep_j, 2^b - 1): keep = 2^b
    # (self-alias) stores as all-ones; the swap branch is then
    # index-invariant so the off-by-one cannot change the marginal
    w = n + b
    words = [a << b | min(k, (1 << b) - 1) for a, k in zip(table.alias, table.keep)]
    lam = _lambda_for(L, w, backend, lam)

    addr = list(range(n))
    alias_out = list(range(n, 2 * n))
    keep_out = list(range(2 * n, 2 * n + b))
    sigma = list(range(2 * n + b, 2 * n + 2 * b))
    flag = 2 * n + 2 * b
    comp_work = list(range(flag + 1, flag + 1 + b))
    lookup_work = range(flag + 1 + b, flag + 1 + b + _lookup_work(n, w, lam))
    cursor = lookup_work.stop

    gates: List[Gate] = []
    marks: List[Tuple[str, int]] = []

    def stage(name: str) -> None:
        marks.append((name, len(gates)))

    stage("superposition")
    for q in addr:
        gates.append(gate("Hadamard", (q,)))
    stage("lookup")
    _emit_lookup(gates, words, w, lam, addr, alias_out + keep_out, lookup_work)
    stage("random")
    for q in sigma:
        gates.append(gate("Hadamard", (q,)))
    stage("comparator")
    gates.extend(comparator_gates(keep_out, sigma, flag, comp_work))
    stage("swap")
    for i in range(n):
        gates.append(gate("ControlledSwap", (flag, addr[i], alias_out[i])))
    marks.append(("end", len(gates)))

    regs = {
        "address": (0, n), "alias": (n, 2 * n), "keep": (2 * n, 2 * n + b),
        "random": (2 * n + b, 2 * n + 2 * b), "flag": (flag, flag + 1),
        "work": (flag + 1, cursor),
    }
    circ = Circuit(cursor, gates, regs)

    stages = {name: tally_gates(gates[start:stop], cursor)
              for (name, start), (_, stop) in zip(marks, marks[1:])}
    return AliasPipeline(circuit=circ, table=table, stages=stages, lam=lam)
