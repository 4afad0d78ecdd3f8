"""Reference alias-table construction: Vose worklists over Fractions.

This is the table builder qsprep used before the exact-integer one: it keeps
every scaled probability as a `Fraction` and gives each zero bin the alias
with the largest surplus by a linear `max` over the large worklist, so its
cost grows like L times the number of large bins.  It is kept only as a test
oracle; `build_alias_table(p, b)` returns the `AliasTable` that
`qsprep.alias_prepare.build_alias_table` must reproduce field for field.

The exact thresholds tau, the distribution they reproduce, a text form of a
table with its thresholds, and a standalone comparator circuit live here
too: only tests use them.
"""
from collections import deque
from fractions import Fraction
from typing import List, Sequence, Tuple

from qsprep.alias_prepare import AliasTable, ValidationError, comparator_gates
from qsprep.circuit_core import Circuit


def _pad_pow2(p: Sequence[Fraction]) -> List[Fraction]:
    L = 2
    while L < len(p):
        L <<= 1
    return list(p) + [Fraction(0)] * (L - len(p))


def vose(p: Sequence[float], b: int) -> Tuple[AliasTable, Tuple[Fraction, ...]]:
    """Vose construction with exact rational thresholds tau, then b-bit keep."""
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
    return AliasTable(L=L, b=b, keep=keep, alias=tuple(alias)), tuple(tau)


def build_alias_table(p: Sequence[float], b: int) -> AliasTable:
    return vose(p, b)[0]


def reproduced_distribution(table: AliasTable, tau: Sequence[Fraction]) -> List[Fraction]:
    """p_j = (tau_j + sum_{alias_k=j, k!=j} (1 - tau_k)) / L, exact."""
    L = table.L
    out = [tau[j] for j in range(L)]
    for k in range(L):
        j = table.alias[k]
        if j != k:
            out[j] += 1 - tau[k]
    return [x / L for x in out]


def serialize_alias_table(table: AliasTable, tau: Sequence[Fraction]) -> str:
    lines = [f"{table.L} {table.b}"]
    for j in range(table.L):
        t = tau[j]
        lines.append(f"{j} {table.keep[j]} {table.alias[j]} {t.numerator}/{t.denominator}")
    return "\n".join(lines) + "\n"


def deserialize_alias_table(text: str) -> Tuple[AliasTable, Tuple[Fraction, ...]]:
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    L, b = int(rows[0][0]), int(rows[0][1])
    keep, alias, tau = [0] * L, [0] * L, [Fraction(0)] * L
    for r in rows[1:]:
        j = int(r[0])
        keep[j], alias[j] = int(r[1]), int(r[2])
        tau[j] = Fraction(r[3])
    return AliasTable(L=L, b=b, keep=tuple(keep), alias=tuple(alias)), tuple(tau)


def build_comparator(b: int) -> Circuit:
    """Standalone |x>|y>|0> -> |x>|y>|y >= x> comparator circuit."""
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
