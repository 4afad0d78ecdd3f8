"""Reference alias-table construction: Vose worklists over Fractions.

This is the table builder qsprep used before the exact-integer one: it keeps
every scaled probability as a `Fraction` and gives each zero bin the alias
with the largest surplus by a linear `max` over the large worklist, so its
cost grows like L times the number of large bins.  It is kept only as a test
oracle; `build_alias_table(p, b)` returns the `AliasTable` that
`qsprep.alias_prepare.build_alias_table` must reproduce field for field.
"""
from collections import deque
from fractions import Fraction
from typing import List, Sequence

from qsprep.alias_prepare import AliasTable, ValidationError


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
