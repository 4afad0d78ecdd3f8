"""The exact back end that `gridsynth` replaced, kept as the test oracle
for its shorter form: exact synthesis by best-first search over the column
steps, the replay of every H T^{-j} step onto the whole matrix that finds
the Clifford tail, the sde rule that tries all four j at every column
step, the Diophantine solver with its defensive branches and its gcd in
Z[sqrt(-d)] for the primes p = 3, 5 (mod 8), and the Z[omega] Euclidean
step that multiplies out each quotient it tries."""
from __future__ import annotations

import math
from typing import List, Optional, Tuple

from sympy import factorint
from sympy.ntheory.residue_ntheory import sqrt_mod

from qsprep.gridsynth import _LOG_LAMBDA, _T_WORD, RingMatrix, _sde
from qsprep.gridsynth import _strip as _strip_column
from qsprep.rings import (
    RingError, ZOmega, ZSqrt2,
    ZO_DELTA, ZO_ONE, ZO_UNIT_LOG, ZO_ZERO,
    _zo_norm_cofactor, round_div, zo_abs_sq, zo_add, zo_div_sqrt2,
    zo_from_zsqrt2, zo_galois, zo_gcd, zo_mul, zo_norm, zo_pow, zo_rot,
    zo_sqrt2_divisible, zo_sub,
    zs_div_exact, zs_divides, zs_gcd, zs_lambda_power, zs_norm,
    zs_sqrt2_valuation, zs_totally_positive,
)


# ---------------------------------------------------------------------------
# Z[omega] remainder: a product v q and a subtraction for each of the 27+
# quotients q around the rounded one


def zo_mod(u: ZOmega, v: ZOmega) -> ZOmega:
    n = zo_norm(v)
    q0 = [round_div(x, n) for x in zo_mul(u, _zo_norm_cofactor(v))]
    best = None
    nv = abs(n)
    # coefficient rounding may miss the Euclidean witness; search nearby
    for da in (0, -1, 1):
        for db in (0, -1, 1):
            for dc in (0, -1, 1):
                for dd in (0, -1, 1):
                    q = (q0[0] + da, q0[1] + db, q0[2] + dc, q0[3] + dd)
                    r = zo_sub(u, zo_mul(v, q))
                    nr = abs(zo_norm(r))
                    if best is None or nr < best[0]:
                        best = (nr, r)
                    if nr == 0:
                        return r
        if best[0] < nv and da == 0:
            break  # plain rounding already gave a Euclidean witness
    if best[0] >= nv:
        raise RingError("ZOmega Euclidean step failed")
    return best[1]


# ---------------------------------------------------------------------------
# Z[sqrt(-d)] for d in {1, 2}, element x + y sqrt(-d) as the pair (x, y);
# used by the Diophantine solver to split primes p = 5 (d = 1) and p = 3
# (d = 2) mod 8


def zmd_gcd(u: Tuple[int, int], v: Tuple[int, int], d: int) -> Tuple[int, int]:
    """Euclidean gcd in Z[sqrt(-d)], quotients rounded coefficient-wise."""
    while v != (0, 0):
        (a, b), (c, e) = u, v
        n = c * c + d * e * e
        # u conj(v) / n, rounded
        qa = round_div(a * c + d * b * e, n)
        qb = round_div(b * c - a * e, n)
        u, v = v, (a - c * qa + d * e * qb, b - c * qb - e * qa)
    return u


def zo_from_zmd(u: Tuple[int, int], d: int) -> ZOmega:
    """Embed x + y sqrt(-d): i = w^2 and sqrt(-2) = w + w^3."""
    x, y = u
    return (x, 0, y, 0) if d == 1 else (x, y, 0, y)


# ---------------------------------------------------------------------------
# Diophantine: t.conj * t = xi over Z[omega], xi in Z[sqrt2] totally >= 0


def _zs_valuation(x: ZSqrt2, p: ZSqrt2) -> Tuple[int, ZSqrt2]:
    v = 0
    while zs_divides(p, x):
        x = zs_div_exact(x, p)
        v += 1
    return v, x


def _split_prime_1mod8(pi: ZSqrt2, p: int) -> Optional[ZOmega]:
    """t with t.conj*t an associate of pi, for p = 1 (mod 8)."""
    y4 = sqrt_mod(p - 1, p)          # order-4 element
    if y4 is None:
        return None
    pio = zo_from_zsqrt2(pi)
    for y2 in (y4, p - y4):
        y0 = sqrt_mod(y2, p)
        if y0 is None:
            continue
        for y in (y0, p - y0):
            cand = zo_gcd(pio, (-y, 1, 0, 0))   # gcd(pi, w - y)
            if cand == ZO_ZERO:
                continue
            q = zo_abs_sq(cand)
            if abs(zs_norm(q)) != abs(zs_norm(pi)):
                continue
            if zs_divides(pi, q) and zs_divides(q, pi):
                return cand
    return None


def solve_diophantine(xi: ZSqrt2) -> Optional[ZOmega]:
    if xi == (0, 0):
        return ZO_ZERO
    if not zs_totally_positive(xi):
        return None
    m, xi0 = zs_sqrt2_valuation(xi)
    t = zo_pow(ZO_DELTA, m)
    # norm can be negative (odd sqrt2 valuation); sign lands in the unit fix
    N = abs(zs_norm(xi0))
    for p, f in factorint(N).items():
        r = p % 8
        if r in (1, 7):
            x0 = sqrt_mod(2, p)
            if x0 is None:
                return None
            pi = zs_gcd((p, 0), (x0, -1))
            if abs(zs_norm(pi)) != p:
                return None
            v1, _ = _zs_valuation(xi0, pi)
            v2, _ = _zs_valuation(xi0, (pi[0], -pi[1]))
            if v1 + v2 != f:
                return None
            if r == 1:
                tp = _split_prime_1mod8(pi, p)
                if tp is None:
                    return None
                t = zo_mul(zo_mul(t, zo_pow(tp, v1)), zo_pow(zo_galois(tp), v2))
            else:  # r == 7: pi contributes only in even powers
                if v1 % 2 or v2 % 2:
                    return None
                t = zo_mul(t, zo_pow(zo_from_zsqrt2(pi), v1 // 2))
                t = zo_mul(t, zo_pow(zo_from_zsqrt2((pi[0], -pi[1])), v2 // 2))
        else:  # p inert in Z[sqrt2]
            if f % 2:
                return None
            # p = x^2 + d y^2 splits in Z[sqrt(-d)]: d = 1 for r = 5, 2 for r = 3
            d = 1 if r == 5 else 2
            c0 = sqrt_mod(p - d, p)
            if c0 is None:
                return None
            x, y = eta = zmd_gcd((p, 0), (c0, -1), d)
            if x * x + d * y * y != p:
                return None
            t = zo_mul(t, zo_pow(zo_from_zmd(eta, d), f // 2))
    # fix the remaining totally positive unit lambda^{2m'}
    try:
        s = zs_div_exact(xi, zo_abs_sq(t))
    except RingError:
        return None
    if abs(zs_norm(s)) != 1 or not zs_totally_positive(s):
        return None
    # s = lambda^(2m) = a + b sqrt2 with 2a = lambda^2|m| + lambda^-2|m| and
    # sign(b) = sign(m); a + b sqrt2 in floats cancels to noise for m < -10
    mm = round(math.log(2 * s[0]) / (2 * _LOG_LAMBDA))
    if s[1] < 0:
        mm = -mm
    for cand in (mm, mm - 1, mm + 1, mm - 2, mm + 2):
        if zs_lambda_power(2 * cand) == s:
            t = zo_mul(t, zo_from_zsqrt2(zs_lambda_power(cand)))
            break
    else:
        return None
    if zo_abs_sq(t) != xi:
        return None
    return t


# ---------------------------------------------------------------------------
# Exact synthesis of ring unitaries into gate tags (temporal order)


def _strip(m: List[ZOmega], k: int) -> Tuple[List[ZOmega], int]:
    while k > 0 and all(zo_sqrt2_divisible(x) for x in m):
        m = [zo_div_sqrt2(x) for x in m]
        k -= 1
    return m, k


def _reduce_column(u: ZOmega, t: ZOmega, k: int) -> List[int]:
    """j-sequence of H T^{-j} steps taking the unit column (u,t)/sqrt2^k
    down to denominator exponent 0.

    A single step does not always shrink k (small-k plateaus exist), so this
    runs best-first search over the four residue choices with a visited set;
    termination is guaranteed because the reachable states at bounded
    exponent are finite and a Clifford+T word for any ring unitary exists.
    """
    stack = [(u, t, k, [])]
    seen = set()
    while stack:
        u, t, k, seq = stack.pop()
        if k == 0:
            return seq
        key = (u, t, k)
        if key in seen:
            continue
        seen.add(key)
        opts = []
        ta, tb, tc, td = t
        # t * w^(8-j) for j = 0..3
        for j, tw in enumerate(((ta, tb, tc, td), (tb, tc, td, -ta),
                                (tc, td, -ta, -tb), (td, -ta, -tb, -tc))):
            s = zo_add(u, tw)
            if not zo_sqrt2_divisible(s):
                continue
            # divisibility of the sum implies it for the difference (= 2u - s)
            u2, t2, k2 = zo_div_sqrt2(s), zo_div_sqrt2(zo_sub(u, tw)), k
            while k2 > 0 and zo_sqrt2_divisible(u2) and zo_sqrt2_divisible(t2):
                u2, t2, k2 = zo_div_sqrt2(u2), zo_div_sqrt2(t2), k2 - 1
            opts.append((k2, j, u2, t2))
        # push worst option first so the lowest exponent is explored next
        for k2, j, u2, t2 in sorted(opts, reverse=True):
            stack.append((u2, t2, k2, seq + [j]))
    raise RuntimeError("column reduction failed (input not unitary?)")


def reduce_column_by_trials(u: ZOmega, t: ZOmega, k: int) -> Tuple[List[int], ZOmega, ZOmega]:
    """j-sequence of H T^{-j} steps taking the unit column (u,t)/sqrt2^k
    down to denominator exponent 0, and the column it ends at, by trying
    all four j at every step: the oracle for `gridsynth._reduce_column`.

    Each step takes the j in 0..3 whose column has the lowest sde(|u|^2):
    one j lowers it by one, or more at the last step (Kliuchnikov, Maslov
    & Mosca, arXiv:1206.5236), so the steps are the fewest H.  A unit
    column with sde <= 0 has k = 0 once stripped; a step that lowers
    nothing means the column was not unit.
    """
    seq = []
    sde = _sde(u, k)
    while k > 0:
        best = None
        ta, tb, tc, td = t
        # t * w^(8-j) for j = 0..3
        for j, tw in enumerate(((ta, tb, tc, td), (tb, tc, td, -ta),
                                (tc, td, -ta, -tb), (td, -ta, -tb, -tc))):
            s = zo_add(u, tw)
            if not zo_sqrt2_divisible(s):
                continue
            # divisibility of the sum implies it for the difference (= 2u - s)
            u2, t2, k2 = _strip_column(zo_div_sqrt2(s), zo_div_sqrt2(zo_sub(u, tw)), k)
            sde2 = _sde(u2, k2)
            if best is None or sde2 < best[0]:
                best = (sde2, j, u2, t2, k2)
        if best is None or best[0] >= sde:
            raise RuntimeError("column reduction failed (input not unitary?)")
        sde, j, u, t, k = best
        seq.append(j)
    return seq, u, t


def exact_synthesize(mat: RingMatrix) -> List[str]:
    """Gate tags (temporal order) realizing mat up to global phase."""
    # reduce the first column by H T^{-j} steps
    (u, t), k = _strip([mat.m00, mat.m10], mat.k)
    return replay(mat, _reduce_column(u, t, k))


def replay(mat: RingMatrix, seq: List[int]) -> List[str]:
    """Gate tags of the H T^{-j} steps `seq` that reduce mat's first column,
    preceded by the Clifford tail read off the full residual matrix."""
    m00, m01, m10, m11 = mat.m00, mat.m01, mat.m10, mat.m11
    # apply the recorded steps to the full matrix exactly to get the residual
    g00, g01, g10, g11 = ZO_ONE, ZO_ZERO, ZO_ZERO, ZO_ONE
    for j in seq:
        w10, w11 = zo_rot(g10, 8 - j), zo_rot(g11, 8 - j)
        g00, g01, g10, g11 = (zo_add(g00, w10), zo_add(g01, w11),
                              zo_sub(g00, w10), zo_sub(g01, w11))
    res, k = _strip([
        zo_add(zo_mul(g00, m00), zo_mul(g01, m10)),
        zo_add(zo_mul(g00, m01), zo_mul(g01, m11)),
        zo_add(zo_mul(g10, m00), zo_mul(g11, m10)),
        zo_add(zo_mul(g10, m01), zo_mul(g11, m11))], len(seq) + mat.k)
    if k != 0:
        raise RuntimeError("residual is not a Clifford phase matrix")
    r00, r01, r10, r11 = res
    gates: List[str] = []
    try:
        if r00 == ZO_ZERO:
            # diag part of X * res
            gates += _T_WORD[(ZO_UNIT_LOG[r01] - ZO_UNIT_LOG[r10]) % 8]
            gates.append("PauliX")
        else:
            gates += _T_WORD[(ZO_UNIT_LOG[r11] - ZO_UNIT_LOG[r00]) % 8]
    except KeyError as e:
        raise RuntimeError(f"{e} is not a power of omega") from None
    for j in reversed(seq):
        gates.append("Hadamard")
        gates += _T_WORD[j]
    return gates
