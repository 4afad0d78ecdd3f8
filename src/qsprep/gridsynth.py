"""Ross-Selinger Clifford+T synthesis of Rz rotations.

Pipeline per precision eps = 2^-b:
  1. octant reduction: theta = m*(pi/4) + theta', |theta'| <= pi/8; the
     m-part is an exact T^m, theta' goes through grid search.
  2. for increasing denominator exponent k, enumerate ring candidates
     u in Z[omega] with |u| <= sqrt2^k, |u_galois| <= sqrt2^k and
     Re(conj(z) u) >= sqrt2^k (1 - eps^2/2) for z = e^{-i theta'/2}.
     This is a two-dimensional grid problem (Ross & Selinger,
     arXiv:1403.2975): the eps-region and the conjugate disk are enclosed
     in ellipses, a grid operator found once per angle makes both upright,
     and each k takes the lines of the upright pair's outer axis from one
     1D grid problem per coset and walks each line's exact chord of the
     eps-region with more 1D problems, best end first.  The set-up, the
     1D problems and the quality run exactly on integers with one working
     precision, 4b + 100 fraction bits.  The octant reduction (of theta as
     the exact rational float.as_integer_ratio gives, against a
     fixed-point pi) and cos phi0, sin phi0 run on integers too, 64 bits
     over it (and over theta's integer bits), so eps holds for any finite
     theta.
  3. for each candidate solve the Diophantine equation t.conj t = xi with
     xi = 2^k - u.conj u over Z[sqrt2] by factoring its integer norm
     (`rings.factorize`, under a fixed effort cap) and splitting each prime
     by a gcd: in Z[sqrt2] for p = 1, 7 (mod 8), then in Z[omega] for
     p = 1 (mod 8) and the inert p = 3, 5 (mod 8).  A candidate whose norm
     does not factor within the cap is skipped, as Ross and Selinger do.
  4. exactly synthesize the resulting ring unitary, times the octant's
     T^m, into H/T/S/X gates by H T^-j steps that each lower the sde (no
     search, no H.H pair), each j or j + 4, whichever costs fewer gates.
     While the sde is >= 4 the column's residues mod 2 give j by a table
     lookup, one step each and one sde check after them; the last few
     steps try all four j.

The candidate constraint guarantees the phase-invariant operator distance
||U - e^{i phi} Rz(theta)|| <= eps.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .circuit_core import is_pi4_multiple
from .rings import (
    RingError, ZOmega, ZSqrt2,
    ZO_DELTA, ZO_UNIT_LOG, ZO_ZERO,
    factorize, round_div, sqrt_mod_prime, zo_abs_sq, zo_add, zo_conj, zo_div_sqrt2,
    zo_from_zsqrt2, zo_galois, zo_gcd, zo_mul, zo_pow, zo_rot,
    zo_sqrt2_divisible, zo_sub,
    zs_div_exact, zs_divides, zs_gcd, zs_lambda_power, zs_mul, zs_norm,
    zs_sign, zs_sqrt2_valuation, zs_totally_positive,
)

SQRT2 = math.sqrt(2.0)
_LOG_LAMBDA = math.log(1.0 + SQRT2)
_LOG2_LAMBDA2 = 2 * math.log2(1.0 + SQRT2)
_GRID_ROW_LIMIT = 2_000_000


class SynthesisError(RuntimeError):
    """No word meets the precision within the search limits: the
    denominator exponent cap, a grid enumeration's size or float64's range.
    Broken internal invariants raise a plain RuntimeError instead."""


@functools.lru_cache(maxsize=64)
def _sqrt2_fixed(prec: int) -> int:
    """floor(sqrt2 * 2^prec)."""
    return math.isqrt(2 << (2 * prec))


def _floor_q(m: int, n: int, prec: int) -> int:
    """floor((m + n sqrt2) / 2^prec), exactly: floor(n sqrt2) is an isqrt."""
    r = math.isqrt(2 * n * n)
    return (m + (r if n >= 0 else -r - 1)) >> prec


def solve_grid_1d(l1: int, u1: int, l2: int, u2: int, prec: int) -> List[ZSqrt2]:
    """All x in Z[sqrt2] with l1 <= x 2^prec <= u1 and l2 <= x* 2^prec <= u2,
    exactly, for integer ends that carry `prec` fraction bits.

    The problem is rebalanced by lambda^j = p + q sqrt2, lambda = 1 + sqrt2,
    so the two intervals have comparable width (keeps the row count short):
    x lambda^j = a + b sqrt2 has value in [l1, u1] lambda^j and conjugate in
    [l2, u2] (p - q sqrt2), and x = lambda^-j (a + b sqrt2).  Each
    column bound is a floor in fixed point with 2 prec fraction bits, exact
    unless the rounding of sqrt2 leaves it near an integer, where it is
    taken exactly; the row bounds may add rows that hold no column.
    """
    if u1 < l1 or u2 < l2:
        return []
    j = round((math.log2((u2 - l2) or 1) - math.log2((u1 - l1) or 1)) / _LOG2_LAMBDA2)
    (p, q), (c, d) = zs_lambda_power(j), zs_lambda_power(-j)
    if j & 1:                                   # p - q sqrt2 < 0
        l2, u2 = u2, l2
    # a + b sqrt2 lies in [z0, z1] / 2^sh and a - b sqrt2 in [z2, z3] / 2^sh,
    # each z within ez as sqrt2 2^prec is floored to r2
    sh, r2, w = 2 * prec, _sqrt2_fixed(prec), _sqrt2_fixed(2 * prec)
    s1, s2 = (p << prec) + q * r2, (p << prec) - q * r2
    z0, z1, z2, z3 = l1 * s1, u1 * s1, l2 * s2, u2 * s2
    ez = (abs(l1) + abs(u1) + abs(l2) + abs(u2)) * abs(q) + 1
    # 2 b sqrt2 lies in [z0 - z3, z1 - z2] / 2^sh: b is sqrt2 / 4 times that,
    # widened by the error of the products
    err = (ez << (prec + 3)) + abs(z0 - z3) + abs(z1 - z2)
    b_lo = -((err - (z0 - z3) * r2) >> (sh + prec + 2))
    b_hi = ((z1 - z2) * r2 + err) >> (sh + prec + 2)
    if b_hi - b_lo > _GRID_ROW_LIMIT:
        raise SynthesisError(f"grid enumeration too large: {b_hi - b_lo} rows")
    # b sqrt2 2^sh is within |b| of b w
    e, mask = ez + abs(b_lo) + abs(b_hi), (1 << sh) - 1
    out = []
    for b in range(b_lo, b_hi + 1):
        s = b * w
        lo, hi = max(z0 - s, z2 + s), min(z1 - s, z3 + s)
        if e <= lo & mask <= mask - e and e <= hi & mask <= mask - e:
            lo, hi = -(-lo >> sh), hi >> sh
        else:                       # a window holds a multiple of 2^sh
            bs = b << prec
            lo = -min(_floor_q(-l1 * p, bs - l1 * q, prec), _floor_q(-l2 * p, l2 * q - bs, prec))
            hi = min(_floor_q(u1 * p, u1 * q - bs, prec), _floor_q(u2 * p, bs - u2 * q, prec))
        if len(out) + hi - lo >= _GRID_ROW_LIMIT:
            raise SynthesisError(f"grid enumeration too large: over {_GRID_ROW_LIMIT} points")
        out += [(a * c + 2 * b * d, a * d + b * c) for a in range(lo, hi + 1)]
    return out


# ---------------------------------------------------------------------------
# Diophantine: t.conj * t = xi over Z[omega], xi in Z[sqrt2] totally >= 0


def _zs_valuation(x: ZSqrt2, p: ZSqrt2) -> int:
    v = 0
    while zs_divides(p, x):
        x = zs_div_exact(x, p)
        v += 1
    return v


def _split_prime_1mod8(pi: ZSqrt2, p: int) -> ZOmega:
    """t with t.conj*t an associate of pi, for p = 1 (mod 8).

    t = gcd(pi, w - y) for the primitive 8th root of unity y mod p that
    lies over pi, i.e. with pi(w -> y) = 0 (mod p).  w -> y and w -> -y
    send sqrt2 = w - w^3 to the two opposite roots of 2 mod p, so exactly
    one of y and p - y does."""
    y = sqrt_mod_prime(sqrt_mod_prime(p - 1, p), p)
    if (pi[0] + pi[1] * (y - pow(y, 3, p))) % p:
        y = p - y
    return zo_gcd(zo_from_zsqrt2(pi), (-y, 1, 0, 0))


def solve_diophantine(xi: ZSqrt2) -> Optional[ZOmega]:
    """t in Z[omega] with t.conj * t = xi, or None if there is none.

    A nonzero xi is solvable exactly when it is totally positive and every
    prime of Z[sqrt2] over a p = 7 (mod 8) divides it to an even power
    (Ross & Selinger, arXiv:1403.2975): those primes stay prime in
    Z[omega], while sqrt2, the primes over p = 1 (mod 8) and the inert
    p = 3, 5 (mod 8) all are t.conj * t up to a unit.  Those two tests,
    and a norm that `rings.factorize` gives up on after FACTOR_EFFORT rho
    steps, are the only None returns; a root that does not multiply back
    to xi is a bug and raises RuntimeError.
    """
    if xi == (0, 0):
        return ZO_ZERO
    if not zs_totally_positive(xi):
        return None
    m, xi0 = zs_sqrt2_valuation(xi)
    t = zo_pow(ZO_DELTA, m)
    # the norm is odd, and negative for an odd sqrt2 valuation; the sign
    # lands in the unit fix
    factors = factorize(abs(zs_norm(xi0)))
    if factors is None:       # over the effort cap: skip this candidate
        return None
    for p, f in factors.items():
        r = p % 8
        if r in (1, 7):  # p = pi pi* splits in Z[sqrt2]
            pi = zs_gcd((p, 0), (sqrt_mod_prime(2, p), -1))
            v1 = _zs_valuation(xi0, pi)
            v2 = f - v1
            if r == 1:
                tp = _split_prime_1mod8(pi, p)
                t = zo_mul(zo_mul(t, zo_pow(tp, v1)), zo_pow(zo_galois(tp), v2))
            elif v1 % 2 or v2 % 2:
                return None
            else:
                t = zo_mul(t, zo_pow(zo_from_zsqrt2(pi), v1 // 2))
                t = zo_mul(t, zo_pow(zo_from_zsqrt2((pi[0], -pi[1])), v2 // 2))
        else:  # p inert in Z[sqrt2], so f is even; p = eta.conj * eta for
            # eta = gcd(p, x - sqrt(-d)), x^2 = -d (mod p), d = 1 (r = 5) or 2
            x = sqrt_mod_prime(p - 1 if r == 5 else p - 2, p)
            eta = zo_gcd((p, 0, 0, 0), (x, 0, -1, 0) if r == 5 else (x, -1, 0, -1))
            t = zo_mul(t, zo_pow(eta, f // 2))
    # fix the remaining totally positive unit s = lambda^(2m) = a + b sqrt2:
    # 2a = lambda^2|m| + lambda^-2|m| and sign(b) = sign(m), as a + b sqrt2
    # cancels to noise in floats for m < -10.  Wrong factors fail the check.
    try:
        sa, sb = zs_div_exact(xi, zo_abs_sq(t))
        mm = round(math.log(2 * sa) / (2 * _LOG_LAMBDA)) * (-1 if sb < 0 else 1)
    except (RingError, ValueError):
        mm = 0
    for cand in (mm, mm - 1, mm + 1, mm - 2, mm + 2):
        root = zo_mul(t, zo_from_zsqrt2(zs_lambda_power(cand)))
        if zo_abs_sq(root) == xi:
            return root
    raise RuntimeError(f"no root of {xi} from the prime factors of its norm")


# ---------------------------------------------------------------------------
# Exact synthesis of ring unitaries into gate tags (temporal order)

_T_WORD = {
    0: [], 1: ["T"], 2: ["S"], 3: ["S", "T"],
    4: ["S", "S"], 5: ["Sdg", "Tdg"], 6: ["Sdg"], 7: ["Tdg"],
}


@dataclass(frozen=True)
class RingMatrix:
    """(1/sqrt2^k) [[m00, m01], [m10, m11]] with Z[omega] entries."""
    m00: ZOmega
    m01: ZOmega
    m10: ZOmega
    m11: ZOmega
    k: int


def _strip(u: ZOmega, t: ZOmega, k: int) -> Tuple[ZOmega, ZOmega, int]:
    """The column (u,t)/sqrt2^k with its denominator exponent k lowest."""
    while k > 0 and zo_sqrt2_divisible(u) and zo_sqrt2_divisible(t):
        u, t, k = zo_div_sqrt2(u), zo_div_sqrt2(t), k - 1
    return u, t, k


def _sde(u: ZOmega, k: int) -> int:
    """sde(|u|^2) of the entry u / sqrt2^k, 2k - v_sqrt2(|u|^2); -1 for 0."""
    if u == ZO_ZERO:
        return -1
    return 2 * k - zs_sqrt2_valuation(zo_abs_sq(u))[0]


# The j of the step that lowers the sde of a stripped unit column (u, t)
# at sde >= 4, keyed by the parities of the coordinates of u (bits 0-3) and
# t (bits 4-7).  As no step lowers the sde by more than one, that j is the
# one with (1 + w)^(v + 3) | u + t w^-j, v in {0, 1} the (1 + w)-adic
# valuation of u; (1 + w)^4 is 2 times a unit, so this depends on the
# residues mod 2 alone.  The 48 keys are those of unit columns at sde >= 4.
_STEP_BY_RESIDUE = {
    30: 0, 45: 0, 51: 0, 75: 0, 102: 0, 120: 0, 135: 0, 153: 0, 180: 0, 204: 0, 210: 0, 225: 0,
    23: 1, 46: 1, 57: 1, 77: 1, 99: 1, 116: 1, 139: 1, 156: 1, 178: 1, 198: 1, 209: 1, 232: 1,
    27: 2, 39: 2, 60: 2, 78: 2, 105: 2, 114: 2, 141: 2, 150: 2, 177: 2, 195: 2, 216: 2, 228: 2,
    29: 3, 43: 3, 54: 3, 71: 3, 108: 3, 113: 3, 142: 3, 147: 3, 184: 3, 201: 3, 212: 3, 226: 3,
}


def _reduce_column(u: ZOmega, t: ZOmega, k: int) -> Tuple[List[int], ZOmega, ZOmega]:
    """j-sequence of H T^{-j} steps taking the unit column (u,t)/sqrt2^k
    down to denominator exponent 0, and the column it ends at.

    Each step takes the j in 0..3 whose column has the lowest sde(|u|^2):
    one j lowers it by one, or more at the last step (Kliuchnikov, Maslov
    & Mosca, arXiv:1206.5236), so the steps are the fewest H.  While the
    sde is >= 4 that j is the only one that lowers it, and
    `_STEP_BY_RESIDUE` gives it: one step each, the sde tracked down by one
    and checked once after them.  A wrong j would leave the sde above the
    tracked value, as no step lowers it by more than one, so a mismatch
    raises rather than change the word.  Below sde 4, or at a residue pair
    not in the table, each step tries all four j.  A unit column with
    sde <= 0 has k = 0 once stripped; a step that lowers nothing means the
    column was not unit.
    """
    seq = []
    sde = _sde(u, k)
    while sde >= 4:
        a, b, c, d = u
        ta, tb, tc, td = t
        j = _STEP_BY_RESIDUE.get((a & 1) | (b & 1) << 1 | (c & 1) << 2 | (d & 1) << 3
                                 | (ta & 1) << 4 | (tb & 1) << 5 | (tc & 1) << 6
                                 | (td & 1) << 7)
        if j is None:
            break
        # t * w^(8-j)
        tw = (t if j == 0 else (tb, tc, td, -ta) if j == 1
              else (tc, td, -ta, -tb) if j == 2 else (td, -ta, -tb, -tc))
        s = zo_add(u, tw)
        if not zo_sqrt2_divisible(s):
            raise RuntimeError("column reduction failed (input not unitary?)")
        u, t, k = _strip(zo_div_sqrt2(s), zo_div_sqrt2(zo_sub(u, tw)), k)
        seq.append(j)
        sde -= 1
    if seq and _sde(u, k) != sde:
        raise RuntimeError(f"column reduction failed: sde {_sde(u, k)} after "
                           f"{len(seq)} residue steps, not {sde}")
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
            u2, t2, k2 = _strip(zo_div_sqrt2(s), zo_div_sqrt2(zo_sub(u, tw)), k)
            sde2 = _sde(u2, k2)
            if best is None or sde2 < best[0]:
                best = (sde2, j, u2, t2, k2)
        if best is None or best[0] >= sde:
            raise RuntimeError("column reduction failed (input not unitary?)")
        sde, j, u, t, k = best
        seq.append(j)
    return seq, u, t


def exact_synthesize(mat: RingMatrix) -> List[str]:
    """Gate tags (temporal order) realizing mat up to global phase.

    The H T^{-j} steps that reduce the first column leave a Clifford phase
    matrix R with first column (w^l, 0) or (0, w^l) and det R = w^D, D =
    d + sum(4 - j) for det(mat) = w^d (Kliuchnikov, Maslov & Mosca,
    arXiv:1206.5236).  So R = X^x T^a up to phase, with x = 0, a = D - 2l
    or x = 1, a = D + 4 - 2l, and mat = T^j1 H ... T^jn H R.

    As T^j = T^(j+4) Z, a step may emit j + 4 and push a Z right into a
    Pauli frame X^p Z^q, which negates the powers it passes (X T^j ~ T^-j X),
    passes H as X^q Z^p and meets R as X^(x^p) T^(a+4q).  The cheaper power
    for j = 0..3 (0, +-1, +-2, -+1) saves 2, 1, 0, 1 gates over the other,
    and flipping step i's choice flips the tail's X if n - 1 - i is even,
    else its Z: the fewest gates flip at most the cheapest step of each.
    """
    seq, u, t = _reduce_column(*_strip(mat.m00, mat.m10, mat.k))
    det = zo_sub(zo_mul(mat.m00, mat.m11), zo_mul(mat.m01, mat.m10))
    unit = tuple(x >> mat.k for x in det)
    if det != tuple(x << mat.k for x in unit) or unit not in ZO_UNIT_LOG:
        raise RuntimeError(f"determinant {det} / 2^{mat.k} is not a power of omega")
    D = ZO_UNIT_LOG[unit] + sum(4 - j for j in seq)
    if t == ZO_ZERO and u in ZO_UNIT_LOG:
        a, x = D - 2 * ZO_UNIT_LOG[u], 0
    elif u == ZO_ZERO and t in ZO_UNIT_LOG:
        a, x = D + 4 - 2 * ZO_UNIT_LOG[t], 1
    else:
        raise RuntimeError(f"column reduction ended at {(u, t)}, not a unit column")
    p, q, swap = 0, 0, [(3, 0), (3, 0)]   # cheapest flip of an even, odd step
    for i, j in enumerate(seq):
        p, q = q ^ (j == 3), p
        swap[i & 1] = min(swap[i & 1], ((2, 1, 0, 1)[j], i))
    sx, sz = swap[(len(seq) - 1) & 1], swap[len(seq) & 1]
    _, dx, dz = min((dx * sx[0] + dz * sz[0] + len(_T_WORD[(a + 4 * (q ^ dz)) % 8])
                     + (x ^ p ^ dx), dx, dz) for dx in (0, 1) for dz in (0, 1))
    flipped = {i for d, (_, i) in ((dx, sx), (dz, sz)) if d}
    tail = _T_WORD[(a + 4 * (q ^ dz)) % 8] + ["PauliX"] * (x ^ p ^ dx)
    rev, p, q = [], 0, 0                # the steps, last gate first
    for i, j in enumerate(seq):
        f = (j == 3) ^ (i in flipped)
        rev += _T_WORD[((-j if p else j) + 4 * f) % 8][::-1] + ["Hadamard"]
        p, q = q ^ f, p
    return tail + rev[::-1]


# ---------------------------------------------------------------------------
# Grid operators (Ross & Selinger, arXiv:1403.2975, appendix A)
#
# A grid operator G is a real-linear map of the plane (x + iy ~ (x, y)) with
# G(Z[omega]) = Z[omega].  Its entries lie in Z[1/sqrt2], so it is stored
# exactly as the entries (g11, g12, g21, g22) of sqrt2*G, which lie in
# Z[sqrt2].  The Galois conjugate G* (entrywise sqrt2 -> -sqrt2) satisfies
# (G u)* = G* u*.
#
# A state is a pair of ellipses (D, Delta), each a symmetric positive
# definite matrix [[e lambda^-z, b], [b, e lambda^z]] up to scale; its skew
# b^2 + beta^2 (of the determinant-1 normalizations) measures how far the
# ellipses are from upright.  A grid operator G acts by
# (D, Delta) -> (G^T D G, G*^T Delta G*).

_Op = Tuple[ZSqrt2, ZSqrt2, ZSqrt2, ZSqrt2]
_Sym = Tuple[int, int, int]     # (p, q, r) ~ [[p, q], [q, r]], in fixed point

_R2 = (0, 1)
_OP_I: _Op = (_R2, (0, 0), (0, 0), _R2)
_OP_R: _Op = ((1, 0), (-1, 0), (1, 0), (1, 0))   # rotation by pi/4
_OP_K: _Op = ((1, -1), (-1, 0), (1, 1), (1, 0))  # [[-1/l, -1], [l, 1]]/sqrt2
_OP_K_CONJ: _Op = ((-1, -1), (1, 0), (-1, 1), (-1, 0))  # K*, l = lambda
_OP_X: _Op = ((0, 0), _R2, _R2, (0, 0))       # swap x and y
_OP_Z: _Op = (_R2, (0, 0), (0, 0), (0, -1))   # complex conjugation
_SKEW_UPRIGHT = 15


def _op_a(n: int) -> _Op:
    """A^n = [[1, -2n], [0, 1]]."""
    return (_R2, (0, -2 * n), (0, 0), _R2)


def _op_b(n: int) -> _Op:
    """B^n = [[1, n sqrt2], [0, 1]]."""
    return (_R2, (2 * n, 0), (0, 0), _R2)


def _dot_div_sqrt2(x: ZSqrt2, y: ZSqrt2, z: ZSqrt2, w: ZSqrt2) -> ZSqrt2:
    """(x y + z w) / sqrt2, the entry rule of a product of grid operators
    and of H v; a sum that sqrt2 does not divide is a bug."""
    a = x[0] * y[0] + z[0] * w[0] + 2 * (x[1] * y[1] + z[1] * w[1])
    b = x[0] * y[1] + x[1] * y[0] + z[0] * w[1] + z[1] * w[0]
    if a & 1:
        raise RuntimeError(f"{(a, b)} is not divisible by sqrt2")
    return (b, a >> 1)


def _op_mul(g: _Op, h: _Op) -> _Op:
    g11, g12, g21, g22 = g
    h11, h12, h21, h22 = h
    return (_dot_div_sqrt2(g11, h11, g12, h21), _dot_div_sqrt2(g11, h12, g12, h22),
            _dot_div_sqrt2(g21, h11, g22, h21), _dot_div_sqrt2(g21, h12, g22, h22))


def _op_shift(g: _Op, k: int) -> _Op:
    """sigma^k G sigma^k with sigma = diag(lambda^1/2, lambda^-1/2).

    Acting on a state it does what G does on the state shifted by k (the
    shift moves the bias by 2k and keeps the skew), and it is again a grid
    operator when G is one of the step-lemma operators.
    """
    g11, g12, g21, g22 = g
    return (zs_mul(g11, zs_lambda_power(k)), g12, g21, zs_mul(g22, zs_lambda_power(-k)))


def _congruence(m: _Sym, g: Sequence[int], shift: int) -> _Sym:
    """G^T M G on fixed-point integers that carry `shift` fraction bits."""
    p, q, r = m
    g11, g12, g21, g22 = g
    a11, a12, a21, a22 = (x >> shift for x in (p * g11 + q * g21, p * g12 + q * g22,
                                               q * g11 + r * g21, q * g12 + r * g22))
    return tuple(x >> shift for x in (g11 * a11 + g21 * a21, g11 * a12 + g21 * a22,
                                      g12 * a12 + g22 * a22))


def _op_fixed(g: _Op, prec: int, r2: int, conj: bool = False) -> List[int]:
    """Entries of G (or of G*) times 2^prec, for r2 = sqrt2 * 2^prec:
    (a + b sqrt2) / sqrt2 = b + a sqrt2 / 2, and the conjugate flips sqrt2."""
    sign = -1 if conj else 1
    return [(b << prec) + sign * ((a * r2) >> 1) for a, b in g]


def _step(z: float, b: float, zeta: float, beta: float) -> _Op:
    """Step lemma: a grid operator that cuts the skew of the state with
    parameters (z, b), (zeta, beta) by at least 10 % when it is >= 15."""
    # shift the bias zeta - z into (-1, 1]; an odd shift flips beta
    k = math.floor((1 - zeta + z) / 2)
    z, zeta = z - k, zeta + k
    if k & 1:
        beta = -beta
    op = _OP_I
    if beta < 0:
        op, b = _OP_Z, -b
    if z + zeta < 0:
        op, z, zeta = _op_mul(op, _OP_X), -z, -zeta
    if -0.8 <= z <= 0.8 and -0.8 <= zeta <= 0.8:
        g = _OP_R
    elif b < 0:
        g = _op_b(max(1, math.floor(math.exp(min(z, zeta) * _LOG_LAMBDA) / SQRT2)))
    elif z <= 0.3 and zeta >= 0.8:
        g = _OP_K
    elif z >= 0.3 and zeta >= 0.3:
        g = _op_a(max(1, math.floor(math.exp(min(z, zeta) * _LOG_LAMBDA) / 2)))
    else:                                        # z >= 0.8, zeta <= 0.3
        g = _OP_K_CONJ
    return _op_shift(_op_mul(op, g), k)


def _upright_operator(d: _Sym, delta: _Sym, prec: int) -> Tuple[_Op, _Sym, _Sym]:
    """Special grid operator H with skew(H^T D H, H*^T Delta H*) < 15, and
    that upright pair.

    The states are fixed-point integers (value * 2^prec): the skew falls
    from ~eps^-2 to O(1), so its updates cancel ~2b bits, which prec
    covers; the step decisions only need float accuracy (the skew
    overflows float64 from b ~ 512 on).
    """
    r2 = _sqrt2_fixed(prec)

    def params(m):
        p, q, r = m
        return math.log(r / p) / (2 * _LOG_LAMBDA), q / math.isqrt(p * r - q * q)

    h, steps = _OP_I, None
    while True:
        (z, b), (zeta, beta) = params(d), params(delta)
        skew = b * b + beta * beta
        if skew < _SKEW_UPRIGHT:
            return h, d, delta
        if steps is None:
            steps = int(math.log(skew) / -math.log(0.9)) + 1
        elif steps == 0:
            raise RuntimeError("grid operator search did not converge")
        steps -= 1
        g = _step(z, b, zeta, beta)
        h = _op_mul(h, g)
        d = _congruence(d, _op_fixed(g, prec, r2), prec)
        delta = _congruence(delta, _op_fixed(g, prec, r2, True), prec)


# ---------------------------------------------------------------------------
# Candidate enumeration and the top-level Rz synthesis


_CHUNK = 32           # expected solutions in the first chunk of a walk
_ATTEMPTS_PER_K = 16  # best candidates tried per denominator exponent


def _zs_floor(x: ZSqrt2, prec: int, d: int = 1) -> int:
    """floor((a + b sqrt2) 2^prec / d), exactly, for an integer d != 0.

    y below is (a + b sqrt2) 2^(prec + 32) within 2, from sqrt2 to
    bits(b) + 32 bits more; where that leaves the quotient's floor in
    doubt, floor(b sqrt2) is taken as an isqrt."""
    a, b = x if d > 0 else (-x[0], -x[1])
    d, n = abs(d), prec + b.bit_length() + 32
    key = (n | 63) + 1                      # few cached widths of sqrt2
    y = (a << (prec + 32)) + (b * (_sqrt2_fixed(key) >> (key - n)) >> (n - prec - 32))
    lo = (y - 2) // (d << 32)
    if lo == (y + 2) // (d << 32):
        return lo
    return _floor_q(a << prec, b << prec, 0) // d


def _zs_dot(x: Tuple[ZSqrt2, ZSqrt2], y: Tuple[ZSqrt2, ZSqrt2]) -> ZSqrt2:
    (a, b), (c, d) = zs_mul(x[0], y[0]), zs_mul(x[1], y[1])
    return a + c, b + d


@functools.lru_cache(maxsize=64)
def _segment_ellipse(eps: float) -> Tuple[int, int, int, Fraction, int]:
    """The constants of an `_EpsRegion` that depend on eps alone: the
    radial and chord-wise coefficients pr, pt of the segment's ellipse as
    a, t over one denominator d, returned as d << prec; the radius rc of the
    ellipse's centre; and floor(2^prec (1 - eps^2/2)), the quality bound."""
    prec = _working_bits(eps)
    # the segment has height h below radius 1 and half chord sin(delta),
    # sin(delta)^2 = h (2 - h); the ellipse's semi-axes grow by 2^-20
    h = Fraction(eps) ** 2 / 2
    grow = (1 + Fraction(1, 1 << 20)) ** 2
    pr = 9 / (4 * h * h * grow)                  # (2h/3)^-2, radial
    pt = 3 / (4 * h * (2 - h) * grow)            # (2 sin(delta)/sqrt3)^-2
    rc = 1 - 2 * h / 3                           # radius of its centre
    num, dnm = eps.as_integer_ratio()
    thr = ((2 * dnm * dnm - num * num) << prec) // (2 * dnm * dnm)
    return (pr.numerator * pt.denominator, pt.numerator * pr.denominator,
            pr.denominator * pt.denominator << prec, rc, thr)


class _EpsRegion:
    """The grid problem of one angle, for every denominator exponent k.

    Candidates u in Z[omega] lie in the eps-region, the circular segment
    |u| <= R, Re(e^{-i phi0} u) >= R (1 - eps^2/2) with R = sqrt2^k, and
    their conjugates u* in the disk |u*| <= R.  The segment is enclosed in
    an ellipse (centre a third of the segment height above the chord,
    semi-axes 2h/3 radially and 2s/sqrt3 along the chord, which passes
    through the chord ends) and the disk is its own ellipse.  A grid
    operator H makes the pair (H^-1 ellipse, H*^-1 disk) upright.  Scaling
    by sqrt2^k commutes with H and keeps uprightness, so H is found once.
    Each k writes v = H^-1 u as alpha + i beta + o w with alpha, beta in
    Z[sqrt2] and o in {0, 1}, and maps the v it keeps back to u = H v.

    The outer axis is the coordinate with fewer expected 1D solutions.  Per
    coset, one 1D grid problem on the bounding boxes of both ellipses gives
    the lines (outer solutions).  Each line solves 1D problems on its chord
    of the segment and the disk's box: it walks the chord from the end where
    the quality grows, in chunks of doubling width, until it has `limit`
    verified candidates.  Quality is affine along the line, so those are
    its best.

    Everything runs on integers with `prec` = `_working_bits(eps)` fraction
    bits (the upright ellipse is ~eps^1.5 R wide at ~eps^-1.5 R from the
    origin, and in float64 1 - eps^2/2 rounds to 1 from b = 27 on): the
    ellipse's exact coefficients, one fixed-point cos phi0, sin phi0
    (`_cos_sin`, for phi0 a float or a Fraction), the upright pair the
    operator search returns, from
    which the outer axis, the ellipse's box and centre derive, and the
    quality.  H is exact, so the chords and the disk's box are exact in
    Z[sqrt2] and only rounded outward; the ellipse's box may round, as its
    semi-axes carry a 2^-20 margin.
    """

    def __init__(self, phi0, eps: float):
        self.phi0, self.eps = phi0, eps
        self.prec = prec = _working_bits(eps)
        one = 1 << prec
        self._trig = c, s = _cos_sin(phi0, prec)
        a, t, den, rc, thr = _segment_ellipse(eps)
        # pr c^2 + pt s^2, (pr - pt) c s, pr s^2 + pt c^2 over a common denominator
        d = tuple(round_div(x, den) for x in (a * c * c + t * s * s, (a - t) * c * s,
                                              a * s * s + t * c * c))
        self.op, *self.ell = _upright_operator(d, (one, 0, one), prec)
        # the outer axis has the smaller product of both ellipses' box
        # widths along it, as box widths are sqrt(r / det), sqrt(p / det)
        (pa, _, ra), (pb, _, rb) = self.ell
        self.outer = 0 if ra * rb <= pa * pb else 1
        # centre of the segment's ellipse in v coordinates, H^-1 rc (c, s),
        # with H^-1 the adjugate over det H = +-1
        self.r2_fx = _sqrt2_fixed(prec)
        g11, g12, g21, g22 = _op_fixed(self.op, prec, self.r2_fx)
        rc_det = rc.numerator if g11 * g22 > g12 * g21 else -rc.numerator
        self.centre_fx = [round_div(rc_det * x, rc.denominator << prec)
                          for x in (g22 * c - g12 * s, g11 * s - g21 * c)]
        # the columns of G = sqrt2 H along v's outer and inner axes, and
        # their dot products, exact: the Gram matrix M = G^T G
        h11, h12, h21, h22 = self.op
        cols = ((h11, h21), (h12, h22))
        co, ci = cols[self.outer], cols[1 - self.outer]
        self.m_ii = _zs_dot(ci, ci)
        # bounding-box half widths in fixed point, rounded up, at sqrt2^j for
        # j = 0, 1 (at sqrt2^k they are 2^(k >> 1) times those at j = k & 1):
        # the ellipse's along the outer axis, and the disk's, whose squares
        # are 2^(k-1) M*_ii (outer) and 2^(k-1) M*_oo (inner) as det M* = 4
        p, q, r = self.ell[0]
        self.boxes = [[math.isqrt(((r, p)[self.outer] << 3 * prec + j) // (p * r - q * q)) + 1
                       for j in (0, 1)]] + [
            [math.isqrt(_zs_floor((m[0], -m[1]), 2 * prec - 1 + j)) + 1 for j in (0, 1)]
            for m in (self.m_ii, _zs_dot(co, co))]
        # a chord divides by sqrt2 M_ii, i.e. multiplies by sqrt2 M_ii* over
        # 2 M_ii M_ii* > 0 (M_ii and M_ii* are sums of squares)
        mc = (self.m_ii[0], -self.m_ii[1])
        a1 = zs_mul(_zs_dot(co, ci), mc)
        self._circle = (-2 * a1[1], -a1[0]), zs_norm(self.m_ii), zs_mul(mc, mc)
        # on a line, c Re u + s Im u = (X wo + T wi) / 2 for (wo, wi) =
        # c G_1. + s G_2., which grows along the line if w = sqrt2 wi > 0
        wo, wi = ((c * a[0] + s * b[0], c * a[1] + s * b[1]) for a, b in (co, ci))
        w = (2 * wi[1], wi[0])
        self._line_quality = wo, wi, (w[0], -w[1]), zs_norm(w), thr
        self.rising = zs_sign(w) > 0

    def _lift(self, outer: ZSqrt2, inner: ZSqrt2, o: int) -> ZOmega:
        """u = H v for v = alpha + i beta + o w."""
        alpha, beta = (outer, inner) if self.outer == 0 else (inner, outer)
        vx = (2 * alpha[1] + o, alpha[0])          # sqrt2 Re v
        vy = (2 * beta[1] + o, beta[0])            # sqrt2 Im v
        h11, h12, h21, h22 = self.op
        ux = _dot_div_sqrt2(h11, vx, h12, vy)      # sqrt2 Re u
        uy = _dot_div_sqrt2(h21, vx, h22, vy)
        return (ux[1], (ux[0] + uy[0]) >> 1, uy[1], (uy[0] - ux[0]) >> 1)

    def candidates(self, k: int, limit: Optional[int] = None) -> List[ZOmega]:
        """The best `limit` (default all) verified candidates at exponent
        k, best quality first."""
        prec, r2 = self.prec, self.r2_fx
        scale = (r2 if k & 1 else 1 << prec) << (k >> 1)            # sqrt2^k
        centre = self.centre_fx[self.outer] * scale >> prec
        wa, wb_o, wb_i = (h[k & 1] << (k >> 1) for h in self.boxes)
        step = (_CHUNK * r2 << prec) // wb_i + 1      # holds _CHUNK expected solutions
        found = {}
        for o in (0, 1):
            cb = o * r2 >> 1                          # o / sqrt2, floored
            lines = solve_grid_1d(centre - cb - wa, centre - cb + wa,
                                  cb - wb_o, cb + 1 + wb_o, prec)
            if len(lines) * _CHUNK > _GRID_ROW_LIMIT:
                raise SynthesisError(f"grid enumeration too large at k={k}: {len(lines)} lines")
            for x in lines:
                chord = self._segment_chord(k, x, o)
                if chord is None:
                    continue
                found.update(self._walk(k, x, o, chord, (cb - wb_i, cb + 1 + wb_i),
                                        step, limit))
                if limit is not None and len(found) > limit:    # memory stays bounded
                    found = dict(sorted(found.items(), key=lambda c: c[1])[-limit:])
        best = sorted(found, key=found.get, reverse=True)
        return best if limit is None else best[:limit]

    def _segment_chord(self, k: int, x: ZSqrt2, o: int) -> Optional[Tuple[int, int]]:
        """Fixed-point ends (`prec` fraction bits, low floored, high ceiled)
        of the inner coordinate on the line at outer coordinate x + o/sqrt2
        inside the segment scaled by sqrt2^k, or None.

        With V = sqrt2 v = (X, T) along the outer and inner axes, so
        T = sqrt2 alpha + o, and G = sqrt2 H, u = G V / 2.  |u|^2 <= 2^k is
        M_ii T^2 + 2 M_oi X T + M_oo X^2 <= 2^(k+2), whose discriminant is
        4 (2^k M_ii - X^2) as det M = det(G)^2 = 4, and the quality bound
        is linear in T.  Both are exact in Z[sqrt2], so a line tangent to the
        circle keeps its point; only the conversion to fixed point rounds."""
        prec, (a1, nm, mc2) = self.prec, self._circle
        X = (2 * x[1] + o, x[0])
        (xa, xb), (ma, mb) = zs_mul(X, X), self.m_ii
        disc = ((ma << k) - xa, (mb << k) - xb)
        if zs_sign(disc) < 0:
            return None
        # alpha = (N +- 2 sqrt(disc)) / (sqrt2 M_ii) for N = -(X M_oi + o M_ii):
        # over 2 nm that is N sqrt2 M_ii* = X a1 - o nm sqrt2 +- 2 sqrt(2 disc M_ii*^2)
        pa, pb = zs_mul(X, a1)
        n = _zs_floor((pa, pb - o * nm), prec)
        sq = math.isqrt(_zs_floor(zs_mul(disc, mc2), 2 * prec + 3))
        lo, hi = (n - sq - 1) // (2 * nm), -((-n - sq - 2) // (2 * nm))
        # quality: `_verify` accepts no u with c Re u + s Im u < R t for
        # t = thr - 16, as its integer quality is within 2^(prec+3) R of
        # 2^2prec times the true one and c, s are within 2 of 2^prec cos phi0,
        # 2^prec sin phi0; so the line keeps alpha w >= z for
        # z = 2 R t - X wo - o wi
        wo, wi, wc, nw, thr = self._line_quality
        t = thr - 16 << (k >> 1) + 1                # 2 R t / sqrt2^(k&1)
        za, zb = zs_mul(X, wo)
        z = ((0 if k & 1 else t) - za - o * wi[0], (t if k & 1 else 0) - zb - o * wi[1])
        if nw == 0:                             # the quality is constant on the line
            return (lo, hi) if zs_sign(z) <= 0 else None
        q = zs_mul(z, wc)                       # z / w = q / N(w)
        if self.rising:
            lo = max(lo, _zs_floor(q, prec, nw))
        else:
            hi = min(hi, -_zs_floor((-q[0], -q[1]), prec, nw))
        return (lo, hi) if lo <= hi else None

    def _walk(self, k, x, o, chord, conj, step, limit):
        """Verified candidates on the chord of line x, best first in chunks
        of doubling width, until `limit` are found or the chord is done."""
        lo, hi = chord
        got, done = {}, False
        while not done and (limit is None or len(got) < limit):
            if self.rising:
                c_lo, c_hi = max(lo, hi - step), hi
                hi, done = c_lo, c_lo <= lo
            else:
                c_lo, c_hi = lo, min(hi, lo + step)
                lo, done = c_hi, c_hi >= hi
            ys = solve_grid_1d(c_lo, c_hi, *conj, self.prec)
            got.update(self._verify(k, [self._lift(x, y, o) for y in ys]))
            step *= 2
        return got

    def _verify(self, k: int, cands: Sequence[ZOmega]) -> dict:
        """{u: quality} for the candidates with xi = 2^k - |u|^2 totally
        >= 0 and quality Re(e^{-i phi0} u) >= sqrt2^k (1 - eps^2/2).

        xi is checked exactly.  The quality is the integer
        Q = (Re u 2^P) C + (Im u 2^P) S for P = `prec`, with C, S and R2
        cos phi0, sin phi0 and sqrt2 times 2^P, and its threshold
        T = sqrt2^k (1 - eps^2/2) 2^2P; Q is within 2^(P+3) sqrt2^k of the
        true quality times 2^2P, so Q also serves as the sort key."""
        P, (C, S), R2 = self.prec, self._trig, self.r2_fx
        # with eps = n / d, T^2 = 2^(k + 4P) ((2d^2 - n^2) / 2d^2)^2, floored
        n, d = self.eps.as_integer_ratio()
        T = math.isqrt(((2 * d * d - n * n) ** 2 << (k + 4 * P)) // (4 * d ** 4))
        top = 1 << k
        out = {}
        for u in cands:
            a, b, c, d = u
            # xi = A - m sqrt2 (zo_abs_sq) is totally >= 0 iff A >= |m| sqrt2
            A = top - (a * a + b * b + c * c + d * d)
            m = a * b + b * c + c * d - d * a
            if A < 0 or A * A < 2 * m * m:
                continue
            q = (((a << P) + ((b - d) * R2 >> 1)) * C
                 + ((c << P) + ((b + d) * R2 >> 1)) * S)
            if q >= T:
                out[u] = q
        return out


_PI_FIXED = [0, 0]      # [bits, pi 2^bits] at the most bits asked for so far


def _pi_fixed(bits: int) -> int:
    """pi 2^bits within two units.  Machin's series
    pi = 16 atan(1/5) - 4 atan(1/239) runs once at the most bits asked for
    so far (rounded up to 256); fewer bits shift that value down."""
    if bits > _PI_FIXED[0]:
        n = -(-bits // 256) * 256
        g = n + n.bit_length() + 8      # over the < 8g units the floors lose

        def atan_inv(k: int) -> int:    # atan(1/k) 2^g
            term = total = (1 << g) // k
            j = 1
            while term:
                term //= k * k
                j += 2
                total += -(term // j) if j & 2 else term // j
            return total

        _PI_FIXED[:] = n, (16 * atan_inv(5) - 4 * atan_inv(239)) >> (g - n)
    n, pi = _PI_FIXED
    return pi >> (n - bits)


def _octant(theta, bits: int) -> Tuple[int, Fraction]:
    """(m, theta_p) with theta = N pi/4 + theta_p, N the nearest integer to
    4 theta / pi and m = N mod 8, so that Rz(theta) is T^m Rz(theta_p) up to
    a phase.  theta is taken exactly, as as_integer_ratio gives it, and pi
    to `bits` plus theta's integer bits, so theta_p is within 2^-bits for
    any finite theta."""
    num, den = theta.as_integer_ratio()
    q = bits + max(0, num.bit_length() - den.bit_length() + 1) + 8
    pi = _pi_fixed(q)
    th = (num << q) // den                      # theta 2^q, floored
    n = (8 * th + pi) // (2 * pi)
    return n % 8, Fraction(4 * th - n * pi, 4 << q)


def _cos_sin(phi, prec: int) -> Tuple[int, int]:
    """cos phi, sin phi for |phi| < 3, phi a float or a Fraction taken
    exactly: rounded to 64 bits over `prec` fraction bits, then floored to
    `prec`, the rounding every recorded word was made with (a plain floor
    differs from it where a short-mantissa angle's Taylor terms fall on the
    grid, and could change a word).

    phi is halved r times; the cosine of that is its Taylor series in
    y = x^2, summed in u interleaved parts so that one product by y^u
    serves u terms; r doublings cos 2x = 2 cos^2 x - 1 give cos phi, and
    sin phi = sign(phi) sqrt(1 - cos^2 phi).  Each doubling quadruples the
    error and the square root divides it by |sin phi|, so the guard bits
    grow with r and with phi's leading zeros."""
    num, den = phi.as_integer_ratio()
    if abs(num) >= 3 * den:
        raise ValueError(f"cos/sin needs |phi| < 3, got phi={phi!r}")
    r, u = math.isqrt(prec) // 5, max(2, math.isqrt(prec) // 12)
    g = 80 + 2 * r + max(0, den.bit_length() - abs(num).bit_length())
    p = prec + g
    one = 1 << p
    x = (num << p) // (den << r)
    powers = [x * x >> p]                       # y, y^2, ..., y^u
    for _ in range(u - 1):
        powers.append(powers[-1] * powers[0] >> p)
    # cos x - 1 = sum over k >= 1 of (-1)^k y^k / (2k)!; part i holds the
    # terms with k = i + 1 (mod u) divided by y^(i+1)
    parts = [0] * u
    a, k = one, 0
    while a:
        for i in range(u):
            k += 1
            a //= (2 * k - 1) * (2 * k)
            parts[i] += -a if k & 1 else a
        a = a * powers[-1] >> p
    c = one + (sum(v * w for v, w in zip(parts, powers)) >> p)
    for _ in range(r):
        c = (c * c >> (p - 1)) - one
    s = math.isqrt((one << p) - c * c)   # c <= one: the series is <= 0, doublings floor
    return tuple((v >> g - 65) + 1 >> 65 for v in (c, s if num > 0 else -s))


def _working_bits(eps: float) -> int:
    """Fraction bits of every step of one angle's synthesis at eps = 2^-b."""
    return 4 * max(1, math.ceil(-math.log2(eps))) + 100


def _k_range(eps: float) -> Tuple[int, int]:
    """The first and the last denominator exponent tried at eps."""
    return max(0, int(1.5 * math.log2(1 / eps)) - 2), int(3 * math.log2(1 / eps)) + 40


def synthesize_rz_tags(theta: float, eps: float) -> List[str]:
    """Clifford+T tag sequence U with min_phi ||U - e^{i phi} Rz(theta)|| <= eps.

    Exact pi/4 multiples return the minimal S/T word with zero error.
    Raises SynthesisError, naming theta and eps, if no word is found, and
    RuntimeError, naming them too, if an internal invariant breaks.
    """
    if not math.isfinite(theta):
        raise ValueError(f"Rz synthesis needs a finite angle, got theta={theta!r}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got eps={eps!r}")
    if eps < sys.float_info.min:
        raise SynthesisError(f"Rz synthesis failed for theta={theta!r} at eps={eps!r} "
                             f"(b={-math.log2(eps):g}): eps is not a normal float")
    eps = min(eps, 1.0)
    k, k_cap = _k_range(eps)
    # octant reduction in fixed point: in floats it errs by ~1e-16, which
    # exceeds eps from b ~ 50 on
    mth, theta_p = _octant(theta, _working_bits(eps) + 64)
    # (near-)multiples of pi/4 get their exact S/T word; snapping moves the
    # rotation by |theta_p| / 2, so the tolerance never exceeds 2 eps
    if abs(theta_p) <= min(1e-12, 2 * eps):
        return list(_T_WORD[mth])
    try:
        region = _EpsRegion(-theta_p / 2, eps)
        while k <= k_cap:
            for u in region.candidates(k, _ATTEMPTS_PER_K):
                n, m = zo_abs_sq(u)
                t = solve_diophantine(((1 << k) - n, -m))
                if t is None:
                    continue
                # T^m [[u, -conj t], [t, conj u]], octant included; w^4 = -1
                return exact_synthesize(RingMatrix(
                    u, zo_rot(zo_conj(t), 4), zo_rot(t, mth), zo_rot(zo_conj(u), mth), k))
            k += 1
        raise SynthesisError(f"no candidate found up to k={k_cap}")
    except (RuntimeError, OverflowError) as e:
        where = f"theta={theta!r} at eps={eps!r} (b={-math.log2(eps):g})"
        if isinstance(e, OverflowError):       # the operator search's float skew, b >= 513
            raise SynthesisError(f"Rz synthesis failed for {where}: "
                                 f"float64 overflows ({e})") from None
        if isinstance(e, SynthesisError):
            raise SynthesisError(f"Rz synthesis failed for {where}: {e}") from None
        raise RuntimeError(f"internal error in Rz synthesis for {where}: {e}") from e


# ---------------------------------------------------------------------------
# Exact preparability of real single-qubit states


def exactly_preparable(alpha0: float, alpha1: float) -> Tuple[bool, Optional[int]]:
    """Is (alpha0, alpha1) (real, unit norm) a Clifford+T-reachable state?

    Returns (True, j) with e^{i j pi/8} a phase that puts both entries in
    Z[omega, 1/sqrt2], or (False, None).  Reachable states are those with
    such a phase w (Kliuchnikov, Maslov, Mosca, arXiv:1206.5236).  Then
    w^2 = w^2 (alpha0^2 + alpha1^2) and w^2 e^{i theta} = (w (alpha0 +
    i alpha1))^2, theta = 2 atan2(alpha1, alpha0), are unit-modulus ring
    elements, i.e. powers of omega, so theta = m pi/4.  Conversely
    Ry(m pi/4)|0> has ring entries for even m and, times e^{i pi/8}, for
    odd m: e^{i pi/8} cos(pi/8) = (1 + omega)/2.
    """
    if abs(alpha0 * alpha0 + alpha1 * alpha1 - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    theta = 2 * math.atan2(alpha1, alpha0)
    if not is_pi4_multiple(theta):
        return False, None
    return True, round(theta / (math.pi / 4)) & 1
