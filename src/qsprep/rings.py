"""Exact arithmetic in the rings behind Clifford+T synthesis.

Every ring element is a plain int tuple, and every operation on it is a
module-level function here (zs_*, zo_*), so exact synthesis, the grid
operators and the Diophantine solver share one implementation:

ZSqrt2 : a + b*sqrt(2) as the pair (a, b)                (real quadratic ring)
ZOmega : a + b*w + c*w^2 + d*w^3 with w = e^{i pi/4} as the tuple
         (a, b, c, d)                            (8th cyclotomic integers)

Addition, negation, the Galois conjugate (a, -b) and the zero test of a
ZSqrt2 are written inline where they occur.

ZOmega holds i = w^2 and sqrt(-2) = w + w^3, so a ZOmega gcd also splits the
primes p = 3, 5 (mod 8) that stay prime in ZSqrt2 (the Diophantine solver).

Both are norm-Euclidean, so gcds run by rounded division; ZOmega's
coefficient-wise rounding is not always a Euclidean witness, so its mod step
falls back to a small perturbation search around the rounded quotient.
"""
from __future__ import annotations

import functools
from typing import Tuple


class RingError(ArithmeticError):
    pass


def round_div(x: int, n: int) -> int:
    """x / n rounded to the nearest integer, ties to even, in exact
    integers: the quotient round(Fraction(x, n)) gives."""
    if n < 0:
        x, n = -x, -n
    q, r = divmod(x, n)
    if 2 * r > n or (2 * r == n and q & 1):
        q += 1
    return q


# ---------------------------------------------------------------------------
# Z[sqrt2]; element a + b sqrt2 as the int pair (a, b)

ZSqrt2 = Tuple[int, int]


def zs_mul(u: ZSqrt2, v: ZSqrt2) -> ZSqrt2:
    return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def zs_norm(u: ZSqrt2) -> int:
    """u times its Galois conjugate (sqrt2 -> -sqrt2), a^2 - 2 b^2."""
    return u[0] * u[0] - 2 * u[1] * u[1]


def zs_sign(u: ZSqrt2) -> int:
    """Exact sign of the real value a + b*sqrt(2)."""
    a, b = u
    if a >= 0 and b >= 0:
        return 0 if a == b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a^2 with 2 b^2
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else -1
    return 1 if a * a < 2 * b * b else -1


def zs_totally_positive(u: ZSqrt2) -> bool:
    """u > 0 and its Galois conjugate a - b sqrt2 > 0."""
    return zs_sign(u) > 0 and zs_sign((u[0], -u[1])) > 0


def zs_div_exact(u: ZSqrt2, v: ZSqrt2) -> ZSqrt2:
    n = zs_norm(v)
    if n == 0:
        raise ZeroDivisionError("ZSqrt2 division by zero")
    x, y = zs_mul(u, (v[0], -v[1]))
    if x % n or y % n:
        raise RingError("inexact ZSqrt2 division")
    return (x // n, y // n)


def zs_divides(v: ZSqrt2, u: ZSqrt2) -> bool:
    n = zs_norm(v)
    if n == 0:
        return u == (0, 0)
    x, y = zs_mul(u, (v[0], -v[1]))
    return x % n == 0 and y % n == 0


def zs_mod(u: ZSqrt2, v: ZSqrt2) -> ZSqrt2:
    n = zs_norm(v)
    x, y = zs_mul(u, (v[0], -v[1]))
    qa, qb = zs_mul(v, (round_div(x, n), round_div(y, n)))
    return (u[0] - qa, u[1] - qb)


def zs_gcd(u: ZSqrt2, v: ZSqrt2) -> ZSqrt2:
    while v != (0, 0):
        u, v = v, zs_mod(u, v)
    return u


def zs_sqrt2_valuation(u: ZSqrt2) -> Tuple[int, ZSqrt2]:
    """u = sqrt2^m * u0 with u0 not divisible by sqrt2; sqrt2 | u iff a even."""
    if u == (0, 0):
        raise RingError("valuation of zero")
    a, b = u
    m = 0
    while a % 2 == 0:
        a, b = b, a // 2
        m += 1
    return m, (a, b)


@functools.lru_cache(maxsize=4096)
def zs_lambda_power(m: int) -> ZSqrt2:
    """lambda^m for the fundamental unit lambda = 1 + sqrt2 (and
    lambda^-1 = sqrt2 - 1)."""
    base = (1, 1) if m >= 0 else (-1, 1)
    out = (1, 0)
    for _ in range(abs(m)):
        out = zs_mul(out, base)
    return out


# ---------------------------------------------------------------------------
# Z[omega], omega = exp(i pi / 4); element a + b w + c w^2 + d w^3 as the
# int tuple (a, b, c, d)

ZOmega = Tuple[int, int, int, int]

ZO_ZERO: ZOmega = (0, 0, 0, 0)
ZO_ONE: ZOmega = (1, 0, 0, 0)
ZO_SQRT2: ZOmega = (0, 1, 0, -1)   # w - w^3 = sqrt2
ZO_DELTA: ZOmega = (1, 1, 0, 0)    # 1 + w; conj(delta) delta = sqrt2 * lambda
# w^j -> j for the eight units w^j
ZO_UNIT_LOG = {(1, 0, 0, 0): 0, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2,
               (0, 0, 0, 1): 3, (-1, 0, 0, 0): 4, (0, -1, 0, 0): 5,
               (0, 0, -1, 0): 6, (0, 0, 0, -1): 7}


def zo_add(u: ZOmega, v: ZOmega) -> ZOmega:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])


def zo_sub(u: ZOmega, v: ZOmega) -> ZOmega:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3])


def zo_mul(u: ZOmega, v: ZOmega) -> ZOmega:
    # w^4 = -1
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return (a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def zo_pow(u: ZOmega, e: int) -> ZOmega:
    out = ZO_ONE
    while e:
        if e & 1:
            out = zo_mul(out, u)
        u = zo_mul(u, u)
        e >>= 1
    return out


def zo_conj(u: ZOmega) -> ZOmega:
    """Complex conjugation: w -> w^{-1}."""
    a, b, c, d = u
    return (a, -d, -c, -b)


def zo_galois(u: ZOmega) -> ZOmega:
    """sqrt2 -> -sqrt2 (w -> w^5 = -w)."""
    a, b, c, d = u
    return (a, -b, c, -d)


def zo_rot(u: ZOmega, m: int) -> ZOmega:
    """u * w^m."""
    a, b, c, d = u
    for _ in range(m % 8):
        a, b, c, d = -d, a, b, c
    return (a, b, c, d)


def zo_sqrt2_divisible(u: ZOmega) -> bool:
    """sqrt2 | u iff a = c and b = d (mod 2)."""
    return not ((u[0] ^ u[2]) | (u[1] ^ u[3])) & 1


def zo_div_sqrt2(u: ZOmega) -> ZOmega:
    """u / sqrt2 for u with zo_sqrt2_divisible(u)."""
    a, b, c, d = u
    return ((b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1)


def zo_abs_sq(u: ZOmega) -> ZSqrt2:
    """conj(u) u as an element of Z[sqrt2].

    Its w^2 coefficient is always 0 and its w^3 coefficient minus its w
    one, so it is (a^2 + b^2 + c^2 + d^2) + (ab + bc + cd - da) sqrt2."""
    a, b, c, d = u
    return (a * a + b * b + c * c + d * d, a * b + b * c + c * d - d * a)


def zo_norm(u: ZOmega) -> int:
    return zs_norm(zo_abs_sq(u))


def zo_from_zsqrt2(x: ZSqrt2) -> ZOmega:
    a, b = x
    return (a, b, 0, -b)


def _zo_norm_cofactor(v: ZOmega) -> ZOmega:
    """conj(v) v* conj(v*), so v times it is the integer zo_norm(v)."""
    g = zo_galois(v)
    return zo_mul(zo_mul(zo_conj(v), g), zo_conj(g))


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


def zo_gcd(u: ZOmega, v: ZOmega) -> ZOmega:
    while v != ZO_ZERO:
        u, v = v, zo_mod(u, v)
    return u
