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

The integer section supplies the rational primes the Diophantine solver
splits: `factorize` (trial division, Miller-Rabin / BPSW, Pollard-Brent rho
under a fixed effort cap) and `sqrt_mod_prime` (Tonelli-Shanks).
"""
from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Tuple


class RingError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# Integers

_TRIAL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % q for q in range(2, math.isqrt(p) + 1)))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson & Webster, arXiv:1509.00864); above it a strong Lucas test
# completes the Baillie-PSW test
_MR_BASES = _TRIAL_PRIMES[:13]
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard-Brent rho steps (one x -> x^2 + c mod m each) that one `factorize`
# call may spend.  That factors balanced semiprimes of up to ~56 bits; Rz
# candidate norms have about b + 4 bits (44 at most at b = 40).
FACTOR_EFFORT = 1 << 16
_RHO_BATCH = 128      # steps per gcd in Brent's loop


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                out = -out
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd non-square n > 10^6 with
    Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D / n) = -1, P = 1, Q = (1 - D) / 4."""
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:          # gcd(D, n) is a proper factor, as |D| < n
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    e, s = n + 1, 0
    while not e & 1:
        e >>= 1
        s += 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) >> 1

    # U_j, V_j, Q^j mod n along the bits of e, from j = 1 (P = 1):
    # U_2j = U_j V_j, V_2j = V_j^2 - 2 Q^j, and j -> j + 1 by
    # U = (U + V) / 2, V = (D U + V) / 2
    u, v, qj = 1, 1, q % n
    for bit in bin(e)[3:]:
        u, v, qj = u * v % n, (v * v - 2 * qj) % n, qj * qj % n
        if bit == "1":
            u, v, qj = half(u + v), half(d * u + v), qj * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qj = (v * v - 2 * qj) % n, qj * qj % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..41, exact below 3.3e24; above, the
    strong Lucas test makes it Baillie-PSW, with no known counterexample."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    e, s = n - 1, 0
    while not e & 1:
        e >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, e, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_EXACT_BELOW:
        return True
    r = math.isqrt(n)
    return r * r != n and _strong_lucas(n)


def _rho(m: int, budget: int) -> Tuple[int, int]:
    """(f, steps): a factor 1 < f < m of the odd composite non-square m by
    Pollard's rho with Brent's cycle search, or f = 0 once `budget` steps
    are spent.  One step is one x -> x^2 + c (mod m)."""
    steps = 0
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            steps += r
            k = 0
            while k < r and g == 1:
                ys, batch = y, min(_RHO_BATCH, r - k)
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += batch
                steps += batch
                if g == 1 and steps > budget:
                    return 0, steps
            r <<= 1
        if g == m:        # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g, steps
    raise RuntimeError(f"Pollard rho found no factor of {m}")


def factorize(n: int) -> Optional[Dict[int, int]]:
    """{p: e} with n the product of p^e over increasing primes p, for n >= 1;
    or None when Pollard-Brent rho spends FACTOR_EFFORT steps on n without
    finishing."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: Dict[int, int] = {}
    g = math.gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # n now has no prime factor below 1000; todo holds (m, e) with m^e | n
    left, todo = FACTOR_EFFORT, [(n, 1)] if n > 1 else []
    while todo:
        m, e = todo.pop()
        r = math.isqrt(m)
        if r * r == m:
            todo.append((r, 2 * e))
        elif m < 1_000_000 or is_prime(m):
            out[m] = out.get(m, 0) + e
        else:
            f, steps = _rho(m, left)
            if not f:
                return None
            left -= steps
            todo += [(f, e), (m // f, e)]
    return dict(sorted(out.items()))


def sqrt_mod_prime(a: int, p: int) -> int:
    """The smaller square root of the quadratic residue a modulo the odd
    prime p, by Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    e, s = p - 1, 0
    while not e & 1:
        e >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) >> 1, p) != p - 1:
        z += 1
    c, x, t = pow(z, e, p), pow(a, (e + 1) >> 1, p), pow(a, e, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == s:
                raise ValueError(f"{a} is not a square modulo {p}")
        b = pow(c, 1 << (s - i - 1), p)
        x, c, s = x * b % p, b * b % p, i
        t = t * c % p
    return min(x, p - x)


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
    q0 = tuple(round_div(x, n) for x in zo_mul(u, _zo_norm_cofactor(v)))
    # coefficient rounding may miss the Euclidean witness; search the
    # quotients q0 + (da, db, dc, dd), d in {0, -1, 1}, whose remainders
    # are r0 - da v - db v w - dc v w^2 - dd v w^3
    r0 = zo_sub(u, zo_mul(v, q0))
    shifts = [(ZO_ZERO, vw, zo_sub(ZO_ZERO, vw)) for vw in (zo_rot(v, k) for k in range(4))]
    best, best_norm = None, 0
    nv = abs(n)
    for i, sa in enumerate(shifts[0]):
        ra = zo_add(r0, sa)
        for sb in shifts[1]:
            rb = zo_add(ra, sb)
            for sc in shifts[2]:
                rc = zo_add(rb, sc)
                for sd in shifts[3]:
                    r = zo_add(rc, sd)
                    nr = abs(zo_norm(r))
                    if best is None or nr < best_norm:
                        best, best_norm = r, nr
                    if nr == 0:
                        return r
        if i == 0 and best_norm < nv:
            break  # plain rounding already gave a Euclidean witness
    if best_norm >= nv:
        raise RingError("ZOmega Euclidean step failed")
    return best


def zo_gcd(u: ZOmega, v: ZOmega) -> ZOmega:
    while v != ZO_ZERO:
        u, v = v, zo_mod(u, v)
    return u
