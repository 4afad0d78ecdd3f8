"""Exact arithmetic in the rings behind Clifford+T synthesis.

ZSqrt2   : a + b*sqrt(2)                      (real quadratic ring)
ZOmega   : a + b*w + c*w^2 + d*w^3, w=e^{i pi/4}   (8th cyclotomic integers)
ZI       : Gaussian integers a + b*i
ZRootM2  : a + b*sqrt(-2)

All four are norm-Euclidean, so gcds run by rounded division; ZOmega's
coefficient-wise rounding is not always a Euclidean witness, so its mod step
falls back to a small perturbation search around the rounded quotient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

SQRT2 = math.sqrt(2.0)
LAMBDA = 1.0 + SQRT2


class RingError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# Z[sqrt2]


@dataclass(frozen=True)
class ZSqrt2:
    a: int
    b: int

    def __add__(self, o: "ZSqrt2") -> "ZSqrt2":
        return ZSqrt2(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "ZSqrt2") -> "ZSqrt2":
        return ZSqrt2(self.a - o.a, self.b - o.b)

    def __mul__(self, o: "ZSqrt2") -> "ZSqrt2":
        return ZSqrt2(self.a * o.a + 2 * self.b * o.b,
                      self.a * o.b + self.b * o.a)

    def __neg__(self) -> "ZSqrt2":
        return ZSqrt2(-self.a, -self.b)

    def conj(self) -> "ZSqrt2":
        """Galois conjugate sqrt2 -> -sqrt2."""
        return ZSqrt2(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a - 2 * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(2)."""
        if self.a == 0 and self.b == 0:
            return 0
        if self.a >= 0 and self.b >= 0:
            return 1
        if self.a <= 0 and self.b <= 0:
            return -1
        # mixed signs: compare a^2 with 2 b^2
        if self.a > 0:  # b < 0
            return 1 if self.a * self.a > 2 * self.b * self.b else -1
        return 1 if self.a * self.a < 2 * self.b * self.b else -1

    def totally_positive(self) -> bool:
        return self.sign() > 0 and self.conj().sign() > 0

    def value(self) -> float:
        return self.a + self.b * SQRT2

    def mpvalue(self, mp) -> "object":
        return mp.mpf(self.a) + mp.mpf(self.b) * mp.sqrt(2)


ZS_ZERO = ZSqrt2(0, 0)
ZS_ONE = ZSqrt2(1, 0)
ZS_LAMBDA = ZSqrt2(1, 1)          # 1 + sqrt2, fundamental unit
ZS_LAMBDA_INV = ZSqrt2(-1, 1)     # sqrt2 - 1


def zs_div_exact(u: ZSqrt2, v: ZSqrt2) -> ZSqrt2:
    n = v.norm()
    if n == 0:
        raise ZeroDivisionError("ZSqrt2 division by zero")
    w = u * v.conj()
    if w.a % n or w.b % n:
        raise RingError("inexact ZSqrt2 division")
    return ZSqrt2(w.a // n, w.b // n)


def zs_divides(v: ZSqrt2, u: ZSqrt2) -> bool:
    n = v.norm()
    if n == 0:
        return u.is_zero()
    w = u * v.conj()
    return w.a % n == 0 and w.b % n == 0


def zs_mod(u: ZSqrt2, v: ZSqrt2) -> ZSqrt2:
    n = v.norm()
    w = u * v.conj()
    qa = round(Fraction(w.a, n))
    qb = round(Fraction(w.b, n))
    return u - v * ZSqrt2(qa, qb)


def zs_gcd(u: ZSqrt2, v: ZSqrt2) -> ZSqrt2:
    while not v.is_zero():
        u, v = v, zs_mod(u, v)
    return u


def zs_sqrt2_valuation(u: ZSqrt2) -> Tuple[int, ZSqrt2]:
    """u = sqrt2^m * u0 with u0 not divisible by sqrt2; sqrt2 | u iff a even."""
    if u.is_zero():
        raise RingError("valuation of zero")
    m = 0
    while u.a % 2 == 0:
        u = ZSqrt2(u.b, u.a // 2)
        m += 1
    return m, u


import functools


@functools.lru_cache(maxsize=4096)
def zs_lambda_power(m: int) -> ZSqrt2:
    base = ZS_LAMBDA if m >= 0 else ZS_LAMBDA_INV
    out = ZS_ONE
    for _ in range(abs(m)):
        out = out * base
    return out


# ---------------------------------------------------------------------------
# Z[omega], omega = exp(i pi / 4); element a + b w + c w^2 + d w^3


@dataclass(frozen=True)
class ZOmega:
    a: int
    b: int
    c: int
    d: int

    def __add__(self, o: "ZOmega") -> "ZOmega":
        return ZOmega(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "ZOmega") -> "ZOmega":
        return ZOmega(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "ZOmega":
        return ZOmega(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o: "ZOmega") -> "ZOmega":
        # w^4 = -1
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return ZOmega(
            a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
        )

    def conj(self) -> "ZOmega":
        """Complex conjugation: w -> w^{-1}."""
        return ZOmega(self.a, -self.d, -self.c, -self.b)

    def galois(self) -> "ZOmega":
        """sqrt2 -> -sqrt2 (w -> w^5 = -w)."""
        return ZOmega(self.a, -self.b, self.c, -self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def abs_sq(self) -> ZSqrt2:
        """u.conj()*u as an element of Z[sqrt2] (always real)."""
        p = self.conj() * self
        if p.c != 0 or p.b + p.d != 0:
            raise RingError("abs_sq not real")
        return ZSqrt2(p.a, p.b)

    def norm(self) -> int:
        q = self.abs_sq()
        return q.norm()

    def value(self) -> complex:
        w = complex(SQRT2 / 2, SQRT2 / 2)
        return self.a + self.b * w + self.c * 1j + self.d * (w * 1j)

    def mpvalue(self, mp) -> "object":
        h = mp.sqrt(2) / 2
        w = mp.mpc(h, h)
        return self.a + self.b * w + self.c * mp.mpc(0, 1) + self.d * w * mp.mpc(0, 1)


ZO_ZERO = ZOmega(0, 0, 0, 0)
ZO_ONE = ZOmega(1, 0, 0, 0)
ZO_SQRT2 = ZOmega(0, 1, 0, -1)    # w - w^3 = sqrt2
ZO_DELTA = ZOmega(1, 1, 0, 0)     # 1 + w; delta.conj()*delta = sqrt2 * lambda


def zo_from_zsqrt2(x: ZSqrt2) -> ZOmega:
    return ZOmega(x.a, x.b, 0, -x.b)


def zo_div_exact(u: ZOmega, v: ZOmega) -> ZOmega:
    n = v.norm()
    if n == 0:
        raise ZeroDivisionError("ZOmega division by zero")
    vt = v.conj() * v.galois() * v.galois().conj()
    w = u * vt
    if w.a % n or w.b % n or w.c % n or w.d % n:
        raise RingError("inexact ZOmega division")
    return ZOmega(w.a // n, w.b // n, w.c // n, w.d // n)


def zo_mod(u: ZOmega, v: ZOmega) -> ZOmega:
    n = v.norm()
    vt = v.conj() * v.galois() * v.galois().conj()
    w = u * vt
    q0 = [round(Fraction(x, n)) for x in (w.a, w.b, w.c, w.d)]
    best = None
    nv = abs(n)
    # coefficient rounding may miss the Euclidean witness; search nearby
    for da in (0, -1, 1):
        for db in (0, -1, 1):
            for dc in (0, -1, 1):
                for dd in (0, -1, 1):
                    q = ZOmega(q0[0] + da, q0[1] + db, q0[2] + dc, q0[3] + dd)
                    r = u - v * q
                    nr = abs(r.norm())
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
    while not v.is_zero():
        u, v = v, zo_mod(u, v)
    return u


# ---------------------------------------------------------------------------
# Z[i] and Z[sqrt(-2)], used by the Diophantine prime splitting


@dataclass(frozen=True)
class ZI:
    a: int
    b: int

    def __mul__(self, o: "ZI") -> "ZI":
        return ZI(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def __sub__(self, o: "ZI") -> "ZI":
        return ZI(self.a - o.a, self.b - o.b)

    def norm(self) -> int:
        return self.a * self.a + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def zi_mod(u: ZI, v: ZI) -> ZI:
    n = v.norm()
    w = u * ZI(v.a, -v.b)
    q = ZI(round(Fraction(w.a, n)), round(Fraction(w.b, n)))
    return u - v * q


def zi_gcd(u: ZI, v: ZI) -> ZI:
    while not v.is_zero():
        u, v = v, zi_mod(u, v)
    return u


@dataclass(frozen=True)
class ZRootM2:
    a: int
    b: int   # a + b * sqrt(-2)

    def __mul__(self, o: "ZRootM2") -> "ZRootM2":
        return ZRootM2(self.a * o.a - 2 * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    def __sub__(self, o: "ZRootM2") -> "ZRootM2":
        return ZRootM2(self.a - o.a, self.b - o.b)

    def norm(self) -> int:
        return self.a * self.a + 2 * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def zm2_mod(u: ZRootM2, v: ZRootM2) -> ZRootM2:
    n = v.norm()
    w = u * ZRootM2(v.a, -v.b)
    q = ZRootM2(round(Fraction(w.a, n)), round(Fraction(w.b, n)))
    return u - v * q


def zm2_gcd(u: ZRootM2, v: ZRootM2) -> ZRootM2:
    while not v.is_zero():
        u, v = v, zm2_mod(u, v)
    return u


def zi_to_zomega(u: ZI) -> ZOmega:
    return ZOmega(u.a, 0, u.b, 0)           # i = w^2


def zm2_to_zomega(u: ZRootM2) -> ZOmega:
    return ZOmega(u.a, u.b, 0, u.b)         # sqrt(-2) = w + w^3
