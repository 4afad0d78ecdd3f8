"""The ring-membership search that `gridsynth.exactly_preparable` replaced,
kept verbatim as the test oracle for its closed form."""
from __future__ import annotations

import math
from typing import List, Optional, Tuple

import mpmath as mp

from qsprep.rings import ZSqrt2, zo_abs_sq
from reference_scan import solve_grid_1d, zo_mpvalue

SQRT2 = math.sqrt(2.0)

K_MAX = 32


def _identify_zsqrt2(value: float, conj_bound: float, tol: float) -> List[ZSqrt2]:
    return [x for x in solve_grid_1d(value - tol, value + tol,
                                     -conj_bound, conj_bound)
            if abs(x[0] + x[1] * SQRT2 - value) <= tol]


def search_preparable(alpha0: float, alpha1: float,
                      k_max: int = K_MAX) -> Tuple[bool, Optional[int]]:
    """Is (alpha0, alpha1) (real, unit norm) a Clifford+T-reachable state?

    Searches phases w = e^{i j pi/8}, j = 0..15, and denominator exponents
    k <= k_max for exact ring members u0, u1 in Z[omega] with
    u0/sqrt2^k = w*alpha0, u1/sqrt2^k = w*alpha1 and |u0|^2 + |u1|^2 = 2^k
    (checked in exact integer arithmetic).  Returns (found, phase index).

    The phase class e^{i j pi/8} is exhaustive for real pairs: any ring
    member pair that is real up to a phase has (w alpha0)^2 + (w alpha1)^2 =
    w^2 a unit-modulus ring element, hence an 8th root of unity.
    """
    if abs(alpha0 * alpha0 + alpha1 * alpha1 - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    for j in range(16):
        ph = complex(math.cos(j * math.pi / 8), math.sin(j * math.pi / 8))
        w0, w1 = ph * alpha0, ph * alpha1
        for k in range(k_max + 1):
            scale = SQRT2 ** (k + 1)           # X = sqrt2 * component * sqrt2^k
            bound = 2.0 * SQRT2 * SQRT2 ** k   # generous conjugate bound
            tol = 1e-12 * (1.0 + scale)
            comps = [w0.real, w0.imag, w1.real, w1.imag]
            cands: List[List[ZSqrt2]] = []
            ok = True
            for v in comps:
                found = _identify_zsqrt2(v * scale, bound, tol)
                if not found:
                    ok = False
                    break
                cands.append(found)
            if not ok:
                continue
            for X0 in cands[0]:
                for Y0 in cands[1]:
                    if (X0[0] - Y0[0]) % 2:
                        continue
                    u0 = (X0[1], (X0[0] + Y0[0]) // 2, Y0[1], (Y0[0] - X0[0]) // 2)
                    for X1 in cands[2]:
                        for Y1 in cands[3]:
                            if (X1[0] - Y1[0]) % 2:
                                continue
                            u1 = (X1[1], (X1[0] + Y1[0]) // 2, Y1[1], (Y1[0] - X1[0]) // 2)
                            (n0, m0), (n1, m1) = zo_abs_sq(u0), zo_abs_sq(u1)
                            if (n0 + n1, m0 + m1) != (1 << k, 0):
                                continue
                            with mp.workdps(40 + k):
                                s = mp.sqrt(2) ** k
                                d0 = abs(zo_mpvalue(u0) / s - mp.mpc(w0))
                                d1 = abs(zo_mpvalue(u1) / s - mp.mpc(w1))
                                if d0 < 1e-12 and d1 < 1e-12:
                                    return True, j
    return False, None
