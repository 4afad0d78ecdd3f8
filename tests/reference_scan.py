"""Reference Rz candidate enumeration: the nested-1D strip scan.

This is the candidate search gridsynth used before the 2D grid solver: it
scans every row Y of a thin strip in y and solves one 1D grid problem per
row, so its work grows like 2^(b/2).  It is kept only as a test oracle for
small b; `candidates(k, phi0, eps)` returns the verified candidate list in
the order gridsynth tries them.

`verify(k, phi0, eps, cands)` is the candidate check gridsynth ran in
mpmath before it moved to fixed-point integers: exact feasibility, and
the quality in high precision.
"""
import math
from typing import Dict, List, Sequence, Tuple

import mpmath as mp

from qsprep.gridsynth import solve_grid_1d
from qsprep.rings import ZOmega, zo_abs_sq, zs_sign

SQRT2 = math.sqrt(2.0)


def zo_mpvalue(u: ZOmega):
    """a + b w + c w^2 + d w^3 as an mpmath complex at the working precision."""
    a, b, c, d = u
    h = mp.sqrt(2) / 2
    w = mp.mpc(h, h)
    return a + b * w + c * mp.mpc(0, 1) + d * w * mp.mpc(0, 1)


def verify(k: int, phi0, eps: float, cands: Sequence[ZOmega]) -> Dict[ZOmega, mp.mpf]:
    """{u: quality} for the candidates with xi = 2^k - |u|^2 totally >= 0
    and quality Re(e^{-i phi0} u) / sqrt2^k >= 1 - eps^2/2, both checked
    exactly or in high precision (mpmath at 30 + 2k digits)."""
    out = {}
    with mp.workdps(30 + 2 * k):
        zc = mp.exp(mp.mpc(0, -1) * mp.mpf(phi0))
        Rm = mp.sqrt(2) ** k
        thr = 1 - mp.mpf(eps) ** 2 / 2
        for u in cands:
            n, m = zo_abs_sq(u)
            if zs_sign(((1 << k) - n, -m)) < 0 or zs_sign(((1 << k) - n, m)) < 0:
                continue
            q = mp.re(zc * zo_mpvalue(u)) / Rm
            if q >= thr:
                out[u] = q
    return out


def candidates(k: int, phi0: float, eps: float) -> List[ZOmega]:
    R = SQRT2 ** k
    c0, s0 = math.cos(phi0), math.sin(phi0)
    slo = R * (1 - eps * eps / 2)
    delta = math.acos(max(-1.0, 1 - eps * eps / 2))
    ys = (R * math.sin(phi0 - delta), R * math.sin(phi0 + delta))
    y_lo, y_hi = min(ys), max(ys)
    out: List[Tuple[float, ZOmega]] = []
    for Y in solve_grid_1d(SQRT2 * y_lo, SQRT2 * y_hi, -SQRT2 * R, SQRT2 * R):
        yv = (Y[0] + Y[1] * SQRT2) / SQRT2
        ycv = (Y[0] - Y[1] * SQRT2) / SQRT2   # = -Im(u_galois)
        rem = R * R - yv * yv
        if rem < 0:
            continue
        x_hi = math.sqrt(rem)
        x_lo = (slo - yv * s0) / c0
        if x_lo > x_hi:
            continue
        remc = R * R - ycv * ycv
        if remc < 0:
            continue
        bx = math.sqrt(remc)
        p = Y[0] & 1
        g_lo = x_lo - p / SQRT2
        g_hi = x_hi - p / SQRT2
        gc = (p / SQRT2 + bx, p / SQRT2 - bx)
        for gam in solve_grid_1d(g_lo, g_hi, min(gc), max(gc)):
            e = p + 2 * gam[1]
            aa = gam[0]
            f, cc = Y
            if (e - f) % 2:
                continue
            u = (aa, (e + f) // 2, cc, (f - e) // 2)
            # cheap float prefilter on the quality constraint
            half = SQRT2 / 2
            ur = aa + (u[1] - u[3]) * half
            ui = cc + (u[1] + u[3]) * half
            q = (ur * c0 + ui * s0) / R
            if q < (1 - eps * eps / 2) - 1e-11 * (1 + abs(q)):
                continue
            out.append((q, u))
    # exact feasibility and high-precision quality check; the scan sorted
    # by the quality rounded to a float, ties in scan order
    verified = verify(k, phi0, eps, [u for _, u in out])
    return sorted(verified, key=lambda u: -float(verified[u]))
