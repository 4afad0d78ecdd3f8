"""Reference Rz candidate enumeration: the nested-1D strip scan.

This is the candidate search gridsynth used before the 2D grid solver: it
scans every row Y of a thin strip in y and solves one 1D grid problem per
row, so its work grows like 2^(b/2).  It is kept only as a test oracle for
small b; `candidates(k, phi0, eps)` returns the verified candidate list in
the order gridsynth tries them.

`verify(k, phi0, eps, cands)` is the candidate check gridsynth ran in
mpmath before it moved to fixed-point integers: exact feasibility, and
the quality in high precision.

`region_setup(phi0, eps)` is the 2D solver's per-angle set-up as gridsynth
computed it in mpmath at 4b + 100 bits before it moved to the operator
search's fixed-point integers: the segment ellipse, the upright pair under
the grid operator, the half widths and the ellipse centre.
`segment_chord(ref, k, x, o)` is the chord of a walked line inside the
segment, in mpmath at three times those bits.

`solve_grid_1d(l1, u1, l2, u2, pad)` is the float 1D grid kernel gridsynth
used before its exact fixed-point one: it pads each interval outward by
`pad` times its endpoint magnitude, which is kept here for the small-b
oracles above and in `reference_preparable`.
"""
import math
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import mpmath as mp

from qsprep.gridsynth import _GRID_ROW_LIMIT, SynthesisError, _upright_operator
from qsprep.rings import ZOmega, ZSqrt2, zo_abs_sq, zs_lambda_power, zs_mul, zs_sign

SQRT2 = math.sqrt(2.0)
_LOG_LAMBDA = math.log(1.0 + SQRT2)


def solve_grid_1d(l1: float, u1: float, l2: float, u2: float,
                  pad: float = 1e-10) -> List[ZSqrt2]:
    """All x in Z[sqrt2] with value in [l1,u1] and conjugate in [l2,u2].

    The problem is rebalanced by the unit lambda = 1 + sqrt2 so the two
    intervals have comparable width (keeps the row count short): x is
    found as lambda^-j * (a + b*sqrt2).  Intervals are padded outward by
    `pad` times their endpoint magnitude, so callers must verify candidates
    exactly; no valid solution is missed at float scale.
    """
    w1 = u1 - l1
    w2 = u2 - l2
    if w1 < 0.0 or w2 < 0.0:
        return []
    # balance the widths the kernel will scan, padding included, so an
    # interval narrower than its padding is balanced too
    w1 = max(w1, pad * (abs(l1) + abs(u1) + 1.0))
    w2 = max(w2, pad * (abs(l2) + abs(u2) + 1.0))
    j = int(round(math.log(w2 / w1) / (2.0 * _LOG_LAMBDA)))
    s1 = math.exp(j * _LOG_LAMBDA)
    s2 = (-1.0) ** (j & 1) * math.exp(-j * _LOG_LAMBDA)
    a1, b1 = l1 * s1, u1 * s1
    a2, b2 = l2 * s2, u2 * s2
    if a2 > b2:
        a2, b2 = b2, a2
    pad1 = pad * (abs(a1) + abs(b1) + 1.0)
    pad2 = pad * (abs(a2) + abs(b2) + 1.0)
    a1 -= pad1
    b1 += pad1
    a2 -= pad2
    b2 += pad2

    tsq = 2.0 * SQRT2
    b_lo = math.ceil((a1 - b2) / tsq)
    b_hi = math.floor((b1 - a2) / tsq)
    if b_hi - b_lo > _GRID_ROW_LIMIT:
        raise SynthesisError(f"grid enumeration too large: {b_hi - b_lo} rows")
    back = zs_lambda_power(-j)
    out = []
    for b in range(b_lo, b_hi + 1):
        r = b * SQRT2
        lo, hi = math.ceil(max(a1 - r, a2 + r)), math.floor(min(b1 - r, b2 + r))
        if len(out) + hi - lo >= _GRID_ROW_LIMIT:
            raise SynthesisError(f"grid enumeration too large: over {_GRID_ROW_LIMIT} points")
        for a in range(lo, hi + 1):
            out.append(zs_mul((a, b), back))
    return out


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


def op_value(g, conj: bool = False):
    """Entries of the grid operator G (or of G*), stored as those of sqrt2 G
    in Z[sqrt2], in mpmath at the working precision."""
    r2 = -mp.sqrt(2) if conj else mp.sqrt(2)
    return tuple((a + b * r2) / r2 for a, b in g)


def _congruence(m, g):
    """G^T M G in mpmath for the symmetric M = (p, q, r)."""
    p, q, r = m
    g11, g12, g21, g22 = g
    a11, a12, a21, a22 = (p * g11 + q * g21, p * g12 + q * g22,
                          q * g11 + r * g21, q * g12 + r * g22)
    return (g11 * a11 + g21 * a21, g11 * a12 + g21 * a22, g12 * a12 + g22 * a22)


def region_setup(phi0, eps: float) -> SimpleNamespace:
    """The set-up of `gridsynth._EpsRegion` in mpmath: the grid operator
    (found by the fixed-point operator search from the ellipse rounded to
    prec bits), the upright pair's float forms, half widths, the centre's
    fixed-point value, the outer axis, and phi0 and eps for `segment_chord`."""
    prec = 4 * max(1, math.ceil(-math.log2(eps))) + 100
    with mp.workprec(prec):
        cos_d = 1 - mp.mpf(eps) ** 2 / 2
        h = 1 - cos_d
        grow = 1 + mp.mpf(2) ** -20
        pr = (2 * h / 3 * grow) ** -2                           # radial
        pt = (2 * mp.sqrt(1 - cos_d * cos_d) / mp.sqrt(3) * grow) ** -2
        c, s = mp.cos(phi0), mp.sin(phi0)
        d = (pr * c * c + pt * s * s, (pr - pt) * c * s, pr * s * s + pt * c * c)
        disk = (mp.mpf(1), mp.mpf(0), mp.mpf(1))
        op = _upright_operator(*([int(mp.nint(x * (1 << prec))) for x in m]
                                 for m in (d, disk)), prec)[0]
        g11, g12, g21, g22 = g = op_value(op)
        ell = (_congruence(d, g), _congruence(disk, op_value(op, True)))
        # centre of the segment's ellipse in v coordinates: H^-1 centre
        rc = cos_d + h / 3
        det = g11 * g22 - g12 * g21
        centre = ((g22 * c - g12 * s) * rc / det, (g11 * s - g21 * c) * rc / det)
        half = [[float(mp.sqrt(x / (p * r - q * q))) for x in (r, p)] for p, q, r in ell]
        forms = [[float(x) for x in m] for m in ell]
        centre_fx = [int(mp.nint(mp.ldexp(x, prec))) for x in centre]
    ha, hb = half
    outer = 0 if ha[0] * hb[0] <= ha[1] * hb[1] else 1
    return SimpleNamespace(phi0=phi0, eps=eps, prec=prec, op=op, forms=forms, half=half,
                           centre_fx=centre_fx, outer=outer)


def segment_chord(ref: SimpleNamespace, k: int, x, o: int):
    """Ends of the inner coordinate alpha (v's inner coordinate less o/sqrt2)
    on the line at outer coordinate x + o/sqrt2 inside the segment scaled by
    sqrt2^k, or None; the low end floored and the high end ceiled to
    prec + 8 fraction bits.  Computed in mpmath at 3 prec bits from the
    grid operator and the line, without the centre, so only a tangent
    line's discriminant is in doubt."""
    with mp.workprec(3 * ref.prec):
        r2 = mp.sqrt(2)
        R = r2 ** k
        X = x[0] + x[1] * r2 + o / r2
        h11, h12, h21, h22 = op_value(ref.op)
        cols = ((h11, h21), (h12, h22))
        (o1, o2), (d1, d2) = cols[ref.outer], cols[1 - ref.outer]
        # u = X (o1, o2) + T (d1, d2); |u| <= R is a T^2 + 2 b T + cc <= 0
        a = d1 * d1 + d2 * d2
        b = X * (o1 * d1 + o2 * d2)
        cc = X * X * (o1 * o1 + o2 * o2) - R * R
        disc = b * b - a * cc
        if disc < 0:
            return None
        lo, hi = (-b - mp.sqrt(disc)) / a, (-b + mp.sqrt(disc)) / a
        # quality: X (c o1 + s o2) + T (c d1 + s d2) >= R (1 - eps^2/2)
        c, s = mp.cos(ref.phi0), mp.sin(ref.phi0)
        slope = c * d1 + s * d2
        rhs = R * (1 - mp.mpf(ref.eps) ** 2 / 2) - X * (c * o1 + s * o2)
        if slope > 0:
            lo = max(lo, rhs / slope)
        elif slope < 0:
            hi = min(hi, rhs / slope)
        elif rhs > 0:
            return None
        if lo > hi:
            return None
        return (int(mp.floor(mp.ldexp(lo - o / r2, ref.prec + 8))),
                int(mp.ceil(mp.ldexp(hi - o / r2, ref.prec + 8))))
