"""The mpmath set-up of one Rz angle that gridsynth ran before it moved to
integers: the octant reduction of `synthesize_rz_tags` and the fixed-point
cos phi0, sin phi0 of `_EpsRegion`, verbatim.  It is kept only as the
oracle of `gridsynth._octant` and `gridsynth._cos_sin`.
"""
import math

import mpmath as mp

from qsprep.gridsynth import _working_bits


def octant_and_trig(theta: float, eps: float):
    """(mth mod 8, snapped, (cos phi0, sin phi0) floored to
    `_working_bits(eps)` fraction bits, or None where snapped)."""
    with mp.workprec(_working_bits(eps) + 64 + max(0, math.frexp(theta)[1])):
        th = mp.mpf(theta)
        th -= 4 * mp.pi * mp.nint(th / (4 * mp.pi))
        mth = int(mp.nint(th / (mp.pi / 4)))
        theta_p = th - mth * mp.pi / 4
        phi0 = -theta_p / 2
    if abs(theta_p) <= min(1e-12, 2 * eps):
        return mth % 8, True, None
    return mth % 8, False, cos_sin(phi0, _working_bits(eps))


def cos_sin(phi0, prec: int):
    """cos phi0, sin phi0 to 64 bits over prec, floored to prec."""
    with mp.workprec(prec + 80):
        return tuple(int(mp.nint(mp.ldexp(x, prec + 64))) >> 64
                     for x in mp.cos_sin(mp.mpf(phi0)))
