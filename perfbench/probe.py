"""Machine-speed probe: a fixed slice of interpreter and NumPy work.

On a shared machine the speed of a vCPU drifts (up to 2x over minutes
here, with no steal time reported), so raw wall times of two runs a few
minutes apart are not comparable.  The benchmark times this probe in the
same interpreter, between the sweeps it measures, and scales each time by
PROBE_REF_S / mean(probe times): a time in seconds of a machine on which
the probe takes PROBE_REF_S.  The probe uses no qsprep code, so a change
to the program cannot move it.
"""
from __future__ import annotations

import math
import time

import numpy as np

# The probe's time on an idle 2-CPU Xeon VM with Python 3.11 (its fast state).
PROBE_REF_S = 0.025


def probe() -> float:
    """Seconds taken by the fixed work."""
    t = time.perf_counter()
    x = 1
    for i in range(50_000):                     # big-int arithmetic
        x = (x * 1000003 + i) % (1 << 200)
    s = 0.0
    for i in range(75_000):                     # float arithmetic
        s += math.sqrt(i) * 1.0000001
    v = np.ones(1 << 14, dtype=complex)
    for _ in range(375):                        # small-array NumPy
        v = v * 1.0000001 + 0.5
    return time.perf_counter() - t


def scale(probes) -> float:
    """Factor that maps times measured alongside `probes` to reference speed."""
    return PROBE_REF_S * len(probes) / sum(probes)
