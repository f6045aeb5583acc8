"""A fixed reference kernel, timed after every operation, that follows the
host's speed.

On a shared host the speed of identical work drifts by 20-50 % over
minutes, in phases that last from seconds to whole runs, so wall times of
the same code spread across runs by more than any useful bound.  The
kernel below does a fixed amount of work of the same kinds as schrodsep
(scipy ``quad`` over a Python integrand, small numpy arrays, Python
arithmetic) and uses nothing of schrodsep.  Timed right after each
operation it sees the same host phase as the operation, so an operation's
time scaled by ``REFERENCE_S / kernel time`` is its time at the speed the
reference figures were measured at.  The raw times stay in ``result.json``.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

#: Median kernel time on the machine of the reference figures (README).
REFERENCE_S = 0.0035

_X = np.linspace(0.0, 1.0, 64)


def _kernel() -> float:
    total = 0.0
    for k in range(12):
        total += quad(lambda x: math.sqrt(1.0 + x * x) * math.sin(0.1 * k + x), 0.0, 3.0)[0]
    for k in range(400):
        v = np.sin(_X * k) + _X
        total += float(v @ _X)
        d = {i: i * 0.5 for i in range(20)}
        total += sum(d.values())
    return total


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
