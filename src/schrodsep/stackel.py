"""Stackel matrices, metric coefficients and the time functions.

Separation rests on three ingredients, evaluated here for every chart:

* the Stackel matrix F, whose row ``i`` depends on omega_i alone and
  whose entries multiply the separation constants in the one-dimensional
  ODEs;
* the time functions (T1, T2, T3) built from the frame scales, one per
  split class pattern;
* the metric coefficients R_i^2, the squared column norms of the embedded
  Jacobian T H J, in closed form.

The per-chart row and metric formulas live in the chart records of
:mod:`schrodsep.coords`; this module adds the axis and domain checks and
the time functions.  The three are tied together by the relation

    sum_i F[i][j](omega_i) / R_i^2  =  T_j(t),   j = 1, 2, 3,

which the tests enforce for every chart and admissible frame.
"""

from __future__ import annotations

import numpy as np

from .coords import CoordinateSystem, SplitClass, check_domain
from .errors import ConfigurationError
from .frame import FrameSpec


def stackel_row(system: CoordinateSystem, axis: int, w: float) -> tuple[float, float, float]:
    """Row ``axis`` (0-based) of the Stackel matrix, evaluated at omega value ``w``.

    Row ``axis`` is a function of omega_{axis+1} alone, so a single scalar
    argument suffices; this is what makes the one-dimensional separated
    ODEs possible in the first place.
    """
    if axis not in (0, 1, 2):
        raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis!r}")
    return system.chart.rows[axis](system, w)


def stackel_values(system: CoordinateSystem, omega) -> np.ndarray:
    """The full 3x3 Stackel matrix at omega; entry (i, j) = F_ij(omega_i)."""
    check_domain(system, omega)
    return np.array([stackel_row(system, i, float(omega[i])) for i in range(3)])


def t_functions(system: CoordinateSystem, frame: FrameSpec, t: float) -> tuple[float, float, float]:
    """(T1, T2, T3) from the frame scales, per the chart's split class.

    Completely split charts keep all three h_i^-2; partially split ones
    lose T2; non-split ones keep only T1 = h1^-2.
    """
    h1, h2, h3 = frame.scales(t)
    cls = system.split_class
    if cls is SplitClass.COMPLETE:
        return (h1 ** -2, h2 ** -2, h3 ** -2)
    if cls is SplitClass.PARTIAL:
        return (h1 ** -2, 0.0, h3 ** -2)
    return (h1 ** -2, 0.0, 0.0)


def metric_r_squared(
    system: CoordinateSystem, frame: FrameSpec, t: float, omega
) -> tuple[float, float, float]:
    """The squared metric coefficients (R1^2, R2^2, R3^2) in closed form.

    These equal the squared column norms of the embedded Jacobian T H J;
    the chart's closed form avoids the cancellation the raw column norms
    suffer near the chart boundaries.
    """
    check_domain(system, omega)
    w1, w2, w3 = (float(omega[0]), float(omega[1]), float(omega[2]))
    return system.chart.metric(system, t_functions(system, frame, t), w1, w2, w3)
