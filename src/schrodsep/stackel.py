"""Stackel matrices, metric coefficients and the time functions.

Separation rests on three ingredients, evaluated here for every chart:

* the Stackel matrix F, whose row ``i`` depends on omega_i alone and
  whose entries multiply the separation constants in the one-dimensional
  ODEs;
* the time functions (T1, T2, T3) built from the frame scales, one per
  split class pattern;
* the metric coefficients R_i^2, the squared column norms of the embedded
  Jacobian T H J.

The per-chart rows and the map giving J live in the chart records of
:mod:`schrodsep.coords`; this module adds the axis and domain checks, the
time functions and the metric.  A row is evaluated at one coordinate or
over a whole grid of them in one call (:func:`stackel_row`), the full
matrix at one point or a stack of them (:func:`stackel_values`), and the
metric at one point (:func:`metric_r_squared`) or, from the chart map's
Jacobian, at a stack of them.  The three are tied together by the relation

    sum_i F[i][j](omega_i) / R_i^2  =  T_j(t),   j = 1, 2, 3,

which the tests enforce for every chart and admissible frame.
"""

from __future__ import annotations

import math

import numpy as np

from .coords import CoordinateSystem, SplitClass, _chart_map, check_domain
from .errors import ConfigurationError, SingularityError
from .frame import FrameSpec


def stackel_row(system: CoordinateSystem, axis: int, w) -> tuple:
    """Row ``axis`` (0-based) of the Stackel matrix at omega value ``w``.

    Row ``axis`` is a function of omega_{axis+1} alone, so a single
    coordinate suffices; this is what makes the one-dimensional separated
    ODEs possible in the first place.  ``w`` is a float or a float array
    (a grid along the axis); each of the three entries is then a number or
    an array of w's shape, and an entry that does not vary along the axis
    stays a constant that broadcasts against it.  No domain check.
    """
    if axis not in (0, 1, 2):
        raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis!r}")
    return system.chart.rows[axis](system, w)


def stackel_values(system: CoordinateSystem, omega) -> np.ndarray:
    """The full Stackel matrix, entry (i, j) = F_ij(omega_i), at one point
    (shape (3,), giving 3x3) or at each of a stack of points (shape (n, 3),
    giving (n, 3, 3)); one :func:`stackel_row` call per row either way.
    The first point outside the domain raises the error of
    :func:`schrodsep.coords.check_domain`; an entry that overflows inside
    it is inf or NaN, without a numpy warning, for the caller to flag."""
    w = np.asarray(omega, dtype=float)
    points = w.reshape(-1, 3)
    inside = np.isfinite(points).all(axis=1)
    for i, axis in enumerate(system.domain):
        inside &= axis.contains(points[:, i])
    outside = np.flatnonzero(~inside)
    if outside.size:
        check_domain(system, points[outside[0]])
    F = np.empty(w.shape[:-1] + (3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(3):
            for j, entry in enumerate(stackel_row(system, i, w[..., i])):
                F[..., i, j] = entry
    return F


def t_functions(system: CoordinateSystem, frame: FrameSpec, t: float) -> tuple[float, float, float]:
    """(T1, T2, T3) from the frame scales, per the chart's split class.

    Completely split charts keep all three h_i^-2; partially split ones
    lose T2; non-split ones keep only T1 = h1^-2.  At a float array of
    times each entry is an array of its shape, element for element the
    bits of the float evaluation: ``np.float_power`` calls the C ``pow``
    that ``float ** -2`` calls, where ``np.power`` may take a vectorised
    one that rounds differently.
    """
    return _t_from_scales(system, frame.scales(t))


def _t_from_scales(system: CoordinateSystem, scales) -> tuple:
    """:func:`t_functions` from the frame scales (h1, h2, h3) at t, which
    :meth:`FrameSpec.scales` gives at a float or a float array t."""
    h1, h2, h3 = scales
    if isinstance(h1, np.ndarray):
        inv, zero = (lambda h: np.float_power(h, -2.0)), np.zeros(h1.shape)
    else:
        inv, zero = (lambda h: h ** -2), 0.0
    cls = system.split_class
    if cls is SplitClass.COMPLETE:
        return (inv(h1), inv(h2), inv(h3))
    if cls is SplitClass.PARTIAL:
        return (inv(h1), zero, inv(h3))
    return (inv(h1), zero, zero)


def metric_r_squared(
    system: CoordinateSystem, frame: FrameSpec, t: float, omega
) -> tuple[float, float, float]:
    """The squared metric coefficients (R1^2, R2^2, R3^2).

    R_a^2 = sum_k h_k^2 J_ka^2, the squared norm of column a of the
    embedded Jacobian T H J: the rotation T is orthogonal and drops out.
    Every term is non-negative, so the sum cannot cancel.  Raises
    :class:`DomainError` as :func:`schrodsep.coords.forward` does, and
    :class:`SingularityError` when some R_a^2 is zero or not finite.
    """
    return _r_squared(system, t, omega, _chart_map(system, omega)[1], frame.scales(t))


def _r_squared(system: CoordinateSystem, t: float, omega, J, scales) -> tuple:
    """:func:`metric_r_squared` from the Jacobian rows J of the chart map
    at omega and the frame scales at t, with its guard.

    J[a][i] is entry (a, i): floats at one point, or arrays of one shape at
    a stack of points omega, which give each R_a^2 as an array of that
    shape with the bits of the float evaluation; the body is one.  At a
    point a failed guard raises; in a stack the failing sample's R^2 are
    NaN, and the caller that wants the error evaluates that sample alone.
    """
    HJ = [[h * v for v in row] for h, row in zip(scales, J)]
    R2 = tuple([x * x + y * y + z * z for x, y, z in zip(*HJ)])
    if isinstance(R2[0], np.ndarray):
        stack = np.array(R2)
        ok = ((0.0 < stack) & (stack < math.inf)).all(axis=0)
        return tuple(np.where(ok, stack, math.nan))
    if not all([0.0 < r < math.inf for r in R2]):
        raise SingularityError(f"{system.sid.value}: metric {R2} at omega={tuple(omega)}, t={t}")
    return R2
