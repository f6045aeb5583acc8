"""Stackel matrices, metric coefficients and the time functions.

Separation rests on three ingredients computed here for every chart:

* the Stackel matrix F, whose row ``i`` depends on omega_i alone and
  whose entries multiply the separation constants in the one-dimensional
  ODEs;
* the time functions (T1, T2, T3) built from the frame scales, one per
  split class pattern;
* the metric coefficients R_i^2, the squared column norms of the embedded
  Jacobian T H J, in closed form.

The three are tied together by the relation

    sum_i F[i][j](omega_i) / R_i^2  =  T_j(t),   j = 1, 2, 3,

which the tests enforce for every chart and admissible frame.

The elliptic-cylinder chart's metric coefficient is a^2 (sinh^2 omega_1
+ sin^2 omega_2); writing it via double angles costs a factor of one half
that is easy to drop, so the tests pin it against the Jacobian columns.
"""

from __future__ import annotations

import math

import numpy as np

from .coords import CoordinateSystem, SplitClass, SystemId, check_domain
from .elliptic import jacobi
from .errors import ConfigurationError
from .frame import FrameSpec


_IDENTITY_ROWS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def stackel_row(system: CoordinateSystem, axis: int, w: float) -> tuple[float, float, float]:
    """Row ``axis`` (0-based) of the Stackel matrix, evaluated at omega value ``w``.

    Row ``axis`` is a function of omega_{axis+1} alone, so a single scalar
    argument suffices; this is what makes the one-dimensional separated
    ODEs possible in the first place.
    """
    if axis not in (0, 1, 2):
        raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis!r}")
    sid = system.sid
    a = system.a

    if sid is SystemId.CARTESIAN:
        return _IDENTITY_ROWS[axis]

    if sid is SystemId.CYLINDRICAL:
        if axis == 0:
            return (math.exp(2.0 * w), -1.0, 0.0)
        return _IDENTITY_ROWS[axis]

    if sid is SystemId.PARABOLIC_CYLINDRICAL:
        if axis == 0:
            return (w * w, -1.0, 0.0)
        if axis == 1:
            return (w * w, 1.0, 0.0)
        return (0.0, 0.0, 1.0)

    if sid is SystemId.ELLIPTIC_CYLINDRICAL:
        if axis == 0:
            c = math.cosh(w)
            return (a * a * c * c, 1.0, 0.0)
        if axis == 1:
            c = math.cos(w)
            return (-a * a * c * c, -1.0, 0.0)
        return (0.0, 0.0, 1.0)

    if sid is SystemId.SPHERICAL:
        if axis == 0:
            r2 = 1.0 / (w * w)
            return (r2 * r2, -r2, 0.0)
        if axis == 1:
            se = 1.0 / math.cosh(w)
            return (0.0, se * se, -1.0)
        return (0.0, 0.0, 1.0)

    if sid in (
        SystemId.PROLATE_SPHEROIDAL,
        SystemId.PROLATE_SPHEROIDAL_II_PLUS,
        SystemId.PROLATE_SPHEROIDAL_II_MINUS,
    ):
        if axis == 0:
            cs2 = 1.0 / (math.sinh(w) ** 2)
            return (a * a * cs2 * cs2, -cs2, -1.0)
        if axis == 1:
            se2 = 1.0 / (math.cosh(w) ** 2)
            return (a * a * se2 * se2, se2, -1.0)
        return (0.0, 0.0, 1.0)

    if sid is SystemId.OBLATE_SPHEROIDAL:
        if axis == 0:
            cs2 = 1.0 / (math.sin(w) ** 2)
            return (a * a * cs2 * cs2, -cs2, 1.0)
        if axis == 1:
            se2 = 1.0 / (math.cosh(w) ** 2)
            return (-a * a * se2 * se2, se2, -1.0)
        return (0.0, 0.0, 1.0)

    if sid is SystemId.PARABOLIC:
        if axis == 0:
            e2 = math.exp(2.0 * w)
            return (e2 * e2, -e2, -1.0)
        if axis == 1:
            e2 = math.exp(2.0 * w)
            return (e2 * e2, e2, -1.0)
        return (0.0, 0.0, 1.0)

    if sid is SystemId.PARABOLOIDAL:
        if axis == 0:
            c = math.cosh(2.0 * w)
            return (a * a * c * c, -a * c, -1.0)
        if axis == 1:
            c = math.cos(2.0 * w)
            return (-a * a * c * c, a * c, 1.0)
        c = math.cosh(2.0 * w)
        return (a * a * c * c, a * c, -1.0)

    if sid is SystemId.ELLIPSOIDAL:
        # The focal scale enters the first column only, exactly as in the
        # spheroidal charts; the other two columns pair with vanishing
        # time functions and stay scale-free.
        m = system.kmod
        if axis == 0:
            sn, _, dn = jacobi(w, m.k)
            D2 = (dn / sn) ** 2
            return (a * a * D2 * D2, -D2, 1.0)
        if axis == 1:
            _, cn, _ = jacobi(w, m.kprime)
            q = m.kprime * m.kprime * cn * cn
            return (-a * a * q * q, q, -1.0)
        _, cn, _ = jacobi(w, m.k)
        q = m.k * m.k * cn * cn
        return (a * a * q * q, q, 1.0)

    if sid is SystemId.CONICAL:
        m = system.kmod
        if axis == 0:
            r2 = 1.0 / (w * w)
            return (r2 * r2, -r2, 0.0)
        if axis == 1:
            _, cn, _ = jacobi(w, m.kprime)
            return (0.0, m.kprime * m.kprime * cn * cn, -1.0)
        _, cn, _ = jacobi(w, m.k)
        return (0.0, m.k * m.k * cn * cn, 1.0)

    raise ConfigurationError(f"unhandled system {sid!r}")


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
    if min(h1, h2, h3) <= 0.0:
        raise ConfigurationError(f"frame scales must be positive at t={t}")
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
    the closed forms below avoid the cancellation the raw column norms
    suffer near the chart boundaries.
    """
    check_domain(system, omega)
    w1, w2, w3 = (float(omega[0]), float(omega[1]), float(omega[2]))
    sid = system.sid
    a2 = system.a * system.a
    T1, T2, T3 = t_functions(system, frame, t)
    i1 = 1.0 / T1

    if sid is SystemId.CARTESIAN:
        return (1.0 / T1, 1.0 / T2, 1.0 / T3)

    if sid is SystemId.CYLINDRICAL:
        r = i1 * math.exp(2.0 * w1)
        return (r, r, 1.0 / T3)

    if sid is SystemId.PARABOLIC_CYLINDRICAL:
        r = i1 * (w1 * w1 + w2 * w2)
        return (r, r, 1.0 / T3)

    if sid is SystemId.ELLIPTIC_CYLINDRICAL:
        r = i1 * a2 * (math.sinh(w1) ** 2 + math.sin(w2) ** 2)
        return (r, r, 1.0 / T3)

    if sid is SystemId.SPHERICAL:
        r1 = i1 / w1 ** 4
        r23 = i1 / (w1 * math.cosh(w2)) ** 2
        return (r1, r23, r23)

    if sid in (
        SystemId.PROLATE_SPHEROIDAL,
        SystemId.PROLATE_SPHEROIDAL_II_PLUS,
        SystemId.PROLATE_SPHEROIDAL_II_MINUS,
    ):
        cs2 = 1.0 / math.sinh(w1) ** 2
        se2 = 1.0 / math.cosh(w2) ** 2
        return (i1 * a2 * cs2 * (cs2 + se2), i1 * a2 * se2 * (cs2 + se2), i1 * a2 * cs2 * se2)

    if sid is SystemId.OBLATE_SPHEROIDAL:
        cs2 = 1.0 / math.sin(w1) ** 2
        se2 = 1.0 / math.cosh(w2) ** 2
        return (i1 * a2 * cs2 * (cs2 - se2), i1 * a2 * se2 * (cs2 - se2), i1 * a2 * cs2 * se2)

    if sid is SystemId.PARABOLIC:
        e1 = math.exp(2.0 * w1)
        e2 = math.exp(2.0 * w2)
        return (i1 * e1 * (e1 + e2), i1 * e2 * (e1 + e2), i1 * e1 * e2)

    if sid is SystemId.PARABOLOIDAL:
        c1 = math.cosh(2.0 * w1)
        d2 = math.cos(2.0 * w2)
        c3 = math.cosh(2.0 * w3)
        return (
            i1 * a2 * (c1 - d2) * (c1 + c3),
            i1 * a2 * (c1 - d2) * (d2 + c3),
            i1 * a2 * (c1 + c3) * (d2 + c3),
        )

    if sid is SystemId.ELLIPSOIDAL:
        m = system.kmod
        sn, _, dn = jacobi(w1, m.k)
        P = (dn / sn) ** 2
        _, cn2, _ = jacobi(w2, m.kprime)
        Q = m.kprime * m.kprime * cn2 * cn2
        _, cn3, _ = jacobi(w3, m.k)
        S = m.k * m.k * cn3 * cn3
        return (
            i1 * a2 * (P - Q) * (P + S),
            i1 * a2 * (P - Q) * (Q + S),
            i1 * a2 * (P + S) * (Q + S),
        )

    if sid is SystemId.CONICAL:
        m = system.kmod
        _, cn2, _ = jacobi(w2, m.kprime)
        Q = m.kprime * m.kprime * cn2 * cn2
        _, cn3, _ = jacobi(w3, m.k)
        S = m.k * m.k * cn3 * cn3
        r1 = i1 / w1 ** 4
        r23 = i1 * (Q + S) / (w1 * w1)
        return (r1, r23, r23)

    raise ConfigurationError(f"unhandled system {sid!r}")
