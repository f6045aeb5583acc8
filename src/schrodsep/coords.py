"""Catalogue of separable orthogonal coordinate systems on R^3.

Each system is given by an implicit map x = z(omega) from a coordinate box
to Cartesian space.  All eleven base charts are orthogonal and every
component function omega_a(x) of the inverse map is harmonic.  Two shifted
variants of the prolate spheroidal chart (third component offset by +-a)
are included because they admit extra separable potentials.

The charts fall into three split classes which control how they may be
combined with time-dependent scale factors:

* ``complete``  - all three axes scale independently (cartesian),
* ``partial``   - axes 1 and 2 share a scale factor (the three cylinder
  charts),
* ``nonsplit``  - all axes share one scale factor (the seven remaining
  genuinely three-dimensional charts).

Everything known about a chart sits in its one :class:`Chart` record in
``_CHARTS``: split class, parameters, domain, forward map, Jacobian,
Stackel rows and closed-form metric.  A chart is added by writing its
functions and adding one ``_CHARTS`` record; nothing else dispatches on
the system id.

Angles are kept in their principal boxes; radial-like axes that make the
map blow up at an endpoint are flagged singular and excluded from the
admissible set, with an interior safety margin ``EPS_DOM`` used by the
samplers and the Newton clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .elliptic import Modulus, jacobi, modulus
from .errors import ConfigurationError, DomainError, InversionError, SingularityError

EPS_DOM = 1e-6
#: Unbounded axes are truncated to this symmetric box when sampling.
SAMPLE_TRUNC = 3.0

_INF = math.inf


class SystemId(str, Enum):
    CARTESIAN = "cartesian"
    CYLINDRICAL = "cylindrical"
    PARABOLIC_CYLINDRICAL = "parabolic_cylindrical"
    ELLIPTIC_CYLINDRICAL = "elliptic_cylindrical"
    SPHERICAL = "spherical"
    PROLATE_SPHEROIDAL = "prolate_spheroidal"
    PROLATE_SPHEROIDAL_II_PLUS = "prolate_spheroidal_ii_plus"
    PROLATE_SPHEROIDAL_II_MINUS = "prolate_spheroidal_ii_minus"
    OBLATE_SPHEROIDAL = "oblate_spheroidal"
    PARABOLIC = "parabolic"
    PARABOLOIDAL = "paraboloidal"
    ELLIPSOIDAL = "ellipsoidal"
    CONICAL = "conical"

    @property
    def chart(self) -> Chart:
        """The system's record in the chart table."""
        return _CHARTS[self]


class SplitClass(str, Enum):
    COMPLETE = "complete"
    PARTIAL = "partial"
    NONSPLIT = "nonsplit"


@dataclass(frozen=True)
class AxisInterval:
    """One coordinate axis: interval hull plus singular-endpoint flags.

    A singular endpoint is one where the map itself degenerates or blows
    up; it is excluded from the admissible set.  Non-singular finite
    endpoints remain evaluable (periodic seams, closed interval ends).
    """

    lo: float
    hi: float
    singular_lo: bool = False
    singular_hi: bool = False

    def contains(self, w: float) -> bool:
        if not (self.lo <= w <= self.hi):
            return False
        if self.singular_lo and w <= self.lo:
            return False
        if self.singular_hi and w >= self.hi:
            return False
        return True


Domain = tuple[AxisInterval, AxisInterval, AxisInterval]


@dataclass(frozen=True)
class Chart:
    """One coordinate system, defined once.

    ``domain`` holds the three axis intervals or, where ``uses_k``, builds
    them from the :class:`Modulus`; ``base`` is false only for the shifted
    prolate variants.  The functions take the system (for ``a`` and
    ``kmod``), then floats, and check no domain:

    * ``forward(s, w1, w2, w3)`` - z as a tuple;
    * ``jacobian(s, w1, w2, w3)`` - rows J[a][i] = d z_a / d omega_i;
    * ``rows[i](s, w)`` - Stackel row i at omega_{i+1} = w;
    * ``metric(s, T, w1, w2, w3)`` - (R1^2, R2^2, R3^2) under the time
      functions T = (T1, T2, T3).
    """

    split_class: SplitClass
    domain: Domain | Callable[[Modulus], Domain]
    forward: Callable
    jacobian: Callable
    rows: tuple[Callable, Callable, Callable]
    metric: Callable
    uses_a: bool = False
    uses_k: bool = False
    base: bool = True


@dataclass(frozen=True)
class CoordinateSystem:
    """A concrete chart: system id plus its fixed parameters.

    Parameters
    ----------
    sid : SystemId
    a : float
        Focal scale, used only by the charts whose record has ``uses_a``.
    kmod : Modulus or None
        Elliptic modulus data, required by ellipsoidal and conical charts.

    The chart record and the finished domain are attached on construction.
    """

    sid: SystemId
    a: float = 1.0
    kmod: Modulus | None = None
    chart: Chart = field(init=False, compare=False, repr=False)
    domain: Domain = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        chart = _CHARTS[self.sid]
        object.__setattr__(self, "chart", chart)
        domain = chart.domain(self.kmod) if chart.uses_k else chart.domain
        object.__setattr__(self, "domain", domain)

    @property
    def split_class(self) -> SplitClass:
        return self.chart.split_class

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        bits = []
        if self.chart.uses_a:
            bits.append(f"a={self.a}")
        if self.kmod is not None:
            bits.append(f"k={self.kmod.k}")
        return f"{self.sid.value}({', '.join(bits)})" if bits else self.sid.value


def make_system(name: str | SystemId, a: float = 1.0, k: float | None = None) -> CoordinateSystem:
    """Build a :class:`CoordinateSystem`, validating its parameters."""
    try:
        sid = SystemId(name)
    except ValueError:
        raise ConfigurationError(f"unknown coordinate system {name!r}") from None
    chart = sid.chart
    if chart.uses_a and not 0.0 < a < math.inf:
        raise ConfigurationError(f"{sid.value} needs a finite focal scale a > 0, got {a!r}")
    kmod = None
    if chart.uses_k:
        if k is None:
            raise ConfigurationError(f"{sid.value} needs an elliptic modulus k")
        kmod = modulus(float(k))
    elif k is not None:
        raise ConfigurationError(f"{sid.value} takes no elliptic modulus")
    return CoordinateSystem(sid=sid, a=float(a), kmod=kmod)


def all_system_ids() -> tuple[str, ...]:
    return tuple(s.value for s in SystemId)


def base_system_ids() -> tuple[str, ...]:
    """The eleven base charts (shifted prolate variants excluded)."""
    return tuple(s.value for s in SystemId if s.chart.base)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def check_domain(system: CoordinateSystem, omega) -> None:
    """Raise :class:`DomainError` naming the offending axis if outside."""
    dom = system.domain
    for i in range(3):
        w = float(omega[i])
        if not math.isfinite(w) or not dom[i].contains(w):
            raise DomainError(
                f"{system.sid.value}: omega_{i + 1} = {w!r} outside axis interval "
                f"[{dom[i].lo}, {dom[i].hi}]",
                axis=i + 1,
            )


def sampling_box(system: CoordinateSystem) -> np.ndarray:
    """Interior sampling sub-box, shape (3, 2).

    Unbounded ends are truncated to +-SAMPLE_TRUNC and every finite end is
    pulled inward by EPS_DOM.
    """
    out = np.empty((3, 2))
    for i, ax in enumerate(system.domain):
        lo = -SAMPLE_TRUNC if ax.lo == -_INF else ax.lo + EPS_DOM
        hi = SAMPLE_TRUNC if ax.hi == _INF else ax.hi - EPS_DOM
        if not lo < hi:
            raise ConfigurationError(f"degenerate sampling box on axis {i + 1}")
        out[i, 0] = lo
        out[i, 1] = hi
    return out


def sample_domain(system: CoordinateSystem, seed: int, n: int) -> np.ndarray:
    """Deterministic interior samples, shape (n, 3)."""
    if n < 0:
        raise ConfigurationError(f"sample count must be >= 0, got {n}")
    box = sampling_box(system)
    rng = np.random.default_rng(seed)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, 3))


# ---------------------------------------------------------------------------
# the charts: forward map, Jacobian, Stackel rows and metric of each, in
# scalar math with no domain checks, then the table that collects them
# ---------------------------------------------------------------------------

_R = AxisInterval(-_INF, _INF)
_HALF_LINE = AxisInterval(0.0, _INF)
_RADIAL = AxisInterval(0.0, _INF, singular_lo=True)
_TURN = AxisInterval(0.0, 2.0 * math.pi)
_IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _fixed_row(row, s, w):
    """A Stackel row that does not vary along its axis."""
    return row


_ROW_X, _ROW_Y, _ROW_Z = (partial(_fixed_row, row) for row in _IDENTITY)


def _fwd_cartesian(s, w1, w2, w3):
    return (w1, w2, w3)


def _jac_cartesian(s, w1, w2, w3):
    return _IDENTITY


def _met_cartesian(s, T, w1, w2, w3):
    return (1.0 / T[0], 1.0 / T[1], 1.0 / T[2])


def _fwd_cylindrical(s, w1, w2, w3):
    e = math.exp(w1)
    return (e * math.cos(w2), e * math.sin(w2), w3)


def _jac_cylindrical(s, w1, w2, w3):
    e = math.exp(w1)
    c, sn = math.cos(w2), math.sin(w2)
    return ((e * c, -e * sn, 0.0), (e * sn, e * c, 0.0), (0.0, 0.0, 1.0))


def _row1_cylindrical(s, w):
    return (math.exp(2.0 * w), -1.0, 0.0)


def _met_cylindrical(s, T, w1, w2, w3):
    r = 1.0 / T[0] * math.exp(2.0 * w1)
    return (r, r, 1.0 / T[2])


def _fwd_parabolic_cylindrical(s, w1, w2, w3):
    return (0.5 * (w1 * w1 - w2 * w2), w1 * w2, w3)


def _jac_parabolic_cylindrical(s, w1, w2, w3):
    return ((w1, -w2, 0.0), (w2, w1, 0.0), (0.0, 0.0, 1.0))


def _row1_parabolic_cylindrical(s, w):
    return (w * w, -1.0, 0.0)


def _row2_parabolic_cylindrical(s, w):
    return (w * w, 1.0, 0.0)


def _met_parabolic_cylindrical(s, T, w1, w2, w3):
    r = 1.0 / T[0] * (w1 * w1 + w2 * w2)
    return (r, r, 1.0 / T[2])


def _fwd_elliptic_cylindrical(s, w1, w2, w3):
    a = s.a
    return (a * math.cosh(w1) * math.cos(w2), a * math.sinh(w1) * math.sin(w2), w3)


def _jac_elliptic_cylindrical(s, w1, w2, w3):
    a = s.a
    ch, sh = math.cosh(w1), math.sinh(w1)
    c, sn = math.cos(w2), math.sin(w2)
    return ((a * sh * c, -a * ch * sn, 0.0), (a * ch * sn, a * sh * c, 0.0), (0.0, 0.0, 1.0))


def _row1_elliptic_cylindrical(s, w):
    c = math.cosh(w)
    return (s.a * s.a * c * c, 1.0, 0.0)


def _row2_elliptic_cylindrical(s, w):
    c = math.cos(w)
    return (-s.a * s.a * c * c, -1.0, 0.0)


def _met_elliptic_cylindrical(s, T, w1, w2, w3):
    # a^2 (sinh^2 omega_1 + sin^2 omega_2); the double-angle form costs a
    # factor of one half that is easy to drop, so the tests pin this
    # against the Jacobian columns.
    r = 1.0 / T[0] * (s.a * s.a) * (math.sinh(w1) ** 2 + math.sin(w2) ** 2)
    return (r, r, 1.0 / T[2])


def _fwd_spherical(s, w1, w2, w3):
    r = 1.0 / w1
    se = 1.0 / math.cosh(w2)
    return (r * se * math.cos(w3), r * se * math.sin(w3), r * math.tanh(w2))


def _jac_spherical(s, w1, w2, w3):
    r = 1.0 / w1
    r2 = r * r
    se = 1.0 / math.cosh(w2)
    th = math.tanh(w2)
    c, sn = math.cos(w3), math.sin(w3)
    return (
        (-r2 * se * c, -r * se * th * c, -r * se * sn),
        (-r2 * se * sn, -r * se * th * sn, r * se * c),
        (-r2 * th, r * se * se, 0.0),
    )


def _row1_inverse_radius(s, w):
    r2 = 1.0 / (w * w)
    return (r2 * r2, -r2, 0.0)


def _row2_spherical(s, w):
    se = 1.0 / math.cosh(w)
    return (0.0, se * se, -1.0)


def _met_spherical(s, T, w1, w2, w3):
    i1 = 1.0 / T[0]
    r23 = i1 / (w1 * math.cosh(w2)) ** 2
    return (i1 / w1 ** 4, r23, r23)


def _fwd_prolate(s, w1, w2, w3, shift):
    a = s.a
    cs = 1.0 / math.sinh(w1)
    ct = math.cosh(w1) * cs
    se = 1.0 / math.cosh(w2)
    th = math.tanh(w2)
    c, sn = math.cos(w3), math.sin(w3)
    return (a * cs * se * c, a * cs * se * sn, a * (ct * th + shift))


def _jac_spheroidal(s, w1, w2, w3, sin1, cos1):
    """Jacobian of both spheroidal charts: sin1, cos1 are sinh, cosh
    (prolate) or sin, cos (oblate) of the first coordinate."""
    a = s.a
    cs = 1.0 / sin1(w1)
    ct = cos1(w1) * cs
    se = 1.0 / math.cosh(w2)
    th = math.tanh(w2)
    c, sn = math.cos(w3), math.sin(w3)
    return (
        (-a * cs * ct * se * c, -a * cs * se * th * c, -a * cs * se * sn),
        (-a * cs * ct * se * sn, -a * cs * se * th * sn, a * cs * se * c),
        (-a * cs * cs * th, a * ct * se * se, 0.0),
    )


def _row1_prolate(s, w):
    cs2 = 1.0 / (math.sinh(w) ** 2)
    return (s.a * s.a * cs2 * cs2, -cs2, -1.0)


def _row2_prolate(s, w):
    se2 = 1.0 / (math.cosh(w) ** 2)
    return (s.a * s.a * se2 * se2, se2, -1.0)


def _met_prolate(s, T, w1, w2, w3):
    i1 = 1.0 / T[0]
    a2 = s.a * s.a
    cs2 = 1.0 / math.sinh(w1) ** 2
    se2 = 1.0 / math.cosh(w2) ** 2
    return (i1 * a2 * cs2 * (cs2 + se2), i1 * a2 * se2 * (cs2 + se2), i1 * a2 * cs2 * se2)


def _fwd_oblate(s, w1, w2, w3):
    a = s.a
    cs = 1.0 / math.sin(w1)
    ct = math.cos(w1) * cs
    se = 1.0 / math.cosh(w2)
    th = math.tanh(w2)
    c, sn = math.cos(w3), math.sin(w3)
    return (a * cs * se * c, a * cs * se * sn, a * ct * th)


def _row1_oblate(s, w):
    cs2 = 1.0 / (math.sin(w) ** 2)
    return (s.a * s.a * cs2 * cs2, -cs2, 1.0)


def _row2_oblate(s, w):
    se2 = 1.0 / (math.cosh(w) ** 2)
    return (-s.a * s.a * se2 * se2, se2, -1.0)


def _met_oblate(s, T, w1, w2, w3):
    i1 = 1.0 / T[0]
    a2 = s.a * s.a
    cs2 = 1.0 / math.sin(w1) ** 2
    se2 = 1.0 / math.cosh(w2) ** 2
    # cs2 - se2, written so that it keeps its relative accuracy on the
    # focal ring (omega_1 = pi/2, omega_2 = 0) where it vanishes
    gap = (math.cos(w1) ** 2 + math.sinh(w2) ** 2) * cs2 * se2
    return (i1 * a2 * cs2 * gap, i1 * a2 * se2 * gap, i1 * a2 * cs2 * se2)


def _fwd_parabolic(s, w1, w2, w3):
    e = math.exp(w1 + w2)
    return (e * math.cos(w3), e * math.sin(w3), 0.5 * (math.exp(2.0 * w1) - math.exp(2.0 * w2)))


def _jac_parabolic(s, w1, w2, w3):
    e = math.exp(w1 + w2)
    c, sn = math.cos(w3), math.sin(w3)
    return (
        (e * c, e * c, -e * sn),
        (e * sn, e * sn, e * c),
        (math.exp(2.0 * w1), -math.exp(2.0 * w2), 0.0),
    )


def _row1_parabolic(s, w):
    e2 = math.exp(2.0 * w)
    return (e2 * e2, -e2, -1.0)


def _row2_parabolic(s, w):
    e2 = math.exp(2.0 * w)
    return (e2 * e2, e2, -1.0)


def _met_parabolic(s, T, w1, w2, w3):
    i1 = 1.0 / T[0]
    e1 = math.exp(2.0 * w1)
    e2 = math.exp(2.0 * w2)
    return (i1 * e1 * (e1 + e2), i1 * e2 * (e1 + e2), i1 * e1 * e2)


def _fwd_paraboloidal(s, w1, w2, w3):
    a = s.a
    return (
        2.0 * a * math.cosh(w1) * math.cos(w2) * math.sinh(w3),
        2.0 * a * math.sinh(w1) * math.sin(w2) * math.cosh(w3),
        0.5 * a * (math.cosh(2.0 * w1) + math.cos(2.0 * w2) - math.cosh(2.0 * w3)),
    )


def _jac_paraboloidal(s, w1, w2, w3):
    a = s.a
    ch1, sh1 = math.cosh(w1), math.sinh(w1)
    co2, si2 = math.cos(w2), math.sin(w2)
    ch3, sh3 = math.cosh(w3), math.sinh(w3)
    return (
        (2.0 * a * sh1 * co2 * sh3, -2.0 * a * ch1 * si2 * sh3, 2.0 * a * ch1 * co2 * ch3),
        (2.0 * a * ch1 * si2 * ch3, 2.0 * a * sh1 * co2 * ch3, 2.0 * a * sh1 * si2 * sh3),
        (a * math.sinh(2.0 * w1), -a * math.sin(2.0 * w2), -a * math.sinh(2.0 * w3)),
    )


def _row1_paraboloidal(s, w):
    a = s.a
    c = math.cosh(2.0 * w)
    return (a * a * c * c, -a * c, -1.0)


def _row2_paraboloidal(s, w):
    a = s.a
    c = math.cos(2.0 * w)
    return (-a * a * c * c, a * c, 1.0)


def _row3_paraboloidal(s, w):
    a = s.a
    c = math.cosh(2.0 * w)
    return (a * a * c * c, a * c, -1.0)


def _met_paraboloidal(s, T, w1, w2, w3):
    i1 = 1.0 / T[0]
    a2 = s.a * s.a
    # cosh 2w1 - cos 2w2 and cos 2w2 + cosh 2w3 as sums of squares, which
    # keep their relative accuracy on the focal curves where they vanish
    p = 2.0 * (math.sinh(w1) ** 2 + math.sin(w2) ** 2)
    q = 2.0 * (math.cos(w2) ** 2 + math.sinh(w3) ** 2)
    c = math.cosh(2.0 * w1) + math.cosh(2.0 * w3)
    return (i1 * a2 * p * c, i1 * a2 * p * q, i1 * a2 * c * q)


def _elliptic_domain(m: Modulus, radial: bool) -> Domain:
    """Domain of the conical (radial first axis) or the ellipsoidal chart."""
    first = _RADIAL if radial else AxisInterval(0.0, m.K, singular_lo=True)
    return (first, AxisInterval(-m.Kprime, m.Kprime), AxisInterval(0.0, 4.0 * m.K))


def _fwd_ellipsoidal(s, w1, w2, w3):
    a, m = s.a, s.kmod
    s1, c1, d1 = jacobi(w1, m.k)
    s2, c2, d2 = jacobi(w2, m.kprime)
    s3, c3, d3 = jacobi(w3, m.k)
    inv = 1.0 / s1
    return (a * inv * d2 * s3, a * d1 * inv * c2 * c3, a * c1 * inv * s2 * d3)


def _jac_ellipsoidal(s, w1, w2, w3):
    a, m = s.a, s.kmod
    k2 = m.k * m.k
    kp2 = m.kprime * m.kprime
    s1, c1, d1 = jacobi(w1, m.k)
    s2, c2, d2 = jacobi(w2, m.kprime)
    s3, c3, d3 = jacobi(w3, m.k)
    inv = 1.0 / s1
    inv2 = inv * inv
    return (
        (-a * c1 * d1 * inv2 * d2 * s3, -a * inv * kp2 * s2 * c2 * s3, a * inv * d2 * c3 * d3),
        (-a * c1 * inv2 * c2 * c3, -a * d1 * inv * s2 * d2 * c3, -a * d1 * inv * c2 * s3 * d3),
        (-a * d1 * inv2 * s2 * d3, a * c1 * inv * c2 * d2 * d3, -a * c1 * inv * s2 * k2 * s3 * c3),
    )


def _row1_ellipsoidal(s, w):
    # The focal scale enters the first Stackel column only, exactly as in
    # the spheroidal charts; the other two columns pair with vanishing time
    # functions and stay scale-free.
    sn, _, dn = jacobi(w, s.kmod.k)
    D2 = (dn / sn) ** 2
    return (s.a * s.a * D2 * D2, -D2, 1.0)


def _row2_ellipsoidal(s, w):
    m = s.kmod
    _, cn, _ = jacobi(w, m.kprime)
    q = m.kprime * m.kprime * cn * cn
    return (-s.a * s.a * q * q, q, -1.0)


def _row3_ellipsoidal(s, w):
    m = s.kmod
    _, cn, _ = jacobi(w, m.k)
    q = m.k * m.k * cn * cn
    return (s.a * s.a * q * q, q, 1.0)


def _met_ellipsoidal(s, T, w1, w2, w3):
    i1 = 1.0 / T[0]
    a2 = s.a * s.a
    m = s.kmod
    sn, cn, dn = jacobi(w1, m.k)
    P = (dn / sn) ** 2
    sn2, cn2, _ = jacobi(w2, m.kprime)
    Q = m.kprime * m.kprime * cn2 * cn2
    _, cn3, _ = jacobi(w3, m.k)
    S = m.k * m.k * cn3 * cn3
    # P - Q by dn^2 - cn^2 = k'^2 sn^2, which keeps its relative accuracy
    # where it vanishes (omega_1 = K, omega_2 = 0)
    gap = (cn / sn) ** 2 + m.kprime * m.kprime * sn2 * sn2
    return (
        i1 * a2 * gap * (P + S),
        i1 * a2 * gap * (Q + S),
        i1 * a2 * (P + S) * (Q + S),
    )


def _fwd_conical(s, w1, w2, w3):
    m = s.kmod
    s2, c2, d2 = jacobi(w2, m.kprime)
    s3, c3, d3 = jacobi(w3, m.k)
    r = 1.0 / w1
    return (r * d2 * s3, r * c2 * c3, r * s2 * d3)


def _jac_conical(s, w1, w2, w3):
    m = s.kmod
    k2 = m.k * m.k
    kp2 = m.kprime * m.kprime
    s2, c2, d2 = jacobi(w2, m.kprime)
    s3, c3, d3 = jacobi(w3, m.k)
    r = 1.0 / w1
    r2 = r * r
    return (
        (-r2 * d2 * s3, -r * kp2 * s2 * c2 * s3, r * d2 * c3 * d3),
        (-r2 * c2 * c3, -r * s2 * d2 * c3, -r * c2 * s3 * d3),
        (-r2 * s2 * d3, r * c2 * d2 * d3, -r * s2 * k2 * s3 * c3),
    )


def _row2_conical(s, w):
    m = s.kmod
    _, cn, _ = jacobi(w, m.kprime)
    return (0.0, m.kprime * m.kprime * cn * cn, -1.0)


def _row3_conical(s, w):
    m = s.kmod
    _, cn, _ = jacobi(w, m.k)
    return (0.0, m.k * m.k * cn * cn, 1.0)


def _met_conical(s, T, w1, w2, w3):
    i1 = 1.0 / T[0]
    m = s.kmod
    _, cn2, _ = jacobi(w2, m.kprime)
    Q = m.kprime * m.kprime * cn2 * cn2
    _, cn3, _ = jacobi(w3, m.k)
    S = m.k * m.k * cn3 * cn3
    r1 = i1 / w1 ** 4
    r23 = i1 * (Q + S) / (w1 * w1)
    return (r1, r23, r23)


def _prolate_chart(shift: float) -> Chart:
    """The prolate spheroidal chart with its z3 offset by shift * a."""
    return Chart(
        SplitClass.NONSPLIT, (_RADIAL, _R, _TURN), partial(_fwd_prolate, shift=shift),
        partial(_jac_spheroidal, sin1=math.sinh, cos1=math.cosh),
        (_row1_prolate, _row2_prolate, _ROW_Z), _met_prolate, uses_a=True, base=shift == 0.0)


_CHARTS: dict[SystemId, Chart] = {
    SystemId.CARTESIAN: Chart(
        SplitClass.COMPLETE, (_R, _R, _R), _fwd_cartesian, _jac_cartesian,
        (_ROW_X, _ROW_Y, _ROW_Z), _met_cartesian),
    SystemId.CYLINDRICAL: Chart(
        SplitClass.PARTIAL, (_R, _TURN, _R), _fwd_cylindrical, _jac_cylindrical,
        (_row1_cylindrical, _ROW_Y, _ROW_Z), _met_cylindrical),
    SystemId.PARABOLIC_CYLINDRICAL: Chart(
        SplitClass.PARTIAL, (_HALF_LINE, _R, _R),
        _fwd_parabolic_cylindrical, _jac_parabolic_cylindrical,
        (_row1_parabolic_cylindrical, _row2_parabolic_cylindrical, _ROW_Z),
        _met_parabolic_cylindrical),
    SystemId.ELLIPTIC_CYLINDRICAL: Chart(
        SplitClass.PARTIAL, (_HALF_LINE, AxisInterval(-math.pi, math.pi), _R),
        _fwd_elliptic_cylindrical, _jac_elliptic_cylindrical,
        (_row1_elliptic_cylindrical, _row2_elliptic_cylindrical, _ROW_Z),
        _met_elliptic_cylindrical, uses_a=True),
    SystemId.SPHERICAL: Chart(
        SplitClass.NONSPLIT, (_RADIAL, _R, _TURN), _fwd_spherical, _jac_spherical,
        (_row1_inverse_radius, _row2_spherical, _ROW_Z), _met_spherical),
    SystemId.PROLATE_SPHEROIDAL: _prolate_chart(0.0),
    SystemId.PROLATE_SPHEROIDAL_II_PLUS: _prolate_chart(1.0),
    SystemId.PROLATE_SPHEROIDAL_II_MINUS: _prolate_chart(-1.0),
    SystemId.OBLATE_SPHEROIDAL: Chart(
        SplitClass.NONSPLIT, (AxisInterval(0.0, 0.5 * math.pi, singular_lo=True), _R, _TURN),
        _fwd_oblate, partial(_jac_spheroidal, sin1=math.sin, cos1=math.cos),
        (_row1_oblate, _row2_oblate, _ROW_Z), _met_oblate, uses_a=True),
    SystemId.PARABOLIC: Chart(
        SplitClass.NONSPLIT, (_R, _R, _TURN), _fwd_parabolic, _jac_parabolic,
        (_row1_parabolic, _row2_parabolic, _ROW_Z), _met_parabolic),
    SystemId.PARABOLOIDAL: Chart(
        SplitClass.NONSPLIT, (_R, AxisInterval(0.0, math.pi), _R),
        _fwd_paraboloidal, _jac_paraboloidal,
        (_row1_paraboloidal, _row2_paraboloidal, _row3_paraboloidal),
        _met_paraboloidal, uses_a=True),
    SystemId.ELLIPSOIDAL: Chart(
        SplitClass.NONSPLIT, partial(_elliptic_domain, radial=False),
        _fwd_ellipsoidal, _jac_ellipsoidal,
        (_row1_ellipsoidal, _row2_ellipsoidal, _row3_ellipsoidal),
        _met_ellipsoidal, uses_a=True, uses_k=True),
    SystemId.CONICAL: Chart(
        SplitClass.NONSPLIT, partial(_elliptic_domain, radial=True), _fwd_conical, _jac_conical,
        (_row1_inverse_radius, _row2_conical, _row3_conical), _met_conical, uses_k=True),
}


def forward(system: CoordinateSystem, omega) -> np.ndarray:
    """Map coordinates to Cartesian space, z = z(omega).

    Raises a :class:`DomainError` naming the offending axis when omega is
    outside the admissible set.
    """
    check_domain(system, omega)
    return np.array(system.chart.forward(system, float(omega[0]), float(omega[1]), float(omega[2])))


#: Relative determinant guard for Jacobian degeneracy.
DET_GUARD = 1e-12


def _near_singular(rows, det: float) -> bool:
    """Whether |det| of the 3x3 matrix with these rows is at most
    ``DET_GUARD`` times the product of its column norms.

    That product bounds |det| (Hadamard) and equals it when the columns
    are orthogonal, as they are for every chart, so the guard measures
    only how far the columns are from parallel, not how their lengths
    differ.
    """
    return abs(det) <= DET_GUARD * math.prod(map(math.hypot, *rows))


def jacobian(system: CoordinateSystem, omega) -> np.ndarray:
    """Analytic Jacobian, columns are dz/domega_i.

    Raises :class:`SingularityError` when the determinant falls below
    ``DET_GUARD`` relative to the product of column norms.
    """
    check_domain(system, omega)
    rows = system.chart.jacobian(system, float(omega[0]), float(omega[1]), float(omega[2]))
    J = np.array(rows)
    det = _det3(rows)
    if _near_singular(rows, det):
        raise SingularityError(
            f"{system.sid.value}: Jacobian determinant {det!r} below guard at omega={tuple(omega)}"
        )
    return J


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _solve3(m, r):
    """Solve the 3x3 system m @ x = r by the adjugate; tuples in, tuple out."""
    det = _det3(m)
    if det == 0.0:
        raise SingularityError("singular 3x3 system in Newton step")
    inv_det = 1.0 / det
    x0 = (
        r[0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (r[1] * m[2][2] - m[1][2] * r[2])
        + m[0][2] * (r[1] * m[2][1] - m[1][1] * r[2])
    )
    x1 = (
        m[0][0] * (r[1] * m[2][2] - m[1][2] * r[2])
        - r[0] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * r[2] - r[1] * m[2][0])
    )
    x2 = (
        m[0][0] * (m[1][1] * r[2] - r[1] * m[2][1])
        - m[0][1] * (m[1][0] * r[2] - r[1] * m[2][0])
        + r[0] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return (x0 * inv_det, x1 * inv_det, x2 * inv_det)


def _clamp_box(system: CoordinateSystem, slack: float) -> tuple[tuple[float, float], ...]:
    """Newton clamp intervals: domain shrunk by EPS_DOM.

    ``slack > 0`` relaxes non-singular finite endpoints outward, which lets
    finite-difference stencils cross a periodic seam or a closed interval
    end where the map continues smoothly.
    """
    out = []
    for ax in system.domain:
        lo, hi = ax.lo, ax.hi
        if lo != -_INF:
            if ax.singular_lo or slack == 0.0:
                lo += EPS_DOM
            else:
                lo -= slack
        if hi != _INF:
            if ax.singular_hi or slack == 0.0:
                hi -= EPS_DOM
            else:
                hi += slack
        out.append((lo, hi))
    return tuple(out)


#: Default and guaranteed Newton convergence factors (times 1 + |z|).  The
#: iteration aims for TARGET_TOL and the result is accepted when it beats
#: CONTRACT_TOL; in practice quadratic convergence lands near machine
#: precision, which downstream finite differencing relies on.
CONTRACT_TOL = 1e-11
TARGET_TOL = 1e-13
MAX_NEWTON_ITERS = 50


def invert(
    system: CoordinateSystem,
    z,
    guess,
    *,
    slack: float = 0.0,
) -> np.ndarray:
    """Invert the forward map by Newton iteration with the analytic Jacobian.

    Parameters
    ----------
    z : array_like, shape (3,)
        Cartesian target.
    guess : array_like, shape (3,)
        Starting point; clamped into the shrunk domain box.
    slack : float
        Optional outward relaxation of non-singular finite endpoints.

    Returns
    -------
    numpy.ndarray
        omega with ||forward(omega) - z|| <= CONTRACT_TOL * (1 + ||z||).

    Raises
    ------
    InversionError
        If the contract tolerance is not met within ``MAX_NEWTON_ITERS`` Newton
        steps; carries the last iterate and its residual.
    """
    zt = (float(z[0]), float(z[1]), float(z[2]))
    zn = math.sqrt(zt[0] ** 2 + zt[1] ** 2 + zt[2] ** 2)
    tol_target = TARGET_TOL * (1.0 + zn)
    tol_accept = CONTRACT_TOL * (1.0 + zn)
    box = _clamp_box(system, slack)
    fwd = system.chart.forward
    jac = system.chart.jacobian

    def clamp(w):
        return tuple(min(max(w[i], box[i][0]), box[i][1]) for i in range(3))

    def miss(w):
        """forward(w) - z and its norm."""
        f = fwd(system, *w)
        d = (f[0] - zt[0], f[1] - zt[1], f[2] - zt[2])
        return d, math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)

    w = clamp((float(guess[0]), float(guess[1]), float(guess[2])))
    d, r = miss(w)
    for _ in range(MAX_NEWTON_ITERS):
        if r <= tol_target:
            break
        try:
            step = _solve3(jac(system, *w), d)
        except SingularityError as exc:
            raise InversionError(
                f"{system.sid.value}: singular Jacobian during inversion at omega={w}",
                last_omega=np.array(w),
                residual=r,
            ) from exc
        # Cap the raw step to tame wild early iterates, then backtrack if
        # the residual refuses to drop.
        mag = max(abs(step[0]), abs(step[1]), abs(step[2]))
        s = 1.0 if mag <= 1.0 else 1.0 / mag
        improved = False
        for _bt in range(12):
            w_new = clamp((w[0] - s * step[0], w[1] - s * step[1], w[2] - s * step[2]))
            d_new, r_new = miss(w_new)
            if r_new < r or r_new <= tol_target:
                improved = True
                break
            s *= 0.5
        if not improved:
            break
        w, d, r = w_new, d_new, r_new
    if r <= tol_accept:
        # One full polishing step: quadratic convergence turns a landing
        # just under the target into an essentially machine-precision one,
        # which keeps Newton noise out of downstream difference stencils.
        if r > 0.0:
            try:
                step = _solve3(jac(system, *w), d)
                w_new = clamp((w[0] - step[0], w[1] - step[1], w[2] - step[2]))
                if miss(w_new)[1] < r:
                    w = w_new
            except SingularityError:
                pass
        return np.array(w)
    raise InversionError(
        f"{system.sid.value}: Newton inversion stalled with residual {r:.3e} "
        f"(needed {tol_accept:.3e})",
        last_omega=np.array(w),
        residual=r,
    )
