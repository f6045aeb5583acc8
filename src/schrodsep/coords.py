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
``_CHARTS``: split class, parameters, domain, the map giving z and its
Jacobian together, and Stackel rows.  The map is written once, in scalar
``math`` for the per-point callers; the record also holds the same body
evaluated over numpy arrays, which the Newton inversion
(:func:`invert_batch`) uses.  There is one Newton iteration, over a stack
of targets: :func:`invert` takes a single target as a one-row stack unless
one scalar map call shows that its start already maps onto it to
rounding.  The rows are numpy functions of their coordinate, so one call
evaluates a row over a whole grid.  The metric is not stored: it is the
squared column norms of that Jacobian under the frame scales
(:func:`schrodsep.stackel.metric_r_squared`).  A chart is added by writing
its functions and adding one ``_CHARTS`` record; nothing else dispatches
on the system id.

Angles are kept in their principal boxes; radial-like axes that make the
map blow up at an endpoint are flagged singular and excluded from the
admissible set, with an interior safety margin ``EPS_DOM`` used by the
samplers and the Newton clamp.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .elliptic import Modulus, jacobi, jacobi_array, modulus
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

    def contains(self, w):
        """Whether w is admissible: a float, or each element of a float
        array (NaN never is)."""
        above = w > self.lo if self.singular_lo else w >= self.lo
        below = w < self.hi if self.singular_hi else w <= self.hi
        return above & below


Domain = tuple[AxisInterval, AxisInterval, AxisInterval]


@dataclass(frozen=True)
class Chart:
    """One coordinate system, defined once.

    ``domain`` holds the three axis intervals or, where ``uses_k``, builds
    them from the :class:`Modulus`; ``base`` is false only for the shifted
    prolate variants.  The functions take the system (for ``a`` and
    ``kmod``), then coordinates, and check no domain:

    * ``map(s, w1, w2, w3)`` - (z, J) at three floats, in scalar ``math``:
      z as a tuple and the rows J[a][i] = d z_a / d omega_i, sharing their
      intermediate values;
    * ``array_map(s, w1, w2, w3)`` - the same, at three float arrays of one
      shape: the body of ``map`` with ``math`` bound to numpy and
      ``jacobi`` to :func:`schrodsep.elliptic.jacobi_array`, so each entry
      is an array of that shape or a constant that broadcasts against it;
      derived on construction, not written;
    * ``rows[i](s, w)`` - Stackel row i at omega_{i+1} = w, a float or a
      float array, in numpy: three entries, each an array of w's shape or
      a constant that broadcasts against it.

    The metric is derived, not stored: R_i^2 is the squared norm of column
    i of J under the frame scales.  ``map`` looks up this module's
    ``math`` and ``jacobi`` at call time, so it can be evaluated in
    another arithmetic by swapping those two names; ``array_map`` and the
    rows use ``np`` and :func:`schrodsep.elliptic.jacobi_array`.
    """

    split_class: SplitClass
    domain: Domain | Callable[[Modulus], Domain]
    map: Callable
    rows: tuple[Callable, Callable, Callable]
    uses_a: bool = False
    uses_k: bool = False
    base: bool = True
    array_map: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "array_map", _over_arrays(self.map))


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

    The chart record, the finished domain and the Newton clamp box (the
    domain shrunk by EPS_DOM at each finite end) are attached on
    construction.
    """

    sid: SystemId
    a: float = 1.0
    kmod: Modulus | None = None
    chart: Chart = field(init=False, compare=False, repr=False)
    domain: Domain = field(init=False, compare=False, repr=False)
    clamp: tuple[tuple[float, float], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        chart = _CHARTS[self.sid]
        object.__setattr__(self, "chart", chart)
        domain = chart.domain(self.kmod) if chart.uses_k else chart.domain
        object.__setattr__(self, "domain", domain)
        # an infinite end stays infinite
        clamp = tuple((ax.lo + EPS_DOM, ax.hi - EPS_DOM) for ax in domain)
        object.__setattr__(self, "clamp", clamp)

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
# the charts: map (z and Jacobian, written in scalar math) and Stackel rows
# (numpy, float or array) of each, with no domain checks, then the table
# that collects them
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


def _map_cartesian(s, w1, w2, w3):
    return (w1, w2, w3), _IDENTITY


def _map_cylindrical(s, w1, w2, w3):
    e = math.exp(w1)
    c, sn = math.cos(w2), math.sin(w2)
    return (e * c, e * sn, w3), ((e * c, -e * sn, 0.0), (e * sn, e * c, 0.0), (0.0, 0.0, 1.0))


def _row1_cylindrical(s, w):
    return (np.exp(2.0 * w), -1.0, 0.0)


def _map_parabolic_cylindrical(s, w1, w2, w3):
    z = (0.5 * (w1 * w1 - w2 * w2), w1 * w2, w3)
    return z, ((w1, -w2, 0.0), (w2, w1, 0.0), (0.0, 0.0, 1.0))


def _row1_parabolic_cylindrical(s, w):
    return (w * w, -1.0, 0.0)


def _row2_parabolic_cylindrical(s, w):
    return (w * w, 1.0, 0.0)


def _map_elliptic_cylindrical(s, w1, w2, w3):
    a = s.a
    ch, sh = math.cosh(w1), math.sinh(w1)
    c, sn = math.cos(w2), math.sin(w2)
    return (a * ch * c, a * sh * sn, w3), (
        (a * sh * c, -a * ch * sn, 0.0), (a * ch * sn, a * sh * c, 0.0), (0.0, 0.0, 1.0))


def _row1_elliptic_cylindrical(s, w):
    c = np.cosh(w)
    return (s.a * s.a * c * c, 1.0, 0.0)


def _row2_elliptic_cylindrical(s, w):
    c = np.cos(w)
    return (-s.a * s.a * c * c, -1.0, 0.0)


def _map_spherical(s, w1, w2, w3):
    r = 1.0 / w1
    r2 = r * r
    se = 1.0 / math.cosh(w2)
    th = math.tanh(w2)
    c, sn = math.cos(w3), math.sin(w3)
    return (r * se * c, r * se * sn, r * th), (
        (-r2 * se * c, -r * se * th * c, -r * se * sn),
        (-r2 * se * sn, -r * se * th * sn, r * se * c),
        (-r2 * th, r * se * se, 0.0),
    )


def _row1_inverse_radius(s, w):
    r2 = 1.0 / (w * w)
    return (r2 * r2, -r2, 0.0)


def _row2_spherical(s, w):
    se = 1.0 / np.cosh(w)
    return (0.0, se * se, -1.0)


def _map_spheroidal(s, w1, w2, w3, shift):
    """Both spheroidal charts.  Prolate takes sinh and cosh of the first
    coordinate and offsets z3 by shift * a; oblate passes shift None,
    takes sin and cos and keeps its own rounding order, a * ct * th."""
    a = s.a
    if shift is None:
        cs = 1.0 / math.sin(w1)
        ct = math.cos(w1) * cs
    else:
        cs = 1.0 / math.sinh(w1)
        ct = math.cosh(w1) * cs
    se = 1.0 / math.cosh(w2)
    th = math.tanh(w2)
    c, sn = math.cos(w3), math.sin(w3)
    z3 = a * ct * th if shift is None else a * (ct * th + shift)
    return (a * cs * se * c, a * cs * se * sn, z3), (
        (-a * cs * ct * se * c, -a * cs * se * th * c, -a * cs * se * sn),
        (-a * cs * ct * se * sn, -a * cs * se * th * sn, a * cs * se * c),
        (-a * cs * cs * th, a * ct * se * se, 0.0),
    )


def _row1_prolate(s, w):
    sh = np.sinh(w)
    cs2 = 1.0 / (sh * sh)
    return (s.a * s.a * cs2 * cs2, -cs2, -1.0)


def _row2_prolate(s, w):
    ch = np.cosh(w)
    se2 = 1.0 / (ch * ch)
    return (s.a * s.a * se2 * se2, se2, -1.0)


def _row1_oblate(s, w):
    sn = np.sin(w)
    cs2 = 1.0 / (sn * sn)
    return (s.a * s.a * cs2 * cs2, -cs2, 1.0)


def _row2_oblate(s, w):
    ch = np.cosh(w)
    se2 = 1.0 / (ch * ch)
    return (-s.a * s.a * se2 * se2, se2, -1.0)


def _map_parabolic(s, w1, w2, w3):
    e = math.exp(w1 + w2)
    e1, e2 = math.exp(2.0 * w1), math.exp(2.0 * w2)
    c, sn = math.cos(w3), math.sin(w3)
    z = (e * c, e * sn, 0.5 * (e1 - e2))
    return z, ((e * c, e * c, -e * sn), (e * sn, e * sn, e * c), (e1, -e2, 0.0))


def _row1_parabolic(s, w):
    e2 = np.exp(2.0 * w)
    return (e2 * e2, -e2, -1.0)


def _row2_parabolic(s, w):
    e2 = np.exp(2.0 * w)
    return (e2 * e2, e2, -1.0)


def _map_paraboloidal(s, w1, w2, w3):
    a = s.a
    ch1, sh1 = math.cosh(w1), math.sinh(w1)
    co2, si2 = math.cos(w2), math.sin(w2)
    ch3, sh3 = math.cosh(w3), math.sinh(w3)
    z = (
        2.0 * a * ch1 * co2 * sh3,
        2.0 * a * sh1 * si2 * ch3,
        0.5 * a * (math.cosh(2.0 * w1) + math.cos(2.0 * w2) - math.cosh(2.0 * w3)),
    )
    return z, (
        (2.0 * a * sh1 * co2 * sh3, -2.0 * a * ch1 * si2 * sh3, 2.0 * a * ch1 * co2 * ch3),
        (2.0 * a * ch1 * si2 * ch3, 2.0 * a * sh1 * co2 * ch3, 2.0 * a * sh1 * si2 * sh3),
        (a * math.sinh(2.0 * w1), -a * math.sin(2.0 * w2), -a * math.sinh(2.0 * w3)),
    )


def _row1_paraboloidal(s, w):
    a = s.a
    c = np.cosh(2.0 * w)
    return (a * a * c * c, -a * c, -1.0)


def _row2_paraboloidal(s, w):
    a = s.a
    c = np.cos(2.0 * w)
    return (-a * a * c * c, a * c, 1.0)


def _row3_paraboloidal(s, w):
    a = s.a
    c = np.cosh(2.0 * w)
    return (a * a * c * c, a * c, -1.0)


def _elliptic_domain(m: Modulus, radial: bool) -> Domain:
    """Domain of the conical (radial first axis) or the ellipsoidal chart."""
    first = _RADIAL if radial else AxisInterval(0.0, m.K, singular_lo=True)
    return (first, AxisInterval(-m.Kprime, m.Kprime), AxisInterval(0.0, 4.0 * m.K))


def _map_ellipsoidal(s, w1, w2, w3):
    a, m = s.a, s.kmod
    k2 = m.k * m.k
    kp2 = m.kprime * m.kprime
    s1, c1, d1 = jacobi(w1, m.k)
    s2, c2, d2 = jacobi(w2, m.kprime)
    s3, c3, d3 = jacobi(w3, m.k)
    inv = 1.0 / s1
    inv2 = inv * inv
    return (a * inv * d2 * s3, a * d1 * inv * c2 * c3, a * c1 * inv * s2 * d3), (
        (-a * c1 * d1 * inv2 * d2 * s3, -a * inv * kp2 * s2 * c2 * s3, a * inv * d2 * c3 * d3),
        (-a * c1 * inv2 * c2 * c3, -a * d1 * inv * s2 * d2 * c3, -a * d1 * inv * c2 * s3 * d3),
        (-a * d1 * inv2 * s2 * d3, a * c1 * inv * c2 * d2 * d3, -a * c1 * inv * s2 * k2 * s3 * c3),
    )


def _row1_ellipsoidal(s, w):
    # The focal scale enters the first Stackel column only, exactly as in
    # the spheroidal charts; the other two columns pair with vanishing time
    # functions and stay scale-free.
    sn, _, dn = jacobi_array(w, s.kmod.k)
    q = dn / sn
    D2 = q * q
    return (s.a * s.a * D2 * D2, -D2, 1.0)


def _row2_ellipsoidal(s, w):
    m = s.kmod
    _, cn, _ = jacobi_array(w, m.kprime)
    q = m.kprime * m.kprime * cn * cn
    return (-s.a * s.a * q * q, q, -1.0)


def _row3_ellipsoidal(s, w):
    m = s.kmod
    _, cn, _ = jacobi_array(w, m.k)
    q = m.k * m.k * cn * cn
    return (s.a * s.a * q * q, q, 1.0)


def _map_conical(s, w1, w2, w3):
    m = s.kmod
    k2 = m.k * m.k
    kp2 = m.kprime * m.kprime
    s2, c2, d2 = jacobi(w2, m.kprime)
    s3, c3, d3 = jacobi(w3, m.k)
    r = 1.0 / w1
    r2 = r * r
    return (r * d2 * s3, r * c2 * c3, r * s2 * d3), (
        (-r2 * d2 * s3, -r * kp2 * s2 * c2 * s3, r * d2 * c3 * d3),
        (-r2 * c2 * c3, -r * s2 * d2 * c3, -r * c2 * s3 * d3),
        (-r2 * s2 * d3, r * c2 * d2 * d3, -r * s2 * k2 * s3 * c3),
    )


def _row2_conical(s, w):
    m = s.kmod
    _, cn, _ = jacobi_array(w, m.kprime)
    return (0.0, m.kprime * m.kprime * cn * cn, -1.0)


def _row3_conical(s, w):
    m = s.kmod
    _, cn, _ = jacobi_array(w, m.k)
    return (0.0, m.k * m.k * cn * cn, 1.0)


#: This module's names, with the two that the map bodies compute through
#: bound to their array twins.
_ARRAY_NAMES = {**globals(), "math": np, "jacobi": jacobi_array}


def _over_arrays(fn):
    """The map ``fn`` (a function or a partial of one) with its body run
    over :data:`_ARRAY_NAMES`: the same code, element-wise on arrays."""
    if isinstance(fn, partial):
        return partial(_over_arrays(fn.func), *fn.args, **fn.keywords)
    return types.FunctionType(
        fn.__code__, _ARRAY_NAMES, fn.__name__, fn.__defaults__, fn.__closure__)


def _prolate_chart(shift: float) -> Chart:
    """The prolate spheroidal chart with its z3 offset by shift * a."""
    return Chart(
        SplitClass.NONSPLIT, (_RADIAL, _R, _TURN),
        partial(_map_spheroidal, shift=shift),
        (_row1_prolate, _row2_prolate, _ROW_Z), uses_a=True, base=shift == 0.0)


_CHARTS: dict[SystemId, Chart] = {
    SystemId.CARTESIAN: Chart(
        SplitClass.COMPLETE, (_R, _R, _R), _map_cartesian, (_ROW_X, _ROW_Y, _ROW_Z)),
    SystemId.CYLINDRICAL: Chart(
        SplitClass.PARTIAL, (_R, _TURN, _R), _map_cylindrical, (_row1_cylindrical, _ROW_Y, _ROW_Z)),
    SystemId.PARABOLIC_CYLINDRICAL: Chart(
        SplitClass.PARTIAL, (_HALF_LINE, _R, _R), _map_parabolic_cylindrical,
        (_row1_parabolic_cylindrical, _row2_parabolic_cylindrical, _ROW_Z)),
    SystemId.ELLIPTIC_CYLINDRICAL: Chart(
        SplitClass.PARTIAL, (_HALF_LINE, AxisInterval(-math.pi, math.pi), _R),
        _map_elliptic_cylindrical,
        (_row1_elliptic_cylindrical, _row2_elliptic_cylindrical, _ROW_Z), uses_a=True),
    SystemId.SPHERICAL: Chart(
        SplitClass.NONSPLIT, (_RADIAL, _R, _TURN), _map_spherical,
        (_row1_inverse_radius, _row2_spherical, _ROW_Z)),
    SystemId.PROLATE_SPHEROIDAL: _prolate_chart(0.0),
    SystemId.PROLATE_SPHEROIDAL_II_PLUS: _prolate_chart(1.0),
    SystemId.PROLATE_SPHEROIDAL_II_MINUS: _prolate_chart(-1.0),
    SystemId.OBLATE_SPHEROIDAL: Chart(
        SplitClass.NONSPLIT, (AxisInterval(0.0, 0.5 * math.pi, singular_lo=True), _R, _TURN),
        partial(_map_spheroidal, shift=None),
        (_row1_oblate, _row2_oblate, _ROW_Z), uses_a=True),
    SystemId.PARABOLIC: Chart(
        SplitClass.NONSPLIT, (_R, _R, _TURN), _map_parabolic,
        (_row1_parabolic, _row2_parabolic, _ROW_Z)),
    SystemId.PARABOLOIDAL: Chart(
        SplitClass.NONSPLIT, (_R, AxisInterval(0.0, math.pi), _R), _map_paraboloidal,
        (_row1_paraboloidal, _row2_paraboloidal, _row3_paraboloidal), uses_a=True),
    SystemId.ELLIPSOIDAL: Chart(
        SplitClass.NONSPLIT, partial(_elliptic_domain, radial=False), _map_ellipsoidal,
        (_row1_ellipsoidal, _row2_ellipsoidal, _row3_ellipsoidal), uses_a=True, uses_k=True),
    SystemId.CONICAL: Chart(
        SplitClass.NONSPLIT, partial(_elliptic_domain, radial=True), _map_conical,
        (_row1_inverse_radius, _row2_conical, _row3_conical), uses_k=True),
}


def _chart_map(system: CoordinateSystem, omega):
    """(z, J) at an admissible omega; a :class:`DomainError` when omega is
    outside the admissible set or the map overflows there."""
    check_domain(system, omega)
    try:
        return system.chart.map(system, float(omega[0]), float(omega[1]), float(omega[2]))
    except OverflowError:
        raise DomainError(
            f"{system.sid.value}: chart map overflows at omega={tuple(omega)}"
        ) from None


def forward(system: CoordinateSystem, omega) -> np.ndarray:
    """Map coordinates to Cartesian space, z = z(omega).

    Raises a :class:`DomainError` naming the offending axis when omega is
    outside the admissible set, and one without an axis when z overflows.
    """
    return np.array(_chart_map(system, omega)[0])


#: Relative determinant guard for Jacobian degeneracy.
DET_GUARD = 1e-12


def _hypot3(a, b, c):
    """math.hypot of three float arrays, element-wise, without overflow."""
    return np.hypot(np.hypot(a, b), c)


def _near_singular(rows, det):
    """Whether |det| of the 3x3 matrix with these rows is at most
    ``DET_GUARD`` times the product of its column norms.

    That product bounds |det| (Hadamard) and equals it when the columns
    are orthogonal, as they are for every chart, so the guard measures
    only how far the columns are from parallel, not how their lengths
    differ.  Entries are floats, or arrays of det's shape for a stack of
    matrices (rows[a][i] is entry (a, i)), and so is the answer.
    """
    hypot = _hypot3 if isinstance(det, np.ndarray) else math.hypot
    return abs(det) <= DET_GUARD * math.prod(map(hypot, *rows))


def jacobian(system: CoordinateSystem, omega) -> np.ndarray:
    """Analytic Jacobian, columns are dz/domega_i.

    Raises :class:`DomainError` as :func:`forward` does, and
    :class:`SingularityError` when the determinant falls below
    ``DET_GUARD`` relative to the product of column norms.
    """
    return _guarded_jacobian(system, omega, _chart_map(system, omega)[1])


def _guarded_jacobian(system: CoordinateSystem, omega, rows) -> np.ndarray:
    """The Jacobian rows of the chart map at omega as an array, or the
    :class:`SingularityError` of :func:`jacobian`."""
    det = _det3(rows)
    if _near_singular(rows, det):
        raise SingularityError(
            f"{system.sid.value}: Jacobian determinant {det!r} below guard at omega={tuple(omega)}"
        )
    return np.array(rows)


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _cramer(m, r, det):
    """The adjugate solution of m @ x = r given det = det m, unchecked.
    Entries are floats or arrays of one shape (m[a][i] is entry (a, i))."""
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


#: Default and guaranteed Newton convergence factors (times 1 + |z|).  The
#: iteration aims for TARGET_TOL and the result is accepted when it beats
#: CONTRACT_TOL; in practice quadratic convergence lands near machine
#: precision, which downstream finite differencing relies on.  An accepted
#: result above FLOOR_TOL gets one polishing step; at or below it the
#: residual is rounding, and a step could move omega by ulps only.
CONTRACT_TOL = 1e-11
TARGET_TOL = 1e-13
FLOOR_TOL = 2.0 * math.ulp(1.0)
MAX_NEWTON_ITERS = 50


def _miss(system: CoordinateSystem, w, zt) -> tuple[float, float]:
    """|z| and ||z(w) - z|| by the scalar map; an image that overflows
    misses by inf, and a target that does so has |z| = inf."""
    try:
        f = system.chart.map(system, *w)[0]
    except OverflowError:
        f = (math.inf,) * 3
    d = (f[0] - zt[0], f[1] - zt[1], f[2] - zt[2])
    zn = math.sqrt(zt[0] * zt[0] + zt[1] * zt[1] + zt[2] * zt[2])
    return zn, math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])


def invert(system: CoordinateSystem, z, guess) -> np.ndarray:
    """Invert the forward map: omega with z(omega) = z.

    The guess is clamped into the shrunk domain box.  A clamped guess whose
    image already misses a finite z by at most FLOOR_TOL (1 + |z|) is
    returned as it is, after one scalar map call; any other target is
    inverted as a one-row stack by :func:`invert_batch`.

    Parameters
    ----------
    z : array_like, shape (3,)
        Cartesian target.
    guess : array_like, shape (3,)
        Starting point.

    Returns
    -------
    numpy.ndarray
        omega with ||forward(omega) - z|| <= CONTRACT_TOL * (1 + ||z||).

    Raises
    ------
    InversionError
        If the contract is not met; carries the last iterate and its
        residual, which is inf, with "overflow" in the text, when z or
        that iterate's image is not finite.
    """
    zt = (float(z[0]), float(z[1]), float(z[2]))
    w = tuple(min(max(float(guess[i]), lo), hi) for i, (lo, hi) in enumerate(system.clamp))
    zn, r = _miss(system, w, zt)
    if zn < math.inf and r <= FLOOR_TOL * (1.0 + zn):
        return np.array(w)
    omega, ok = invert_batch(system, (zt,), (w,))
    if ok[0]:
        return omega[0]
    w = tuple(omega[0].tolist())
    zn, r = _miss(system, w, zt)
    if not (zn < math.inf and r < math.inf):
        raise InversionError(
            f"{system.sid.value}: overflow while inverting z={zt} at omega={w}",
            last_omega=omega[0],
            residual=math.inf,
        )
    raise InversionError(
        f"{system.sid.value}: Newton inversion stalled with residual {r:.3e} "
        f"(needed {CONTRACT_TOL * (1.0 + zn):.3e})",
        last_omega=omega[0],
        residual=r,
    )


def _miss_batch(system: CoordinateSystem, w, z):
    """z(w) - z, its norm and the Jacobian at w, for the columns of the
    (3, k) arrays w and z; the Jacobian as a (3, 3, k) array."""
    f, J = system.chart.array_map(system, w[0], w[1], w[2])
    d = np.array([f[0] - z[0], f[1] - z[1], f[2] - z[2]])
    Jk = np.empty((3, 3, w.shape[1]))
    for a in range(3):
        for i in range(3):
            Jk[a, i] = J[a][i]
    return d, np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]), Jk


def _steps_batch(J, d, rows):
    """Which of the columns ``rows`` of J have a nonzero determinant, and
    the Newton steps J^-1 d at those, as a (3, k) array."""
    m = J[:, :, rows]
    det = _det3(m)
    keep = det != 0.0
    return keep, np.array(_cramer(m[:, :, keep], d[:, rows[keep]], det[keep]))


def invert_batch(system: CoordinateSystem, Z, G) -> tuple[np.ndarray, np.ndarray]:
    """Invert the forward map for a stack of targets by Newton iteration
    with the analytic Jacobian, all rows in lockstep.

    Row j is inverted from target ``Z[j]`` and guess ``G[j]`` (shape (n, 3)
    each).  The guess is clamped into the shrunk domain box; each step is
    the Newton step capped at length 1 in its largest component, and is
    halved up to 12 times until the residual drops.  Iteration stops at
    TARGET_TOL, and an accepted row above FLOOR_TOL gets one polishing
    step.  Each iteration is one array map evaluation and one adjugate
    solve for every row still moving.  Returns ``(omega, ok)``: omega of
    shape (n, 3), and ok true where row j met
    ||z(omega_j) - z_j|| <= CONTRACT_TOL (1 + |z_j|).  Nothing is raised: a
    target that overflows or is not finite, a non-finite image at the
    start, a zero Jacobian determinant or a stall above the contract fails
    its own row only (ok false, omega its last iterate), and a trial
    iterate whose image is not finite counts as no improvement.
    """
    z = np.asarray(Z, dtype=float).reshape(-1, 3).T
    lo, hi = (np.array(b)[:, None] for b in zip(*system.clamp))
    with np.errstate(all="ignore"):
        w = np.clip(np.asarray(G, dtype=float).reshape(-1, 3).T, lo, hi)
        zn = np.sqrt(z[0] * z[0] + z[1] * z[1] + z[2] * z[2])
        tol_target = TARGET_TOL * (1.0 + zn)
        tol_accept = CONTRACT_TOL * (1.0 + zn)
        d, r, J = _miss_batch(system, w, z)
        alive = np.isfinite(zn) & np.isfinite(r)
        moving = np.flatnonzero(alive & (r > tol_target))
        for _ in range(MAX_NEWTON_ITERS):
            if not moving.size:
                break
            keep, step = _steps_batch(J, d, moving)
            alive[moving[~keep]] = False
            moving = moving[keep]
            # the capped step and its halvings, one trial per row per pass
            mag = np.max(np.abs(step), axis=0)
            s = np.where(mag <= 1.0, 1.0, 1.0 / mag)
            trying = np.arange(moving.size)
            improved = np.zeros(moving.size, dtype=bool)
            for _bt in range(12):
                rows = moving[trying]
                w_new = np.clip(w[:, rows] - s * step[:, trying], lo, hi)
                d_new, r_new, J_new = _miss_batch(system, w_new, z[:, rows])
                good = (r_new < r[rows]) | (r_new <= tol_target[rows])
                took = rows[good]
                w[:, took], d[:, took], r[took], J[:, :, took] = (
                    w_new[:, good], d_new[:, good], r_new[good], J_new[:, :, good])
                improved[trying[good]] = True
                trying, s = trying[~good], s[~good] * 0.5
                if not trying.size:
                    break
            moving = moving[improved]
            moving = moving[r[moving] > tol_target[moving]]
        ok = alive & (r <= tol_accept)
        # one full polishing step above the rounding floor
        done = np.flatnonzero(ok & (r > FLOOR_TOL * (1.0 + zn)))
        keep, step = _steps_batch(J, d, done)
        done = done[keep]
        w_new = np.clip(w[:, done] - step, lo, hi)
        better = _miss_batch(system, w_new, z[:, done])[1] < r[done]
        w[:, done[better]] = w_new[:, better]
    return np.ascontiguousarray(w.T), ok
