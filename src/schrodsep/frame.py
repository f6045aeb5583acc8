"""Time-dependent frames: rotation, diagonal scaling and translation.

A frame carries nine smooth functions of time, three Euler angles
(alpha, beta, gamma), three positive scales (h1, h2, h3) and three
translations (w1, w2, w3).  The moving chart is

    x = T(t) H(t) z(omega) + w(t),

with T the Euler rotation, H = diag(h).  Which scales may differ is
dictated by the split class of the chart: a completely split chart allows
three independent scales, a partially split one forces h1 = h2, and a
non-split one forces h1 = h2 = h3.  Frames are validated against these
constraints on a probe time grid at construction.

Profiles expose analytic first and second time derivatives because the
potential formulas need them pointwise; differentiating opaque evaluators
numerically would inject noise exactly where the residual checks are most
sensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coords import CoordinateSystem, SplitClass, _near_singular, forward, jacobian
from .errors import ConfigurationError, SingularityError

#: Construction-time validation grid for profile and class constraints.
PROBE_TIMES = np.linspace(-2.0, 2.0, 64)

_CLASS_TOL = 1e-12
_DERIV_TOL = 1e-6


def on_float_array(fn: Callable, w: np.ndarray, what: str, parts: int = 0):
    """``fn`` at every element of the float array w.

    ``fn`` is called once on the whole array; one that takes floats only
    (it raises ``TypeError`` or ``ValueError``, as a ``math.exp`` lambda
    does) is called once per element instead.  It returns one real number,
    or with ``parts`` a tuple of that many, and each comes back as a float
    array of shape () or of w's shape; any other result is a
    :class:`ConfigurationError` naming ``what``.
    """
    try:
        out = fn(w)
    except (TypeError, ValueError):
        rows = [fn(v) for v in w.ravel().tolist()]
        out = [np.array(col).reshape(w.shape) for col in (zip(*rows) if parts else [rows])]
    else:
        out = tuple(out) if parts else [out]
    if len(out) != max(parts, 1):
        raise ConfigurationError(f"{what} returned {len(out)} parts; expected {parts}")
    checked = []
    for values in map(np.asarray, out):
        if values.shape not in ((), w.shape) or values.dtype.kind not in "biuf":
            raise ConfigurationError(
                f"{what} returned {values.dtype} values of shape {values.shape} "
                f"on a grid of shape {w.shape}; expected a real number or that shape"
            )
        checked.append(values.astype(float, copy=False))
    return tuple(checked) if parts else checked[0]


@dataclass(frozen=True)
class TimeProfile:
    """A smooth scalar function of time with two analytic derivatives.

    ``fn(t)`` returns the triple (value, d/dt, d2/dt2) at a float.  The
    built-in sinusoid also carries ``array_fn``, the same triple by numpy
    on a float array, bit for bit the per-float values.
    """

    fn: Callable[[float], tuple[float, float, float]]
    array_fn: Callable[[np.ndarray], tuple] | None = None

    def __call__(self, t: float) -> tuple[float, float, float]:
        return self.fn(t)

    def on_array(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The triple at every element of the float array t, as three arrays
        of its shape: ``array_fn``, or ``fn`` by :func:`on_float_array`."""
        if self.array_fn is not None:
            return self.array_fn(t)
        triple = on_float_array(self.fn, t, "time profile", 3)
        return tuple(np.broadcast_to(v, t.shape) for v in triple)


def constant(c: float) -> TimeProfile:
    c = float(c)
    return TimeProfile(lambda t: (c, 0.0, 0.0))


def _deriv(c: list[float]) -> list[float]:
    # Same products as numpy.polynomial.polynomial.polyder, so the
    # derivative coefficients (and the zero of a constant) match its bits.
    if len(c) == 1:
        return [c[0] * 0]
    return [j * c[j] for j in range(1, len(c))]


def horner(rev: Sequence[float], x: float) -> float:
    """Polynomial with descending coefficients ``rev`` at x (at least one).

    The operations and their order are those of
    ``numpy.polynomial.polynomial.polyval``, so the result has its bits.
    """
    acc = rev[0] + x * 0
    for c in rev[1:]:
        acc = c + acc * x
    return acc


def polynomial(coefficients: Sequence[float]) -> TimeProfile:
    """Polynomial in t with ascending coefficients (c0 + c1 t + ...).

    Evaluated by Horner's rule on floats, or element-wise on a float
    array; values and both derivatives are bit-identical to
    ``numpy.polynomial.Polynomial`` on its default domain.
    """
    c = [float(v) for v in coefficients]
    if not c:
        raise ConfigurationError("polynomial profile needs at least one coefficient")
    d1 = _deriv(c)
    r0, r1, r2 = c[::-1], d1[::-1], _deriv(d1)[::-1]

    def fn(t: float) -> tuple[float, float, float]:
        x = 0.0 + t  # the domain map of Polynomial.__call__ (turns -0.0 into 0.0)
        return (horner(r0, x), horner(r1, x), horner(r2, x))

    return TimeProfile(fn)


def sinusoid(
    amplitude: float, angular_frequency: float, phase: float = 0.0, offset: float = 0.0
) -> TimeProfile:
    """offset + amplitude * sin(angular_frequency * t + phase), by ``math``
    on a float and by numpy on a float array."""
    A = float(amplitude)
    om = float(angular_frequency)
    ph = float(phase)
    off = float(offset)

    def fn(t: float) -> tuple[float, float, float]:
        s = math.sin(om * t + ph)
        c = math.cos(om * t + ph)
        return (off + A * s, A * om * c, -A * om * om * s)

    def array_fn(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = np.sin(om * t + ph)
        c = np.cos(om * t + ph)
        return (off + A * s, A * om * c, -A * om * om * s)

    return TimeProfile(fn, array_fn)


def _check_profile(name: str, p: TimeProfile) -> None:
    h = 1e-5
    for t in PROBE_TIMES:
        v, d1, d2 = p(float(t))
        if not (math.isfinite(v) and math.isfinite(d1) and math.isfinite(d2)):
            raise ConfigurationError(f"profile {name}: non-finite at t={t}")
        fd1 = (p(float(t) + h)[0] - p(float(t) - h)[0]) / (2.0 * h)
        if abs(d1 - fd1) > _DERIV_TOL * (1.0 + abs(d1)):
            raise ConfigurationError(
                f"profile {name}: first derivative inconsistent at t={t} "
                f"(analytic {d1!r}, finite difference {fd1!r})"
            )
        fd2 = (p(float(t) + h)[1] - p(float(t) - h)[1]) / (2.0 * h)
        if abs(d2 - fd2) > _DERIV_TOL * (1.0 + abs(d2)):
            raise ConfigurationError(
                f"profile {name}: second derivative inconsistent at t={t}"
            )


@dataclass(frozen=True)
class FrameSpec:
    """Validated time-dependent frame for one split class.

    Use :func:`make_frame` (or :func:`identity_frame`) instead of the raw
    constructor; validation happens there.
    """

    alpha: TimeProfile
    beta: TimeProfile
    gamma: TimeProfile
    h1: TimeProfile
    h2: TimeProfile
    h3: TimeProfile
    w1: TimeProfile
    w2: TimeProfile
    w3: TimeProfile
    class_of: SplitClass

    def scale_triples(self, t: float) -> tuple[tuple[float, float, float], ...]:
        """(h_i, h_i', h_i'') for i = 1, 2, 3 at t, or arrays of the shape of
        a float array t (:meth:`TimeProfile.on_array`); the one check, by
        :class:`ConfigurationError`, that every h_i(t) > 0 (NaN fails it),
        naming the first t that fails.  A class tie (h2 = h1, h3 = h1)
        shares the profile, which is evaluated once."""
        array = isinstance(t, np.ndarray)
        evaluate = (lambda p: p.on_array(t)) if array else (lambda p: p(t))
        h1 = evaluate(self.h1)
        h2 = h1 if self.h2 is self.h1 else evaluate(self.h2)
        h3 = h1 if self.h3 is self.h1 else evaluate(self.h3)
        if array:
            bad = np.flatnonzero(~((h1[0] > 0.0) & (h2[0] > 0.0) & (h3[0] > 0.0)))
            if bad.size:
                j = bad[0]
                values = (float(h1[0].flat[j]), float(h2[0].flat[j]), float(h3[0].flat[j]))
                raise ConfigurationError(
                    f"frame scale non-positive at t={float(t.flat[j])}: h = {values}"
                )
        elif not (h1[0] > 0.0 and h2[0] > 0.0 and h3[0] > 0.0):
            values = (h1[0], h2[0], h3[0])
            raise ConfigurationError(f"frame scale non-positive at t={t}: h = {values}")
        return (h1, h2, h3)

    def translation_triples(self, t: float) -> tuple[tuple[float, float, float], ...]:
        """(w_i, w_i', w_i'') for i = 1, 2, 3 at t."""
        return (self.w1(t), self.w2(t), self.w3(t))

    def scales(self, t: float) -> tuple[float, float, float]:
        h1, h2, h3 = self.scale_triples(t)
        return (h1[0], h2[0], h3[0])

    def translation(self, t: float) -> np.ndarray:
        return np.array([self.w1(t)[0], self.w2(t)[0], self.w3(t)[0]])


_ZERO = constant(0.0)
_ONE = constant(1.0)


def make_frame(
    class_of: SplitClass | str,
    *,
    alpha: TimeProfile = _ZERO,
    beta: TimeProfile = _ZERO,
    gamma: TimeProfile = _ZERO,
    h1: TimeProfile = _ONE,
    h2: TimeProfile | None = None,
    h3: TimeProfile | None = None,
    w1: TimeProfile = _ZERO,
    w2: TimeProfile = _ZERO,
    w3: TimeProfile = _ZERO,
) -> FrameSpec:
    """Build and validate a frame for the given split class.

    An omitted h2 defaults to h1; an omitted h3 defaults to unity for the
    partial class and to h1 otherwise.

    Raises
    ------
    ConfigurationError
        On a profile derivative inconsistency, a non-positive scale, or a
        violated class tie on the probe grid.
    """
    cls = SplitClass(class_of)
    h2 = h1 if h2 is None else h2
    if h3 is None:
        h3 = _ONE if cls is SplitClass.PARTIAL else h1

    profiles = {
        "alpha": alpha, "beta": beta, "gamma": gamma,
        "h1": h1, "h2": h2, "h3": h3,
        "w1": w1, "w2": w2, "w3": w3,
    }
    for name, p in profiles.items():
        if not isinstance(p, TimeProfile):
            raise ConfigurationError(f"profile {name} must be a TimeProfile")
        _check_profile(name, p)

    frame = FrameSpec(alpha, beta, gamma, h1, h2, h3, w1, w2, w3, cls)
    for t in PROBE_TIMES:
        hv = frame.scales(float(t))
        if cls is not SplitClass.COMPLETE and abs(hv[0] - hv[1]) > _CLASS_TOL:
            raise ConfigurationError(
                f"{cls.value} class requires h1 = h2; differ by {hv[0] - hv[1]:.3e} at t={t}"
            )
        if cls is SplitClass.NONSPLIT and abs(hv[0] - hv[2]) > _CLASS_TOL:
            raise ConfigurationError(
                f"nonsplit class requires h1 = h3; differ by {hv[0] - hv[2]:.3e} at t={t}"
            )

    return frame


def identity_frame(class_of: SplitClass | str) -> FrameSpec:
    """The static frame: no rotation, unit scales, no translation."""
    return make_frame(SplitClass(class_of))


def _euler_rows(a, b, g, cos, sin) -> tuple:
    """The rows of the Euler rotation at angles (a, b, g), by ``cos`` and
    ``sin`` from math on floats or from numpy on float arrays."""
    ca, sa = cos(a), sin(a)
    cb, sb = cos(b), sin(b)
    cg, sg = cos(g), sin(g)
    return (
        (ca * cb - sa * sb * cg, -ca * sb - sa * cb * cg, sa * sg),
        (sa * cb + ca * sb * cg, -sa * sb + ca * cb * cg, -ca * sg),
        (sb * sg, cb * sg, cg),
    )


def rotation_matrix(frame: FrameSpec, t: float) -> np.ndarray:
    """The Euler rotation T(t); orthogonal with det +-1."""
    a, b, g = frame.alpha(t)[0], frame.beta(t)[0], frame.gamma(t)[0]
    return np.array(_euler_rows(a, b, g, math.cos, math.sin))


def rotation_rates(frame: FrameSpec, t: float) -> tuple[float, float, float]:
    """The three half-rates (s1, s2, s3) of the angular-velocity matrix.

    2*s1 = alpha' + beta' cos(gamma)
    2*s2 = beta' cos(alpha) sin(gamma) - gamma' sin(alpha)
    2*s3 = beta' sin(alpha) sin(gamma) + gamma' cos(alpha)

    All three vanish on an interval precisely when the frame does not
    rotate there, which is the compatibility criterion for potentials that
    require a symmetric M matrix.
    """
    a, da, _ = frame.alpha(t)
    _, db, _ = frame.beta(t)
    g, dg, _ = frame.gamma(t)
    ca, sa = math.cos(a), math.sin(a)
    cg, sg = math.cos(g), math.sin(g)
    s1 = 0.5 * (da + db * cg)
    s2 = 0.5 * (db * ca * sg - dg * sa)
    s3 = 0.5 * (db * sa * sg + dg * ca)
    return (s1, s2, s3)


def rotation_rate(frame: FrameSpec, t: float) -> np.ndarray:
    """The angular-velocity matrix dT/dt T^{-1}, assembled in closed form.

    Skew-symmetric; entries (2,1), (3,1), (3,2) are 2*s1, 2*s2, 2*s3 from
    :func:`rotation_rates`.
    """
    s1, s2, s3 = rotation_rates(frame, t)
    return np.array(
        [
            [0.0, -2.0 * s1, -2.0 * s2],
            [2.0 * s1, 0.0, -2.0 * s3],
            [2.0 * s2, 2.0 * s3, 0.0],
        ]
    )


def m_matrix(frame: FrameSpec, t: float) -> np.ndarray:
    """M(t) = dT/dt T^{-1} + T dH/dt H^{-1} T^{-1}.

    The first addend is skew, the second symmetric, so the skew part of M
    is exactly the angular-velocity matrix.
    """
    T = rotation_matrix(frame, t)
    rel = [d1 / v for v, d1, _ in frame.scale_triples(t)]
    return rotation_rate(frame, t) + T @ np.diag(rel) @ T.T


def require_compatible(system: CoordinateSystem, frame: FrameSpec) -> None:
    """:class:`ConfigurationError` unless the frame's split class is the chart's."""
    if frame.class_of is not system.split_class:
        raise ConfigurationError(
            f"frame of class {frame.class_of.value} cannot drive the "
            f"{system.split_class.value} chart {system.sid.value}"
        )


def embed(system: CoordinateSystem, frame: FrameSpec, t: float, omega) -> np.ndarray:
    """Cartesian position x = T(t) H(t) z(omega) + w(t)."""
    require_compatible(system, frame)
    z = forward(system, omega)
    hz = np.array(frame.scales(t)) * z
    return rotation_matrix(frame, t) @ hz + frame.translation(t)


def _placement(frame: FrameSpec, t) -> tuple:
    """The rows of T, the translation w and the scales h at t, a float or
    a float array (each entry then an array of t's shape): every profile
    read once, a tied scale once in all, with the scale check of
    :meth:`FrameSpec.scale_triples`."""
    if isinstance(t, np.ndarray):
        value, cos, sin = (lambda p: p.on_array(t)[0]), np.cos, np.sin
    else:
        value, cos, sin = (lambda p: p(t)[0]), math.cos, math.sin
    rows = _euler_rows(value(frame.alpha), value(frame.beta), value(frame.gamma), cos, sin)
    w = (value(frame.w1), value(frame.w2), value(frame.w3))
    h1, h2, h3 = frame.scale_triples(t)
    return rows, w, (h1[0], h2[0], h3[0])


def _to_chart(rows, w, h, x) -> tuple:
    """H^{-1} T^T (x - w) from :func:`_placement`'s values and the three
    components of x: floats, or arrays that broadcast together."""
    d0, d1, d2 = x[0] - w[0], x[1] - w[1], x[2] - w[2]
    return tuple((rows[0][j] * d0 + rows[1][j] * d1 + rows[2][j] * d2) / h[j] for j in range(3))


def unembed(frame: FrameSpec, t: float, x) -> np.ndarray:
    """Chart-space target z = H^{-1} T^T (x - w); feeds coords.invert.

    The nine frame values are read once and combined on Python floats."""
    return np.array(_to_chart(*_placement(frame, t), np.asarray(x, dtype=float).tolist()))


def omega_gradients(system: CoordinateSystem, frame: FrameSpec, t: float, omega) -> np.ndarray:
    """Gradients of omega_i in Cartesian x at the embedded point.

    Returns a 3x3 array whose i-th row is grad omega_i, computed as the
    i-th row of (T H J)^{-1} with J the chart Jacobian.
    """
    require_compatible(system, frame)
    J = jacobian(system, omega)
    return _gradients(system, t, omega, J, rotation_matrix(frame, t), np.array(frame.scales(t)))


def _gradients(system: CoordinateSystem, t: float, omega, J, rot, h) -> np.ndarray:
    """:func:`omega_gradients` from the chart Jacobian J, the rotation and
    the scales (an array) at t, with its singularity guard.

    J is the 3x3 Jacobian at the point omega, or a stack (n, 3, 3) of them
    at the n points of omega, with the gradients of the same shape; the
    body is one.  At a point a failed guard raises; in a stack the
    failing sample's gradients are NaN, and the caller that wants the
    error evaluates that sample alone."""
    A = rot @ (h[:, None] * J)
    det = np.linalg.det(A)
    a = np.moveaxis(A, (-2, -1), (0, 1))  # a[i][j] is entry (i, j): a float or a stack
    near = _near_singular(a, det)
    stack = isinstance(det, np.ndarray)
    if not stack and near:
        raise SingularityError(
            f"{system.sid.value}: embedded Jacobian singular at t={t}, omega={tuple(omega)}"
        )
    # Adjugate transpose over determinant; rows of the inverse.
    adj = np.array(
        [
            [a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1],
             a[0, 2] * a[2, 1] - a[0, 1] * a[2, 2],
             a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]],
            [a[1, 2] * a[2, 0] - a[1, 0] * a[2, 2],
             a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0],
             a[0, 2] * a[1, 0] - a[0, 0] * a[1, 2]],
            [a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0],
             a[0, 1] * a[2, 0] - a[0, 0] * a[2, 1],
             a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]],
        ]
    )
    if not stack:
        return adj / det
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero det is a guarded sample
        inv = np.moveaxis(adj / det, (0, 1), (-2, -1))
    inv[near] = np.nan
    return inv
