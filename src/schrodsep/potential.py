"""Separable electromagnetic potentials and field diagnostics.

Three families of potentials admit separation of variables, and each is a
builder here:

* ``magnetic``      - the vector potential is linear in x, built from the
  frame's M matrix; the scalar potential combines arbitrary per-axis
  profiles F_a0 with the squared gradient norms of omega.
* ``electrostatic`` - vanishing vector potential; the frame must not
  rotate, and the wavefunction acquires the phase factor exp(iS) with S
  quadratic in x.
* ``coulomb``       - a rotating-frame charge: A is linear in x with the
  skew matrix of the rotation half-rates and the scalar part carries
  q/|x|; a special case of the magnetic family with unit scales, fixed
  per-chart F_a0 profiles, and one of five admissible charts.

Everything after construction is a pure function of (t, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .coords import CoordinateSystem, SystemId, _norm, invert, make_system
from .errors import ConfigurationError, DomainError, SingularityError, UsageError
from .frame import (
    PROBE_TIMES,
    FrameSpec,
    TimeProfile,
    constant,
    m_matrix,
    make_frame,
    on_float_array,
    require_compatible,
    rotation_rates,
    unembed,
)
from .stackel import metric_r_squared

#: Value-only profile over a single coordinate omega_a.  Called with a
#: float array it returns a number or an array of that shape, as every
#: built-in profile does; :func:`profile_values` also serves a callable
#: that takes floats only.
AxisProfile = Callable[[float], float]

_RATE_TOL = 1e-10


class PotentialKind(str, Enum):
    MAGNETIC = "magnetic"
    ELECTROSTATIC = "electrostatic"
    COULOMB = "coulomb"


class CoulombSystem(str, Enum):
    """Charts in which the rotating Coulomb potential separates."""

    SPHERICAL = "spherical"
    PROLATE_II_PLUS = "prolate_ii_plus"
    PROLATE_II_MINUS = "prolate_ii_minus"
    PARABOLIC = "parabolic"
    CONICAL = "conical"


_COULOMB_CHART = {
    CoulombSystem.SPHERICAL: SystemId.SPHERICAL,
    CoulombSystem.PROLATE_II_PLUS: SystemId.PROLATE_SPHEROIDAL_II_PLUS,
    CoulombSystem.PROLATE_II_MINUS: SystemId.PROLATE_SPHEROIDAL_II_MINUS,
    CoulombSystem.PARABOLIC: SystemId.PARABOLIC,
    CoulombSystem.CONICAL: SystemId.CONICAL,
}


@dataclass(frozen=True)
class PotentialSpec:
    """A fully specified separable potential; build via the *_spec helpers."""

    kind: PotentialKind
    system: CoordinateSystem
    frame: FrameSpec
    e_charge: float
    f_profiles: tuple[AxisProfile | None, AxisProfile | None, AxisProfile | None]
    t0_tilde: TimeProfile
    q: float = 0.0
    coulomb_system: CoulombSystem | None = None

    def f_a0(self, axis: int, w):
        """The scalar-potential profile on the given 0-based axis, at a
        float or over an array (:func:`profile_values`)."""
        p = self.f_profiles[axis]
        return 0.0 if p is None else profile_values(p, w)

    @property
    def has_axis_profiles(self) -> bool:
        return any(p is not None for p in self.f_profiles)


def profile_values(profile: AxisProfile, w):
    """``profile`` at ``w``: a float at a float, and at a float array a
    number or an array of its shape (:func:`schrodsep.frame.on_float_array`,
    which also serves a callable that takes floats only).  Any other
    result is a :class:`ConfigurationError`.
    """
    if np.ndim(w) == 0:
        return float(profile(w))
    return on_float_array(profile, np.asarray(w, dtype=float), "axis profile")


def _as_profiles(f10, f20, f30) -> tuple:
    out = []
    for name, p in (("f10", f10), ("f20", f20), ("f30", f30)):
        if p is not None and not callable(p):
            raise ConfigurationError(f"{name} must be a callable of one coordinate or None")
        out.append(p)
    return tuple(out)


def _check_t0(t0_tilde: TimeProfile) -> TimeProfile:
    if t0_tilde is None:
        return constant(0.0)
    if not isinstance(t0_tilde, TimeProfile):
        raise ConfigurationError("t0_tilde must be a TimeProfile")
    for t in PROBE_TIMES:
        v = t0_tilde(float(t))[0]
        if isinstance(v, complex) or not math.isfinite(v):
            raise ConfigurationError(f"t0_tilde must be real and finite; got {v!r} at t={t}")
    return t0_tilde


def _frame_rotates(frame: FrameSpec) -> bool:
    return any(
        max(abs(r) for r in rotation_rates(frame, float(t))) > _RATE_TOL for t in PROBE_TIMES
    )


def _charge(e_charge) -> float:
    """e_charge as a float; :class:`ConfigurationError` unless finite and nonzero."""
    e = float(e_charge)
    if e == 0.0 or not math.isfinite(e):
        raise ConfigurationError(f"e_charge must be finite and nonzero, got {e!r}")
    return e


def _family_spec(
    kind: PotentialKind, system, frame, e_charge, profiles, t0_tilde
) -> PotentialSpec:
    """The spec of the magnetic or electrostatic family after its own checks."""
    require_compatible(system, frame)
    return PotentialSpec(
        kind=kind,
        system=system,
        frame=frame,
        e_charge=_charge(e_charge),
        f_profiles=_as_profiles(*profiles),
        t0_tilde=_check_t0(t0_tilde),
    )


def magnetic_spec(
    system: CoordinateSystem,
    frame: FrameSpec,
    *,
    f10: AxisProfile | None = None,
    f20: AxisProfile | None = None,
    f30: AxisProfile | None = None,
    t0_tilde: TimeProfile | None = None,
    e_charge: float = 1.0,
    require_rotation: bool = False,
) -> PotentialSpec:
    """Potential of the linear-in-x family with the full frame freedom.

    The magnetic field is the axial vector of the frame's rotation-rate
    matrix and vanishes exactly when the frame does not rotate.  A
    non-rotating frame is accepted by default because the free particle
    and all purely scale-driven potentials live there; pass
    ``require_rotation=True`` to insist on a genuinely nonvanishing
    magnetic field.
    """
    if require_rotation and not _frame_rotates(frame):
        raise ConfigurationError(
            "magnetic potential with require_rotation: all rotation rates vanish "
            "on the probe grid, so the magnetic field would be zero"
        )
    return _family_spec(PotentialKind.MAGNETIC, system, frame, e_charge, (f10, f20, f30), t0_tilde)


def electrostatic_spec(
    system: CoordinateSystem,
    frame: FrameSpec,
    *,
    f10: AxisProfile | None = None,
    f20: AxisProfile | None = None,
    f30: AxisProfile | None = None,
    t0_tilde: TimeProfile | None = None,
    e_charge: float = 1.0,
) -> PotentialSpec:
    """Potential with vanishing vector potential (zero magnetic field).

    Separation in this family is compatible only with a non-rotating
    frame; after the rotational gauge the Euler angles are identically
    zero, and frames with any nonzero or nonconstant angle profile are
    rejected rather than silently re-gauged.
    """
    for name, p in (("alpha", frame.alpha), ("beta", frame.beta), ("gamma", frame.gamma)):
        for t in PROBE_TIMES:
            v, d1, _ = p(float(t))
            if abs(v) > _RATE_TOL or abs(d1) > _RATE_TOL:
                raise ConfigurationError(
                    f"electrostatic potential needs a non-rotating frame; "
                    f"angle profile {name} is {v!r} (rate {d1!r}) at t={t}. "
                    f"Fold a constant rotation into the chart orientation instead."
                )
    return _family_spec(
        PotentialKind.ELECTROSTATIC, system, frame, e_charge, (f10, f20, f30), t0_tilde
    )


def _coulomb_profiles(chart: CoulombSystem, q: float, a: float) -> tuple:
    """The fixed per-chart F_a0 profiles that produce the q/|x| potential."""
    if chart is CoulombSystem.SPHERICAL or chart is CoulombSystem.CONICAL:
        return (lambda w: q / w**3, None, None)
    if chart is CoulombSystem.PARABOLIC:
        return (lambda w: 2.0 * q * np.exp(2.0 * w), None, None)
    # Spheroidal variants: the sign of the second-axis profile is opposite
    # to the sign of the chart's z3 shift.
    sign = -1.0 if chart is CoulombSystem.PROLATE_II_PLUS else 1.0
    return (
        lambda w: q * a * np.cosh(w) / np.sinh(w) ** 3,
        lambda w: sign * q * a * np.sinh(w) / np.cosh(w) ** 3,
        None,
    )


def coulomb_spec(
    coulomb_system: CoulombSystem | str,
    *,
    q: float,
    alpha: TimeProfile | None = None,
    beta: TimeProfile | None = None,
    gamma: TimeProfile | None = None,
    a: float = 1.0,
    k: float | None = None,
    e_charge: float = 1.0,
) -> PotentialSpec:
    """The rotating Coulomb potential q/|x| in one of its separating charts.

    The frame rotates with the given Euler angle profiles and has unit
    scales and no translation; with constant angles this is the standard
    Coulomb problem.
    """
    chart = CoulombSystem(coulomb_system)
    sid = _COULOMB_CHART[chart]
    kwargs = {}
    if sid.chart.uses_a:
        kwargs["a"] = a
    if sid.chart.uses_k:
        if k is None:
            raise ConfigurationError(f"{sid.value} coulomb chart needs an elliptic modulus k")
        kwargs["k"] = k
    system = make_system(sid.value, **kwargs)
    frame = make_frame(
        "nonsplit",
        alpha=alpha if alpha is not None else constant(0.0),
        beta=beta if beta is not None else constant(0.0),
        gamma=gamma if gamma is not None else constant(0.0),
    )
    return PotentialSpec(
        kind=PotentialKind.COULOMB,
        system=system,
        frame=frame,
        e_charge=_charge(e_charge),
        f_profiles=_coulomb_profiles(chart, float(q), system.a),
        t0_tilde=constant(0.0),
        q=float(q),
        coulomb_system=chart,
    )


def _axis_part(spec: PotentialSpec, t: float, x, omega_hint, eA0: float) -> float:
    """eA0 plus the per-axis part sum_a F_a0(omega_a) / R_a^2 of the scalar
    potential; eA0 itself, unchanged, when no profile F_a0 is present."""
    if not spec.has_axis_profiles:
        return eA0
    if omega_hint is None:
        raise ConfigurationError("omega_hint is required when per-axis profiles F_a0 are present")
    omega = invert(spec.system, unembed(spec.frame, t, x), omega_hint)
    R2 = metric_r_squared(spec.system, spec.frame, t, omega)
    w = omega.tolist()
    return eA0 + sum([spec.f_a0(i, w[i]) / R2[i] for i in range(3)])


def vector_potential(spec: PotentialSpec, t: float, x, omega_hint=None):
    """The potential pair (A0, A) at (t, x).

    The scalar part of the magnetic and electrostatic families needs the
    chart coordinates of x, so a Newton starting point ``omega_hint`` is
    required whenever any per-axis profile F_a0 is present.  A potential
    beyond the float range, in any family, is a :class:`DomainError`.
    """
    x = np.asarray(x, dtype=float)
    xs = x.tolist()
    e = spec.e_charge

    if spec.kind is PotentialKind.COULOMB:
        s1, s2, s3 = rotation_rates(spec.frame, t)
        eA = np.array(
            [
                -s1 * xs[1] - s2 * xs[2],
                s1 * xs[0] - s3 * xs[2],
                s2 * xs[0] + s3 * xs[1],
            ]
        )
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in DomainError below
            r = _norm(x)
            if r == 0.0:
                raise SingularityError("coulomb potential is singular at x = 0")
            eA0 = spec.q / r - float(eA @ eA)
            A = eA / e
    elif spec.kind is PotentialKind.MAGNETIC:
        M = m_matrix(spec.frame, t)
        triples = spec.frame.translation_triples(t)
        w = np.array([v for v, _, _ in triples])
        w_rates = np.array([wd for _, wd, _ in triples])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in a typed error
            eA = 0.5 * (M @ (x - w) + w_rates)
            A, eA_sq = eA / e, float(eA @ eA)
        eA0 = _axis_part(spec, t, x, omega_hint, spec.t0_tilde(t)[0] - eA_sq)
    else:
        # Electrostatic: no vector potential; quadratic-in-x scalar part.
        acc = 0.0
        pairs = zip(spec.frame.scale_triples(t), spec.frame.translation_triples(t))
        try:
            for i, ((h, hd, hdd), (w, wd, wdd)) in enumerate(pairs):
                hr = hdd / h
                acc += hr * xs[i] ** 2 + 2.0 * (wdd - hr * w) * xs[i] + (wd - (hd / h) * w) ** 2
        except OverflowError:  # a float square beyond the range
            acc = math.inf
        eA0 = _axis_part(spec, t, x, omega_hint, spec.t0_tilde(t)[0] - 0.25 * acc)
        A = np.zeros(3)
    A0 = eA0 / e
    if not (math.isfinite(A0) and np.isfinite(A).all()):
        raise DomainError(f"{spec.kind.value} potential overflows at t={t}, x={xs}")
    return (A0, A)


def phase_factor_S(spec: PotentialSpec, t: float, x) -> float:
    """The real phase S(t, x) with Q = exp(iS), electrostatic family only.

    S = (1/2) sum_i [ (h_i'/h_i)(x_i^2/2 - w_i x_i) + w_i' x_i ]; zero for
    a static frame.
    """
    if spec.kind is not PotentialKind.ELECTROSTATIC:
        raise UsageError(f"phase factor S is defined for the electrostatic family, not {spec.kind.value}")
    xs = np.asarray(x, dtype=float).tolist()
    acc = 0.0
    pairs = zip(spec.frame.scale_triples(t), spec.frame.translation_triples(t))
    try:
        for i, ((h, hd, _), (w, wd, _)) in enumerate(pairs):
            acc += (hd / h) * (0.5 * xs[i] ** 2 - w * xs[i]) + wd * xs[i]
    except OverflowError:  # a float square beyond the range
        raise DomainError(f"electrostatic phase overflows at t={t}, x={xs}") from None
    return 0.5 * acc


def magnetic_field(spec: PotentialSpec, t: float, x=None) -> np.ndarray:
    """The magnetic field B = curl A; spatially uniform by construction.

    e*B is the axial vector (2*s3, -2*s2, 2*s1) of the skew part of the M
    matrix.  The x argument is accepted (and ignored) to underline the
    uniformity.
    """
    if spec.kind is PotentialKind.ELECTROSTATIC:
        return np.zeros(3)
    s1, s2, s3 = rotation_rates(spec.frame, t)
    return np.array([2.0 * s3, -2.0 * s2, 2.0 * s1]) / spec.e_charge


def _scale_rate_sum(frame: FrameSpec, t: float) -> float:
    """sum_i h_i'/h_i at t."""
    acc = 0.0
    for h, hd, _ in frame.scale_triples(t):
        acc += hd / h
    return acc


def vector_divergence(spec: PotentialSpec, t: float) -> float:
    """div A, spatially constant: half the sum of scale rates over e.

    The rotation part of A is divergence free, so only the scale drift
    h_i'/h_i contributes; the electrostatic family has no vector part at
    all.
    """
    if spec.kind is PotentialKind.ELECTROSTATIC:
        return 0.0
    return _scale_rate_sum(spec.frame, t) / (2.0 * spec.e_charge)


def t0_profile(spec: PotentialSpec, t: float) -> complex:
    """T0(t) = T0_tilde(t) - (i/2) sum_i h_i'/h_i, the phi0 driver."""
    return complex(spec.t0_tilde(t)[0], -0.5 * _scale_rate_sum(spec.frame, t))
