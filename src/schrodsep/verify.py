"""Independent residual checks for reconstructed fields.

Nothing here knows how a field was produced.  A field is a callable
``field(t, x, omega_hint) -> value``; the engines differentiate it with
fourth-order central stencils and combine the derivatives with
analytically evaluated potentials, so a separated solution is confirmed
against the governing equation through a route it never touched.

Stencil steps are scaled by the local coordinate magnitude.  Each
stencil node's chart coordinates are found by Newton inversion seeded
from the center node, which keeps every evaluation on the same branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .coords import invert, jacobian, sample_domain
from .errors import NumericError, StencilError, check_range
from .frame import embed, omega_gradients, rotation_matrix, unembed
from .potential import PotentialSpec, vector_divergence, vector_potential
from .stackel import metric_r_squared, stackel_values, t_functions

DEFAULT_STEPS = (1e-3, 1e-3)
#: Floor for the reported scale so a vanishing field still yields a
#: well-defined relative residual.
SCALE_FLOOR = 1e-30


# ---------------------------------------------------------------------------
# Stencil plumbing


def _guard(field, t: float, x, hint):
    try:
        return field(t, x, hint)
    except NumericError as exc:
        raise StencilError(
            f"stencil node t={t!r}, x={tuple(float(v) for v in x)} failed: {exc}"
        ) from exc


def _d1(samples, h: float):
    """f' from f(-2h), f(-h), f(h), f(2h)."""
    return (samples[0] - 8.0 * samples[1] + 8.0 * samples[2] - samples[3]) / (12.0 * h)


def _d2(samples, center, h: float):
    """f'' from the same four offsets plus the center."""
    return (
        -samples[0] + 16.0 * samples[1] - 30.0 * center + 16.0 * samples[2] - samples[3]
    ) / (12.0 * h * h)


_OFFSETS = (-2.0, -1.0, 1.0, 2.0)


def _row(fn, x, h: float, axis: int) -> list:
    """fn at x shifted by k h along ``axis``, for the four stencil offsets k."""
    out = []
    for k in _OFFSETS:
        p = np.array(x, dtype=float)
        p[axis] += k * h
        out.append(fn(p))
    return out


def _stencil(field, spec: PotentialSpec, t: float, x, steps, omega_hint, centre: bool):
    """The set-up the SE and HJ residuals share: the chart point of x (None
    without ``omega_hint``), the spatial step, the field at the centre (None
    unless ``centre``), its time derivative and its three spatial rows."""
    x = np.asarray(x, dtype=float)
    ht = float(steps[0]) * (1.0 + abs(t))
    hx = float(steps[1]) * (1.0 + float(np.linalg.norm(x)))
    hint = None
    if omega_hint is not None:
        hint = invert(spec.system, unembed(spec.frame, t, x), omega_hint)
    value = _guard(field, t, x, hint) if centre else None
    d_t = _d1([_guard(field, t + k * ht, x, hint) for k in _OFFSETS], ht)
    rows = [_row(lambda p: _guard(field, t, p, hint), x, hx, axis) for axis in range(3)]
    return hint, hx, value, d_t, rows


def _residual(terms) -> tuple:
    """The sum of the residual terms and the largest term size (floored)."""
    return sum(terms), max(max(abs(term) for term in terms), SCALE_FLOOR)


# ---------------------------------------------------------------------------
# Schrödinger residual


def se_residual_with_scale(
    field: Callable,
    spec: PotentialSpec,
    t: float,
    x,
    steps: Sequence[float] = DEFAULT_STEPS,
    omega_hint=None,
) -> tuple[complex, float]:
    """Residual of the wave equation at (t, x) plus the largest term size.

    The operator, fully expanded:

        i psi_t - e A0 psi + lap psi + i e (div A) psi
                + 2 i e (A . grad psi) - e^2 |A|^2 psi
    """
    hint, hx, psi0, psi_t, rows = _stencil(field, spec, t, x, steps, omega_hint, centre=True)
    grad = np.array([_d1(row, hx) for row in rows], dtype=complex)
    lap = 0.0 + 0.0j
    for row in rows:
        lap += _d2(row, psi0, hx)

    e = spec.e_charge
    a0, avec = vector_potential(spec, t, x, omega_hint=hint)
    div_a = vector_divergence(spec, t)

    terms = (
        1j * psi_t,
        -(e * a0) * psi0,
        lap,
        1j * e * div_a * psi0,
        2j * e * complex(avec @ grad),
        -(e * e * float(avec @ avec)) * psi0,
    )
    return _residual(terms)


# ---------------------------------------------------------------------------
# Stationary residual


def stationary_residual_with_scale(
    psi: Callable,
    a0_field: Callable,
    a_field: Callable,
    energy: float,
    x,
    hx: float = 1e-3,
    e_charge: float = 1.0,
) -> tuple[complex, float]:
    """Residual of the frozen-time equation (p_a p_a + e A0 + E) psi at x.

    ``psi``, ``a0_field`` and ``a_field`` are callables of x alone; the
    divergence of A is taken numerically, so arbitrary static fields can
    be screened, not only the spatially uniform ones the builders make.
    """
    x = np.asarray(x, dtype=float)
    h = hx * (1.0 + float(np.linalg.norm(x)))
    psi0 = psi(x)
    grad = np.zeros(3, dtype=complex)
    lap = 0.0 + 0.0j
    div_a = 0.0
    for axis in range(3):
        row = _row(psi, x, h, axis)
        grad[axis] = _d1(row, h)
        lap += _d2(row, psi0, h)
        div_a += _d1([a[axis] for a in _row(a_field, x, h, axis)], h)

    e = e_charge
    avec = np.asarray(a_field(x), dtype=float)
    terms = (
        -lap,
        -1j * e * div_a * psi0,
        -2j * e * complex(avec @ grad),
        (e * e * float(avec @ avec)) * psi0,
        e * float(a0_field(x)) * psi0,
        energy * psi0,
    )
    return _residual(terms)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi residual


def hj_residual_with_scale(
    action: Callable,
    spec: PotentialSpec,
    t: float,
    x,
    steps: Sequence[float] = DEFAULT_STEPS,
    omega_hint=None,
) -> tuple[float, float]:
    """Residual u_t + e A0 + sum_a (u_{x_a} + e A_a)^2 at (t, x)."""
    hint, hx, _, u_t, rows = _stencil(action, spec, t, x, steps, omega_hint, centre=False)
    grad = np.array([_d1(row, hx) for row in rows], dtype=float)

    e = spec.e_charge
    a0, avec = vector_potential(spec, t, x, omega_hint=hint)
    kinetic = float(np.sum((grad + e * avec) ** 2))
    return _residual((float(u_t), e * a0, kinetic))


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class PointRecord:
    index: int
    channel: str
    t: float
    x: tuple[float, float, float]
    residual: float
    scale: float
    relative: float

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError("record scale must be positive")


@dataclass(frozen=True, eq=False)
class ResidualReport:
    records: tuple[PointRecord, ...]
    ht: float
    hx: float

    @property
    def max_relative(self) -> float:
        return max((r.relative for r in self.records), default=0.0)

    @property
    def mean_relative(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.relative for r in self.records) / len(self.records)


def channel_max(report: ResidualReport, channel: str) -> float:
    return max((r.relative for r in report.records if r.channel == channel), default=0.0)


def _record(index, channel, t, x, residual, scale) -> PointRecord:
    residual = abs(residual)
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise NumericError(
            f"{channel} sample {index} at t={float(t)!r}: non-finite residual "
            f"{float(residual)!r} or scale {float(scale)!r}"
        )
    scale = max(float(scale), SCALE_FLOOR)
    return PointRecord(
        index=index,
        channel=channel,
        t=float(t),
        x=tuple(float(v) for v in x),
        residual=float(residual),
        scale=scale,
        relative=float(residual / scale),
    )


def _report(residual_with_scale, channel, field, spec, points, steps, hints) -> ResidualReport:
    records = []
    for idx, (t, x) in enumerate(points):
        hint = None if hints is None else hints[idx]
        res, scale = residual_with_scale(field, spec, t, x, steps, hint)
        records.append(_record(idx, channel, t, x, res, scale))
    return ResidualReport(tuple(records), ht=float(steps[0]), hx=float(steps[1]))


def se_report(
    field: Callable,
    spec: PotentialSpec,
    points: Sequence[tuple[float, Sequence[float]]],
    steps: Sequence[float] = DEFAULT_STEPS,
    hints: Sequence | None = None,
) -> ResidualReport:
    return _report(se_residual_with_scale, "se", field, spec, points, steps, hints)


def hj_report(
    action: Callable,
    spec: PotentialSpec,
    points: Sequence[tuple[float, Sequence[float]]],
    steps: Sequence[float] = DEFAULT_STEPS,
    hints: Sequence | None = None,
) -> ResidualReport:
    return _report(hj_residual_with_scale, "hj", action, spec, points, steps, hints)


def report_to_csv(report: ResidualReport, dest: TextIO) -> None:
    dest.write("index,channel,t,x1,x2,x3,residual,scale,relative\n")
    for r in report.records:
        dest.write(
            f"{r.index},{r.channel},{r.t!r},{r.x[0]!r},{r.x[1]!r},{r.x[2]!r},"
            f"{r.residual!r},{r.scale!r},{r.relative!r}\n"
        )


def report_to_dict(report: ResidualReport) -> dict:
    return {
        "steps": {"ht": report.ht, "hx": report.hx},
        "summary": {
            "count": len(report.records),
            "max_relative": report.max_relative,
            "mean_relative": report.mean_relative,
        },
        "records": [
            {
                "index": r.index,
                "channel": r.channel,
                "t": r.t,
                "x": list(r.x),
                "residual": r.residual,
                "scale": r.scale,
                "relative": r.relative,
            }
            for r in report.records
        ],
    }


#: Fraction of each range kept clear at both ends by :func:`chart_box_points`.
_BOX_MARGIN = 0.05


def chart_box_points(
    system,
    frame,
    ranges: Sequence[Sequence[float]],
    t_range: Sequence[float],
    n: int,
    seed: int,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Random (t, x, omega) triples interior to the given chart box.

    Each range is shrunk by the fraction ``_BOX_MARGIN`` on both ends so that
    the full residual stencil around a sample stays evaluable: the
    stencil reach in chart coordinates is far below the margin for the
    default steps.  Raises :class:`ConfigurationError` unless every range
    is finite, with a finite span, and nonempty.
    """
    lo, hi = np.array(
        [check_range("omega range", r[0], r[1], f" on axis {a}") for a, r in enumerate(ranges, 1)]
    ).T
    t_lo, t_hi = check_range("time range", t_range[0], t_range[1])
    rng = np.random.default_rng(seed)
    pad = _BOX_MARGIN * (hi - lo)
    t_pad = _BOX_MARGIN * (t_hi - t_lo)
    out = []
    for _ in range(n):
        t = float(rng.uniform(t_lo + t_pad, t_hi - t_pad))
        omega = rng.uniform(lo + pad, hi - pad)
        out.append((t, embed(system, frame, t, omega), omega))
    return out


# ---------------------------------------------------------------------------
# Geometry audit


#: Stop refining a harmonicity estimate once it drops this low; far below
#: every acceptance threshold yet above the double-precision noise floor.
_HARMONICITY_STOP = 5e-13

#: Values under this are inversion-noise plateau, where a single rung may
#: fail to improve on its neighbour without the trend having turned.
_HARMONICITY_PLATEAU = 1e-10

#: Step-multiple limits of the ladder.
_HARMONICITY_TOP = 16.0
_HARMONICITY_FLOOR = 2.0 / 512.0


def _harmonicity_estimate(system, frame, t, omega, x, base_h):
    """max_a |lap omega_a| by central stencils, best over a step ladder.

    The true value is zero for an intact chart, so the reported number is
    whichever of truncation or inversion noise dominates locally, while a
    genuine defect stays O(1) at every step.  Starting from a mid-sized
    step the ladder is walked outward in both directions, dyadically:
    larger steps win on near-linear charts (truncation vanishes, node
    noise is divided by a bigger h^2), smaller steps win where a sixth
    derivative is locally huge.  Rungs share stencil nodes through one
    cache (the rung at step m uses offsets +-m and +-2m).  Growing stops
    at the first rung that fails to improve once the estimate is out of
    the noise plateau; shrinking stops at the first rise, because on
    that side node noise grows steadily as the step falls.
    """
    center = np.asarray(omega, dtype=float)
    nodes: dict[tuple[int, float], np.ndarray | None] = {}
    last: dict[tuple[int, bool], tuple[float, np.ndarray]] = {}

    def node(axis: int, offset: float):
        key = (axis, offset)
        if key not in nodes:
            p = np.array(x, dtype=float)
            p[axis] += offset * base_h
            z = unembed(frame, t, p)
            prev = last.get((axis, offset > 0.0))
            guesses = [center]
            if prev is not None:
                # scale the nearest solved node on this axis and side;
                # a much closer Newton start than the sample itself
                guesses.insert(0, center + (prev[1] - center) * (offset / prev[0]))
            result = None
            for guess in guesses:
                try:
                    result = invert(system, z, guess)
                except NumericError:
                    continue
                last[(axis, offset > 0.0)] = (offset, result)
                break
            nodes[key] = result
        return nodes[key]

    def rung(mult: float):
        h = base_h * mult
        lap = np.zeros(3)
        for axis in range(3):
            row = [node(axis, k * mult) for k in _OFFSETS]
            if any(v is None for v in row):
                return None
            lap += _d2(row, center, h)
        return float(np.max(np.abs(lap)))

    start = None
    for mult in (2.0, 1.0, 0.5, 0.25):
        value = rung(mult)
        if value is not None:
            start = mult
            best = value
            break
    if start is None:
        return None
    if best < _HARMONICITY_STOP:
        return best
    for grow in (True, False):
        mult = start
        while True:
            mult = mult * 2.0 if grow else mult * 0.5
            if not _HARMONICITY_FLOOR <= mult <= _HARMONICITY_TOP:
                break
            value = rung(mult)
            if value is None:
                break
            if value < best:
                best = value
                if best < _HARMONICITY_STOP:
                    return best
            elif not grow or value >= _HARMONICITY_PLATEAU:
                break
    return best


#: Conditioning window for the finite-difference harmonicity channel.
#: Outside it the stencil cannot resolve the property at the step budget,
#: so no record is emitted for that sample (the other channels are
#: analytic and always reported).
HARMONICITY_SIGMA_MIN = 0.3
HARMONICITY_SIGMA_MAX = 20.0


def geometry_audit(system, frame, t: float, n_samples: int, seed: int) -> ResidualReport:
    """Audit the chart-frame pairing on random interior samples.

    Four channels per sample: gradient orthogonality, the defining
    relation between the coefficient table and the time functions, the
    harmonicity of each coordinate (finite differences), and agreement
    of the closed-form metric with Jacobian column norms.  Violations
    are data, not errors.  Harmonicity is the only channel that relies
    on numerical differentiation; it is reported only where the local
    map is well enough conditioned for the stencil to resolve it.
    """
    records = []
    samples = sample_domain(system, seed=seed, n=n_samples)
    hx = DEFAULT_STEPS[1]
    rot = rotation_matrix(frame, t)
    h_scales = np.asarray(frame.scales(t))
    for idx, omega in enumerate(samples):
        x = embed(system, frame, t, omega)

        grads = omega_gradients(system, frame, t, omega)
        norms = np.linalg.norm(grads, axis=1)
        worst_dot = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                worst_dot = max(
                    worst_dot, abs(float(grads[i] @ grads[j])) / (norms[i] * norms[j])
                )
        records.append(_record(idx, "orthogonality", t, x, worst_dot, 1.0))

        F = stackel_values(system, omega)
        g2 = norms**2
        T = t_functions(system, frame, t)
        worst_rel = 0.0
        for j in range(3):
            terms = [F[i][j] * g2[i] for i in range(3)]
            scale = max(abs(T[j]), max(abs(v) for v in terms), 1.0)
            worst_rel = max(worst_rel, abs(sum(terms) - T[j]) / scale)
        records.append(_record(idx, "stackel", t, x, worst_rel, 1.0))

        R2 = metric_r_squared(system, frame, t, omega)
        J = jacobian(system, omega)
        cols = rot @ (h_scales[:, None] * J)
        worst_col = 0.0
        for i in range(3):
            got = float(cols[:, i] @ cols[:, i])
            worst_col = max(worst_col, abs(got - R2[i]) / abs(R2[i]))
        records.append(_record(idx, "colnorm", t, x, worst_col, 1.0))

        sigma = np.linalg.svd(cols, compute_uv=False)
        if HARMONICITY_SIGMA_MIN <= sigma[-1] and sigma[0] <= HARMONICITY_SIGMA_MAX:
            value = _harmonicity_estimate(
                system, frame, t, omega, x, hx * (1.0 + float(np.linalg.norm(x)))
            )
            if value is not None:
                records.append(_record(idx, "harmonicity", t, x, value, 1.0))

    return ResidualReport(tuple(records), ht=DEFAULT_STEPS[0], hx=hx)
