"""Independent residual checks for reconstructed fields.

Nothing here knows how a field was produced.  A field is a callable
``field(t, x, omega_hint) -> value``; the engines differentiate it with
fourth-order central stencils and combine the derivatives with
analytically evaluated potentials, so a separated solution is confirmed
against the governing equation through a route it never touched.

Stencil steps are scaled by the local coordinate magnitude.  Given a
sample's chart point, the reports solve the chart coordinates of all its
stencil nodes before its field calls: the centres in one batched Newton
inversion seeded by the given points, then every node in another seeded
by its centre, which keeps every evaluation on the centre's branch.  Each
field call is then handed its own node's point, so its own inversion
starts at the solution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .coords import _chart_map, _guarded_jacobian, invert, invert_batch, sample_domain
from .errors import NumericError, StencilError, check_range
from .frame import (
    _gradients,
    _placement,
    _to_chart,
    embed,
    require_compatible,
    rotation_matrix,
    unembed,
)
from .potential import PotentialSpec, vector_divergence, vector_potential
from .stackel import _r_squared, stackel_values, t_functions

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

#: Nodes of a residual stencil, in stencil order: the centre, the four time
#: offsets, then the four offsets along each spatial axis in turn.
_NODES = 17


def _shifted(x, h: float, axis: int, k: float) -> np.ndarray:
    """x shifted by k h along ``axis``."""
    p = np.array(x, dtype=float)
    p[axis] += k * h
    return p


def _row(fn, x, h: float, axis: int) -> list:
    """fn at x shifted by k h along ``axis``, for the four stencil offsets k."""
    return [fn(_shifted(x, h, axis, k)) for k in _OFFSETS]


def _steps_at(t: float, x: np.ndarray, steps) -> tuple[float, float]:
    """The time and space steps of the stencil around (t, x)."""
    return float(steps[0]) * (1.0 + abs(t)), float(steps[1]) * (1.0 + float(np.linalg.norm(x)))


def _stencil(field, spec: PotentialSpec, t: float, x, steps, omega_hint, centre: bool):
    """The set-up the SE and HJ residuals share: the chart point of x (None
    without ``omega_hint``), the spatial step, the field at the centre (None
    unless ``centre``), its time derivative and its three spatial rows.

    ``omega_hint`` is a start for the centre's Newton inversion, whose
    result is then every node's hint, or the chart points of all
    ``_NODES`` nodes in stencil order (:func:`_node_points`), each handed
    to the field at its own node."""
    x = np.asarray(x, dtype=float)
    ht, hx = _steps_at(t, x, steps)
    if omega_hint is None:
        hints = [None] * _NODES
    elif np.ndim(omega_hint) == 2:
        hints = omega_hint
    else:
        hints = [invert(spec.system, unembed(spec.frame, t, x), omega_hint)] * _NODES
    value = _guard(field, t, x, hints[0]) if centre else None
    d_t = _d1([_guard(field, t + k * ht, x, h) for k, h in zip(_OFFSETS, hints[1:5])], ht)
    rows = [
        [
            _guard(field, t, _shifted(x, hx, axis, k), h)
            for k, h in zip(_OFFSETS, hints[5 + 4 * axis:9 + 4 * axis])
        ]
        for axis in range(3)
    ]
    return hints[0], hx, value, d_t, rows


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

    ``omega_hint`` is a Newton start for the chart point of x, or the chart
    points of the 17 stencil nodes that the reports hand in.  The operator,
    fully expanded:

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
    """Residual u_t + e A0 + sum_a (u_{x_a} + e A_a)^2 at (t, x); ``omega_hint``
    as in :func:`se_residual_with_scale`."""
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


#: Samples of a report whose stencil nodes are solved together; bounds the
#: node arrays of a long report.
_NODE_CHUNK = 256

#: The column of a node's time among a sample's five distinct times (the
#: centre's, then its four offsets), in stencil order.
_TIME_COLUMN = np.array([0, 1, 2, 3, 4] + [0] * 12)


def _node_points(spec: PotentialSpec, points, steps, hints) -> list:
    """The chart points of the ``_NODES`` stencil nodes of each sample
    (t, x) with chart point ``hints[j]``, as an array in stencil order, or
    None for a sample left to the per-sample path of :func:`_stencil`.

    The nodes are built by the arithmetic of :func:`_stencil`, so they are
    its nodes bit for bit, and mapped to chart space in one array pass
    that reads the frame once at each distinct time.  The centres are
    inverted in one :func:`invert_batch` call seeded by the hints, then
    the other nodes in one more, each seeded by its centre's point.  A
    sample is left out when its point or hint is not three finite
    numbers, or when one of its nodes failed its batch inversion; every
    sample is when the frame cannot be read at one of the times, so that
    the per-sample path raises that error at the sample it belongs to.
    """
    out = [None] * len(points)
    live, ts, xs, starts = [], [], [], []
    for j, ((t, x), hint) in enumerate(zip(points, hints)):
        try:
            t, x, hint = float(t), np.asarray(x, dtype=float), np.asarray(hint, dtype=float)
        except (TypeError, ValueError):
            continue
        if x.shape == hint.shape == (3,) and math.isfinite(t) and np.isfinite(x).all():
            live.append(j)
            ts.append(t)
            xs.append(x)
            starts.append(hint)
    if not live:
        return out
    t, x = np.array(ts), np.array(xs)
    ht, hx = np.array([_steps_at(*tx, steps) for tx in zip(ts, xs)]).T
    times = np.concatenate((t[:, None], t[:, None] + np.array(_OFFSETS) * ht[:, None]), axis=1)
    nodes = np.repeat(x[:, None, :], _NODES, axis=1)
    for axis in range(3):
        nodes[:, 5 + 4 * axis:9 + 4 * axis, axis] += np.array(_OFFSETS) * hx[:, None]
    try:
        rows, w, h = _placement(spec.frame, times)
    except Exception:  # a profile may raise anything; the per-sample path raises it in turn
        return out

    def per_node(v):
        return np.broadcast_to(v, times.shape)[:, _TIME_COLUMN]

    with np.errstate(all="ignore"):  # a node whose target is not finite fails its inversion
        z = _to_chart(
            [[per_node(v) for v in row] for row in rows],
            [per_node(v) for v in w],
            [per_node(v) for v in h],
            nodes.transpose(2, 0, 1),
        )
    z = np.stack(z, axis=-1)  # (samples, nodes, 3)
    centres, ok = invert_batch(spec.system, z[:, 0], np.array(starts))
    solved = np.flatnonzero(ok)
    if not solved.size:
        return out
    others, good = invert_batch(
        spec.system, z[solved, 1:].reshape(-1, 3), np.repeat(centres[solved], _NODES - 1, axis=0)
    )
    others = others.reshape(-1, _NODES - 1, 3)
    for k in np.flatnonzero(good.reshape(-1, _NODES - 1).all(axis=1)):
        s = solved[k]
        out[live[s]] = np.concatenate((centres[s:s + 1], others[k]))
    return out


def _report(residual_with_scale, channel, field, spec, points, steps, hints) -> ResidualReport:
    """One record per sample, in order.  With ``hints``, the stencil nodes
    of ``_NODE_CHUNK`` samples at a time are solved together
    (:func:`_node_points`) and each sample gets its nodes' points, or its
    hint where they are missing."""
    records = []
    points = list(points)
    for lo in range(0, len(points), _NODE_CHUNK):
        chunk = points[lo:lo + _NODE_CHUNK]
        nodes = [None] * len(chunk)
        if hints is not None:
            nodes = _node_points(spec, chunk, steps, hints[lo:lo + _NODE_CHUNK])
        for idx, (t, x), hint in zip(range(lo, lo + len(chunk)), chunk, nodes):
            if hint is None and hints is not None:
                hint = hints[idx]
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
        "records": [asdict(r) for r in report.records],
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


#: A stencil node sits at offset k * mult, k = +-1 or +-2, along one axis;
#: every offset is a power of two from the floor rung's to twice the top
#: rung's, stored at level log2|offset| - _LEVEL_LOW.
_LEVEL_LOW = round(math.log2(_HARMONICITY_FLOOR))
_LEVELS = round(math.log2(_HARMONICITY_TOP)) + 2 - _LEVEL_LOW
#: The four offsets k of a rung as (side, level above the rung's), in the
#: order the rows of _d2 take them.
_SIDES = np.array([0, 0, 1, 1])
_RAISE = np.array([1, 0, 0, 1])

#: Samples walked through the ladder together; bounds the node store.
_LADDER_CHUNK = 256


def _ladder():
    """One sample's walk over the step ladder: yields the step multiple of
    each rung it needs, is sent that rung's value (None where a node
    failed) and returns the estimate (None when no start rung has one)."""
    start = None
    for mult in (2.0, 1.0, 0.5, 0.25):
        value = yield mult
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
            value = yield mult
            if value is None:
                break
            if value < best:
                best = value
                if best < _HARMONICITY_STOP:
                    return best
            elif not grow or value >= _HARMONICITY_PLATEAU:
                break
    return best


def _harmonicity_estimate(system, centres, zs, to_chart, base_h) -> list:
    """max_a |lap omega_a| by central stencils, best over a step ladder, for
    each sample omega = ``centres[j]`` with image ``zs[j]`` and base step
    ``base_h[j]``; None for a sample where no start rung could be inverted.

    The stencil lives in chart space, centred on z: a step s along x_a is
    the step s * to_chart[:, a] in z, with to_chart = H^-1 T^T the inverse
    of the frame's linear part.  The true value is zero for an intact chart,
    so the reported number is whichever of truncation or inversion noise
    dominates locally, while a genuine defect stays O(1) at every step.
    Starting from a mid-sized step the ladder is walked outward in both
    directions, dyadically: larger steps win on near-linear charts
    (truncation vanishes, node noise is divided by a bigger h^2), smaller
    steps win where a sixth derivative is locally huge.  Growing stops at
    the first rung that fails to improve once the estimate is out of the
    noise plateau; shrinking stops at the first rise, because on that side
    node noise grows steadily as the step falls.

    The samples walk in lockstep, each by its own rules (:func:`_ladder`):
    a step gathers the nodes that the rung of every unfinished sample still
    lacks (rungs share nodes: the rung at step m uses offsets +-m and +-2m)
    and inverts them in one :func:`invert_batch` call, seeded by the last
    node solved on that sample's axis and side, scaled to the new offset,
    or by the sample where there is none, which is also the retry.  A
    node that fails stays failed, and a rung with a failed node has no
    value.  The rung values of the step are then one array expression.
    """
    centres, zs = np.asarray(centres), np.asarray(zs)
    n = len(centres)
    nodes = np.zeros((n, 3, 2, _LEVELS, 3))  # omega of each solved node, else 0
    state = np.zeros((n, 3, 2, _LEVELS), dtype=np.int8)  # 1 solved, -1 failed
    last = np.full((n, 3, 2), -1)  # level of the last node solved there

    def solve(slot):
        """Invert the unsolved nodes among ``slot``, index arrays that
        broadcast to (m, 3, 4): sample, axis, side and level."""
        need = state[slot] == 0
        pos = np.nonzero(need)
        s, a, side, lev = (np.broadcast_to(ix, need.shape)[pos] for ix in slot)
        sign = np.where(side == 1, 1.0, -1.0)
        offset = sign * np.exp2(lev + _LEVEL_LOW)
        targets = zs[s] + (offset * base_h[s])[:, None] * to_chart.T[a]
        prev = last[s, a, side]
        seeded = prev >= 0
        guesses = centres[s]
        # scale the last solved node on this axis and side: a much closer
        # Newton start than the sample itself
        ratio = offset[seeded] / (sign[seeded] * np.exp2(prev[seeded] + _LEVEL_LOW))
        guesses[seeded] += (nodes[s, a, side, prev][seeded] - guesses[seeded]) * ratio[:, None]
        omega, ok = invert_batch(system, targets, guesses)
        retry = np.flatnonzero(seeded & ~ok)
        if retry.size:
            omega[retry], ok[retry] = invert_batch(system, targets[retry], centres[s[retry]])
        nodes[s[ok], a[ok], side[ok], lev[ok]] = omega[ok]
        state[s, a, side, lev] = np.where(ok, 1, -1)
        # offsets -2m, -m, m, 2m in turn, the order of the rows of _d2
        for k in range(4):
            done = ok & (pos[2] == k)
            last[s[done], a[done], side[done]] = lev[done]

    walks = [_ladder() for _ in range(n)]
    wants = {j: next(walk) for j, walk in enumerate(walks)}
    out: list = [None] * n
    axes = np.arange(3)[None, :, None]
    while wants:
        sample = np.fromiter(wants.keys(), dtype=int)[:, None, None]
        mult = np.fromiter(wants.values(), dtype=float)[:, None, None]
        level = np.log2(mult).astype(int) - _LEVEL_LOW + _RAISE
        solve((sample, axes, _SIDES, level))
        rows = nodes[sample, axes, _SIDES, level].transpose(2, 0, 1, 3)
        d2 = _d2(rows, centres[sample[:, 0]], base_h[sample] * mult)
        lap = d2[:, 0] + d2[:, 1] + d2[:, 2]
        values = np.max(np.abs(lap), axis=1)
        solved = np.all(state[sample, axes, _SIDES, level] == 1, axis=(1, 2))
        for j, value, ok in zip(sample[:, 0, 0].tolist(), values.tolist(), solved):
            try:
                wants[j] = walks[j].send(value if ok else None)
            except StopIteration as stop:
                out[j] = stop.value
                del wants[j]
    return out


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
    harmonicity of each coordinate (finite differences), and the metric
    against the gradients (``colnorm``: max_a |R_a^2 |grad omega_a|^2 - 1|,
    the metric the potentials divide by against the inverse of the
    embedded Jacobian T H J).  Violations are data, not errors.  Positions,
    gradients, metric and stencil targets come from the frame evaluated
    once, at t, and one chart map per sample, and the Stackel rows from one
    call for all samples.  Harmonicity, the only
    finite-difference channel, is reported only where the singular values
    1 / |grad omega_a| of T H J lie in the window the stencil resolves;
    the samples that pass walk the step ladder together, a chunk at a
    time, so its Newton inversions are batched across samples.
    """
    per_sample = []
    gated = []
    samples = sample_domain(system, seed=seed, n=n_samples)
    hx = DEFAULT_STEPS[1]
    rot = rotation_matrix(frame, t)
    scales = frame.scales(t)
    h = np.array(scales)
    w = frame.translation(t)
    to_chart = rot.T / h[:, None]
    T = t_functions(system, frame, t)
    rows = stackel_values(system, samples)
    for idx, (omega, F) in enumerate(zip(samples, rows)):
        z, J = _chart_map(system, omega)
        z = np.array(z)
        x = rot @ (h * z) + w
        records = []
        per_sample.append(records)

        require_compatible(system, frame)
        grads = _gradients(system, t, omega, _guarded_jacobian(system, omega, J), rot, h)
        norms = np.linalg.norm(grads, axis=1)
        worst_dot = max(
            abs(float(grads[i] @ grads[j])) / (norms[i] * norms[j])
            for i, j in ((0, 1), (0, 2), (1, 2))
        )
        records.append(_record(idx, "orthogonality", t, x, worst_dot, 1.0))

        g2 = norms**2
        worst_rel = 0.0
        for j in range(3):
            terms = [F[i][j] * g2[i] for i in range(3)]
            scale = max(abs(T[j]), max(abs(v) for v in terms), 1.0)
            worst_rel = max(worst_rel, abs(sum(terms) - T[j]) / scale)
        records.append(_record(idx, "stackel", t, x, worst_rel, 1.0))

        R2 = _r_squared(system, t, omega, J, scales)
        worst_col = max(abs(R2[a] * g2[a] - 1.0) for a in range(3))
        records.append(_record(idx, "colnorm", t, x, worst_col, 1.0))

        sigma = 1.0 / norms
        if HARMONICITY_SIGMA_MIN <= sigma.min() and sigma.max() <= HARMONICITY_SIGMA_MAX:
            gated.append((idx, omega, z, x, hx * (1.0 + float(np.linalg.norm(x)))))

    for lo in range(0, len(gated), _LADDER_CHUNK):
        chunk = gated[lo:lo + _LADDER_CHUNK]
        idxs, centres, zs, xs, base_h = zip(*chunk)
        values = _harmonicity_estimate(system, centres, zs, to_chart, np.array(base_h))
        for idx, x, value in zip(idxs, xs, values):
            if value is not None:
                per_sample[idx].append(_record(idx, "harmonicity", t, x, value, 1.0))

    return ResidualReport(
        tuple(r for records in per_sample for r in records), ht=DEFAULT_STEPS[0], hx=hx)
