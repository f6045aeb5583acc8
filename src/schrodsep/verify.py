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
starts at the solution: every call still maps its own node to chart space.
The field is called at the four time offsets first and then at the nodes
at the sample's time, and a frame keeps its reading of the last time, so
the frame's profiles are read once at each of a stencil's five times,
however many calls and potentials use them.  The per-sample residuals,
given one chart point, solve that sample's nodes the same way, so they
equal the reports' records bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .coords import (
    _chart_map,
    _det3,
    _guarded_jacobian,
    _near_singular_array,
    _norm,
    invert,
    invert_batch,
    sample_domain,
)
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

#: The step multiples of the nodes, one row each in stencil order: column 0
#: counts time steps, column 1 + a spatial steps along axis a.
_MULTIPLES = np.vstack((np.zeros(4), np.kron(np.eye(4), np.array(_OFFSETS)[:, None])))
#: (node, axis) of each spatial step and its multiple; the nodes of the time
#: derivative and of each axis's row; the column of each node's time among
#: a sample's five distinct times (the centre's, then its four offsets).
_MOVED = np.nonzero(_MULTIPLES[:, 1:])
_MOVED_BY = _MULTIPLES[:, 1:][_MOVED]
_TIME_ROW = slice(1, 5)
_AXIS_ROWS = tuple(slice(5 + 4 * axis, 9 + 4 * axis) for axis in range(3))
_TIME_COLUMN = (0, 1, 2, 3, 4) + (0,) * 12
#: The order of a stencil's field calls: the four time offsets, then the
#: nodes at the sample's time, the centre first.  The frame keeps its last
#: reading, so it is read once at each of the five times, and the
#: potentials at t after the calls read nothing.
_CALL_ORDER = (1, 2, 3, 4, 0, *range(5, _NODES))


def _stencil_nodes(t, x, ht, hx) -> tuple[np.ndarray, np.ndarray]:
    """The five distinct times, centre's first, and the ``_NODES`` positions
    of the stencils around samples (t, x) with steps ht and hx: t, ht and hx
    floats or arrays of one shape S, x of shape S + (3,), the answers of
    shapes S + (5,) and S + (17, 3).  Off its axis a node keeps the sample's
    bits (-0.0 and non-finite values included)."""
    t, ht, hx = (np.asarray(v, dtype=float)[..., None] for v in (t, ht, hx))
    times = np.concatenate((t, t + ht * _MULTIPLES[_TIME_ROW, 0]), axis=-1)
    nodes = np.repeat(np.asarray(x, dtype=float)[..., None, :], _NODES, axis=-2)
    nodes[(..., *_MOVED)] += hx * _MOVED_BY
    return times, nodes


def _steps_at(t: float, x: np.ndarray, steps) -> tuple[float, float]:
    """The time and space steps of the stencil around (t, x)."""
    return float(steps[0]) * (1.0 + abs(t)), float(steps[1]) * (1.0 + _norm(x))


def _stencil(field, spec: PotentialSpec, t: float, x, steps, omega_hint, centre: bool):
    """The set-up the SE and HJ residuals share: the chart point of x (None
    without ``omega_hint``), the spatial step, the field at the centre (None
    unless ``centre``), its time derivative and its three spatial rows.
    The field is called once at each node of :func:`_stencil_nodes` (the
    centre only with ``centre``), in ``_CALL_ORDER``; its values are listed
    in stencil order, and the rest are slices of that list.

    ``omega_hint`` is the chart points of all ``_NODES`` nodes in stencil
    order (:func:`_node_points`), each handed to the field at its own node,
    or a start for the centre's point, from which the nodes are solved as
    the reports solve them.  A sample whose nodes :func:`_node_points`
    does not give has them from :func:`_centre_hints`."""
    x = np.asarray(x, dtype=float)
    ht, hx = _steps_at(t, x, steps)
    if omega_hint is None:
        hints = [None] * _NODES
    elif np.ndim(omega_hint) == 2:
        hints = omega_hint
    else:
        hints = _node_points(spec, [(t, x)], steps, [omega_hint])[0]
        if not isinstance(hints, np.ndarray):
            hints = _centre_hints(spec, t, x, omega_hint)
    times, nodes = _stencil_nodes(t, x, ht, hx)
    times = times.tolist()
    values = [None] * _NODES
    for k in _CALL_ORDER:
        if k or centre:
            values[k] = _guard(field, times[_TIME_COLUMN[k]], nodes[k], hints[k])
    rows = [values[axis] for axis in _AXIS_ROWS]
    return hints[0], hx, values[0], _d1(values[_TIME_ROW], ht), rows


def _centre_hints(spec: PotentialSpec, t: float, x, start) -> list:
    """The node hints of a sample whose nodes are not solved together: its
    centre inverted on its own from ``start``, whose point every node takes."""
    return [invert(spec.system, unembed(spec.frame, t, x), start)] * _NODES


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
    h = hx * (1.0 + _norm(x))
    nodes = _stencil_nodes(0.0, x, 0.0, h)[1]
    psi0 = psi(x)
    grad = np.zeros(3, dtype=complex)
    lap = 0.0 + 0.0j
    div_a = 0.0
    for axis, rows in enumerate(_AXIS_ROWS):
        row = [psi(p) for p in nodes[rows]]
        grad[axis] = _d1(row, h)
        lap += _d2(row, psi0, h)
        div_a += _d1([a_field(p)[axis] for p in nodes[rows]], h)

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


class PointRecord(NamedTuple):
    """One channel's value at one sample; built by :func:`_record`, which
    refuses a non-finite residual or scale and floors the scale."""

    index: int
    channel: str
    t: float
    x: tuple[float, float, float]
    residual: float
    scale: float
    relative: float


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
        x=tuple(map(float, x)),
        residual=float(residual),
        scale=scale,
        relative=float(residual / scale),
    )


#: Samples of a report whose stencil nodes are solved together; bounds the
#: node arrays of a long report.
_NODE_CHUNK = 256


def _node_points(spec: PotentialSpec, points, steps, hints) -> list:
    """The chart points of the ``_NODES`` stencil nodes of each sample
    (t, x) with chart point ``hints[j]``, as an array in stencil order;
    False for a sample whose nodes the batch inversion did not all solve,
    and None for one that it did not try.  A False sample takes
    :func:`_centre_hints` (solved alone, its rows would fail again), and
    a None sample the per-sample path of :func:`_stencil`.

    The nodes come from :func:`_stencil_nodes`, as those of
    :func:`_stencil` do, and are mapped to chart space in one array pass
    that reads the frame once at each distinct time.  The centres are
    inverted in one :func:`invert_batch` call seeded by the hints, then
    the other nodes in one more, each seeded by its centre's point.  A
    sample is not tried when its point or hint is not three finite
    numbers; no sample is when the frame cannot be read at one of the
    times, so that the per-sample path raises that error at the sample it
    belongs to.
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
    ht, hx = np.array([_steps_at(*tx, steps) for tx in zip(ts, xs)]).T
    times, nodes = _stencil_nodes(np.array(ts), np.array(xs), ht, hx)
    try:
        rows, w, h = _placement(spec.frame, times)
    except Exception:  # a profile may raise anything; the per-sample path raises it in turn
        return out
    for j in live:
        out[j] = False

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
    (:func:`_node_points`) and each sample gets its nodes' points, the
    hints of its centre where the batch failed, or its hint where the
    batch did not try it."""
    records = []
    points = list(points)
    for lo in range(0, len(points), _NODE_CHUNK):
        chunk = points[lo:lo + _NODE_CHUNK]
        nodes = [None] * len(chunk)
        if hints is not None:
            nodes = _node_points(spec, chunk, steps, hints[lo:lo + _NODE_CHUNK])
        for idx, (t, x), hint in zip(range(lo, lo + len(chunk)), chunk, nodes):
            if hint is False:
                hint = _centre_hints(spec, t, x, hints[idx])
            elif hint is None and hints is not None:
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
        "records": [r._asdict() for r in report.records],
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
_SIDES = (np.array(_OFFSETS) > 0.0).astype(int)
_RAISE = np.log2(np.abs(_OFFSETS)).astype(int)

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


#: The gradient pairs the orthogonality channel compares.
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _orthogonality(grads, norms):
    """max over pairs i < j of |grad_i . grad_j| / (|grad_i| |grad_j|), for
    the gradient rows of one sample (3, 3) or of a stack (n, 3, 3)."""
    return np.max([
        np.abs(np.sum(grads[..., i, :] * grads[..., j, :], axis=-1)) / (norms[..., i] * norms[..., j])
        for i, j in _PAIRS
    ], axis=0)


def _stackel_defect(F, T, g2):
    """max_j |sum_i F_ij |grad omega_i|^2 - T_j| / max(|T_j|, max_i |F_ij g2_i|, 1)
    for one sample (F 3x3) or a stack (n, 3, 3)."""
    terms = F * g2[..., :, None]
    scale = np.maximum(np.maximum(np.abs(T), np.max(np.abs(terms), axis=-2)), 1.0)
    lhs = terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]
    return np.max(np.abs(lhs - T) / scale, axis=-1)


def _colnorm(R2, g2):
    """max_a |R_a^2 |grad omega_a|^2 - 1| for one sample or a stack."""
    return np.max(np.abs(np.stack(R2, axis=-1) * g2 - 1.0), axis=-1)


def _audit_point(system, t, idx, omega, F, T, rot, h, w, scales):
    """The chart point z, position x, gradient norms and analytic records
    of sample ``idx`` by the point bodies, whose checks raise in the order
    the records need them: domain and overflow of the chart map, the
    Jacobian guard, the embedded guard, a non-finite orthogonality or
    Stackel value, the metric guard, a non-finite colnorm."""
    z, J = _chart_map(system, omega)
    z = np.array(z)
    x = rot @ (h * z) + w
    grads = _gradients(system, t, omega, _guarded_jacobian(system, omega, J), rot, h)
    norms = np.linalg.norm(grads, axis=-1)
    g2 = norms**2
    records = [
        _record(idx, "orthogonality", t, x, _orthogonality(grads, norms), 1.0),
        _record(idx, "stackel", t, x, _stackel_defect(F, T, g2), 1.0),
    ]
    R2 = _r_squared(system, t, omega, J, scales)
    records.append(_record(idx, "colnorm", t, x, _colnorm(R2, g2), 1.0))
    return z, x, norms, records


def geometry_audit(system, frame, t: float, n_samples: int, seed: int) -> ResidualReport:
    """Audit the chart-frame pairing on random interior samples.

    Four channels per sample: gradient orthogonality, the defining
    relation between the coefficient table and the time functions, the
    harmonicity of each coordinate (finite differences), and the metric
    against the gradients (``colnorm``: max_a |R_a^2 |grad omega_a|^2 - 1|,
    the metric the potentials divide by against the inverse of the
    embedded Jacobian T H J).  Violations are data, not errors.  The frame
    is read once, at t; positions, Jacobians, gradients, metric and the
    three analytic channels are array expressions over the whole sample
    stack, from one chart map call, and the Stackel rows come from one
    call for all samples.  A sample the stack flags (a chart map that
    overflows, a guard that fails, a channel that is not finite) is
    evaluated again by the point bodies, first flagged first, so it raises
    the typed error of the per-point checks or, if they pass after all,
    keeps their values.  Harmonicity, the only finite-difference channel,
    is reported only where the singular values 1 / |grad omega_a| of T H J
    lie in the window the stencil resolves; the samples that pass walk the
    step ladder together, a chunk at a time, so its Newton inversions are
    batched across samples.
    """
    require_compatible(system, frame)
    samples = sample_domain(system, seed=seed, n=n_samples)
    hx = DEFAULT_STEPS[1]
    rot = rotation_matrix(frame, t)
    scales = frame.scales(t)
    h = np.array(scales)
    w = frame.translation(t)
    to_chart = rot.T / h[:, None]
    T = np.array(t_functions(system, frame, t))
    F = stackel_values(system, samples)  # raises the domain error of the first sample outside

    n = len(samples)
    with np.errstate(all="ignore"):  # an overflow is flagged below
        z, J = system.chart.array_map(system, *samples.T)  # J[a, i] = d z_a / d omega_i
        z = np.ascontiguousarray(z.T)
        x = (h * z) @ rot.T + w
        grads = _gradients(system, t, samples, J.transpose(2, 0, 1), rot, h)
        norms = np.linalg.norm(grads, axis=-1)
        g2 = norms**2
        channels = np.array([
            _orthogonality(grads, norms),
            _stackel_defect(F, T, g2),
            _colnorm(_r_squared(system, t, samples, J, scales), g2),
        ]).T  # (n, 3)
        flagged = ~(
            np.isfinite(z).all(axis=1)
            & np.isfinite(J).all(axis=(0, 1))
            & ~_near_singular_array(J, _det3(J))
            & np.isfinite(channels).all(axis=1)
        )

    per_sample = [None] * n
    for idx in np.flatnonzero(flagged).tolist():
        z[idx], x[idx], norms[idx], per_sample[idx] = _audit_point(
            system, t, idx, samples[idx], F[idx], T, rot, h, w, scales)
    for idx, (xi, values) in enumerate(zip(x.tolist(), channels.tolist())):
        if per_sample[idx] is None:
            per_sample[idx] = [
                _record(idx, name, t, xi, value, 1.0)
                for name, value in zip(("orthogonality", "stackel", "colnorm"), values)
            ]

    sigma = 1.0 / norms
    gated = np.flatnonzero(
        (HARMONICITY_SIGMA_MIN <= sigma.min(axis=1)) & (sigma.max(axis=1) <= HARMONICITY_SIGMA_MAX))
    base_h = hx * (1.0 + np.linalg.norm(x, axis=1))
    for lo in range(0, len(gated), _LADDER_CHUNK):
        idxs = gated[lo:lo + _LADDER_CHUNK]
        values = _harmonicity_estimate(system, samples[idxs], z[idxs], to_chart, base_h[idxs])
        for idx, value in zip(idxs.tolist(), values):
            if value is not None:
                per_sample[idx].append(_record(idx, "harmonicity", t, x[idx], value, 1.0))

    return ResidualReport(
        tuple(r for records in per_sample for r in records), ht=DEFAULT_STEPS[0], hx=hx)
