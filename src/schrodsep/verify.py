"""Independent residual checks for reconstructed fields.

Nothing here knows how a field was produced.  A field is a callable
``field(t, x, omega_hint) -> value``; the engines differentiate it with
fourth-order central stencils and combine the derivatives with
analytically evaluated potentials, so a separated solution is confirmed
against the governing equation through a route it never touched.

A residual sample is a finite time t and a position x of three finite
numbers, with a Newton start for the chart point of x (three numbers, or
None for none) and the stencil steps (two finite positive numbers, scaled
by the local coordinate magnitude).  One check (:func:`_samples`) refuses a malformed
sample with :class:`ConfigurationError` before any field call; a report
names its index.  Every sample then goes through one node solve
(:func:`_node_points`), so a residual given a start equals the report's
record bit for bit.  That solve builds the node positions of a chunk of
samples in one array, inverts the centres in one batched Newton call
seeded by the starts, then every node in another seeded by its centre,
which keeps every evaluation on the centre's branch.  Each field call is
handed its own node's point, so its own inversion starts at the
solution.  The field is called at the four time offsets first and then
at the nodes at the sample's time, and a frame keeps its reading of the
last time, so the frame's profiles are read once at each of a stencil's
five times, however many calls and potentials use them.

A report (:class:`ResidualReport`) holds one array per field; its
summaries are array expressions, its CSV and JSON writers format the
arrays, and its ``records`` are derived from them on first use.

The geometry audit inverts nothing, and its columns come from arrays
over the whole sample stack.  Its harmonicity channel takes the
divergence form of the Laplacian in chart coordinates, which needs only
first derivatives of the chart's own map and Jacobian, taken by central
differences over chart points that one array call of the map evaluates;
the same differences of the map check its analytic Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .coords import (
    _adjugate,
    _det3,
    _near_singular_array,
    _norm,
    invert,
    invert_batch,
    sample_domain,
)
from .errors import ConfigurationError, NumericError, StencilError, check_count, check_range
from .frame import (
    _gradients,
    _placement,
    _to_chart,
    embed,
    omega_gradients,
    require_compatible,
    rotation_matrix,
    unembed,
)
from .potential import PotentialSpec, vector_divergence, vector_potential
from .stackel import _r_squared, metric_r_squared, stackel_values, t_functions

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
    return steps[0] * (1.0 + abs(t)), steps[1] * (1.0 + _norm(x))


def _samples(points, starts, steps) -> tuple[list, list, tuple[float, float]]:
    """Residual samples as the engines take them, or :class:`ConfigurationError`
    before any field call: each (t, x) as a finite float and a finite float
    array of three, one Newton start per sample as None or a float array of
    three (``starts`` None for none at all), and the steps as two finite
    positive floats.  A sample's error names its index (0 for a residual's
    own); a start need not be finite."""
    try:
        ht, hx = map(float, steps)
    except (TypeError, ValueError, OverflowError):
        ht = hx = math.nan
    if not (0.0 < ht < math.inf and 0.0 < hx < math.inf):
        raise ConfigurationError(f"steps must be two finite positive numbers, got {steps!r}")
    points = list(points)
    starts = [None] * len(points) if starts is None else list(starts)
    if len(starts) != len(points):
        raise ConfigurationError(f"{len(starts)} hints for {len(points)} points: one per point")
    for j, (point, start) in enumerate(zip(points, starts)):
        try:
            t, x = point
            t, x = float(t), np.asarray(x, dtype=float)
            start = start if start is None else np.asarray(start, dtype=float)
        except (TypeError, ValueError, OverflowError):
            x = None
        if (x is None or x.shape != (3,) or not (math.isfinite(t) and np.isfinite(x).all())
                or not (start is None or start.shape == (3,))):
            raise ConfigurationError(
                f"sample {j}: needs (t, x) with t a finite number and x three finite numbers, "
                "and a Newton start of three numbers or None")
        points[j], starts[j] = (t, x), start
    return points, starts, (ht, hx)


class _Stencil(NamedTuple):
    """A sample's stencil: the time and space steps, the five distinct times
    (centre's first, the sample's t), the positions of the ``_NODES`` nodes
    in stencil order (the centre's is the sample's x), the Newton start for
    the centre's chart point, and the nodes' chart points in stencil order,
    None unless :func:`_node_points` solved every node."""

    ht: float
    hx: float
    times: list
    nodes: np.ndarray
    start: object
    points: np.ndarray | None


def _stencil(field, spec: PotentialSpec, t: float, x, steps, omega_hint, centre: bool):
    """The set-up the SE and HJ residuals share: the sample's t and x, the
    chart point of x (None without a start), the spatial step, the field at
    the centre (None unless ``centre``), its time derivative and its three
    spatial rows.  The field is called once at each node of
    :func:`_stencil_nodes` (the centre only with ``centre``), in
    ``_CALL_ORDER``; its values are listed in stencil order.

    ``omega_hint`` is a Newton start for the chart point of x (None for
    none), checked with the sample by :func:`_samples` and solved by a
    one-sample :func:`_node_points`, or the :class:`_Stencil` a report
    hands in.  A stencil with chart points hands each field call its own
    node's point; one without has its centre inverted alone from its start,
    here, at the sample's own turn, and every node takes that point."""
    stencil = omega_hint
    if not isinstance(stencil, _Stencil):
        points, starts, steps = _samples([(t, x)], [omega_hint], steps)
        stencil = _node_points(spec, points, steps, starts)[0]
    ht, hx, times, nodes, start, hints = stencil
    t, x = times[0], nodes[0]
    if hints is None:
        point = None if start is None else invert(spec.system, unembed(spec.frame, t, x), start)
        hints = [point] * _NODES
    values = [None] * _NODES
    for k in _CALL_ORDER:
        if k or centre:
            values[k] = _guard(field, times[_TIME_COLUMN[k]], nodes[k], hints[k])
    rows = [values[axis] for axis in _AXIS_ROWS]
    return t, x, hints[0], hx, values[0], _d1(values[_TIME_ROW], ht), rows


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

    ``omega_hint`` is a Newton start for the chart point of x (None for
    none) or the stencil a report hands in (:func:`_stencil`); a malformed
    sample raises :class:`ConfigurationError` (:func:`_samples`).  The
    operator, fully expanded:

        i psi_t - e A0 psi + lap psi + i e (div A) psi
                + 2 i e (A . grad psi) - e^2 |A|^2 psi
    """
    t, x, hint, hx, psi0, psi_t, rows = _stencil(field, spec, t, x, steps, omega_hint, centre=True)
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
    and the errors of a malformed sample as in :func:`se_residual_with_scale`."""
    t, x, hint, hx, _, u_t, rows = _stencil(action, spec, t, x, steps, omega_hint, centre=False)
    grad = np.array([_d1(row, hx) for row in rows], dtype=float)

    e = spec.e_charge
    a0, avec = vector_potential(spec, t, x, omega_hint=hint)
    kinetic = float(np.sum((grad + e * avec) ** 2))
    return _residual((float(u_t), e * a0, kinetic))


# ---------------------------------------------------------------------------
# Reports


class PointRecord(NamedTuple):
    """One channel's value at one sample, a row of a :class:`ResidualReport`."""

    index: int
    channel: str
    t: float
    x: tuple[float, float, float]
    residual: float
    scale: float
    relative: float


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """One row per channel per sample, held as read-only columns (x of shape
    (n, 3)), and the stencil steps; ``records`` is the rows as
    :class:`PointRecord` tuples of Python values, derived on first use and kept."""

    index: np.ndarray
    channel: np.ndarray
    t: np.ndarray
    x: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    relative: np.ndarray
    ht: float
    hx: float

    def __post_init__(self):
        for name in PointRecord._fields:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.relative)

    def _rows(self):
        """The records' fields as Python numbers, strings and x tuples, row by row."""
        return zip(self.index.tolist(), self.channel.tolist(), self.t.tolist(),
                   map(tuple, self.x.tolist()), self.residual.tolist(), self.scale.tolist(),
                   self.relative.tolist())

    @cached_property
    def records(self) -> tuple[PointRecord, ...]:
        return tuple(map(PointRecord._make, self._rows()))

    @property
    def max_relative(self) -> float:
        return float(np.max(self.relative, initial=0.0))

    @property
    def mean_relative(self) -> float:
        # Python's left-to-right sum: numpy's pairwise sum moves the last bits
        return sum(self.relative.tolist()) / len(self) if len(self) else 0.0


def channel_max(report: ResidualReport, channel: str) -> float:
    return float(np.max(report.relative[report.channel == channel], initial=0.0))


#: Samples of a report whose stencil nodes are solved together; bounds the
#: node arrays of a long report.
_NODE_CHUNK = 256


def _node_points(spec: PotentialSpec, points, steps, hints) -> list:
    """The :class:`_Stencil` of each sample (t, x) with the Newton start
    ``hints[j]``, for samples and steps that :func:`_samples` has checked.

    The nodes of all samples come from one :func:`_stencil_nodes` call.
    Those of the samples whose start is finite are mapped to
    chart space in one array pass that reads the frame once at each
    distinct time; the centres are inverted in one :func:`invert_batch`
    call seeded by the starts, then the other nodes in one more, each
    seeded by its centre's point.  A sample whose nodes are not all solved
    has no chart points, and :func:`_stencil` inverts its centre alone
    (solved alone, its rows would fail again); so does every sample when
    the frame cannot be read at one of the times, so that the error is
    raised at the sample it belongs to.
    """
    ts = np.array([t for t, _ in points], dtype=float)
    xs = np.array([x for _, x in points], dtype=float)
    starts = np.array([(math.nan,) * 3 if s is None else s for s in hints], dtype=float)
    with np.errstate(over="ignore"):  # an x near the float limit has an infinite step
        ht, hx = np.array([_steps_at(t, x, steps) for t, x in zip(ts.tolist(), xs)]).T
    times, nodes = _stencil_nodes(ts, xs, ht, hx)
    live = np.flatnonzero(np.isfinite(starts).all(axis=1))
    chart = [None] * len(points)
    try:
        placement = _placement(spec.frame, times[live]) if live.size else None
    except Exception:  # a profile may raise anything; the sample's own turn raises it
        placement = None
    if placement is not None:
        r0, r1, r2, w, h = ([np.broadcast_to(v, (live.size, 5))[:, _TIME_COLUMN] for v in part]
                            for part in (*placement[0], *placement[1:]))  # per node
        with np.errstate(all="ignore"):  # a node whose target is not finite fails its inversion
            z = np.stack(_to_chart((r0, r1, r2), w, h, nodes[live].transpose(2, 0, 1)), axis=-1)
        centres, ok = invert_batch(spec.system, z[:, 0], starts[live])
        solved = np.flatnonzero(ok)
        if solved.size:
            others, good = invert_batch(spec.system, z[solved, 1:].reshape(-1, 3),
                                        np.repeat(centres[solved], _NODES - 1, axis=0))
            others = others.reshape(-1, _NODES - 1, 3)
            for k in np.flatnonzero(good.reshape(-1, _NODES - 1).all(axis=1)):
                chart[live[solved[k]]] = np.concatenate((centres[solved[k]:solved[k] + 1], others[k]))
    return [_Stencil(*s) for s in zip(ht.tolist(), hx.tolist(), times.tolist(), nodes, hints, chart)]


def _report(residual_with_scale, channel, field, spec, points, steps, hints) -> ResidualReport:
    """One row per sample, in order.  ``hints`` holds a Newton start for
    the chart point of each sample (None for none), or is None for no
    starts at all.  Every sample is checked first (:func:`_samples`), so a
    malformed one, or a ``hints`` of another length than ``points``, raises
    :class:`ConfigurationError` before any field call.  The stencil nodes
    of ``_NODE_CHUNK`` samples at a time are then solved together
    (:func:`_node_points`), and each sample is handed its :class:`_Stencil`.
    A non-finite residual or scale raises :class:`NumericError` at its
    sample; the scale comes floored at ``SCALE_FLOOR`` from
    :func:`_residual`."""
    points, hints, steps = _samples(points, hints, steps)
    residuals, scales = [], []
    for lo in range(0, len(points), _NODE_CHUNK):
        chunk = points[lo:lo + _NODE_CHUNK]
        stencils = _node_points(spec, chunk, steps, hints[lo:lo + _NODE_CHUNK])
        for idx, ((t, x), stencil) in enumerate(zip(chunk, stencils, strict=True), lo):
            res, scale = residual_with_scale(field, spec, t, x, steps, stencil)
            res = abs(res)
            if not (math.isfinite(res) and math.isfinite(scale)):
                raise NumericError(f"{channel} sample {idx} at t={t!r}: non-finite residual "
                                   f"{float(res)!r} or scale {float(scale)!r}")
            residuals.append(float(res))
            scales.append(float(scale))
    residual, scale = np.array(residuals), np.array(scales)
    return ResidualReport(
        np.arange(len(points)), np.full(len(points), channel), np.array([t for t, _ in points]),
        np.array([x for _, x in points]).reshape(-1, 3), residual, scale, residual / scale, *steps)


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


def csv_rows(report: ResidualReport):
    """Each row's index, channel and its t, x1, x2, x3, residual, scale and
    relative as CSV text, every number by its ``repr``."""
    for index, channel, t, x, *values in report._rows():
        yield index, channel, ",".join(map(repr, (t, *x, *values)))


def report_to_csv(report: ResidualReport, dest: TextIO) -> None:
    dest.write("index,channel,t,x1,x2,x3,residual,scale,relative\n")
    for index, channel, numbers in csv_rows(report):
        dest.write(f"{index},{channel},{numbers}\n")


def report_to_dict(report: ResidualReport) -> dict:
    return {
        "steps": {"ht": report.ht, "hx": report.hx},
        "summary": {
            "count": len(report),
            "max_relative": report.max_relative,
            "mean_relative": report.mean_relative,
        },
        "records": [dict(zip(PointRecord._fields, row)) for row in report._rows()],
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
    is finite, with a finite span, and nonempty, and unless n and the seed
    are integers >= 0.
    """
    n, seed = check_count("sample count", n), check_count("seed", seed)
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


#: The channels of :func:`geometry_audit`, in the order of a sample's records.
AUDIT_CHANNELS = ("orthogonality", "stackel", "colnorm", "harmonicity")

#: Relative step of the chart-space differences of :func:`_harmonicity`.
_CHART_STEP = 1e-3
#: The step multiples of a chart stencil, one row per node: the centre,
#: then the four offsets along each chart axis in turn.
_CHART_NODES = np.delete(_MULTIPLES, _TIME_ROW, axis=0)[:, 1:]
_AXES = np.arange(3)

#: Samples whose chart stencils are evaluated together; bounds the stacks.
_AUDIT_CHUNK = 1024


def _dot(u, v):
    """u . v over the first axis of two stacks of 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _harmonicity(system, h, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chart map z (3, n) and Jacobian J (3, 3, n) at each sample of
    omega (n, 3), the centre of its chart stencil, and its harmonicity
    value under the frame scales h: the larger of max_a |lap omega_a| and
    max_b |J_b - dz/domega_b| / |J_b|, the defect of each column of the
    chart's Jacobian against differences of its map.

    With E = T H J = dx/domega, sqrt g = |det E| and M = sqrt g E^-1 E^-T,
    lap omega_a = (1 / sqrt g) sum_b d_b M^ab (the divergence form of the
    Laplacian in curvilinear coordinates).  The rotation T cancels from M,
    so M^ab = A_a . A_b / sqrt g with A_a the rows of the adjugate of H J.
    The d_b are fourth-order central differences over the 13
    chart points of ``_CHART_NODES``, from one chart map call, with step
    ``_CHART_STEP`` * min(1 + |omega_b|, distance to a singular end of axis
    b), so that no node crosses a singular end.  Every component, axis and
    sample is one element of the same array expressions, so a sample's
    value does not depend on the others.
    """
    lo, hi = np.array([
        (ax.lo if ax.singular_lo else -math.inf, ax.hi if ax.singular_hi else math.inf)
        for ax in system.domain]).T
    steps = (_CHART_STEP * np.minimum(1.0 + np.abs(omega), np.minimum(omega - lo, hi - omega))).T
    nodes = omega.T[:, None, :] + steps[:, None, :] * _CHART_NODES.T[:, :, None]
    z, J = system.chart.array_map(system, *nodes)  # (3, 13, n) and (3, 3, 13, n)
    E = h[:, None, None, None] * J
    adj = _adjugate(E)
    root_g = np.abs(_det3(E))  # (13, n)
    # adj[a, i] at the four nodes along each axis b (3, 3, 3, 4, n); M^ab
    # there (a, b, 4, n) and its difference d_b M^ab (a, b, n)
    along = adj[:, :, 1:].reshape(3, 3, 3, 4, -1)
    m = _dot(along.swapaxes(0, 1), along[_AXES, :, _AXES].swapaxes(0, 1))
    d_m = _d1((m / root_g[1:].reshape(3, 4, -1)).transpose(2, 0, 1, 3), steps)
    lap = np.abs(d_m[:, 0] + d_m[:, 1] + d_m[:, 2]) / root_g[0]
    column = J[:, :, 0]  # (3, b, n)
    miss = column - _d1(z[:, 1:].reshape(3, 3, 4, -1).transpose(2, 0, 1, 3), steps)
    value = np.max(np.concatenate((np.sqrt(_dot(miss, miss) / _dot(column, column)), lap)), axis=0)
    return z[:, 0], column, value


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


def geometry_audit(system, frame, t: float, n_samples: int, seed: int) -> ResidualReport:
    """Audit the chart-frame pairing on random interior samples.

    The channels of ``AUDIT_CHANNELS``, one record each per sample in that
    order: gradient orthogonality, the defining relation between the
    coefficient table and the time functions, the metric against the
    gradients (``colnorm``: max_a |R_a^2 |grad omega_a|^2 - 1|, the metric
    the potentials divide by against the inverse of the embedded Jacobian
    T H J), and harmonicity (:func:`_harmonicity`, differences in chart
    space, no inversion).  Violations are data, not errors.  The frame is
    read once, at t; every channel is an array expression over the whole
    sample stack, from one chart map call over the samples' chart stencils
    (``_AUDIT_CHUNK`` samples at a time), whose centres give the map and
    Jacobian at the samples, and one call for the Stackel rows, and the
    report's columns are the (n, 4) channel array read row by row.  The first
    sample the stack flags (a chart map that overflows, a guard that
    fails, a channel that is not finite) raises the typed error of
    :func:`omega_gradients` or :func:`metric_r_squared` at it, or, if both
    pass, a :class:`NumericError` naming it.
    """
    require_compatible(system, frame)
    samples = sample_domain(system, seed=seed, n=n_samples)
    rot = rotation_matrix(frame, t)
    scales = frame.scales(t)
    h = np.array(scales)
    w = frame.translation(t)
    T = np.array(t_functions(system, frame, t))
    F = stackel_values(system, samples)  # raises the domain error of the first sample outside

    n = len(samples)
    z, J, harmonic = np.empty((3, n)), np.empty((3, 3, n)), np.empty(n)  # J[a, i] = dz_a/domega_i
    with np.errstate(all="ignore"):  # an overflow is flagged below
        for lo in range(0, n, _AUDIT_CHUNK):
            chunk = slice(lo, lo + _AUDIT_CHUNK)
            z[:, chunk], J[..., chunk], harmonic[chunk] = _harmonicity(system, h, samples[chunk])
        z = np.ascontiguousarray(z.T)
        x = (h * z) @ rot.T + w
        grads = _gradients(system, t, samples, J.transpose(2, 0, 1), rot, h)
        norms = np.linalg.norm(grads, axis=-1)
        g2 = norms**2
        channels = np.column_stack((
            _orthogonality(grads, norms),
            _stackel_defect(F, T, g2),
            _colnorm(_r_squared(system, t, samples, J, scales), g2),
            harmonic,
        ))  # (n, 4) in AUDIT_CHANNELS order
        flagged = ~(
            np.isfinite(z).all(axis=1)
            & np.isfinite(J).all(axis=(0, 1))
            & ~_near_singular_array(J, _det3(J))
            & np.isfinite(channels).all(axis=1)
        )
    if flagged.any():
        idx = int(np.argmax(flagged))
        omega_gradients(system, frame, t, samples[idx])
        metric_r_squared(system, frame, t, samples[idx])
        values = dict(zip(AUDIT_CHANNELS, channels[idx].tolist()))
        raise NumericError(
            f"audit sample {idx} at t={float(t)!r}: the stack flags it (channels {values}) "
            "where the point checks pass")
    size, values = channels.size, channels.ravel()
    return ResidualReport(
        np.repeat(np.arange(n), len(AUDIT_CHANNELS)), np.tile(AUDIT_CHANNELS, n),
        np.full(size, float(t)), np.repeat(x, len(AUDIT_CHANNELS), axis=0), values,
        np.ones(size), values, *DEFAULT_STEPS)
