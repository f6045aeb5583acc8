"""Reduction to ordinary differential equations and solution assembly.

A separable problem turns into four ODEs: one first-order equation in
time whose solution is a pure quadrature, and three decoupled
second-order equations, one per coordinate.  This module integrates
them with numpy alone: the time integral and the square roots of the
action by one rule, five-point Gauss-Lobatto cells checked against
Simpson's rule, where a cell that fails its check bisects itself, and
the spatial equations by a fourth-order Magnus propagator whose steps
are the half cells of a uniform grid.  It stores every spatial factor
as a quintic Hermite table of its values, slopes and phi'' = c phi, and
the time factor as a cubic one of its logarithm, each on the coarsest
uniform grid that meets its budgets, and reassembles the wavefunction

    psi(t, x) = Q * phi0(t) * phi1(omega1) * phi2(omega2) * phi3(omega3)

with Q = 1 for the magnetic and coulomb families and Q = exp(iS) for
the electrostatic one.  The Hamilton-Jacobi counterpart replaces the
product by a sum and the second-order equations by signed square-root
quadratures, whose terms are cubic Hermite tables at ``NODE_SPACING``.

Spectra are out of scope: factors are integrated over user-chosen
compact ranges with user-supplied initial data, never across coordinate
singularities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, ClassVar, NamedTuple, Sequence, TextIO

import numpy as np

from .coords import EPS_DOM, invert
from .errors import (
    ConfigurationError,
    DomainError,
    IntegrationError,
    OutOfRangeError,
    QuadratureError,
    TurningPointError,
    check_range,
)
from .frame import kept_per_time, unembed
from .potential import PotentialKind, PotentialSpec, phase_factor_S
from .stackel import _t_from_scales, stackel_row

QUAD_EPSREL = 1e-11
QUAD_EPSABS = 1e-13
#: Most cells one adaptive quadrature (:func:`quad`) may hold.  Each pass
#: is one array call of the integrand and bisects at least one cell, and
#: each half costs three new points, so an integral costs at most
#: QUAD_LIMIT + 1 calls and 2 + 3 * (2 * QUAD_LIMIT - 1) evaluations.
QUAD_LIMIT = 1000
#: Finest grid spacing of a table: the grid a table falls back to when no
#: coarser one meets its budgets (:func:`_coarsest_grid`), and the unit of
#: the ``MAX_NODES`` check.
NODE_SPACING = 1e-3
#: Largest midpoint miss of a table, relative to its largest node value.
#: A wave factor on a grid coarser than NODE_SPACING is also held to it in
#: phi'', relative to its largest c phi: its quintic table must predict
#: phi'' = c phi at the cell midpoints that well, because phi'' is what the
#: residual's Laplacian sees.  At NODE_SPACING the phi'' of the quintic at
#: arbitrary points sits at its rounding floor (up to 4.8e-9 of the largest
#: c phi at 4 000 random points per axis of the seed-7 benchmark inputs),
#: so that grid is audited on values only, as the cubic tables were.
INTERP_BUDGET = 1e-9
#: Largest estimated error of the Magnus propagation of a wave factor on a
#: grid coarser than NODE_SPACING: the Richardson estimate of
#: :func:`solve_ivp`.  The midpoint audits cannot see this error, because a
#: midpoint and its prediction come from the same propagation.  Against a
#: propagation 16 times finer, the estimate reads a median 1.3 times the
#: error of the node values relative to the largest (from a sixth to 14
#: times, on the seed-7 benchmark inputs at 64 to 256 cells where that
#: error exceeds 1e-12; it cannot see a cell amplify the error of the
#: cells before it).  On the grid the midpoint audits alone accept,
#: Airy's propagation on (-6, 2) errs by about 4e-11, beyond the 1e-11 of
#: the scipy reference test; held to this tolerance it errs by 1e-13, and
#: the seed-7 and seed-3 wave_verify rounds hold 6 839 and 6 819 factor
#: nodes (4 748 and 4 745 without the check, 40 827 each with cubic
#: tables at NODE_SPACING).
MAGNUS_TOL = 3e-12
#: Largest Hermite grid a factor may ask for; checked before anything is
#: integrated, so an oversized range fails at once instead of allocating.
MAX_NODES = 10**6
#: Cells of the first grid a table tries (:func:`_coarsest_grid`).
PROBE_CELLS = 64
#: Largest midpoint miss, relative to the largest node value, of a time
#: table coarser than NODE_SPACING.  The slope of a cubic Hermite table
#: errs by up to about 3 miss / h between the nodes, so at this level the
#: time derivatives the residual checks take of a coarser table stay
#: within a small factor of those of the table at NODE_SPACING.
TIME_TOL = 1e-14


@dataclass(frozen=True)
class SeparationConstants:
    """The three real constants the reduced equations depend on."""

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            v = getattr(self, name)
            if isinstance(v, complex):
                raise ConfigurationError(f"{name} must be real, got {v!r}")
            v = float(v)
            if not math.isfinite(v):
                raise ConfigurationError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)


def ode_coefficient(spec: PotentialSpec, a: int, omega_a: float, constants) -> float:
    """Right-hand coefficient of phi_a'' = c(omega_a) phi_a on axis a (1..3).

    c = F_a0(omega_a) + sum_i F_ai(omega_a) lambda_i; always real.
    """
    if a not in (1, 2, 3):
        raise ConfigurationError(f"axis must be 1, 2 or 3, got {a!r}")
    iv = spec.system.domain[a - 1]
    if not iv.contains(omega_a):
        raise DomainError(
            f"omega_{a}={omega_a!r} outside [{iv.lo}, {iv.hi}] for "
            f"{spec.system.sid.value}",
            axis=a,
        )
    lam = constants.as_tuple() if isinstance(constants, SeparationConstants) else tuple(constants)
    return float(_axis_rate(spec, a - 1, lam, 1.0, omega_a))


def _axis_rate(spec: PotentialSpec, axis: int, lam, f_sign: float, w) -> np.ndarray:
    """f_sign F_a0(w) + sum_i F_ai(w) lambda_i on the 0-based axis.

    With f_sign = +1 this is the coefficient of the wave equation's
    phi_a'' = c phi_a, with f_sign = -1 the radicand of the action's
    phi_a'^2.  ``w`` is a float or an array of points on the axis, and the
    result an array of its shape (0-d for a float): one Stackel row call
    and one profile call (:func:`schrodsep.potential.profile_values`)
    serve the whole array.  Every coefficient of the wave and action
    paths is evaluated here.
    """
    row = stackel_row(spec.system, axis, w)
    profile = spec.f_profiles[axis]
    f = 0.0 if profile is None else f_sign * spec.f_a0(axis, w)
    return np.broadcast_to(f + row[0] * lam[0] + row[1] * lam[1] + row[2] * lam[2], np.shape(w))


# ---------------------------------------------------------------------------
# Quadrature

#: Five-point Gauss-Lobatto rule on [-1, 1]: the ends, +-sqrt(3/7) and 0,
#: with weights 1/10, 49/90 and 32/45 (Davis & Rabinowitz, section 2.7).
LOBATTO_X = math.sqrt(3.0 / 7.0)
LOBATTO_W = (0.1, 49.0 / 90.0, 32.0 / 45.0)


def _lobatto_cells(fn: Callable, lo: np.ndarray, hi: np.ndarray, f_lo, f_hi) -> tuple:
    """The five-point Lobatto integral of ``fn`` over each of the disjoint
    cells [lo, hi], its Simpson check, and the cell centres with ``fn``
    there, the end that the halves of a bisected cell share.

    The rule adds the centre and the points +-sqrt(3/7) h/2 around it to
    the ends, where ``f_lo`` and ``f_hi`` hold ``fn``; one call of ``fn``
    on a (3, cells) array gives the inner points of every cell.  The check
    |Lobatto - Simpson| bounds Simpson's error, so as an estimate it is
    conservative for the degree-7 Lobatto value; a cell passes when it is
    within :func:`_quad_budget` of the value.
    """
    half = 0.5 * (hi - lo)
    mids = lo + half
    off = LOBATTO_X * half
    left, centre, right = fn(np.stack((mids - off, mids, mids + off)))
    outer = f_lo + f_hi
    lobatto = half * (LOBATTO_W[0] * outer + LOBATTO_W[1] * (left + right) + LOBATTO_W[2] * centre)
    simpson = half / 3.0 * (outer + 4.0 * centre)
    return lobatto, np.abs(lobatto - simpson), mids, centre


def _quad_budget(value):
    """max(QUAD_EPSABS, QUAD_EPSREL |value|), element-wise: the error
    budget of every integral."""
    return np.maximum(QUAD_EPSABS, np.abs(value) * QUAD_EPSREL)


def quad(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """Integral of ``fn`` (on arrays) from a to b and its error estimate,
    by bisection of Lobatto cells (:func:`_lobatto_cells`).

    From [a, b] alone, while the summed estimate of the cells exceeds
    :func:`_quad_budget` of their sum, a pass bisects the fewest worst
    cells that hold three quarters of it (Dorfler's bulk criterion) and
    integrates the new halves in one call of ``fn``.  A half's estimate is
    the larger of its Simpson check and half of |parent - (left + right)|
    (Gander & Gautschi, BIT 40, 2000): each misses the error of some cells
    with a kink or a square-root end, rarely of the same ones.
    :class:`QuadratureError` ends a pass whose sum is not finite, and one
    that misses the budget with ``QUAD_LIMIT`` cells.  Only
    :func:`_cell_integrals` calls it, once per cell that fails its check;
    ``benchmarks/tracer.py`` counts it under this name.
    """
    ends = fn(np.array([a, b], dtype=float))
    cells = np.empty((8, 0))  # rows: lo, hi, fn at both, integral, estimate, centre, fn there
    new = (np.array([a], dtype=float), np.array([b], dtype=float), ends[:1], ends[1:])
    parent = None
    while True:
        value, estimate, mid, f_mid = _lobatto_cells(fn, *new)
        if parent is not None:
            pair = 0.5 * np.abs(parent - (value[: len(parent)] + value[len(parent) :]))
            estimate = np.maximum(estimate, np.concatenate((pair, pair)))
        cells = np.hstack((cells, np.stack((*new, value, estimate, mid, f_mid))))
        total, error = float(np.sum(cells[4])), float(np.sum(cells[5]))
        if not math.isfinite(total + error):
            raise QuadratureError(f"integrand not finite on [{a}, {b}]")
        if error <= _quad_budget(total):
            return total, error
        if cells.shape[1] >= QUAD_LIMIT:
            raise QuadratureError(
                f"quadrature over [{a}, {b}] reports error {error:.2e} beyond tolerance "
                f"after {QUAD_LIMIT} subintervals"
            )
        worst = np.argsort(-cells[5], kind="stable")
        # rest[k]: the estimate held by all but the k worst cells
        rest = np.cumsum(cells[5, worst[::-1]])[::-1]
        split = worst[: min(np.count_nonzero(rest > 0.25 * error), QUAD_LIMIT - cells.shape[1])]
        lo, hi, f_lo, f_hi, parent, _, mid, f_mid = cells[:, split]
        cells = np.delete(cells, split, axis=1)
        new = (
            np.concatenate((lo, mid)), np.concatenate((mid, hi)),
            np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi)),
        )


def _cell_integrals(fn: Callable, nodes: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The Lobatto integrals of ``fn`` over the cells between consecutive
    ``nodes`` (``ends`` holds ``fn`` there), with every cell that fails
    its check integrated again by :func:`quad`."""
    value, estimate, _, _ = _lobatto_cells(fn, nodes[:-1], nodes[1:], ends[:-1], ends[1:])
    for j in np.flatnonzero(~(estimate <= _quad_budget(value))):
        value[j] = quad(fn, float(nodes[j]), float(nodes[j + 1]))[0]
    return value


def _hermite(grid: tuple, w: float, slope: bool):
    """Cubic Hermite value at w on a uniform grid, with the derivative as
    well if ``slope``, on Python numbers throughout: the evaluator of the
    time tables and the action terms, whose residuals take only first
    derivatives of them (the wave factors are quintic, :func:`_quintic`).

    ``grid`` is (name, nodes, values, slopes, dx): the columns are lists,
    dx is their spacing, and :class:`OutOfRangeError` names w as ``name``
    unless it lies within the nodes.  The value takes the products and
    sums numpy scalars would, so it has their bits at a fraction of their
    cost.
    """
    name, nodes, values, slopes, dx = grid
    lo, hi = nodes[0], nodes[-1]
    if not (lo <= w <= hi):
        raise OutOfRangeError(f"{name}={w} outside tabulated range [{lo}, {hi}]")
    j = int((w - lo) / dx)
    if j > len(nodes) - 2:  # w = hi
        j = len(nodes) - 2
    s = (w - nodes[j]) / dx
    v0, v1 = values[j], values[j + 1]
    m0, m1 = slopes[j] * dx, slopes[j + 1] * dx
    s2 = s * s
    s3 = s2 * s
    value = (
        (2 * s3 - 3 * s2 + 1) * v0
        + (s3 - 2 * s2 + s) * m0
        + (-2 * s3 + 3 * s2) * v1
        + (s3 - s2) * m1
    )
    if not slope:
        return value
    deriv = (
        (6 * s2 - 6 * s) * v0
        + (3 * s2 - 4 * s + 1) * m0
        + (-6 * s2 + 6 * s) * v1
        + (3 * s2 - 2 * s) * m1
    ) / dx
    return value, deriv


def _grid(name: str, nodes, values, slopes) -> tuple:
    """The grid of :func:`_hermite` for a table on uniform ``nodes``."""
    columns = (np.asarray(c).tolist() for c in (nodes, values, slopes))
    return (name, *columns, float(nodes[1] - nodes[0]))


@dataclass(frozen=True, eq=False)
class AxisInterpolant:
    """One separated factor on a uniform grid.

    A wave factor stores values, first derivatives and the second
    derivatives phi'' = c phi of its ODE, and is a quintic Hermite table
    (:func:`_quintic`): each cell keeps the six power-form coefficients of
    its polynomial.  An action term stores no second derivatives
    (``curvatures`` is None) and is a cubic Hermite table
    (:func:`_hermite`).  Evaluation preserves the dtype (complex factors
    for the wave equation, real ones for the action).
    """

    axis: int
    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    curvatures: np.ndarray | None = None
    #: The grid of :func:`_quintic` or :func:`_hermite`, and that function.
    _grid: tuple = field(init=False, repr=False)
    _rule: Callable = field(init=False, repr=False)

    def __post_init__(self):
        name = f"omega_{self.axis}"
        if self.curvatures is None:
            grid, rule = _grid(name, self.nodes, self.values, self.slopes), _hermite
        else:
            grid = _power_form(name, self.nodes, self.values, self.slopes, self.curvatures)
            rule = _quintic
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_rule", rule)

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    def evaluate(self, w: float, slope: bool = True):
        """Value and derivative with respect to omega at w, or the value
        alone unless ``slope``."""
        return self._rule(self._grid, w, slope)

    def __call__(self, w: float):
        return self.evaluate(w, False)


@dataclass(frozen=True)
class _TimeTable:
    """The exponent of a time factor, tabulated once per instance on a
    uniform grid of [t_lo, t_hi] and evaluated by :func:`_hermite`.

    The rate s T0_tilde - T_i lambda_i, integrated from the anchor t0,
    gives a phase.  With s = -1 the phase is the time term of the action,
    and the table holds it.  With s = +1 it drives the wave factor, and the
    table holds log phi0 = -(1/2) sum_i log(h_i/h_i(t0)) - i phase, whose
    slope is -(1/2) sum_i h_i'/h_i - i rate: a smooth function however
    fast phi0 itself turns.  The table is built in ``__post_init__``, so
    ``dataclasses.replace`` builds a new one.

    On a grid, the rate is called once on the nodes and cell midpoints,
    which gives the exact slopes, and once on the inner Lobatto points of
    the half cells (:func:`_cell_integrals`); the running sum of the
    half-cell integrals gives the phase at both.  The grid is the coarsest
    that :func:`_coarsest_grid` finds where every half cell passes its
    Lobatto check and the cubic Hermite prediction at each midpoint misses
    the exact value by at most ``TIME_TOL`` times the largest node value.
    Failing that, the grid at ``NODE_SPACING`` is used: there a cell that
    fails the Lobatto check bisects itself (:func:`quad`), and the
    midpoints are audited against ``INTERP_BUDGET`` (:func:`_audit`), so
    every failure is reported on that grid.
    The table is shifted to 0 where it reads the anchor, and a call at the
    anchor itself returns exactly 1 (wave) or 0 (action).  A call keeps
    its value at the last time, as a frame keeps its reading, so the nodes
    of a stencil at one time evaluate the table once.  Each subclass
    defines its own ``__call__``, the name under which
    ``benchmarks/tracer.py`` wraps it.
    """

    spec: PotentialSpec
    constants: SeparationConstants
    t_lo: float
    t_hi: float
    anchor: float
    #: The grid of :func:`_hermite` for the table.
    _table: tuple = field(init=False, repr=False, compare=False)
    #: The value at the last float time (:func:`schrodsep.frame.kept_per_time`).
    _kept: tuple = field(default=(b"", None), init=False, repr=False, compare=False)
    #: The sign s of T0_tilde in the rate; the wave (s = +1) adds the log-modulus.
    _T0_SIGN: ClassVar[float]

    def __post_init__(self):
        """:class:`ConfigurationError` unless the range is finite and
        nonempty, holds the anchor and needs at most ``MAX_NODES`` nodes at
        ``NODE_SPACING``; then the table is built."""
        lo, hi = check_range("time range", self.t_lo, self.t_hi)
        anchor = float(self.anchor)
        if not (lo <= anchor <= hi):
            raise ConfigurationError(f"anchor t0={anchor} outside time range ({lo}, {hi})")
        _check_nodes(f"time range ({lo}, {hi})", lo, hi)
        for name, value in (("t_lo", lo), ("t_hi", hi), ("anchor", anchor)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_table", self._tabulate())

    def _rate(self, tau, triples=None):
        """The rate at a float array of times, or a 0-d one at a float;
        ``triples`` are the frame's scale triples there, if already read."""
        tau = np.asarray(tau, dtype=float)
        if triples is None:
            triples = self.spec.frame.scale_triples(tau)
        T = _t_from_scales(self.spec.system, [h for h, _, _ in triples])
        lam = self.constants.as_tuple()
        t0 = self._T0_SIGN * self.spec.t0_tilde.on_array(tau)[0]
        return t0 - (T[0] * lam[0] + T[1] * lam[1] + T[2] * lam[2])

    def _tabulate(self) -> tuple:
        lo, hi = self.t_lo, self.t_hi
        table = _coarsest_grid(lo, hi, self._attempt)
        if table is None:
            nodes, values, slopes, exact, _ = self._build(_uniform_nodes(lo, hi), True)
            _audit(nodes, values, slopes, exact, "the time factor")
            table = nodes, values, slopes
        return _grid("t", *table)

    def _attempt(self, nodes: np.ndarray) -> tuple:
        """The table on a coarse grid and its miss over ``TIME_TOL``, at
        least 2 when a half cell fails its Lobatto check (which doubles the
        cells), and infinite when it cannot be built there."""
        try:
            nodes, values, slopes, exact, passed = self._build(nodes, False)
        except ConfigurationError:
            return None, math.inf  # the grid at NODE_SPACING names the failure
        with np.errstate(invalid="ignore", over="ignore"):
            ratio = float(np.max(_midpoint_miss(nodes, values, slopes, exact))) / TIME_TOL
        return (nodes, values, slopes), (ratio if passed else max(ratio, 2.0))

    def _build(self, nodes: np.ndarray, fallback: bool) -> tuple:
        """The table on ``nodes``: its values and slopes there, its exact
        values at the cell midpoints, and whether every half cell passed
        its Lobatto check (always, with the ``fallback``)."""
        times = np.empty(2 * len(nodes) - 1)  # the nodes and the cell midpoints
        times[0::2], times[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])
        frame = self.spec.frame
        triples = frame.scale_triples(times)  # for the rate and the log-modulus
        rate = self._rate(times, triples)
        if fallback:
            halves, passed = _cell_integrals(self._rate, times, rate), True
        else:
            cells = (times[:-1], times[1:], rate[:-1], rate[1:])
            halves, estimate, _, _ = _lobatto_cells(self._rate, *cells)
            passed = bool(np.all(estimate <= _quad_budget(halves)))
        table, slopes = np.zeros(len(times)), rate
        # an overflow leaves non-finite values, which the audit locates
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(halves, out=table[1:])
            if self._T0_SIGN > 0.0:
                log_modulus = 0.0
                for (h, _, _), h0 in zip(triples, frame.scales(self.anchor)):
                    log_modulus = log_modulus - 0.5 * np.log(h / h0)
                table = log_modulus - 1j * table
                slopes = -0.5 * sum(hd / h for h, hd, _ in triples) - 1j * rate
        values, slopes, exact = table[0::2], slopes[0::2], table[1::2]
        # zero where the table itself reads the anchor, so that the exact 0
        # (or 1) a call returns there joins the table without a step
        shift = _hermite(_grid("t", nodes, values, slopes), self.anchor, False)
        return nodes, values - shift, slopes, exact - shift, passed


class TemporalFactor(_TimeTable):
    """phi0(t) = exp(-i integral_{t0}^{t} (T0 - T_i lambda_i)), anchored to 1.

    The imaginary part of T0, -(1/2) sum_i h_i'/h_i, integrates in closed
    form: the modulus is exp(-(1/2) sum_i log(h_i(t)/h_i(t0))).  The table
    holds log phi0 (:class:`_TimeTable`), so a call is one
    :func:`_hermite` evaluation and one ``cmath.exp`` on Python numbers.
    """

    _T0_SIGN = 1.0

    @kept_per_time
    def __call__(self, t: float) -> complex:
        return 1.0 + 0.0j if t == self.anchor else cmath.exp(_hermite(self._table, t, False))


def solve_phi0(
    spec: PotentialSpec,
    constants: SeparationConstants,
    t_range: Sequence[float],
    anchor: float = 0.0,
) -> TemporalFactor:
    return TemporalFactor(spec, constants, t_range[0], t_range[1], anchor)


def _check_axis_range(spec: PotentialSpec, a: int, omega_range) -> tuple[float, float]:
    if a not in (1, 2, 3):
        raise ConfigurationError(f"axis must be 1, 2 or 3, got {a!r}")
    lo, hi = check_range("omega range", omega_range[0], omega_range[1], f" on axis {a}")
    iv = spec.system.domain[a - 1]
    lo_min = iv.lo + EPS_DOM if iv.singular_lo else iv.lo
    hi_max = iv.hi - EPS_DOM if iv.singular_hi else iv.hi
    if lo < lo_min or hi > hi_max:
        raise DomainError(
            f"omega range ({lo}, {hi}) leaves the admissible interval "
            f"[{lo_min}, {hi_max}] on axis {a} of {spec.system.sid.value}",
            axis=a,
        )
    _check_nodes(f"omega range ({lo}, {hi}) on axis {a}", lo, hi)
    return lo, hi


def _node_count(lo: float, hi: float) -> int:
    return max(2, int(math.ceil((hi - lo) / NODE_SPACING)) + 1)


def _check_nodes(what: str, lo: float, hi: float) -> None:
    """:class:`ConfigurationError` naming ``what`` unless the grid of
    [lo, hi] at ``NODE_SPACING`` holds at most ``MAX_NODES`` nodes
    (:func:`_node_count`); a count too large for a float is infinite."""
    cells = (hi - lo) / NODE_SPACING
    if cells > MAX_NODES - 1:
        n = math.ceil(cells) + 1 if math.isfinite(cells) else cells
        raise ConfigurationError(
            f"{what} needs {n:.7g} nodes at spacing {NODE_SPACING}; "
            f"at most {MAX_NODES} are allowed"
        )


def _uniform_nodes(lo: float, hi: float) -> np.ndarray:
    return np.linspace(lo, hi, _node_count(lo, hi))


def _coarsest_grid(lo: float, hi: float, attempt: Callable[[np.ndarray], tuple]):
    """The table ``attempt`` builds on the coarsest uniform grid of [lo, hi]
    it accepts, or None when the grid at ``NODE_SPACING`` should be used.

    ``attempt(nodes)`` returns the table on ``nodes`` and the worst of its
    misses over their budgets: at most 1 accepts the table, and a value
    that is not finite gives up.  The grids start at ``PROBE_CELLS`` cells
    and grow by the h^4 law of the worst miss, at least twice over.  A grid
    with more than half the cells of the one at ``NODE_SPACING`` saves too
    little to try.
    """
    fine = _node_count(lo, hi) - 1
    cells = PROBE_CELLS
    while 2 * cells <= fine:
        table, ratio = attempt(np.linspace(lo, hi, cells + 1))
        if ratio <= 1.0:
            return table
        if not math.isfinite(ratio):
            return None
        cells = math.ceil(cells * max(2.0, 1.5 * ratio**0.25))
    return None


#: Offset of the two Gauss-Legendre points from the middle of a step, in
#: step widths.
GAUSS2_X = math.sqrt(3.0) / 6.0


class Trajectory(NamedTuple):
    """A propagation of phi'' = c(w) phi over the cells of a grid: (phi,
    phi', phi'' = c phi) at the nodes, phi and phi'' at the cell midpoints,
    ``error``, the estimate of the propagation's own error
    (:func:`solve_ivp`), and ``nfev``, the number of calls it made to the
    coefficient: one, over 8 points per cell and the last node."""

    values: np.ndarray
    slopes: np.ndarray
    curvatures: np.ndarray
    midpoints: np.ndarray
    mid_curvatures: np.ndarray
    error: float
    nfev: int


def _cosh_sinhc(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosh(sqrt(theta)) and sinh(sqrt(theta)) / sqrt(theta), element-wise.

    Below zero these are cos and sin of sqrt(-theta) over sqrt(-theta).
    For |theta| < 1e-2 both come from their Taylor series in theta, whose
    first omitted terms are below 1e-20.
    """
    r = np.sqrt(np.abs(theta))
    grows = theta >= 0.0
    ch = np.where(grows, np.cosh(r), np.cos(r))
    sh = np.where(grows, np.sinh(r), np.sin(r)) / r
    x = theta
    ch_series = 1 + x / 2 * (1 + x / 12 * (1 + x / 30 * (1 + x / 56 * (1 + x / 90))))
    sh_series = 1 + x / 6 * (1 + x / 20 * (1 + x / 42 * (1 + x / 72 * (1 + x / 110))))
    small = np.abs(theta) < 1e-2
    return np.where(small, ch_series, ch), np.where(small, sh_series, sh)


def _magnus_steps(c1: np.ndarray, c2: np.ndarray, h: np.ndarray):
    """The propagators of phi'' = c(w) phi over steps of widths ``h``, as
    the four arrays (m00, m01, m10, m11) of the real 2x2 matrices; c1 and
    c2 hold the coefficient at the two Gauss points of each step.

    One fourth-order Magnus step each (Iserles & Norsett 1999; Blanes,
    Casas, Oteo & Ros 2009, section 4): Omega = [[d, h], [h cbar, -d]],
    cbar = (c1 + c2) / 2 and d = (sqrt(3) h^2 / 12)(c1 - c2).  Omega is
    traceless with Omega^2 = theta I, theta = d^2 + h^2 cbar, so
    exp(Omega) = cosh(sqrt theta) I + (sinh(sqrt theta) / sqrt theta) Omega.
    """
    cbar = 0.5 * (c1 + c2)
    d = (math.sqrt(3.0) / 12.0) * h * h * (c1 - c2)
    ch, sh = _cosh_sinhc(d * d + h * h * cbar)
    return ch + sh * d, sh * h, sh * h * cbar, ch - sh * d


def solve_ivp(
    coeff: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray, initial: tuple[complex, complex]
) -> Trajectory:
    """Propagate (phi, phi') of phi'' = c(w) phi from nodes[0] across ``nodes``.

    Each cell between consecutive nodes is crossed in two Magnus steps
    (:func:`_magnus_steps`), one per half.  The propagators are real, so
    one matrix carries the real and imaginary parts of the complex pair
    alike; the two halves of a cell are multiplied into one matrix before
    the pair is carried from node to node, and the first half alone gives
    phi at the midpoint.  ``coeff`` maps an array of points to the
    coefficient at each, and is called once: on the Gauss points of the
    half steps and of one whole-cell step, and on the nodes and midpoints,
    which give phi'' = c phi there.

    The whole-cell step estimates the error (Richardson): a fourth-order
    step errs by about 16 times what its two halves do together, so the
    difference of the two, applied to the pair the cell carries, is about
    15 times the error of the halves.  ``error`` sums those errors over the
    cells, each as a fraction of the pair, with phi' weighted by the cell
    width; it bounds the relative error the cells add up to when no cell
    amplifies it.  Overflow leaves non-finite values, which the caller
    locates.  ``benchmarks/tracer.py`` sums ``nfev`` under this function's
    name.
    """
    lo, hi = nodes[:-1], nodes[1:]
    mids = 0.5 * (lo + hi)
    cells = len(lo)
    # the left halves, the right halves and the whole cells, in one array
    starts, ends = np.concatenate((lo, mids, lo)), np.concatenate((mids, hi, hi))
    h = ends - starts
    centres = starts + 0.5 * h
    at = np.empty(2 * cells + 1)  # the nodes and the cell midpoints
    at[0::2], at[1::2] = nodes, mids
    with np.errstate(over="ignore", invalid="ignore"):
        c = coeff(np.concatenate((centres - GAUSS2_X * h, centres + GAUSS2_X * h, at)))
        steps = _magnus_steps(c[: 3 * cells], c[3 * cells : 6 * cells], h)
        (l00, r00, w00), (l01, r01, w01), (l10, r10, w10), (l11, r11, w11) = (
            m.reshape(3, cells) for m in steps
        )
        p00, p01 = r00 * l00 + r01 * l10, r00 * l01 + r01 * l11
        p10, p11 = r10 * l00 + r11 * l10, r10 * l01 + r11 * l11
        v, s = complex(initial[0]), complex(initial[1])
        values, slopes = [v], [s]
        for q00, q01, q10, q11 in zip(p00.tolist(), p01.tolist(), p10.tolist(), p11.tolist()):
            v, s = q00 * v + q01 * s, q10 * v + q11 * s
            values.append(v)
            slopes.append(s)
        values, slopes = np.array(values), np.array(slopes)
        v, s = values[:-1], slopes[:-1]
        midpoints = l00 * v + l01 * s
        width = h[2 * cells :]
        miss = (np.abs((w00 - p00) * v + (w01 - p01) * s)
                + width * np.abs((w10 - p10) * v + (w11 - p11) * s))
        size = np.maximum(np.abs(v) + width * np.abs(s), 1e-300)
        error = float(np.sum(miss / size)) / 15.0
        rate = c[6 * cells :]
        curvatures, mid_curvatures = rate[0::2] * values, rate[1::2] * midpoints
    return Trajectory(values, slopes, curvatures, midpoints, mid_curvatures, error, 1)


def _quintic(grid: tuple, w: float, slope: bool):
    """Quintic Hermite value at w on a uniform grid, with the derivative as
    well if ``slope``, on Python numbers throughout.

    ``grid`` is (name, nodes, cells, dx) of :func:`_power_form`: each cell
    holds the six coefficients of its polynomial in s = (w - node) / dx,
    evaluated by Horner's rule.  :class:`OutOfRangeError` names w as
    ``name`` unless it lies within the nodes.
    """
    name, nodes, cells, dx = grid
    lo, hi = nodes[0], nodes[-1]
    if not (lo <= w <= hi):
        raise OutOfRangeError(f"{name}={w} outside tabulated range [{lo}, {hi}]")
    j = int((w - lo) / dx)
    if j > len(cells) - 1:  # w = hi
        j = len(cells) - 1
    s = (w - nodes[j]) / dx
    c0, c1, c2, c3, c4, c5 = cells[j]
    value = c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
    if not slope:
        return value
    return value, (c1 + s * (2 * c2 + s * (3 * c3 + s * (4 * c4 + s * (5 * c5))))) / dx


def _power_coefficients(dx: float, values, slopes, curvatures) -> np.ndarray:
    """The (6, cells) coefficients c_k of the quintic Hermite polynomials
    sum_k c_k s^k, s in [0, 1], that match value, slope and second
    derivative at both nodes of each cell of width dx (de Boor, *A
    Practical Guide to Splines*, ch. II)."""
    v0, v1 = values[:-1], values[1:]
    m0, m1 = dx * slopes[:-1], dx * slopes[1:]
    a0, a1 = (dx * dx) * curvatures[:-1], (dx * dx) * curvatures[1:]
    # what the quadratic c0 + c1 s + c2 s^2 leaves to c3..c5 at s = 1:
    # their sum, their first and their second derivative
    rest = v1 - v0 - m0 - 0.5 * a0
    rest_d = m1 - m0 - a0
    rest_dd = a1 - a0
    return np.stack((
        v0,
        m0,
        0.5 * a0,
        10.0 * rest - 4.0 * rest_d + 0.5 * rest_dd,
        -15.0 * rest + 7.0 * rest_d - rest_dd,
        6.0 * rest - 3.0 * rest_d + 0.5 * rest_dd,
    ))


def _power_form(name: str, nodes, values, slopes, curvatures) -> tuple:
    """The grid of :func:`_quintic` for a table on uniform ``nodes``.  A
    coefficient that overflows is infinite, and so is every value of its
    cell, which a residual then refuses."""
    dx = float(nodes[1] - nodes[0])
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _power_coefficients(dx, *(np.asarray(c) for c in (values, slopes, curvatures)))
    return (name, np.asarray(nodes).tolist(), list(zip(*coeffs.tolist())), dx)


def _midpoint_quintic(nodes: np.ndarray, values, slopes, curvatures) -> tuple:
    """The quintic Hermite value and second derivative at every cell
    midpoint, built from the nodes alone."""
    dx = float(nodes[1] - nodes[0])
    c0, c1, c2, c3, c4, c5 = _power_coefficients(dx, values, slopes, curvatures)
    value = c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * (c3 + 0.5 * (c4 + 0.5 * c5))))
    second = (2.0 * c2 + 3.0 * c3 + 3.0 * c4 + 2.5 * c5) / (dx * dx)
    return value, second


def _largest(values) -> float:
    """The largest modulus in ``values``, floored at 1e-300."""
    return max(float(np.max(np.abs(values))), 1e-300)


def solve_phi_a(
    spec: PotentialSpec,
    a: int,
    constants: SeparationConstants,
    omega_range: Sequence[float],
    initial: tuple[complex, complex] = (1.0, 0.0),
) -> AxisInterpolant:
    """Integrate phi_a'' = c(omega) phi_a over a compact range.

    ``initial`` is the complex pair (value, slope) at the lower end of
    the range.  :func:`solve_ivp` propagates it over the half cells of a
    uniform grid, and the nodes give the stored quintic Hermite table:
    values, slopes and phi'' = c phi.  The grid is the coarsest that
    :func:`_coarsest_grid` finds where three checks pass: the quintic
    value at the cell midpoints misses the propagated one by at most
    ``INTERP_BUDGET`` of the largest node value, its phi'' there misses
    c phi by at most ``INTERP_BUDGET`` of the largest c phi, and the
    propagation's own error estimate is within ``MAGNUS_TOL``.  Failing
    that, the grid is the one at ``NODE_SPACING``, whose table is audited
    on its values alone (:func:`_audit`), so every failure is reported on
    that grid.
    """
    lo, hi = _check_axis_range(spec, a, omega_range)
    v0, s0 = complex(initial[0]), complex(initial[1])
    if not (np.isfinite([v0.real, v0.imag, s0.real, s0.imag]).all()):
        raise ConfigurationError(f"initial data {initial!r} must be finite")

    lam = constants.as_tuple()

    def coeff(w):
        return _axis_rate(spec, a - 1, lam, 1.0, w)

    def attempt(nodes: np.ndarray) -> tuple:
        path = solve_ivp(coeff, nodes, (v0, s0))
        with np.errstate(over="ignore", invalid="ignore"):
            value, second = _midpoint_quintic(nodes, path.values, path.slopes, path.curvatures)
            ratios = (
                np.max(np.abs(value - path.midpoints)) / _largest(path.values) / INTERP_BUDGET,
                np.max(np.abs(second - path.mid_curvatures))
                / _largest(path.curvatures) / INTERP_BUDGET,
                path.error / MAGNUS_TOL,
            )
        return (nodes, path), float(np.max(ratios))  # a NaN gives up

    table = _coarsest_grid(lo, hi, attempt)
    if table is None:
        nodes = _uniform_nodes(lo, hi)
        path = solve_ivp(coeff, nodes, (v0, s0))
        _audit(nodes, path.values, path.slopes, path.midpoints, f"the factor on axis {a}",
               path.curvatures)
        table = nodes, path
    nodes, path = table
    return AxisInterpolant(a, nodes, path.values, path.slopes, path.curvatures)


def _midpoint_miss(nodes: np.ndarray, values, slopes, exact, curvatures=None) -> np.ndarray:
    """|Hermite prediction - exact| at every cell midpoint, over the largest
    node value: the cubic prediction, or the quintic one given the second
    derivatives at the nodes; either is built from the nodes alone."""
    if curvatures is None:
        dx = float(nodes[1] - nodes[0])
        predicted = 0.5 * (values[:-1] + values[1:]) + 0.125 * dx * (slopes[:-1] - slopes[1:])
    else:
        predicted = _midpoint_quintic(nodes, values, slopes, curvatures)[0]
    return np.abs(predicted - exact) / _largest(values)


def _audit(nodes: np.ndarray, values, slopes, exact, what: str, curvatures=None) -> None:
    """Check a Hermite table against its exact values at the cell midpoints.

    ``values``, ``slopes`` and the ``curvatures`` of a quintic table belong
    to the nodes, ``exact`` to the midpoints.  A non-finite entry raises
    :class:`IntegrationError` at the first node or midpoint that holds one,
    and so does a midpoint whose :func:`_midpoint_miss` exceeds
    ``INTERP_BUDGET``.
    """
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    # every node and midpoint, in the order a propagation reaches them
    finite = np.empty(2 * len(nodes) - 1, dtype=bool)
    finite[0::2] = np.isfinite(values) & np.isfinite(slopes)
    if curvatures is not None:
        finite[0::2] &= np.isfinite(curvatures)
    finite[1::2] = np.isfinite(exact)
    if not finite.all():
        first = int(np.argmin(finite))
        where = nodes[first // 2] if first % 2 == 0 else mids[first // 2]
        raise IntegrationError(f"{what} overflowed during integration", location=float(where))
    with np.errstate(over="ignore", invalid="ignore"):
        err = _midpoint_miss(nodes, values, slopes, exact, curvatures)
    worst = int(np.argmax(err))
    if err[worst] > INTERP_BUDGET:
        raise IntegrationError(
            f"interpolation error {err[worst]:.2e} of {what} exceeds budget",
            location=float(mids[worst]),
        )


class QKind(str, Enum):
    """Shape of the prefactor Q: trivial, or the quadratic phase exp(iS)."""

    UNIT = "unit"
    PHASE = "phase"


@dataclass(frozen=True, eq=False)
class SeparatedSolution:
    spec: PotentialSpec
    constants: SeparationConstants
    phi0: TemporalFactor
    factors: tuple[AxisInterpolant, AxisInterpolant, AxisInterpolant]
    q_kind: QKind


def separate(
    spec: PotentialSpec,
    constants: SeparationConstants,
    *,
    omega_ranges: Sequence[Sequence[float]],
    t_range: Sequence[float] = (-2.0, 2.0),
    anchor: float = 0.0,
    initial_data: Sequence[tuple[complex, complex]] | None = None,
) -> SeparatedSolution:
    """Integrate all four reduced equations and bundle the result."""
    if len(omega_ranges) != 3:
        raise ConfigurationError("omega_ranges must hold one (lo, hi) pair per axis")
    if initial_data is None:
        initial_data = ((1.0, 0.0),) * 3
    if len(initial_data) != 3:
        raise ConfigurationError("initial_data must hold one (value, slope) pair per axis")
    for a in (1, 2, 3):  # every range, before any table is built
        _check_axis_range(spec, a, omega_ranges[a - 1])
    phi0 = solve_phi0(spec, constants, t_range, anchor)  # checks t_range, then builds
    factors = tuple(
        solve_phi_a(spec, a, constants, omega_ranges[a - 1], initial_data[a - 1])
        for a in (1, 2, 3)
    )
    q_kind = QKind.PHASE if spec.kind is PotentialKind.ELECTROSTATIC else QKind.UNIT
    return SeparatedSolution(spec, constants, phi0, factors, q_kind)


def _chart_point(spec: PotentialSpec, t: float, x, omega_hint, factors) -> np.ndarray:
    """Chart coordinates of the laboratory point x at time t.

    Without an ``omega_hint`` the Newton inversion is seeded from the
    centre of the factors' box, which is adequate anywhere inside it.
    """
    if omega_hint is None:
        omega_hint = tuple(0.5 * (f.lo + f.hi) for f in factors)
    return invert(spec.system, unembed(spec.frame, t, x), omega_hint)


def evaluate_psi(solution: SeparatedSolution, t: float, x, omega_hint=None) -> complex:
    """Reassemble psi = Q phi0 phi1 phi2 phi3 at a laboratory point."""
    spec = solution.spec
    w1, w2, w3 = _chart_point(spec, t, x, omega_hint, solution.factors).tolist()
    f1, f2, f3 = solution.factors
    value = (
        solution.phi0(t)
        * f1.evaluate(w1, False)
        * f2.evaluate(w2, False)
        * f3.evaluate(w3, False)
    )
    if solution.q_kind is QKind.PHASE:
        S = phase_factor_S(spec, t, x)
        value *= complex(math.cos(S), math.sin(S))
    return value


# ---------------------------------------------------------------------------
# Hamilton-Jacobi branch


class HJTemporal(_TimeTable):
    """phi0(t) = integral_{t0}^{t} (-T0_tilde - T_i lambda_i), real-valued and
    tabulated (:class:`_TimeTable`)."""

    _T0_SIGN = -1.0

    @kept_per_time
    def __call__(self, t: float) -> float:
        return 0.0 if t == self.anchor else _hermite(self._table, t, False)


@dataclass(frozen=True, eq=False)
class HJAction:
    """Additively separated action u = S + phi0(t) + sum_a phi_a(omega_a)."""

    spec: PotentialSpec
    constants: SeparationConstants
    phi0: HJTemporal
    terms: tuple[AxisInterpolant, AxisInterpolant, AxisInterpolant]
    signs: tuple[int, int, int]


RADICAND_GRID = 256


def hj_solve(
    spec: PotentialSpec,
    constants: SeparationConstants,
    ranges: Sequence[Sequence[float]],
    signs: Sequence[int] = (1, 1, 1),
    *,
    t_range: Sequence[float] = (-2.0, 2.0),
    anchor: float = 0.0,
) -> HJAction:
    """Build the separated action by quadrature of the signed square roots.

    Each spatial term solves phi_a' = sign_a sqrt(-F_a0 + F_ai lambda_i);
    the radicand is screened on a fine grid first and a sign change is a
    turning point, which the separated action cannot cross.  The screen,
    the node speeds and the inner points of the cells are one radicand
    call each per axis.

    The speed sqrt(...) is evaluated once at every Hermite node; those
    values are the stored slopes and the ends of the Lobatto cells, whose
    running sum gives the node values (:func:`_cell_integrals`).  A cell
    that fails its Simpson check, such as one holding a square-root end of
    the clamp at zero, bisects itself (:func:`quad`) until it meets the
    budget, or :class:`QuadratureError` says it cannot.
    """
    if len(ranges) != 3:
        raise ConfigurationError("ranges must hold one (lo, hi) pair per axis")
    signs = tuple(int(s) for s in signs)
    if len(signs) != 3 or any(s not in (-1, 1) for s in signs):
        raise ConfigurationError(f"branch signs must be three values of +-1, got {signs!r}")
    # every range, before any table is built; HJTemporal checks t_range first
    bounds = [_check_axis_range(spec, a, ranges[a - 1]) for a in (1, 2, 3)]
    phi0 = HJTemporal(spec, constants, t_range[0], t_range[1], anchor)
    lam = constants.as_tuple()
    terms = []
    # a non-finite radicand ends in a typed error below, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for a, (lo, hi) in zip((1, 2, 3), bounds):
            grid = np.linspace(lo, hi, RADICAND_GRID)
            rad = _axis_rate(spec, a - 1, lam, -1.0, grid)
            if np.any(rad < 0.0):
                first = float(grid[np.argmax(rad < 0.0)])
                raise TurningPointError(
                    f"radicand negative on axis {a} near omega={first:.6g}",
                    axis=a,
                    omega=first,
                )

            def speed(w, axis=a - 1):
                return np.sqrt(np.maximum(_axis_rate(spec, axis, lam, -1.0, w), 0.0))

            nodes = _uniform_nodes(lo, hi)
            ends = speed(nodes)
            values = np.zeros(len(nodes))
            np.cumsum(_cell_integrals(speed, nodes, ends), out=values[1:])
            sgn = float(signs[a - 1])
            terms.append(AxisInterpolant(a, nodes, sgn * values, sgn * ends))

    return HJAction(spec, constants, phi0, tuple(terms), signs)


def evaluate_action(action: HJAction, t: float, x, omega_hint=None) -> float:
    """u(t, x) for a separated action."""
    spec = action.spec
    w1, w2, w3 = _chart_point(spec, t, x, omega_hint, action.terms).tolist()
    f1, f2, f3 = action.terms
    value = (
        action.phi0(t)
        + float(f1.evaluate(w1, False).real)
        + float(f2.evaluate(w2, False).real)
        + float(f3.evaluate(w3, False).real)
    )
    if spec.kind is PotentialKind.ELECTROSTATIC:
        value += phase_factor_S(spec, t, x)
    return value


# ---------------------------------------------------------------------------
# Export


#: The header of a wave factor's table: phi, phi' and phi'' at each node.
FACTOR_HEADER = "omega,re_phi,im_phi,re_dphi,im_dphi,re_ddphi,im_ddphi"


def write_interpolant_csv(interp: AxisInterpolant, dest: TextIO) -> None:
    """Dump the stored nodes as omega, Re phi, Im phi, Re phi', Im phi', and
    Re phi'', Im phi'' for a wave factor (``FACTOR_HEADER``); an action
    term has no phi'' columns."""
    columns = (interp.values, interp.slopes, interp.curvatures)
    if interp.curvatures is None:
        columns = columns[:2]
    dest.write(",".join(FACTOR_HEADER.split(",")[: 1 + 2 * len(columns)]) + "\n")
    columns = (np.asarray(c, dtype=complex).tolist() for c in columns)
    for w, *row in zip(np.asarray(interp.nodes, dtype=float).tolist(), *columns):
        dest.write(",".join([repr(w)] + [f"{z.real!r},{z.imag!r}" for z in row]) + "\n")


def read_interpolant_csv(src: TextIO, axis: int) -> AxisInterpolant:
    """Rebuild a wave factor written by :func:`write_interpolant_csv`.

    The header must be ``FACTOR_HEADER``: a table without the phi'' columns
    cannot be the quintic one ``separate`` evaluates.  Every field must be
    a finite number and the node column strictly increasing and uniformly
    spaced, or :class:`ConfigurationError` is raised; floats written with
    ``repr`` round-trip exactly, so a rebuilt factor evaluates bit-for-bit
    like the original.
    """
    if axis not in (1, 2, 3):
        raise ConfigurationError(f"axis must be 1, 2 or 3, got {axis!r}")
    header = src.readline().strip()
    if header != FACTOR_HEADER:
        raise ConfigurationError(
            f"unrecognised interpolant header {header!r}; a wave factor's table "
            f"has the columns {FACTOR_HEADER}"
        )
    rows = []
    for line in src:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ConfigurationError(f"malformed interpolant row {line!r}")
        try:
            fields = [float(p) for p in parts]
        except ValueError:
            raise ConfigurationError(f"non-numeric field in interpolant row {line!r}") from None
        if not all(map(math.isfinite, fields)):
            raise ConfigurationError(f"non-finite field in interpolant row {line!r}")
        rows.append(fields)
    if len(rows) < 2:
        raise ConfigurationError("interpolant file holds fewer than two nodes")
    table = np.array(rows)
    arr = table[:, 0].copy()
    gaps = np.diff(arr)
    if np.any(gaps <= 0.0):
        raise ConfigurationError("interpolant nodes must increase strictly")
    dx = float(gaps[0])
    if float(np.max(np.abs(gaps - dx))) > 1e-9 * dx:
        raise ConfigurationError("interpolant nodes must be uniformly spaced")
    # each (re, im) pair of columns is one complex column, bit for bit
    columns = np.ascontiguousarray(table[:, 1:]).view(complex)
    return AxisInterpolant(axis, arr, *(columns[:, k].copy() for k in range(3)))
