"""Reduction to ordinary differential equations and solution assembly.

A separable problem turns into four ODEs: one first-order equation in
time whose solution is a pure quadrature, and three decoupled
second-order equations, one per coordinate.  This module integrates
them with numpy alone: the time integral and the square roots of the
action by one rule, five-point Gauss-Lobatto cells checked against
Simpson's rule, where a cell that fails its check bisects itself, and
the spatial equations by a fourth-order Magnus propagator whose steps
are the half cells of a uniform grid.  It stores every spatial factor
as a dense cubic Hermite interpolant on a uniform grid, and the time
factor as one of its logarithm, on a grid as coarse as that smooth
function allows, and reassembles the wavefunction

    psi(t, x) = Q * phi0(t) * phi1(omega1) * phi2(omega2) * phi3(omega3)

with Q = 1 for the magnetic and coulomb families and Q = exp(iS) for
the electrostatic one.  The Hamilton-Jacobi counterpart replaces the
product by a sum and the second-order equations by signed square-root
quadratures.

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
#: Hermite node spacing; the factors are propagated in steps of half of
#: it, and the interpolation error of a cubic on this grid is audited
#: against the propagated value at every cell midpoint.
NODE_SPACING = 1e-3
INTERP_BUDGET = 1e-9
#: Largest Hermite grid a factor may ask for; checked before anything is
#: integrated, so an oversized range fails at once instead of allocating.
MAX_NODES = 10**6
#: Cells of the first grid a time table tries (:class:`_TimeTable`).
TIME_PROBE_CELLS = 64
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
    well if ``slope``, on Python numbers throughout.

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
    """One separated factor on a uniform grid, cubic Hermite between nodes.

    Stores values and first derivatives; evaluation preserves the dtype
    (complex factors for the wave equation, real ones for the action).
    """

    axis: int
    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    #: The grid of :func:`_hermite`.
    _grid: tuple = field(init=False, repr=False)

    def __post_init__(self):
        grid = _grid(f"omega_{self.axis}", self.nodes, self.values, self.slopes)
        object.__setattr__(self, "_grid", grid)

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    def evaluate(self, w: float, slope: bool = True):
        """Value and derivative with respect to omega at w, or the value
        alone unless ``slope``."""
        return _hermite(self._grid, w, slope)

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
    half-cell integrals gives the phase at both.  The grid is as coarse
    as the rate allows: ``TIME_PROBE_CELLS`` cells first, and then, while
    a half cell fails its Lobatto check or the cubic Hermite prediction at
    a midpoint misses the exact value by more than ``TIME_TOL`` times the
    largest node value, as many more cells as the h^4 law of that error
    asks for (at least twice as many).  A grid with more than half the
    cells of the one at ``NODE_SPACING``, or a table that cannot be built
    on a coarser grid, gives way to the grid at ``NODE_SPACING``: there
    a cell that fails the Lobatto check bisects itself (:func:`quad`),
    and the midpoints are audited against ``INTERP_BUDGET`` as
    :func:`solve_phi_a` audits the spatial factors, so every failure is
    reported on that grid.
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
        fine = _node_count(lo, hi) - 1
        cells = TIME_PROBE_CELLS
        while 2 * cells <= fine:  # a grid finer than this saves too little to try
            try:
                nodes, values, slopes, exact, passed = self._build(
                    np.linspace(lo, hi, cells + 1), False
                )
            except ConfigurationError:
                break  # the grid at NODE_SPACING names the failure
            with np.errstate(invalid="ignore", over="ignore"):
                miss = float(np.max(_midpoint_miss(nodes, values, slopes, exact)))
            if passed and miss <= TIME_TOL:
                return _grid("t", nodes, values, slopes)
            if not math.isfinite(miss):
                break
            cells = math.ceil(cells * max(2.0, 1.5 * (miss / TIME_TOL) ** 0.25))
        nodes, values, slopes, exact, _ = self._build(_uniform_nodes(lo, hi), True)
        _audit(nodes, values, slopes, exact, "the time factor")
        return _grid("t", nodes, values, slopes)

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


#: Offset of the two Gauss-Legendre points from the middle of a step, in
#: step widths.
GAUSS2_X = math.sqrt(3.0) / 6.0


class Trajectory(NamedTuple):
    """(phi, phi') at the nodes of a propagation, phi at the cell
    midpoints, and ``nfev``, the number of calls it made to the
    coefficient: two, one per set of half cells, each over an array of
    Gauss points.  The points themselves number 4 (len(nodes) - 1)."""

    values: np.ndarray
    slopes: np.ndarray
    midpoints: np.ndarray
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


def _magnus_steps(coeff: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """The propagators of phi'' = c(w) phi over the steps [lo, hi], as the
    four arrays (m00, m01, m10, m11) of the real 2x2 matrices.  ``coeff``
    is called once, on the (2, steps) array of Gauss points.

    One fourth-order Magnus step each (Iserles & Norsett 1999; Blanes,
    Casas, Oteo & Ros 2009, section 4): with c1 and c2 the coefficient at
    the two Gauss points of a step of width h,
    Omega = [[d, h], [h cbar, -d]], cbar = (c1 + c2) / 2 and
    d = (sqrt(3) h^2 / 12)(c1 - c2).  Omega is traceless with
    Omega^2 = theta I, theta = d^2 + h^2 cbar, so
    exp(Omega) = cosh(sqrt theta) I + (sinh(sqrt theta) / sqrt theta) Omega.
    """
    h = hi - lo
    centres = lo + 0.5 * h
    c1, c2 = coeff(np.stack((centres - GAUSS2_X * h, centres + GAUSS2_X * h)))
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
    phi at the midpoint.  Overflow leaves non-finite values, which the
    caller locates.  ``coeff`` maps an array of points to the coefficient
    at each; ``nfev`` counts its calls (two, see :class:`Trajectory`), and
    ``benchmarks/tracer.py`` sums it under this function's name.
    """
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        l00, l01, l10, l11 = _magnus_steps(coeff, nodes[:-1], mids)
        r00, r01, r10, r11 = _magnus_steps(coeff, mids, nodes[1:])
        cells = zip(
            (r00 * l00 + r01 * l10).tolist(), (r00 * l01 + r01 * l11).tolist(),
            (r10 * l00 + r11 * l10).tolist(), (r10 * l01 + r11 * l11).tolist(),
        )
        v, s = complex(initial[0]), complex(initial[1])
        values, slopes = [v], [s]
        for p00, p01, p10, p11 in cells:
            v, s = p00 * v + p01 * s, p10 * v + p11 * s
            values.append(v)
            slopes.append(s)
        values, slopes = np.array(values), np.array(slopes)
        midpoints = l00 * values[:-1] + l01 * slopes[:-1]
    return Trajectory(values, slopes, midpoints, 2)


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
    uniform Hermite grid.  The nodes give the stored table, and phi at
    the cell midpoints audits the cubic Hermite prediction there, which
    is built from the nodes alone.
    """
    lo, hi = _check_axis_range(spec, a, omega_range)
    v0, s0 = complex(initial[0]), complex(initial[1])
    if not (np.isfinite([v0.real, v0.imag, s0.real, s0.imag]).all()):
        raise ConfigurationError(f"initial data {initial!r} must be finite")

    nodes = _uniform_nodes(lo, hi)
    lam = constants.as_tuple()
    path = solve_ivp(lambda w: _axis_rate(spec, a - 1, lam, 1.0, w), nodes, (v0, s0))
    _audit(nodes, path.values, path.slopes, path.midpoints, f"the factor on axis {a}")
    return AxisInterpolant(axis=a, nodes=nodes, values=path.values, slopes=path.slopes)


def _midpoint_miss(nodes: np.ndarray, values, slopes, exact) -> np.ndarray:
    """|cubic Hermite prediction - exact| at every cell midpoint, over the
    largest node value; the prediction is built from the nodes alone."""
    dx = float(nodes[1] - nodes[0])
    predicted = 0.5 * (values[:-1] + values[1:]) + 0.125 * dx * (slopes[:-1] - slopes[1:])
    return np.abs(predicted - exact) / max(float(np.max(np.abs(values))), 1e-300)


def _audit(nodes: np.ndarray, values, slopes, exact, what: str) -> None:
    """Check a Hermite table against its exact values at the cell midpoints.

    ``values`` and ``slopes`` belong to the nodes, ``exact`` to the
    midpoints.  A non-finite entry raises :class:`IntegrationError` at the
    first node or midpoint that holds one, and so does a midpoint whose
    :func:`_midpoint_miss` exceeds ``INTERP_BUDGET``.
    """
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    # every node and midpoint, in the order a propagation reaches them
    finite = np.empty(2 * len(nodes) - 1, dtype=bool)
    finite[0::2] = np.isfinite(values) & np.isfinite(slopes)
    finite[1::2] = np.isfinite(exact)
    if not finite.all():
        first = int(np.argmin(finite))
        where = nodes[first // 2] if first % 2 == 0 else mids[first // 2]
        raise IntegrationError(f"{what} overflowed during integration", location=float(where))
    err = _midpoint_miss(nodes, values, slopes, exact)
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


def write_interpolant_csv(interp: AxisInterpolant, dest: TextIO) -> None:
    """Dump the stored nodes as omega, Re phi, Im phi, Re phi', Im phi'."""
    dest.write("omega,re_phi,im_phi,re_dphi,im_dphi\n")
    values = np.asarray(interp.values, dtype=complex)
    slopes = np.asarray(interp.slopes, dtype=complex)
    for w, v, m in zip(interp.nodes, values, slopes):
        dest.write(
            f"{float(w)!r},{float(v.real)!r},{float(v.imag)!r},"
            f"{float(m.real)!r},{float(m.imag)!r}\n"
        )


def read_interpolant_csv(src: TextIO, axis: int) -> AxisInterpolant:
    """Rebuild an :class:`AxisInterpolant` written by the dumper above.

    Every field must be a finite number and the node column strictly
    increasing and uniformly spaced, or :class:`ConfigurationError` is
    raised; floats written with ``repr`` round-trip exactly, so a rebuilt factor
    evaluates bit-for-bit like the original.
    """
    if axis not in (1, 2, 3):
        raise ConfigurationError(f"axis must be 1, 2 or 3, got {axis!r}")
    header = src.readline().strip()
    if header != "omega,re_phi,im_phi,re_dphi,im_dphi":
        raise ConfigurationError(f"unrecognised interpolant header {header!r}")
    nodes, values, slopes = [], [], []
    for line in src:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ConfigurationError(f"malformed interpolant row {line!r}")
        try:
            w, vr, vi, mr, mi = (float(p) for p in parts)
        except ValueError:
            raise ConfigurationError(f"non-numeric field in interpolant row {line!r}") from None
        if not all(map(math.isfinite, (w, vr, vi, mr, mi))):
            raise ConfigurationError(f"non-finite field in interpolant row {line!r}")
        nodes.append(w)
        values.append(complex(vr, vi))
        slopes.append(complex(mr, mi))
    if len(nodes) < 2:
        raise ConfigurationError("interpolant file holds fewer than two nodes")
    arr = np.array(nodes)
    gaps = np.diff(arr)
    if np.any(gaps <= 0.0):
        raise ConfigurationError("interpolant nodes must increase strictly")
    dx = float(gaps[0])
    if float(np.max(np.abs(gaps - dx))) > 1e-9 * dx:
        raise ConfigurationError("interpolant nodes must be uniformly spaced")
    return AxisInterpolant(axis, arr, np.array(values), np.array(slopes))
