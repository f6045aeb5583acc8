"""Reduction to ordinary differential equations and solution assembly.

A separable problem turns into four ODEs: one first-order equation in
time whose solution is a pure quadrature, and three decoupled
second-order equations, one per coordinate.  This module integrates
them with numpy alone: the time integrals by adaptive Gauss-Kronrod
quadrature, the spatial equations by a fourth-order Magnus propagator
whose steps are the half cells of a uniform grid.  It stores each
spatial factor as a dense cubic Hermite interpolant on that grid and
reassembles the wavefunction

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

import heapq
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
from .frame import unembed
from .potential import PotentialKind, PotentialSpec, phase_factor_S
from .stackel import stackel_row, t_functions

QUAD_EPSREL = 1e-11
QUAD_EPSABS = 1e-13
#: Most subintervals one adaptive quadrature may hold; each bisection adds
#: one, so an integral costs at most 15 * (2 * QUAD_LIMIT - 1) evaluations.
QUAD_LIMIT = 200
#: Hermite node spacing; the factors are propagated in steps of half of
#: it, and the interpolation error of a cubic on this grid is audited
#: against the propagated value at every cell midpoint.
NODE_SPACING = 1e-3
INTERP_BUDGET = 1e-9
#: Largest Hermite grid a factor may ask for; checked before anything is
#: integrated, so an oversized range fails at once instead of allocating.
MAX_NODES = 10**6
#: Distinct times a temporal factor remembers.  A residual sample visits
#: five (t and t +- ht, t +- 2ht) and most of its 17 evaluations share t.
MEMO_SIZE = 8


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

#: Gauss-Kronrod (7, 15) rule on [-1, 1] (Piessens et al., QUADPACK,
#: routine qk15): the Kronrod abscissae from the outermost in to 0 and
#: their weights; the odd-indexed abscissae are the 7-point Gauss nodes,
#: whose weights are GAUSS7_W.
KRONROD15_X = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
KRONROD15_W = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
GAUSS7_W = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _quad_budget(value: float) -> float:
    return max(QUAD_EPSABS, QUAD_EPSREL * abs(value))


def _gk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """The K15 value over [a, b] and its error estimate |K15 - G7|."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f = fn(centre)
    kronrod, gauss = KRONROD15_W[7] * f, GAUSS7_W[3] * f
    for j in range(7):
        dx = half * KRONROD15_X[j]
        pair = fn(centre - dx) + fn(centre + dx)
        kronrod += KRONROD15_W[j] * pair
        if j % 2:
            gauss += GAUSS7_W[j // 2] * pair
    return half * kronrod, abs(half * (kronrod - gauss))


def quad(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Integral of ``fn`` from a to b and its error estimate.

    Global adaptive Gauss-Kronrod (7, 15): the interval with the largest
    estimate is bisected until the summed estimate is within
    max(QUAD_EPSABS, QUAD_EPSREL |value|) or ``QUAD_LIMIT`` subintervals
    are held.  A non-finite integrand value stops it at once with a
    non-finite value.  :func:`_quad` checks the result.  Each integral is
    one call, which ``benchmarks/tracer.py`` counts under this name.
    """
    value, error = _gk15(fn, a, b)
    cells = [(-error, a, b, value)]
    while (
        math.isfinite(value + error)
        and error > _quad_budget(value)
        and len(cells) < QUAD_LIMIT
    ):
        _, lo, hi, _ = heapq.heappop(cells)
        mid = 0.5 * (lo + hi)
        for left, right in ((lo, mid), (mid, hi)):
            v, e = _gk15(fn, left, right)
            heapq.heappush(cells, (-e, left, right, v))
        value = sum(cell[3] for cell in cells)
        error = sum(-cell[0] for cell in cells)
    return value, error


def _quad(fn: Callable[[float], float], a: float, b: float) -> float:
    """:func:`quad`, or :class:`QuadratureError` unless it met its budget."""
    value, error = quad(fn, a, b)
    if not math.isfinite(value):
        raise QuadratureError(f"integrand not finite on [{a}, {b}]")
    if not error <= _quad_budget(value):
        raise QuadratureError(
            f"quadrature over [{a}, {b}] reports error {error:.2e} beyond tolerance "
            f"after {QUAD_LIMIT} subintervals"
        )
    return value


@dataclass(frozen=True)
class _TimeIntegral:
    """The integral from the anchor t0 to t of s T0_tilde - T_i lambda_i.

    s = +1 drives the phase of the wave factor, s = -1 is the time term
    of the action.  Each instance remembers its last ``MEMO_SIZE`` values
    by exact t, so the repeated times of a residual stencil are
    integrated once; ``dataclasses.replace`` starts afresh.  Each
    subclass defines its own ``__call__``, the name under which
    ``benchmarks/tracer.py`` wraps it.
    """

    spec: PotentialSpec
    constants: SeparationConstants
    t_lo: float
    t_hi: float
    anchor: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: The sign s of T0_tilde in the rate.
    _T0_SIGN: ClassVar[float]

    @classmethod
    def _over(cls, spec, constants, t_range, anchor: float):
        """An instance over ``t_range``; :class:`ConfigurationError` unless
        the range is finite and nonempty and holds the anchor."""
        lo, hi = check_range("time range", t_range[0], t_range[1])
        if not (lo <= anchor <= hi):
            raise ConfigurationError(f"anchor t0={anchor} outside time range ({lo}, {hi})")
        return cls(spec, constants, lo, hi, float(anchor))

    def _rate(self, tau: float) -> float:
        T = t_functions(self.spec.system, self.spec.frame, tau)
        lam = self.constants.as_tuple()
        t0 = self._T0_SIGN * self.spec.t0_tilde(tau)[0]
        return t0 - (T[0] * lam[0] + T[1] * lam[1] + T[2] * lam[2])

    def _integral(self, t: float) -> float:
        return _quad(self._rate, self.anchor, t)

    def _memoised(self, t: float, at_anchor, compute: Callable[[float], object]):
        """``compute(t)`` remembered, ``at_anchor`` at t0, checked against the range."""
        if not (self.t_lo <= t <= self.t_hi):
            raise OutOfRangeError(f"t={t} outside tabulated range ({self.t_lo}, {self.t_hi})")
        if t == self.anchor:
            return at_anchor
        if t in self._memo:
            return self._memo[t]
        value = compute(t)
        if len(self._memo) >= MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        self._memo[t] = value
        return value


class TemporalFactor(_TimeIntegral):
    """phi0(t) = exp(-i integral_{t0}^{t} (T0 - T_i lambda_i)), anchored to 1.

    The imaginary part of T0, -(1/2) sum_i h_i'/h_i, integrates in closed
    form: the modulus is exp(-(1/2) sum_i log(h_i(t)/h_i(t0))).  The phase
    is an adaptive quadrature of the real part.
    """

    _T0_SIGN = 1.0

    def __call__(self, t: float) -> complex:
        return self._memoised(t, 1.0 + 0.0j, self._wave)

    def _wave(self, t: float) -> complex:
        frame = self.spec.frame
        acc = 0.0
        for h, h0 in zip(frame.scales(t), frame.scales(self.anchor)):
            acc += math.log(h / h0)
        modulus = complex(math.exp(-0.5 * acc))
        phase = self._integral(t)
        return modulus * complex(math.cos(phase), -math.sin(phase))


def solve_phi0(
    spec: PotentialSpec,
    constants: SeparationConstants,
    t_range: Sequence[float],
    anchor: float = 0.0,
) -> TemporalFactor:
    return TemporalFactor._over(spec, constants, t_range, anchor)


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

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    def _cell(self, w: float) -> tuple[int, float, float]:
        if not (self.lo <= w <= self.hi):
            raise OutOfRangeError(
                f"omega_{self.axis}={w} outside tabulated range [{self.lo}, {self.hi}]"
            )
        dx = float(self.nodes[1] - self.nodes[0])
        j = min(int((w - self.lo) / dx), len(self.nodes) - 2)
        return j, (w - float(self.nodes[j])) / dx, dx

    def evaluate(self, w: float):
        """Value and derivative with respect to omega at w."""
        j, s, dx = self._cell(w)
        v0, v1 = self.values[j], self.values[j + 1]
        m0, m1 = self.slopes[j] * dx, self.slopes[j + 1] * dx
        s2, s3 = s * s, s * s * s
        value = (
            (2 * s3 - 3 * s2 + 1) * v0
            + (s3 - 2 * s2 + s) * m0
            + (-2 * s3 + 3 * s2) * v1
            + (s3 - s2) * m1
        )
        deriv = (
            (6 * s2 - 6 * s) * v0
            + (3 * s2 - 4 * s + 1) * m0
            + (-6 * s2 + 6 * s) * v1
            + (3 * s2 - 2 * s) * m1
        ) / dx
        return value, deriv

    def __call__(self, w: float):
        return self.evaluate(w)[0]


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
    n = _node_count(lo, hi)
    if n > MAX_NODES:
        raise ConfigurationError(
            f"omega range ({lo}, {hi}) on axis {a} needs {n} nodes at spacing "
            f"{NODE_SPACING}; at most {MAX_NODES} are allowed"
        )
    return lo, hi


def _node_count(lo: float, hi: float) -> int:
    return max(2, int(math.ceil((hi - lo) / NODE_SPACING)) + 1)


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
    values, slopes, exact = path.values, path.slopes, path.midpoints
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    # every node and midpoint, in the order the propagation reaches them
    finite = np.empty(2 * len(nodes) - 1, dtype=bool)
    finite[0::2] = np.isfinite(values) & np.isfinite(slopes)
    finite[1::2] = np.isfinite(exact)
    if not finite.all():
        first = int(np.argmin(finite))
        where = nodes[first // 2] if first % 2 == 0 else mids[first // 2]
        raise IntegrationError(
            f"factor on axis {a} overflowed during integration", location=float(where)
        )

    dx = float(nodes[1] - nodes[0])
    predicted = 0.5 * (values[:-1] + values[1:]) + 0.125 * dx * (slopes[:-1] - slopes[1:])
    scale = float(np.max(np.abs(values)))
    err = np.abs(predicted - exact)
    worst = int(np.argmax(err))
    if err[worst] > INTERP_BUDGET * max(scale, 1e-300):
        raise IntegrationError(
            f"interpolation error {err[worst] / scale:.2e} on axis {a} exceeds budget",
            location=float(mids[worst]),
        )
    return AxisInterpolant(axis=a, nodes=nodes, values=values, slopes=slopes)


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
    for a in (1, 2, 3):  # every range, before any axis is integrated
        _check_axis_range(spec, a, omega_ranges[a - 1])
    phi0 = solve_phi0(spec, constants, t_range, anchor)
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
    omega = _chart_point(spec, t, x, omega_hint, solution.factors)
    value = solution.phi0(t)
    for i in range(3):
        value *= solution.factors[i](float(omega[i]))
    if solution.q_kind is QKind.PHASE:
        S = phase_factor_S(spec, t, x)
        value *= complex(math.cos(S), math.sin(S))
    return value


# ---------------------------------------------------------------------------
# Hamilton-Jacobi branch


class HJTemporal(_TimeIntegral):
    """phi0(t) = integral_{t0}^{t} (-T0_tilde - T_i lambda_i), real-valued."""

    _T0_SIGN = -1.0

    def __call__(self, t: float) -> float:
        return self._memoised(t, 0.0, self._integral)


@dataclass(frozen=True, eq=False)
class HJAction:
    """Additively separated action u = S + phi0(t) + sum_a phi_a(omega_a)."""

    spec: PotentialSpec
    constants: SeparationConstants
    phi0: HJTemporal
    terms: tuple[AxisInterpolant, AxisInterpolant, AxisInterpolant]
    signs: tuple[int, int, int]


RADICAND_GRID = 256
#: Five-point Gauss-Lobatto rule on [-1, 1]: the ends, +-sqrt(3/7) and 0,
#: with weights 1/10, 49/90 and 32/45 (Davis & Rabinowitz, section 2.7).
LOBATTO_X = math.sqrt(3.0 / 7.0)
LOBATTO_W = (0.1, 49.0 / 90.0, 32.0 / 45.0)


def _cell_integrals(fn: Callable, nodes: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Integral of ``fn`` over each cell between consecutive ``nodes``.

    ``ends`` holds ``fn`` at the nodes, and one call of ``fn`` on a
    (3, cells) array gives the three inner points of every cell; the
    fallback calls it on floats.  :func:`hj_solve` describes the rule,
    its error estimate and the fallback.  A cell whose estimate is not
    finite falls back too.
    """
    half = 0.5 * np.diff(nodes)
    mids = nodes[:-1] + half
    off = LOBATTO_X * half
    left, centre, right = fn(np.stack((mids - off, mids, mids + off)))
    outer = ends[:-1] + ends[1:]
    lobatto = half * (LOBATTO_W[0] * outer + LOBATTO_W[1] * (left + right) + LOBATTO_W[2] * centre)
    simpson = half / 3.0 * (outer + 4.0 * centre)
    budget = np.maximum(QUAD_EPSABS, np.abs(lobatto) * QUAD_EPSREL)
    for j in np.flatnonzero(~(np.abs(lobatto - simpson) <= budget)):
        lobatto[j] = _quad(fn, float(nodes[j]), float(nodes[j + 1]))
    return lobatto


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
    values are the stored slopes and the ends of a five-point
    Gauss-Lobatto rule on each cell, which adds the midpoint and the two
    points +-sqrt(3/7) h/2 around it.  Simpson's rule on the same ends and
    midpoint gives the error estimate: a cell is accepted when the two
    differ by at most max(QUAD_EPSABS, QUAD_EPSREL |value|), the budget of
    the adaptive quadrature.  Since the difference bounds Simpson's error,
    the test is conservative for the degree-7 Lobatto value.  A cell that
    fails it, such as one holding the kink of the clamp at zero near a
    turning point, is integrated by the adaptive Gauss-Kronrod quadrature
    alone, which raises :class:`QuadratureError` if it cannot meet the
    budget either.  The node values are the running sum of the cell
    integrals.
    """
    if len(ranges) != 3:
        raise ConfigurationError("ranges must hold one (lo, hi) pair per axis")
    signs = tuple(int(s) for s in signs)
    if len(signs) != 3 or any(s not in (-1, 1) for s in signs):
        raise ConfigurationError(f"branch signs must be three values of +-1, got {signs!r}")
    phi0 = HJTemporal._over(spec, constants, t_range, anchor)
    bounds = [_check_axis_range(spec, a, ranges[a - 1]) for a in (1, 2, 3)]
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
    omega = _chart_point(spec, t, x, omega_hint, action.terms)
    value = action.phi0(t)
    for i in range(3):
        value += float(action.terms[i](float(omega[i])).real)
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
