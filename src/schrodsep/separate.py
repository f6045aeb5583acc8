"""Reduction to ordinary differential equations and solution assembly.

A separable problem turns into four ODEs: one first-order equation in
time whose solution is a pure quadrature, and three decoupled
second-order equations, one per coordinate.  This module integrates
them, stores each spatial factor as a dense cubic Hermite interpolant,
and reassembles the wavefunction

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

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence, TextIO

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp

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
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
#: Hermite node spacing; the interpolation error of a cubic on this grid
#: sits far below the integrator tolerance, so the stored factor is as
#: good as the dense output everywhere.
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
    axis = a - 1
    iv = spec.system.domain[axis]
    if not iv.contains(omega_a):
        raise DomainError(
            f"omega_{a}={omega_a!r} outside [{iv.lo}, {iv.hi}] for "
            f"{spec.system.sid.value}",
            axis=a,
        )
    lam = constants.as_tuple() if isinstance(constants, SeparationConstants) else tuple(constants)
    row = stackel_row(spec.system, axis, omega_a)
    return spec.f_a0(axis, omega_a) + row[0] * lam[0] + row[1] * lam[1] + row[2] * lam[2]


def _quad(fn: Callable[[float], float], a: float, b: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, estimate = quad(fn, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)
        except IntegrationWarning as exc:
            raise QuadratureError(f"quadrature over [{a}, {b}] did not converge: {exc}") from exc
    if estimate > 10.0 * max(QUAD_EPSABS, abs(value) * QUAD_EPSREL):
        raise QuadratureError(
            f"quadrature over [{a}, {b}] reports error {estimate:.2e} beyond tolerance"
        )
    return value


def _check_t_range(t_range, anchor: float) -> tuple[float, float]:
    lo, hi = check_range("time range", t_range[0], t_range[1])
    if not (lo <= anchor <= hi):
        raise ConfigurationError(f"anchor t0={anchor} outside time range ({lo}, {hi})")
    return lo, hi


def _remember(memo: dict, t: float, value):
    if len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[t] = value
    return value


@dataclass(frozen=True)
class TemporalFactor:
    """phi0(t) = exp(-i integral_{t0}^{t} (T0 - T_i lambda_i)), anchored to 1.

    The imaginary part of T0, -(1/2) sum_i h_i'/h_i, integrates in closed
    form: the modulus is exp(-(1/2) sum_i log(h_i(t)/h_i(t0))).  The phase
    is an adaptive quadrature of the real part.  Each instance remembers
    its last few values by exact t, so the repeated times of a residual
    stencil are integrated once; ``dataclasses.replace`` starts afresh.
    """

    spec: PotentialSpec
    constants: SeparationConstants
    t_lo: float
    t_hi: float
    anchor: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _phase_rate(self, tau: float) -> float:
        T = t_functions(self.spec.system, self.spec.frame, tau)
        lam = self.constants.as_tuple()
        return self.spec.t0_tilde(tau)[0] - (T[0] * lam[0] + T[1] * lam[1] + T[2] * lam[2])

    def _log_modulus(self, t: float) -> float:
        frame = self.spec.frame
        acc = 0.0
        for hp in (frame.h1, frame.h2, frame.h3):
            h, h0 = hp(t)[0], hp(self.anchor)[0]
            if not (h > 0.0 and h0 > 0.0):
                raise ConfigurationError(f"frame scale non-positive at t={t}")
            acc += math.log(h / h0)
        return -0.5 * acc

    def __call__(self, t: float) -> complex:
        if not (self.t_lo <= t <= self.t_hi):
            raise OutOfRangeError(f"t={t} outside tabulated range ({self.t_lo}, {self.t_hi})")
        if t == self.anchor:
            return 1.0 + 0.0j
        if t in self._memo:
            return self._memo[t]
        modulus = complex(math.exp(self._log_modulus(t)))
        phase = _quad(self._phase_rate, self.anchor, t)
        return _remember(self._memo, t, modulus * complex(math.cos(phase), -math.sin(phase)))


def solve_phi0(
    spec: PotentialSpec,
    constants: SeparationConstants,
    t_range: Sequence[float],
    anchor: float = 0.0,
) -> TemporalFactor:
    lo, hi = _check_t_range(t_range, anchor)
    return TemporalFactor(spec, constants, lo, hi, float(anchor))


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


def solve_phi_a(
    spec: PotentialSpec,
    a: int,
    constants: SeparationConstants,
    omega_range: Sequence[float],
    initial: tuple[complex, complex] = (1.0, 0.0),
) -> AxisInterpolant:
    """Integrate phi_a'' = c(omega) phi_a over a compact range.

    ``initial`` is the complex pair (value, slope) at the lower end of
    the range.  The result is tabulated on a uniform Hermite grid whose
    interpolation error is audited against the integrator's dense output.
    """
    lo, hi = _check_axis_range(spec, a, omega_range)
    v0, s0 = complex(initial[0]), complex(initial[1])
    if not (np.isfinite([v0.real, v0.imag, s0.real, s0.imag]).all()):
        raise ConfigurationError(f"initial data {initial!r} must be finite")

    lam = constants.as_tuple()
    axis = a - 1
    system = spec.system

    def coeff(w: float) -> float:
        row = stackel_row(system, axis, w)
        return spec.f_a0(axis, w) + row[0] * lam[0] + row[1] * lam[1] + row[2] * lam[2]

    def rhs(w, y):
        c = coeff(float(w))
        return (y[2], y[3], c * y[0], c * y[1])

    sol = solve_ivp(
        rhs,
        (lo, hi),
        (v0.real, v0.imag, s0.real, s0.imag),
        method="RK45",
        rtol=ODE_RTOL,
        atol=ODE_ATOL,
        dense_output=True,
    )
    if not sol.success:
        raise IntegrationError(
            f"integration stalled on axis {a}: {sol.message}", location=float(sol.t[-1])
        )

    nodes = _uniform_nodes(lo, hi)
    Y = sol.sol(nodes)
    values = Y[0] + 1j * Y[1]
    slopes = Y[2] + 1j * Y[3]
    if not np.isfinite(Y).all():
        bad = nodes[~np.isfinite(Y).all(axis=0)][0]
        raise IntegrationError(
            f"factor on axis {a} overflowed during integration", location=float(bad)
        )

    # Audit the Hermite grid against the dense output at cell midpoints.
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    Ym = sol.sol(mids)
    exact = Ym[0] + 1j * Ym[1]
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


def _midpoint_seed(factors) -> tuple[float, float, float]:
    return tuple(0.5 * (f.lo + f.hi) for f in factors)


def evaluate_psi(solution: SeparatedSolution, t: float, x, omega_hint=None) -> complex:
    """Reassemble psi = Q phi0 phi1 phi2 phi3 at a laboratory point.

    Without an ``omega_hint`` the chart inversion is seeded from the
    centre of the solved box, which is adequate anywhere inside it.
    """
    spec = solution.spec
    if omega_hint is None:
        omega_hint = _midpoint_seed(solution.factors)
    z = unembed(spec.frame, t, x)
    omega = invert(spec.system, z, omega_hint)
    value = solution.phi0(t)
    for i in range(3):
        value *= solution.factors[i](float(omega[i]))
    if solution.q_kind is QKind.PHASE:
        S = phase_factor_S(spec, t, x)
        value *= complex(math.cos(S), math.sin(S))
    return value


def lambda_jacobian(spec: PotentialSpec, t: float, omega) -> np.ndarray:
    """Derivative of the four reduced right-hand sides with respect to lambda.

    Rows: the time equation (-T_i), then the three coefficient rows
    (F_ai).  Full column rank means every constant genuinely steers the
    reduced system.
    """
    T = t_functions(spec.system, spec.frame, t)
    rows = [(-T[0], -T[1], -T[2])]
    for axis in range(3):
        rows.append(stackel_row(spec.system, axis, float(omega[axis])))
    return np.array(rows)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi branch


@dataclass(frozen=True)
class HJTemporal:
    """phi0(t) = integral_{t0}^{t} (-T0_tilde - T_i lambda_i), real-valued.

    Remembers its last few values by exact t, like :class:`TemporalFactor`.
    """

    spec: PotentialSpec
    constants: SeparationConstants
    t_lo: float
    t_hi: float
    anchor: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _rate(self, tau: float) -> float:
        T = t_functions(self.spec.system, self.spec.frame, tau)
        lam = self.constants.as_tuple()
        return -self.spec.t0_tilde(tau)[0] - (T[0] * lam[0] + T[1] * lam[1] + T[2] * lam[2])

    def __call__(self, t: float) -> float:
        if not (self.t_lo <= t <= self.t_hi):
            raise OutOfRangeError(f"t={t} outside tabulated range ({self.t_lo}, {self.t_hi})")
        if t == self.anchor:
            return 0.0
        if t in self._memo:
            return self._memo[t]
        return _remember(self._memo, t, _quad(self._rate, self.anchor, t))


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


def _cell_integrals(
    fn: Callable[[float], float], nodes: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Integral of ``fn`` over each cell between consecutive ``nodes``.

    ``ends`` holds ``fn`` at the nodes; :func:`hj_solve` describes the
    rule, its error estimate and the fallback.  A cell whose estimate is
    not finite falls back too.
    """
    half = 0.5 * np.diff(nodes)
    mids = nodes[:-1] + half
    off = LOBATTO_X * half
    centre = np.array([fn(float(w)) for w in mids])
    left = np.array([fn(float(w)) for w in mids - off])
    right = np.array([fn(float(w)) for w in mids + off])
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
    turning point, which the separated action cannot cross.

    The speed sqrt(...) is evaluated once at every Hermite node; those
    values are the stored slopes and the ends of a five-point
    Gauss-Lobatto rule on each cell, which adds the midpoint and the two
    points +-sqrt(3/7) h/2 around it.  Simpson's rule on the same ends and
    midpoint gives the error estimate: a cell is accepted when the two
    differ by at most max(QUAD_EPSABS, QUAD_EPSREL |value|), the budget of
    the adaptive quadrature.  Since the difference bounds Simpson's error,
    the test is conservative for the degree-7 Lobatto value.  A cell that
    fails it, such as one holding the kink of the clamp at zero near a
    turning point, is integrated by adaptive QUADPACK alone, which raises
    :class:`QuadratureError` if it cannot meet the budget either.  The
    node values are the running sum of the cell integrals.
    """
    if len(ranges) != 3:
        raise ConfigurationError("ranges must hold one (lo, hi) pair per axis")
    signs = tuple(int(s) for s in signs)
    if len(signs) != 3 or any(s not in (-1, 1) for s in signs):
        raise ConfigurationError(f"branch signs must be three values of +-1, got {signs!r}")
    t_lo, t_hi = _check_t_range(t_range, anchor)
    bounds = [_check_axis_range(spec, a, ranges[a - 1]) for a in (1, 2, 3)]
    lam = constants.as_tuple()

    terms = []
    for a, (lo, hi) in zip((1, 2, 3), bounds):
        axis = a - 1

        def radicand(w: float, axis=axis) -> float:
            row = stackel_row(spec.system, axis, w)
            return -spec.f_a0(axis, w) + row[0] * lam[0] + row[1] * lam[1] + row[2] * lam[2]

        grid = np.linspace(lo, hi, RADICAND_GRID)
        rad = np.array([radicand(float(w)) for w in grid])
        if np.any(rad < 0.0):
            first = float(grid[np.argmax(rad < 0.0)])
            raise TurningPointError(
                f"radicand negative on axis {a} near omega={first:.6g}",
                axis=a,
                omega=first,
            )

        def speed(w: float, radicand=radicand) -> float:
            return math.sqrt(max(radicand(w), 0.0))

        nodes = _uniform_nodes(lo, hi)
        ends = np.array([speed(float(w)) for w in nodes])
        values = np.zeros(len(nodes))
        np.cumsum(_cell_integrals(speed, nodes, ends), out=values[1:])
        sgn = float(signs[a - 1])
        slopes = sgn * ends
        terms.append(AxisInterpolant(axis=a, nodes=nodes, values=sgn * values, slopes=slopes))

    phi0 = HJTemporal(spec, constants, t_lo, t_hi, float(anchor))
    return HJAction(spec, constants, phi0, tuple(terms), signs)


def evaluate_action(action: HJAction, t: float, x, omega_hint=None) -> float:
    """u(t, x) for a separated action."""
    spec = action.spec
    if omega_hint is None:
        omega_hint = _midpoint_seed(action.terms)
    z = unembed(spec.frame, t, x)
    omega = invert(spec.system, z, omega_hint)
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

    The node column must be strictly increasing and uniformly spaced;
    floats written with ``repr`` round-trip exactly, so a rebuilt factor
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
        w, vr, vi, mr, mi = (float(p) for p in parts)
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
