"""Tests for the reduced ODEs, factor integration, and reassembly."""

import cmath
import importlib
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import schrodsep.separate
from schrodsep.cli import load_scenario
from schrodsep.coords import make_system, sample_domain
from schrodsep.elliptic import jacobi
from schrodsep.errors import (
    ConfigurationError,
    DomainError,
    IntegrationError,
    OutOfRangeError,
    QuadratureError,
    TurningPointError,
)
from schrodsep.frame import (
    FrameSpec,
    TimeProfile,
    identity_frame,
    make_frame,
    polynomial,
    sinusoid,
)
from schrodsep.potential import coulomb_spec, electrostatic_spec, magnetic_spec, t0_profile
from schrodsep.separate import (
    MAGNUS_TOL,
    QUAD_LIMIT,
    RADICAND_GRID,
    PROBE_CELLS,
    AxisInterpolant,
    _TimeTable,
    HJTemporal,
    QKind,
    SeparationConstants,
    _uniform_nodes,
    evaluate_action,
    evaluate_psi,
    hj_solve,
    ode_coefficient,
    quad,
    read_interpolant_csv,
    separate,
    solve_ivp,
    solve_phi0,
    solve_phi_a,
    write_interpolant_csv,
)
from schrodsep.stackel import stackel_row, stackel_values, t_functions
from schrodsep.verify import chart_box_points, se_report

from test_stackel import build, wiggly_frame

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def free_particle():
    return magnetic_spec(make_system("cartesian"), identity_frame("complete"))


def exp_profile(rate):
    return TimeProfile(
        lambda t: (
            math.exp(rate * t),
            rate * math.exp(rate * t),
            rate * rate * math.exp(rate * t),
        )
    )


# ---------------------------------------------------------------------------
# Separation constants


def test_constants_coerced_to_float():
    lam = SeparationConstants(1, 2, 3)
    assert lam.as_tuple() == (1.0, 2.0, 3.0)


def test_constants_reject_complex():
    with pytest.raises(ConfigurationError):
        SeparationConstants(1.0, 2.0 + 1.0j, 3.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constants_reject_nonfinite(bad):
    with pytest.raises(ConfigurationError):
        SeparationConstants(bad, 0.0, 0.0)


# ---------------------------------------------------------------------------
# ODE coefficients


def test_coefficient_cartesian_identity_row():
    assert ode_coefficient(free_particle(), 1, 0.3, SeparationConstants(-1, 0, 0)) == -1.0


def test_coefficient_coulomb_spherical():
    spec = coulomb_spec("spherical", q=5.0)
    got = ode_coefficient(spec, 1, 1.0, SeparationConstants(2.0, 3.0, 7.0))
    assert got == pytest.approx(4.0)


def test_coefficient_coulomb_parabolic():
    spec = coulomb_spec("parabolic", q=0.0)
    got = ode_coefficient(spec, 1, 0.0, SeparationConstants(1.0, 1.0, 1.0))
    assert got == pytest.approx(-1.0)


def test_coefficient_bad_axis():
    with pytest.raises(ConfigurationError):
        ode_coefficient(free_particle(), 0, 0.0, SeparationConstants(0, 0, 0))


def test_coefficient_outside_domain():
    spec = coulomb_spec("spherical", q=1.0)
    with pytest.raises(DomainError) as info:
        ode_coefficient(spec, 1, -0.5, SeparationConstants(0, 0, 0))
    assert info.value.axis == 1


# ---------------------------------------------------------------------------
# Temporal factor


def test_phi0_static_is_plain_phase():
    lam = SeparationConstants(0.8, 0.0, 0.0)
    phi0 = solve_phi0(free_particle(), lam, (-2.0, 2.0), 0.0)
    for t in (-1.7, -0.2, 0.9, 1.3):
        want = complex(math.cos(0.8 * t), math.sin(0.8 * t))
        assert phi0(t) == pytest.approx(want, abs=1e-12)


def test_phi0_anchor_normalization():
    phi0 = solve_phi0(free_particle(), SeparationConstants(2.0, -1.0, 0.5), (-2.0, 2.0), 0.3)
    assert phi0(0.3) == 1.0 + 0.0j


def test_phi0_envelope_for_expanding_frame():
    rate = 0.4
    frame = make_frame("nonsplit", h1=exp_profile(rate))
    spec = magnetic_spec(make_system("spherical"), frame)
    phi0 = solve_phi0(spec, SeparationConstants(0, 0, 0), (-2.0, 2.0), 0.0)
    for t in (-1.0, 0.5, 1.5):
        assert abs(phi0(t)) == pytest.approx(math.exp(-1.5 * rate * t), rel=1e-10)


def test_phi0_anchor_outside_range_rejected():
    with pytest.raises(ConfigurationError):
        solve_phi0(free_particle(), SeparationConstants(0, 0, 0), (-1.0, 1.0), 2.0)


def test_phi0_evaluation_outside_range_rejected():
    phi0 = solve_phi0(free_particle(), SeparationConstants(0, 0, 0), (-1.0, 1.0), 0.0)
    with pytest.raises(OutOfRangeError):
        phi0(1.5)


def test_phi0_closed_form_modulus_matches_quadrature():
    frame = make_frame(
        "complete",
        h1=exp_profile(0.4),
        h2=polynomial([1.1, 0.05, 0.02]),
        h3=sinusoid(0.2, 0.9, 0.0, 1.4),
    )
    spec = magnetic_spec(make_system("cartesian"), frame)
    phi0 = solve_phi0(spec, SeparationConstants(0.7, -0.4, 0.9), (-2.0, 2.0), 0.3)
    scipy_quad = pytest.importorskip("scipy.integrate").quad
    for t in (-1.9, -0.6, 0.31, 1.2, 2.0):
        log_mod, _ = scipy_quad(
            lambda tau: t0_profile(spec, tau).imag, 0.3, t, epsabs=1e-14, epsrel=1e-13, limit=200
        )
        assert abs(phi0(t)) == pytest.approx(math.exp(log_mod), rel=1e-11, abs=0.0)


def test_phi0_nonpositive_scale_is_configuration_error():
    # Positive on the probe grid [-2, 2], zero at t = 3: the table over
    # (-1, 4) meets it while it is built.
    frame = make_frame("nonsplit", h1=polynomial([3.0, -1.0]))
    spec = magnetic_spec(make_system("spherical"), frame)
    with pytest.raises(ConfigurationError, match=r"non-positive at t=3\.0:"):
        solve_phi0(spec, SeparationConstants(0, 0, 0), (-1.0, 4.0), 0.0)


def _wiggly_temporals():
    spec = magnetic_spec(build("cartesian"), wiggly_frame("complete"), t0_tilde=sinusoid(0.5, 0.8))
    lam = SeparationConstants(0.7, -0.4, 0.9)
    return spec, lam


def _temporal(kind, spec, lam, t_range=(-1.5, 1.5), anchor=0.0):
    if kind == "wave":
        return solve_phi0(spec, lam, t_range, anchor)
    return HJTemporal(spec, lam, t_range[0], t_range[1], anchor)


@pytest.mark.parametrize("kind", ["wave", "hj"])
def test_temporal_table_is_bit_identical_in_any_order(kind):
    spec, lam = _wiggly_temporals()
    times = (0.7, -0.3, 0.701, 1.2, -0.3, 0.698, 0.05, 0.7, 0.0)
    want = {t: _temporal(kind, spec, lam)(t) for t in times}  # each from a fresh table
    forward, backward, swept = (_temporal(kind, spec, lam) for _ in range(3))
    for t in np.linspace(-1.4, 1.4, 25):
        swept(float(t))
    for t in times:
        assert forward(t) == want[t]
        assert swept(t) == want[t]
    for t in reversed(times):
        assert backward(t) == want[t]


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_time_table_reads_the_frame_scales_once_per_grid(path, monkeypatch):
    # The rate and the log-modulus share one read of the scale triples over
    # the nodes and midpoints of a grid, and the table has bit for bit the
    # values of a build that reads them once for each.
    sc = load_scenario(path)
    reads = []
    scale_triples = FrameSpec.scale_triples

    def counted(frame, t):
        reads.append(np.array(t, copy=True))
        return scale_triples(frame, t)

    monkeypatch.setattr(FrameSpec, "scale_triples", counted)
    table = solve_phi0(sc.spec, sc.constants, sc.t_range, sc.anchor)._table
    nodes = np.array(table[1])
    times = np.empty(2 * len(nodes) - 1)
    times[0::2], times[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])
    assert sum(np.array_equal(t, times) for t in reads) == 1

    rate = _TimeTable._rate
    monkeypatch.setattr(_TimeTable, "_rate", lambda self, tau, triples=None: rate(self, tau))
    twice = solve_phi0(sc.spec, sc.constants, sc.t_range, sc.anchor)._table
    for got, want in zip(table[1:], twice[1:]):
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_replaced_temporal_builds_a_new_table():
    spec, lam = _wiggly_temporals()
    damaged = SeparationConstants(1.1 * lam.lambda1, lam.lambda2, lam.lambda3)
    for kind in ("wave", "hj"):
        original = _temporal(kind, spec, lam)
        before = original(0.6)
        tampered = replace(original, constants=damaged)
        assert tampered._table is not original._table
        assert tampered(0.6) != before
        assert tampered(0.6) == _temporal(kind, spec, damaged)(0.6)
        assert original(0.6) == before


@pytest.mark.parametrize("kind", ["wave", "hj"])
def test_time_factor_keeps_the_value_at_its_last_time(kind, monkeypatch):
    # A call at the last time returns its value again without the table;
    # -0.0 and 0.0 are each evaluated from their own key, a NaN time is
    # never kept, and a replaced factor starts empty, so it never returns
    # its parent's value.
    spec, lam = _wiggly_temporals()
    factor, fresh = _temporal(kind, spec, lam, anchor=0.3), _temporal(kind, spec, lam, anchor=0.3)
    evaluated = []
    hermite = schrodsep.separate._hermite

    def counted(grid, w, slope):
        evaluated.append(w)
        return hermite(grid, w, slope)

    monkeypatch.setattr(schrodsep.separate, "_hermite", counted)
    for t in (0.0, 0.0, -0.0, -0.0, 0.0):
        assert factor(t) == fresh(t)
    signs = [math.copysign(1.0, w) for w in evaluated]
    assert signs == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0]  # factor and fresh at each new key
    evaluated.clear()
    for _ in range(2):
        with pytest.raises(OutOfRangeError):
            factor(math.nan)
    assert len(evaluated) == 2
    evaluated.clear()
    before = factor(0.6)
    tampered = replace(factor, constants=SeparationConstants(1.1 * lam.lambda1, lam.lambda2,
                                                             lam.lambda3))
    assert tampered._kept == (b"", None)
    assert tampered(0.6) != before and evaluated.count(0.6) == 2


@pytest.mark.parametrize("t_range", [(-1.5, 1.5), (-10.0, 10.0)], ids=["narrow", "wide"])
@pytest.mark.parametrize("kind", ["wave", "hj"])
def test_temporal_table_matches_quadpack_reference(kind, t_range):
    spec, lam = _wiggly_temporals()
    anchor = 0.3
    table = _temporal(kind, spec, lam, t_range, anchor)
    if t_range[1] > 5.0:  # the wiggly rate is smooth enough for a coarser grid
        assert len(table._table[1]) < len(_uniform_nodes(*t_range)) // 2
    sign = 1.0 if kind == "wave" else -1.0

    def rate(tau):
        T = t_functions(spec.system, spec.frame, tau)
        return sign * spec.t0_tilde(tau)[0] - sum(Ti * li for Ti, li in zip(T, lam.as_tuple()))

    h0 = spec.frame.scales(anchor)
    scipy_quad = pytest.importorskip("scipy.integrate").quad
    for t in np.random.default_rng(16).uniform(*t_range, 200).tolist():
        integral = scipy_quad(rate, anchor, t, epsabs=1e-14, epsrel=1e-13)[0]
        if kind == "hj":
            assert table(t) == pytest.approx(integral, rel=1e-10, abs=1e-13)
            continue
        modulus = math.exp(-0.5 * sum(math.log(h / g) for h, g in zip(spec.frame.scales(t), h0)))
        want = modulus * complex(math.cos(integral), -math.sin(integral))
        assert abs(table(t)) == pytest.approx(modulus, rel=1e-10)
        assert abs(table(t) - want) <= 1e-10 * abs(want)


def test_fast_time_factor_separates_and_verifies():
    # phi0 = exp(-40 i t) turns 40 rad per unit time, but its exponent is
    # linear: the coarsest time grid holds it to rounding.
    spec, box = free_particle(), ((-0.5, 0.5),) * 3
    solution = separate(
        spec, SeparationConstants(-40.0, 0.0, 0.0), omega_ranges=box, t_range=(-1.0, 1.0)
    )
    assert len(solution.phi0._table[1]) == PROBE_CELLS + 1
    for t in np.random.default_rng(40).uniform(-1.0, 1.0, 50).tolist():
        assert abs(solution.phi0(t) - cmath.exp(-40j * t)) <= 1e-12
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 20, 3)
    report = se_report(
        lambda t, x, hint: evaluate_psi(solution, t, x, hint),
        spec,
        [(t, x) for t, x, _ in points],
        hints=[omega for _, _, omega in points],
    )
    assert report.max_relative < 1e-5


@pytest.mark.parametrize("kind", ["wave", "hj"])
def test_underresolved_time_driver_is_integration_error(kind):
    # The phase of sin(3000 t) turns by 1.5 rad per half cell: its cubic
    # Hermite table misses the midpoints by far more than the budget.
    spec = magnetic_spec(
        make_system("cartesian"), identity_frame("complete"), t0_tilde=sinusoid(1.0, 3000.0)
    )
    with pytest.raises(IntegrationError, match="time factor") as info:
        _temporal(kind, spec, SeparationConstants(0.7, -0.4, 0.9), t_range=(-0.1, 0.1))
    assert -0.1 < info.value.location < 0.1


def test_oversized_time_range_rejected_before_any_table(monkeypatch):
    module = importlib.import_module("schrodsep.separate")

    def forbidden(*args, **kwargs):
        raise AssertionError("an oversized time range reached a table")

    for name in ("solve_ivp", "quad", "_uniform_nodes"):
        monkeypatch.setattr(module, name, forbidden)
    lam = SeparationConstants(1, 1, 1)
    ranges = ((0.0, 1.0),) * 3
    with pytest.raises(ConfigurationError, match="time range .* nodes"):
        separate(free_particle(), lam, omega_ranges=ranges, t_range=(-2.0, 1e4))
    with pytest.raises(ConfigurationError, match="time range .* nodes"):
        hj_solve(free_particle(), lam, ranges, t_range=(-2.0, 1e4))


@pytest.mark.parametrize(
    "bad", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (-math.inf, math.inf)]
)
def test_nonfinite_ranges_rejected(bad):
    lam = SeparationConstants(1, 1, 1)
    with pytest.raises(ConfigurationError, match="finite"):
        solve_phi0(free_particle(), lam, bad, 0.0 if bad[0] < 0.0 else 0.5)
    with pytest.raises(ConfigurationError, match="finite"):
        solve_phi_a(free_particle(), 1, lam, bad)
    with pytest.raises(ConfigurationError, match="finite"):
        hj_solve(free_particle(), lam, ((0, 1), (0, 1), bad))


def test_overflowing_span_rejected():
    lam = SeparationConstants(1, 1, 1)
    with pytest.raises(ConfigurationError, match="finite"):
        solve_phi_a(free_particle(), 1, lam, (-1e308, 1e308))
    with pytest.raises(ConfigurationError, match="finite"):
        hj_solve(free_particle(), lam, ((0, 1), (0, 1), (-1e308, 1e308)))


def test_oversized_range_rejected_before_integration(monkeypatch):
    module = importlib.import_module("schrodsep.separate")

    def forbidden(*args, **kwargs):
        raise AssertionError("an oversized range reached integration")

    for name in ("solve_ivp", "quad", "_uniform_nodes"):
        monkeypatch.setattr(module, name, forbidden)
    lam = SeparationConstants(1, 1, 1)
    ranges = ((0.0, 1.0), (0.0, 1.0), (-1e6, 1e6))
    with pytest.raises(ConfigurationError, match="nodes"):
        separate(free_particle(), lam, omega_ranges=ranges)
    with pytest.raises(ConfigurationError, match="nodes"):
        hj_solve(free_particle(), lam, ranges)


# ---------------------------------------------------------------------------
# Spatial factors


def test_phi_a_harmonic_matches_cosine():
    k = 2.0
    phi = solve_phi_a(free_particle(), 1, SeparationConstants(-k * k, 0, 0), (-1.0, 1.0))
    grid = np.linspace(-1.0, 1.0, 601)
    worst = max(abs(phi(w) - math.cos(k * (w + 1.0))) for w in grid)
    assert worst <= 1e-9
    worst_d = max(
        abs(phi.evaluate(w)[1] + k * math.sin(k * (w + 1.0))) for w in grid
    )
    assert worst_d <= 1e-8


def test_phi_a_hyperbolic_matches_cosh():
    k = 2.0
    phi = solve_phi_a(free_particle(), 2, SeparationConstants(0, k * k, 0), (0.0, 1.5))
    grid = np.linspace(0.0, 1.5, 400)
    worst = max(abs(phi(w) - math.cosh(k * w)) / math.cosh(k * w) for w in grid)
    assert worst <= 1e-9


def test_phi_a_complex_initial_data():
    k = 1.3
    phi = solve_phi_a(
        free_particle(), 3, SeparationConstants(0, 0, -k * k), (0.0, 2.0), (1.0, 1j * k)
    )
    for w in (0.4, 1.1, 1.9):
        assert phi(w) == pytest.approx(np.exp(1j * k * w), abs=1e-9)


def test_phi_a_airy_matches_scipy():
    # c(w) = w varies across every step, so the commutator term of the
    # Magnus step matters; Ai + i Bi is the reference.
    airy = pytest.importorskip("scipy.special").airy
    spec = magnetic_spec(make_system("cartesian"), identity_frame("complete"), f10=lambda w: w)
    ai, aip, bi, bip = airy(-6.0)
    phi = solve_phi_a(spec, 1, SeparationConstants(0, 0, 0), (-6.0, 2.0),
                      (complex(ai, bi), complex(aip, bip)))
    a, ap, b, bp = airy(phi.nodes)
    assert np.max(np.abs(phi.values - (a + 1j * b)) / np.abs(a + 1j * b)) <= 1e-11
    assert np.max(np.abs(phi.slopes - (ap + 1j * bp)) / np.abs(ap + 1j * bp)) <= 1e-11


def test_phi_a_zero_coefficient_is_a_line():
    # theta = 0 on every step: the propagator comes from its series alone.
    phi = solve_phi_a(free_particle(), 1, SeparationConstants(0, 0, 0), (-0.5, 0.7), (1.0, 2.0))
    assert np.max(np.abs(phi.values - (1.0 + 2.0 * (phi.nodes + 0.5)))) <= 1e-12
    assert np.all(phi.slopes == 2.0)


def test_phi_a_taylor_series_oracle():
    # Around omega0 = 1/2 the coefficient -2/w^2 + 1/w^3 is analytic, so the
    # solution has a power series whose recurrence is an independent route.
    spec = coulomb_spec("spherical", q=1.0)
    lam = SeparationConstants(0.0, 2.0, 0.3)
    w0 = 0.5
    phi = solve_phi_a(spec, 1, lam, (w0, 1.5))
    n_terms = 70
    c = np.array(
        [
            (-1.0) ** m
            * (-2.0 * (m + 1) * w0 ** (-2 - m) + 0.5 * (m + 2) * (m + 1) * w0 ** (-3 - m))
            for m in range(n_terms)
        ]
    )
    coef = np.zeros(n_terms + 2)
    coef[0] = 1.0
    for n in range(n_terms):
        coef[n + 2] = sum(c[m] * coef[n - m] for m in range(n + 1)) / ((n + 2) * (n + 1))
    for s in (0.02, 0.04, 0.06, 0.08, 0.10):
        series = sum(coef[n] * s**n for n in range(n_terms + 2))
        assert abs(phi(w0 + s) - series) <= 1e-8


def test_phi_a_rejects_range_outside_domain():
    spec = coulomb_spec("spherical", q=1.0)
    with pytest.raises(DomainError):
        solve_phi_a(spec, 1, SeparationConstants(0, 0, 0), (-1.0, 1.0))


def test_phi_a_rejects_empty_range():
    with pytest.raises(ConfigurationError):
        solve_phi_a(free_particle(), 1, SeparationConstants(0, 0, 0), (1.0, 1.0))


def test_phi_a_overflow_reports_location():
    spec = magnetic_spec(
        make_system("cartesian"), identity_frame("complete"), f10=lambda w: 1e8
    )
    with pytest.raises(IntegrationError) as info:
        solve_phi_a(spec, 1, SeparationConstants(0, 0, 0), (0.0, 2.0))
    assert info.value.location is not None
    assert 0.0 <= info.value.location <= 2.0


def test_overflow_on_a_probe_grid_is_located_at_node_spacing():
    # The probe grids overflow too and give up; the grid at NODE_SPACING
    # names the first node or midpoint its propagation cannot reach.
    spec = magnetic_spec(
        make_system("cartesian"), identity_frame("complete"), f10=lambda w: 1e8
    )
    lam = SeparationConstants(0, 0, 0)
    with pytest.raises(IntegrationError, match="factor on axis 1 overflowed") as info:
        solve_phi_a(spec, 1, lam, (0.0, 2.0))
    nodes = _uniform_nodes(0.0, 2.0)
    path = solve_ivp(lambda w: np.full(np.shape(w), 1e8), nodes, (1.0, 0.0))
    at = np.empty(2 * len(nodes) - 1)  # nodes and midpoints, in propagation order
    at[0::2], at[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])
    finite = np.empty(len(at), dtype=bool)
    finite[0::2] = np.isfinite(path.values + path.slopes + path.curvatures)
    finite[1::2] = np.isfinite(path.midpoints)
    assert info.value.location == at[np.argmin(finite)]


def _quintic_factor(p, nodes):
    """The quintic table of the complex polynomial with coefficients p
    (lowest first) on ``nodes``, built from its exact derivatives."""
    poly = np.polynomial.Polynomial(p)
    columns = (poly(nodes), poly.deriv(1)(nodes), poly.deriv(2)(nodes))
    return AxisInterpolant(1, nodes, *columns), poly


def test_quintic_reproduces_a_degree_five_polynomial():
    p = np.array([0.3 - 1j, -1.2 + 0.5j, 0.7, 2.0 - 0.3j, -1.5 + 1j, 0.8 + 0.2j])
    table, poly = _quintic_factor(p, np.linspace(-1.3, 0.9, 12))
    for w in np.random.default_rng(5).uniform(-1.3, 0.9, 300).tolist():
        value, slope = table.evaluate(w)
        assert abs(value - poly(w)) <= 1e-14 * 8.0
        assert abs(slope - poly.deriv(1)(w)) <= 1e-13 * 8.0
    assert table(0.9) == pytest.approx(complex(poly(0.9)), abs=1e-14 * 8.0)


def test_quintic_is_twice_continuously_differentiable_across_nodes():
    # Each cell's polynomial ends, in value, slope and phi'', where the
    # next one starts: both match the node's three stored columns.
    k = 2.3
    phi = solve_phi_a(free_particle(), 1, SeparationConstants(-k * k, 0, 0), (0.0, 1.0),
                      (1.0, 1j * k))
    cells = np.array(phi._grid[2]).T  # (6, cells): c_0 .. c_5
    dx = phi._grid[3]
    ends = (
        cells.sum(axis=0),
        (np.arange(6)[:, None] * cells).sum(axis=0) / dx,
        (np.arange(6)[:, None] * np.arange(-1, 5)[:, None] * cells).sum(axis=0) / dx**2,
    )
    starts = (cells[0], cells[1] / dx, 2.0 * cells[2] / dx**2)
    stored = (phi.values, phi.slopes, phi.curvatures)
    for end, start, column in zip(ends, starts, stored):
        scale = np.max(np.abs(column))
        assert np.max(np.abs(end[:-1] - start[1:])) <= 1e-13 * scale
        assert np.max(np.abs(end - column[1:])) <= 1e-13 * scale
        assert np.max(np.abs(start - column[:-1])) <= 1e-13 * scale


def test_quintic_power_form_matches_the_hermite_basis():
    # c_k s^k summed by Horner's rule against the six quintic Hermite basis
    # functions of value, slope and second derivative at both ends.
    sc = load_scenario(SCENARIOS / "magnetic_spherical_rotating.json")
    solution = separate(sc.spec, sc.constants, omega_ranges=sc.omega_ranges, t_range=sc.t_range)
    for f in solution.factors:
        nodes, dx = f.nodes, float(f.nodes[1] - f.nodes[0])
        scale = np.max(np.abs(f.values))
        for w in np.random.default_rng(f.axis).uniform(f.lo, f.hi, 300).tolist():
            j = min(int((w - f.lo) / dx), len(nodes) - 2)
            s = (w - nodes[j]) / dx
            basis = (
                1 - 10 * s**3 + 15 * s**4 - 6 * s**5,
                s - 6 * s**3 + 8 * s**4 - 3 * s**5,
                (s**2 - 3 * s**3 + 3 * s**4 - s**5) / 2,
                10 * s**3 - 15 * s**4 + 6 * s**5,
                -4 * s**3 + 7 * s**4 - 3 * s**5,
                (s**3 - 2 * s**4 + s**5) / 2,
            )
            data = (f.values[j], dx * f.slopes[j], dx * dx * f.curvatures[j],
                    f.values[j + 1], dx * f.slopes[j + 1], dx * dx * f.curvatures[j + 1])
            hermite = sum(b * d for b, d in zip(basis, data))
            assert abs(f(w) - hermite) <= 1e-14 * scale


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_chosen_grid_factors_match_the_node_spacing_propagation(path):
    # A factor on its chosen grid, read at the nodes of the grid at
    # NODE_SPACING, holds the values and slopes of the propagation on that
    # grid to 10 MAGNUS_TOL of the largest, and phi'' = c phi at its own
    # nodes.
    sc = load_scenario(path)
    solution = separate(sc.spec, sc.constants, omega_ranges=sc.omega_ranges, t_range=sc.t_range)
    lam = sc.constants.as_tuple()
    for f in solution.factors:
        fine = _uniform_nodes(f.lo, f.hi)
        assert len(f.nodes) <= len(fine) // 2 + 1

        def coeff(w, axis=f.axis - 1):
            return schrodsep.separate._axis_rate(sc.spec, axis, lam, 1.0, w)

        want = solve_ivp(coeff, fine, (1.0, 0.0))
        got = np.array([f.evaluate(w) for w in fine.tolist()])
        for column, reference in zip(got.T, (want.values, want.slopes)):
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(column - reference)) <= 10 * MAGNUS_TOL * scale
        assert np.array_equal(f.curvatures, coeff(f.nodes) * f.values)


def test_interpolant_range_enforced():
    phi = solve_phi_a(free_particle(), 1, SeparationConstants(-1, 0, 0), (0.0, 1.0))
    with pytest.raises(OutOfRangeError):
        phi(1.2)


# ---------------------------------------------------------------------------
# Reassembled wavefunction


def test_plane_wave_reconstruction():
    k = np.array([0.9, -1.2, 0.5])
    spec = free_particle()
    lam = SeparationConstants(*(-k * k))
    initial = tuple(
        (np.exp(1j * kk * -1.5), 1j * kk * np.exp(1j * kk * -1.5)) for kk in k
    )
    sol = separate(spec, lam, omega_ranges=((-1.5, 1.5),) * 3, initial_data=initial)
    rng = np.random.default_rng(0)
    for _ in range(30):
        t = rng.uniform(-1.5, 1.5)
        x = rng.uniform(-1.4, 1.4, 3)
        want = np.exp(1j * (k @ x - k @ k * t))
        assert abs(evaluate_psi(sol, t, x, x) - want) <= 1e-8


def test_trivial_solution_is_unity():
    sol = separate(free_particle(), SeparationConstants(0, 0, 0), omega_ranges=((-1, 1),) * 3)
    for t, x in ((0.0, (0.1, 0.2, 0.3)), (0.8, (-0.5, 0.9, 0.0))):
        assert evaluate_psi(sol, t, x, x) == 1.0 + 0.0j


def test_envelope_survives_reassembly():
    rate = 0.3
    ex = exp_profile(rate)
    frame = make_frame("complete", h1=ex, h2=ex, h3=ex)
    spec = electrostatic_spec(make_system("cartesian"), frame)
    sol = separate(spec, SeparationConstants(0, 0, 0), omega_ranges=((-1, 1),) * 3)
    omega = np.array([0.4, -0.2, 0.7])
    t = 1.2
    x_t = omega * math.exp(rate * t)
    x_0 = omega
    ratio = abs(evaluate_psi(sol, t, x_t, omega)) / abs(evaluate_psi(sol, 0.0, x_0, omega))
    assert ratio == pytest.approx(math.exp(-1.5 * rate * t), rel=1e-9)


def test_q_kind_tracks_potential_family():
    sol_m = separate(free_particle(), SeparationConstants(0, 0, 0), omega_ranges=((-1, 1),) * 3)
    assert sol_m.q_kind is QKind.UNIT
    frame = make_frame("complete", h1=exp_profile(0.2))
    spec_e = electrostatic_spec(make_system("cartesian"), frame)
    sol_e = separate(spec_e, SeparationConstants(0, 0, 0), omega_ranges=((-1, 1),) * 3)
    assert sol_e.q_kind is QKind.PHASE
    spec_c = coulomb_spec("spherical", q=1.0)
    sol_c = separate(
        spec_c, SeparationConstants(0, 0, 0), omega_ranges=((0.5, 1.5), (0.3, 1.2), (0.3, 1.2))
    )
    assert sol_c.q_kind is QKind.UNIT


def test_superposition_in_initial_data():
    spec = free_particle()
    lam = SeparationConstants(-1.2, 0, 0)
    span = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    a, b = 0.7 - 0.2j, 1.1 + 0.4j
    sol_u = separate(spec, lam, omega_ranges=span, initial_data=((1, 0), (1, 0), (1, 0)))
    sol_v = separate(spec, lam, omega_ranges=span, initial_data=((0, 1), (1, 0), (1, 0)))
    sol_w = separate(spec, lam, omega_ranges=span, initial_data=((a, b), (1, 0), (1, 0)))
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.uniform(-1, 1)
        x = rng.uniform(-0.9, 0.9, 3)
        combined = a * evaluate_psi(sol_u, t, x, x) + b * evaluate_psi(sol_v, t, x, x)
        assert abs(evaluate_psi(sol_w, t, x, x) - combined) <= 1e-10


def test_lambda_jacobian_full_rank():
    # The derivative of the four reduced right-hand sides with respect to
    # lambda: the time equation's row -T, then the three Stackel rows.  Full
    # column rank means every constant steers the reduced system.
    for name in ("cartesian", "cylindrical", "spherical", "ellipsoidal"):
        system = build(name)
        frame = wiggly_frame(system.split_class.value)
        T = t_functions(system, frame, 0.4)
        for omega in sample_domain(system, seed=7, n=10):
            J = np.vstack([np.negative(T), stackel_values(system, omega)])
            sigma = np.linalg.svd(J, compute_uv=False)
            assert sigma[-1] >= 1e-10


# ---------------------------------------------------------------------------
# Hamilton-Jacobi branch


def test_hj_cartesian_linear_action():
    hj = hj_solve(free_particle(), SeparationConstants(1, 1, 1), ((0, 2),) * 3)
    x = np.array([0.5, 1.0, 1.5])
    got = evaluate_action(hj, 0.7, x, x)
    assert got == pytest.approx(-3 * 0.7 + x.sum(), abs=1e-12)


def test_hj_sign_flip_negates_one_axis():
    lam = SeparationConstants(1, 1, 1)
    base = hj_solve(free_particle(), lam, ((0, 2),) * 3, (1, 1, 1))
    flip = hj_solve(free_particle(), lam, ((0, 2),) * 3, (-1, 1, 1))
    x = np.array([0.5, 1.0, 1.5])
    assert evaluate_action(flip, 0.7, x, x) == pytest.approx(
        evaluate_action(base, 0.7, x, x) - 2 * x[0], abs=1e-12
    )


def test_hj_turning_point_detected():
    with pytest.raises(TurningPointError) as info:
        hj_solve(free_particle(), SeparationConstants(-1, 1, 1), ((0, 2),) * 3)
    assert info.value.axis == 1
    # An interior turning point reports the first screen-grid point past it,
    # np.linspace(0.6, 1.4, RADICAND_GRID)[197].
    sc = load_scenario(SCENARIOS / "magnetic_spherical_rotating.json")
    with pytest.raises(TurningPointError) as info:
        hj_solve(sc.spec, sc.constants, sc.omega_ranges)
    assert (info.value.axis, info.value.omega) == (1, 1.2180392156862745)


def _per_cell_quad_terms(spec, constants, ranges, signs, points=()):
    """Reference node values: one QUADPACK quadrature per Hermite cell,
    told of the ``points`` inside it where the integrand is not smooth;
    skips the calling test without scipy."""
    scipy_quad = pytest.importorskip("scipy.integrate").quad
    lam = constants.as_tuple()
    terms = []
    for axis, (lo, hi) in enumerate(ranges):
        def speed(w, axis=axis):
            row = stackel_row(spec.system, axis, w)
            rad = -spec.f_a0(axis, w) + row[0] * lam[0] + row[1] * lam[1] + row[2] * lam[2]
            return math.sqrt(max(rad, 0.0))

        nodes = _uniform_nodes(lo, hi)
        values = np.zeros(len(nodes))
        for j in range(len(nodes) - 1):
            a, b = float(nodes[j]), float(nodes[j + 1])
            inside = [p for p in points if a < p < b] or None
            cell = scipy_quad(speed, a, b, points=inside, epsabs=1e-14, epsrel=1e-13)[0]
            values[j + 1] = values[j] + cell
        terms.append(signs[axis] * values)
    return terms


def _hj_scenario(name, constants=None, signs=(1, 1, 1)):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    return sc.spec, constants or sc.constants, sc.omega_ranges, signs


@pytest.mark.parametrize(
    "case",
    [
        ("hj_coulomb_spherical", None, (1, 1, 1)),
        ("magnetic_spherical_rotating", SeparationConstants(12.0, 3.0, 0.8), (1, -1, 1)),
    ],
    ids=["coulomb_spherical", "magnetic_spherical_rotating"],
)
def test_hj_lobatto_cells_match_per_cell_quad(case):
    spec, constants, ranges, signs = _hj_scenario(*case)
    action = hj_solve(spec, constants, ranges, signs, t_range=(-1.0, 1.0))
    reference = _per_cell_quad_terms(spec, constants, ranges, signs)
    for term, expect in zip(action.terms, reference):
        np.testing.assert_allclose(term.values, expect, rtol=1e-13, atol=0.0)


@pytest.fixture
def quad_calls(monkeypatch):
    """The (a, b) of every adaptive quadrature ``separate`` runs."""
    module = importlib.import_module("schrodsep.separate")
    calls = []
    real = module.quad
    monkeypatch.setattr(module, "quad", lambda fn, a, b: calls.append((a, b)) or real(fn, a, b))
    return calls


def test_hj_smooth_action_needs_no_adaptive_quad(quad_calls):
    spec, constants, ranges, signs = _hj_scenario("hj_coulomb_spherical")
    hj_solve(spec, constants, ranges, signs, t_range=(-1.0, 1.0))
    assert quad_calls == []


def test_hj_kinked_cell_falls_back_to_quad_alone(quad_calls):
    # sqrt(1 + |w - kink|) has a slope jump inside the cell [0.500, 0.501];
    # every other cell is smooth.
    kink = 0.5003
    spec = magnetic_spec(
        make_system("cartesian"), identity_frame("complete"), f10=lambda w: -abs(w - kink)
    )
    constants = SeparationConstants(1.0, 1.0, 1.0)
    ranges = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    action = hj_solve(spec, constants, ranges, t_range=(-1.0, 1.0))
    assert len(quad_calls) == 1
    a, b = quad_calls[0]
    assert a < kink < b and b - a == pytest.approx(1e-3)
    reference = _per_cell_quad_terms(spec, constants, ranges, (1, 1, 1))
    np.testing.assert_allclose(action.terms[0].values, reference[0], rtol=1e-13, atol=0.0)


def test_hj_turning_point_cell_bisects_itself(quad_calls):
    # The radicand (w - 0.50037)(w - 0.50061) dips below zero inside the
    # Hermite cell [0.500, 0.501], between two points of the turning-point
    # screen; the clamp at zero gives the speed two square-root ends there.
    dip = (0.50037, 0.50061)
    spec = magnetic_spec(
        make_system("cartesian"),
        identity_frame("complete"),
        f10=lambda w: 1.0 - (w - dip[0]) * (w - dip[1]),
    )
    screen = np.linspace(0.0, 1.0, RADICAND_GRID)
    assert not np.any((dip[0] <= screen) & (screen <= dip[1]))
    constants = SeparationConstants(1.0, 1.0, 1.0)
    ranges = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    action = hj_solve(spec, constants, ranges, t_range=(-1.0, 1.0))
    # the cell of the dip and the three cells on either side of it, whose
    # Simpson check feels the branch points; none elsewhere
    nodes = action.terms[0].nodes.tolist()
    assert quad_calls == [(nodes[j], nodes[j + 1]) for j in range(497, 504)]
    assert nodes[500] < dip[0] < dip[1] < nodes[501]
    reference = _per_cell_quad_terms(spec, constants, ranges, (1, 1, 1), dip)
    np.testing.assert_allclose(action.terms[0].values, reference[0], rtol=1e-13, atol=0.0)


class _Counted:
    """An integrand on arrays that counts its calls and their points."""

    def __init__(self, fn):
        self.fn, self.calls, self.points = fn, 0, 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.fn(x)


def test_quad_nonfinite_integrand_fails_at_once():
    fn = _Counted(lambda x: np.where(x > 0.3, math.nan, 1.0))
    with pytest.raises(QuadratureError, match="not finite"):
        quad(fn, 0.0, 1.0)
    assert fn.calls == 2  # the ends, then the first pass


def test_quad_kinked_integrand_converges_by_bisection():
    fn = _Counted(lambda x: np.abs(x - 1.0 / 3.0))
    value, error = quad(fn, 0.0, 1.0)
    # Simpson's rule is exact on every cell that holds the kink (a third of
    # the way in from one end), so the Simpson check alone equals the error
    assert 2.0 * abs(value - 5.0 / 18.0) <= error <= 1e-11 * value
    assert 2 < fn.calls <= 20


def test_quad_square_root_end_meets_its_budget():
    fn = _Counted(lambda x: np.sqrt(np.maximum(x - 0.2, 0.0)))
    value, error = quad(fn, 0.0, 1.0)
    assert abs(value - 2.0 / 3.0 * 0.8**1.5) <= error <= 1e-11 * value
    assert fn.calls <= 30


def test_quad_unmet_budget_stops_at_the_subinterval_limit():
    fn = _Counted(lambda x: np.sin(1e6 * x))
    with pytest.raises(QuadratureError, match="beyond tolerance"):
        quad(fn, 0.0, 1.0)
    # the ends, then 18 passes of one call each until QUAD_LIMIT cells are held
    assert fn.calls == 19
    assert fn.points == 2 + 3 * (2 * QUAD_LIMIT - 1)


def test_hj_free_cartesian_nodes_are_linear():
    lam = SeparationConstants(0.7, 1.3, 2.0)
    signs = (1, -1, 1)
    action = hj_solve(free_particle(), lam, ((-1.0, 1.0),) * 3, signs)
    for term, value, sign in zip(action.terms, lam.as_tuple(), signs):
        expect = sign * math.sqrt(value) * (term.nodes + 1.0)
        assert np.max(np.abs(term.values - expect)) <= 1e-12
        assert np.all(term.slopes == sign * math.sqrt(value))


def test_hj_invalid_signs_rejected():
    with pytest.raises(ConfigurationError):
        hj_solve(free_particle(), SeparationConstants(1, 1, 1), ((0, 2),) * 3, (2, 1, 1))


def test_hj_additive_gauge_shift():
    hj = hj_solve(free_particle(), SeparationConstants(1, 1, 1), ((0, 2),) * 3)
    shift = 0.37
    shifted_term = AxisInterpolant(
        axis=1,
        nodes=hj.terms[0].nodes,
        values=hj.terms[0].values + shift,
        slopes=hj.terms[0].slopes,
    )
    import dataclasses

    shifted = dataclasses.replace(hj, terms=(shifted_term, hj.terms[1], hj.terms[2]))
    x = np.array([0.5, 1.0, 1.5])
    assert evaluate_action(shifted, 0.7, x, x) == pytest.approx(
        evaluate_action(hj, 0.7, x, x) + shift, abs=1e-12
    )


def test_hj_nontrivial_radicand():
    # Axis 1 of the spherical chart: radicand lam1/w^4 - lam2/w^2 stays
    # positive on (0.5, 1.2) for lam = (2, 1, 0), and the term's slope must
    # match the square root pointwise.
    spec = magnetic_spec(make_system("spherical"), identity_frame("nonsplit"))
    lam = SeparationConstants(2.0, 1.0, 0.0)
    hj = hj_solve(spec, lam, ((0.5, 1.2), (0.3, 1.0), (0.3, 1.0)))
    for w in (0.55, 0.8, 1.15):
        expect = math.sqrt(2.0 / w**4 - 1.0 / w**2)
        assert hj.terms[0].evaluate(w)[1] == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# Export


def test_interpolant_csv_round_trip():
    phi = solve_phi_a(free_particle(), 1, SeparationConstants(-4.0, 0, 0), (0.0, 0.5))
    buf = io.StringIO()
    write_interpolant_csv(phi, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "omega,re_phi,im_phi,re_dphi,im_dphi,re_ddphi,im_ddphi"
    assert len(lines) == len(phi.nodes) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.0, 0.0, -4.0, 0.0]  # phi'' = c phi with c = -4
    mid = [float(tok) for tok in lines[len(lines) // 2].split(",")]
    w = mid[0]
    assert mid[1] == pytest.approx(math.cos(2.0 * w), abs=1e-9)
    assert mid[5] == -4.0 * mid[1]


def test_interpolant_csv_round_trip_is_bitwise():
    # Signed zeros, subnormals and the ends of the float range survive the
    # text form in all seven columns.
    nodes = np.array([-0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([complex(-0.0, 0.0), complex(5e-324, -5e-324), complex(1e308, -1e308),
                       complex(2.2250738585072014e-308, -1e-310), complex(0.1, -0.0)])
    slopes = np.array([complex(1.7976931348623157e308, -0.0), complex(-1e-320, 3.0),
                       complex(-0.0, -0.0), complex(1.0 / 3.0, -1e308), complex(4e-323, 0.0)])
    curvatures = np.array([complex(0.0, -0.0), complex(-1e308, 1e-320), complex(-0.0, 2.5),
                           complex(7e-310, -1.0 / 3.0), complex(-1.7976931348623157e308, 0.0)])
    buf = io.StringIO()
    write_interpolant_csv(AxisInterpolant(2, nodes, values, slopes, curvatures), buf)
    assert buf.getvalue().splitlines()[0].count(",") == 6
    buf.seek(0)
    back = read_interpolant_csv(buf, 2)
    assert back.nodes.tobytes() == nodes.tobytes()
    assert back.values.tobytes() == values.tobytes()
    assert back.slopes.tobytes() == slopes.tobytes()
    assert back.curvatures.tobytes() == curvatures.tobytes()


def test_rebuilt_factor_evaluates_bit_for_bit():
    # The seven columns rebuild the power form of every cell, so values and
    # slopes anywhere on the grid match the factor that was written.
    sc = load_scenario(SCENARIOS / "magnetic_spherical_rotating.json")
    solution = separate(sc.spec, sc.constants, omega_ranges=sc.omega_ranges, t_range=sc.t_range)
    for factor in solution.factors:
        buf = io.StringIO()
        write_interpolant_csv(factor, buf)
        buf.seek(0)
        back = read_interpolant_csv(buf, factor.axis)
        for w in np.random.default_rng(factor.axis).uniform(factor.lo, factor.hi, 200).tolist():
            assert repr(back.evaluate(w)) == repr(factor.evaluate(w))


def test_five_column_table_is_refused():
    # A table without phi'' (an action term's, or one written before the
    # quintic tables) is not a wave factor.
    action = hj_solve(free_particle(), SeparationConstants(1, 1, 1), ((0, 1),) * 3,
                      t_range=(-1.0, 1.0))
    buf = io.StringIO()
    write_interpolant_csv(action.terms[0], buf)
    assert buf.getvalue().splitlines()[0] == "omega,re_phi,im_phi,re_dphi,im_dphi"
    buf.seek(0)
    with pytest.raises(ConfigurationError, match="re_ddphi,im_ddphi"):
        read_interpolant_csv(buf, 1)


# ---------------------------------------------------------------------------
# Coefficient grids: each set of points is one coefficient call


@pytest.fixture
def rate_calls(monkeypatch):
    """(axis, f_sign, number of points) of every coefficient evaluation."""
    module = importlib.import_module("schrodsep.separate")
    calls = []
    real = module._axis_rate

    def counted(spec, axis, lam, f_sign, w):
        calls.append((axis, f_sign, int(np.size(w))))
        return real(spec, axis, lam, f_sign, w)

    monkeypatch.setattr(module, "_axis_rate", counted)
    return calls


def test_solve_ivp_makes_one_coefficient_call_on_eight_points_per_cell():
    # the two Gauss points of each half cell and of the whole cell, then
    # the nodes and the cell midpoints
    nodes = _uniform_nodes(0.0, 0.25)
    shapes = []

    def coeff(w):
        shapes.append(np.shape(w))
        return np.full(np.shape(w), -4.0)

    path = solve_ivp(coeff, nodes, (1.0, 0.0))
    cells = len(nodes) - 1
    assert path.nfev == len(shapes) == 1
    assert shapes == [(8 * cells + 1,)]
    np.testing.assert_allclose(path.values.real, np.cos(2.0 * nodes), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(path.curvatures, -4.0 * path.values)
    # a constant coefficient is propagated exactly, up to rounding
    assert path.error <= 1e-14


def test_solve_phi_a_sees_one_call_per_grid_tried(rate_calls):
    # The probe grid, then the grid the h^4 law asks for, which is the
    # table's: each one coefficient call on 8 points per cell and a node.
    phi = solve_phi_a(coulomb_spec("spherical", q=1.0), 1, SeparationConstants(1.0, 0.5, 0.0),
                      (0.6, 1.4))
    cells = len(phi.nodes) - 1
    assert PROBE_CELLS < cells <= (len(_uniform_nodes(0.6, 1.4)) - 1) // 2
    assert rate_calls == [(0, 1.0, 8 * PROBE_CELLS + 1), (0, 1.0, 8 * cells + 1)]


def test_hj_radicand_is_one_call_per_point_set(rate_calls, quad_calls):
    spec, constants, ranges, signs = _hj_scenario("hj_coulomb_spherical")
    action = hj_solve(spec, constants, ranges, signs, t_range=(-1.0, 1.0))
    assert quad_calls == []  # no cell fell back
    for axis, term in enumerate(action.terms):
        n = len(term.nodes)
        # the turning-point screen, the node speeds, the three inner
        # Lobatto points of every cell
        sizes = [size for a, sign, size in rate_calls if a == axis and sign == -1.0]
        assert sizes == [RADICAND_GRID, n, 3 * (n - 1)]
    assert len(rate_calls) == 9


def test_conical_separation_leaves_the_jacobi_cache_alone():
    # The Stackel rows evaluate jacobi over the whole grid without its
    # cache, so Newton's entries are not evicted.
    spec = coulomb_spec("conical", q=1.0, k=0.8)
    before = jacobi.cache_info()
    separate(spec, SeparationConstants(2.0, 0.5, 0.3),
             omega_ranges=((0.6, 1.4), (0.4, 1.4), (0.3, 1.3)), t_range=(-1.0, 1.0))
    after = jacobi.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def _profile_pair():
    """One axis profile twice: math on floats only, and numpy."""
    return (lambda w: math.exp(-w) * math.sin(3.0 * w) + 0.5 * w * w,
            lambda w: np.exp(-w) * np.sin(3.0 * w) + 0.5 * w * w)


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_math_only_profile_separates_like_its_numpy_twin():
    frame = identity_frame("complete")
    cart = make_system("cartesian")
    scalar, vector = (magnetic_spec(cart, frame, f10=p, f30=p) for p in _profile_pair())
    lam = SeparationConstants(1.0, 0.5, 2.0)
    ranges = ((0.0, 1.0),) * 3
    for run in (
        lambda spec: separate(spec, lam, omega_ranges=ranges, t_range=(-1.0, 1.0)).factors,
        lambda spec: hj_solve(spec, lam, ranges, t_range=(-1.0, 1.0)).terms,
    ):
        for got, want in zip(run(scalar), run(vector)):
            assert _relative_gap(got.values, want.values) <= 1e-15
            assert _relative_gap(got.slopes, want.slopes) <= 1e-15


def test_profile_of_the_wrong_length_is_configuration_error():
    spec = magnetic_spec(make_system("cartesian"), identity_frame("complete"),
                         f20=lambda w: np.ones(7))
    lam = SeparationConstants(1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="axis profile"):
        separate(spec, lam, omega_ranges=((0.0, 1.0),) * 3, t_range=(-1.0, 1.0))
    with pytest.raises(ConfigurationError, match="axis profile"):
        hj_solve(spec, lam, ((0.0, 1.0),) * 3, t_range=(-1.0, 1.0))
