"""Tests for the finite-difference residual checks and the geometry audit."""

import dataclasses
import io
import itertools
import math
import re
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schrodsep.coords
import schrodsep.separate
import schrodsep.stackel
import schrodsep.verify
from schrodsep.coords import SystemId, all_system_ids, make_system, sample_domain, sampling_box
from schrodsep.errors import (
    ConfigurationError,
    DomainError,
    InversionError,
    NumericError,
    SingularityError,
    StencilError,
)
from schrodsep.frame import (
    TimeProfile,
    constant,
    embed,
    make_frame,
    omega_gradients,
    polynomial,
    sinusoid,
)
from schrodsep.potential import coulomb_spec, electrostatic_spec, magnetic_spec, vector_potential
from schrodsep.separate import (
    SeparationConstants,
    evaluate_action,
    evaluate_psi,
    hj_solve,
    separate,
)
from schrodsep.stackel import metric_r_squared, stackel_values, t_functions
from schrodsep.verify import (
    AUDIT_CHANNELS,
    SCALE_FLOOR,
    PointRecord,
    ResidualReport,
    channel_max,
    chart_box_points,
    geometry_audit,
    hj_residual_with_scale,
    hj_report,
    report_to_csv,
    report_to_dict,
    se_report,
    se_residual_with_scale,
    stationary_residual_with_scale,
)

from test_frame import counted_frame
from test_stackel import build, wiggly_frame

#: Per-system chart boxes used by the end-to-end checks.  They sit well
#: inside each domain so that the residual stencils never leave it.
BOXES = {
    "cartesian": ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
    "cylindrical": ((-0.5, 0.5), (0.5, 2.5), (-1.0, 1.0)),
    "parabolic_cylindrical": ((0.3, 1.3), (-1.0, 1.0), (-1.0, 1.0)),
    "spherical": ((0.6, 1.4), (0.4, 1.2), (0.5, 2.5)),
    "ellipsoidal": ((0.7, 1.4), (0.3, 1.2), (0.3, 1.4)),
    "conical": ((0.6, 1.4), (0.4, 1.4), (0.3, 1.3)),
}

LAMBDAS = SeparationConstants(0.7, -0.4, 0.9)


def profile_trio():
    return dict(f10=lambda w: 0.4 * w * w, f20=lambda w: -0.3 * w, f30=lambda w: 0.25 * w)


def drift_frame(class_of):
    """Scaling and translation only; admissible for the electric family."""
    kwargs = dict(
        h1=sinusoid(0.2, 0.9, 0.0, 1.4),
        w1=sinusoid(0.5, 1.2),
        w2=constant(-0.3),
        w3=polynomial([0.1, 0.2]),
    )
    if class_of == "complete":
        kwargs["h2"] = polynomial([1.1, 0.05, 0.02])
        kwargs["h3"] = constant(0.8)
    elif class_of == "partial":
        kwargs["h3"] = constant(0.8)
    return make_frame(class_of, **kwargs)


def free_particle():
    return magnetic_spec(make_system("cartesian"), make_frame("complete"))


def worst_relative(field, spec, points):
    worst = 0.0
    for t, x, omega in points:
        res, scale = se_residual_with_scale(field, spec, t, x, omega_hint=omega)
        worst = max(worst, abs(res) / scale)
    return worst


# ---------------------------------------------------------------------------
# Basic residual oracles


def test_plane_wave_residual_tiny():
    k = np.array([1.2, -0.7, 0.4])
    kk = float(k @ k)
    spec = free_particle()

    def field(t, x, hint):
        return np.exp(1j * (k @ np.asarray(x) - kk * t))

    res, scale = se_residual_with_scale(field, spec, 0.3, np.array([0.4, -0.2, 0.9]))
    assert abs(res) / scale < 1e-8


def test_plane_wave_wrong_dispersion_is_order_one():
    # Flipping the time phase doubles the frequency mismatch, so the
    # relative residual lands at 2 on the |k|^2 scale.
    k = np.array([1.2, -0.7, 0.4])
    kk = float(k @ k)
    spec = free_particle()

    def field(t, x, hint):
        return np.exp(1j * (k @ np.asarray(x) + kk * t))

    res, scale = se_residual_with_scale(field, spec, 0.3, np.array([0.4, -0.2, 0.9]))
    assert abs(abs(res) / scale - 2.0) < 0.05


def test_constant_field_exact_zero():
    spec = free_particle()
    res, scale = se_residual_with_scale(lambda t, x, hint: 1.0 + 0.0j, spec, 0.1, np.zeros(3))
    assert res == 0.0
    assert scale > 0.0


def test_fd_order_of_accuracy():
    k = np.array([3.0, 0.0, 0.0])
    kk = float(k @ k)
    spec = free_particle()

    def field(t, x, hint):
        return np.exp(1j * (k @ np.asarray(x) - kk * t))

    steps = [2e-3, 4e-3, 8e-3]
    errs = []
    for h in steps:
        res, scale = se_residual_with_scale(
            field, spec, 0.3, np.array([0.2, -0.1, 0.4]), steps=(h, h)
        )
        errs.append(abs(res) / scale)
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope > 3.5


def test_stencil_failure_is_reported_with_node():
    spec = free_particle()
    sol = separate(
        spec, SeparationConstants(1.0, 1.0, 1.0), omega_ranges=BOXES["cartesian"],
        t_range=(-1.0, 1.0),
    )
    with pytest.raises(StencilError, match="outside tabulated range"):
        se_residual_with_scale(
            lambda t, x, hint: evaluate_psi(sol, t, x, hint),
            spec, 0.0, np.array([0.9999, 0.0, 0.0]),
        )


def test_stencil_nodes_keep_the_sample_bits_off_their_axis():
    # Each node steps along one axis or in time; its other coordinates are
    # the sample's own bits, so the -0.0 of x2 stays -0.0 at the thirteen
    # nodes that do not step along x2.
    spec = free_particle()
    k = np.array([0.4, -0.2, 0.3])
    nodes = []

    def field(t, x, hint):
        nodes.append((t, np.array(x)))
        return np.exp(1j * (k @ np.asarray(x) - float(k @ k) * t))

    x = np.array([0.2, -0.0, 0.4])
    se_residual_with_scale(field, spec, 0.3, x)
    ht, hx = 1e-3 * 1.3, 1e-3 * (1.0 + float(np.linalg.norm(x)))
    offsets = (-2.0, -1.0, 1.0, 2.0)
    want = np.tile(x, (17, 1))
    for axis in range(3):
        for j, step in enumerate(offsets):
            want[5 + 4 * axis + j, axis] += step * hx
    assert np.array([p for _, p in nodes]).tobytes() == want.tobytes()
    # the field is called at the four time offsets first, then at the nodes at t
    assert [t for t, _ in nodes] == [0.3 + step * ht for step in offsets] + [0.3] * 13
    assert np.signbit(want[:, 1]).sum() == 15  # the two -x2 nodes are negative too


# ---------------------------------------------------------------------------
# Stationary form


def test_stationary_plane_wave_pins_energy_sign():
    k = np.array([1.1, 0.6, -0.9])
    kk = float(k @ k)
    psi = lambda x: np.exp(1j * (k @ np.asarray(x)))
    a0 = lambda x: 0.0
    av = lambda x: np.zeros(3)
    pt = np.array([0.3, -0.4, 0.2])
    res, scale = stationary_residual_with_scale(psi, a0, av, -kk, pt)
    assert abs(res) / scale < 1e-8
    res, scale = stationary_residual_with_scale(psi, a0, av, kk, pt)
    assert abs(res) / scale > 1.9


def test_stationary_landau_ground_state():
    # Symmetric-gauge uniform field; the Gaussian ground state sits at
    # minus the field strength on our sign convention.
    omega_c = 0.9
    psi = lambda x: np.exp(-(omega_c / 4.0) * (x[0] ** 2 + x[1] ** 2))
    av = lambda x: np.array([-(omega_c / 2.0) * x[1], (omega_c / 2.0) * x[0], 0.0])
    a0 = lambda x: 0.0
    for pt in ([0.3, -0.2, 0.5], [0.1, 0.4, -0.3], [-0.5, 0.2, 0.0]):
        res, scale = stationary_residual_with_scale(psi, a0, av, -omega_c, np.array(pt))
        assert abs(res) / scale < 1e-8
    res, scale = stationary_residual_with_scale(psi, a0, av, omega_c, np.array([0.3, -0.2, 0.5]))
    assert abs(res) / scale > 1.0


def test_frozen_time_stationary_from_separated_solution():
    """A static frame turns the separated field into an eigenfunction."""
    system = make_system("spherical")
    frame = make_frame("nonsplit", alpha=constant(0.4))
    spec = magnetic_spec(system, frame, t0_tilde=constant(0.6), **profile_trio())
    sol = separate(spec, LAMBDAS, omega_ranges=BOXES["spherical"], t_range=(-1.0, 1.0))

    t0 = 0.0
    T = t_functions(system, frame, t0)
    energy = sum(Ti * li for Ti, li in zip(T, LAMBDAS.as_tuple())) - 0.6
    assert energy == pytest.approx(0.1)

    worst = 0.0
    for _, x, omega in chart_box_points(system, frame, BOXES["spherical"], (0.0, 1.0), 12, 21):
        chi = lambda y, _om=omega: evaluate_psi(sol, t0, y, _om) / sol.phi0(t0)
        a0 = lambda y, _om=omega: vector_potential(spec, t0, y, omega_hint=_om)[0]
        av = lambda y, _om=omega: vector_potential(spec, t0, y, omega_hint=_om)[1]
        res, scale = stationary_residual_with_scale(chi, a0, av, energy, x)
        worst = max(worst, abs(res) / scale)
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# Schrodinger equation end to end


@pytest.mark.parametrize(
    "name", ["cartesian", "cylindrical", "spherical", "ellipsoidal", "conical"]
)
def test_separated_magnetic_solution_solves_pde(name):
    system = build(name)
    frame = wiggly_frame(system.split_class.value)
    spec = magnetic_spec(system, frame, t0_tilde=sinusoid(0.5, 0.8), **profile_trio())
    sol = separate(spec, LAMBDAS, omega_ranges=BOXES[name], t_range=(-1.0, 1.0))
    points = chart_box_points(system, frame, BOXES[name], (-1.0, 1.0), 20, 11)
    worst = worst_relative(lambda t, x, hint: evaluate_psi(sol, t, x, hint), spec, points)
    assert worst < 1e-5


@pytest.mark.parametrize("name", ["cartesian", "parabolic_cylindrical", "spherical"])
def test_separated_electrostatic_solution_solves_pde(name):
    system = build(name)
    frame = drift_frame(system.split_class.value)
    spec = electrostatic_spec(system, frame, t0_tilde=sinusoid(0.5, 0.8), **profile_trio())
    sol = separate(spec, LAMBDAS, omega_ranges=BOXES[name], t_range=(-1.0, 1.0))
    points = chart_box_points(system, frame, BOXES[name], (-1.0, 1.0), 20, 12)
    worst = worst_relative(lambda t, x, hint: evaluate_psi(sol, t, x, hint), spec, points)
    assert worst < 1e-5


@pytest.mark.parametrize(
    "chart,kwargs,box",
    [
        ("spherical", {}, BOXES["spherical"]),
        ("prolate_ii_plus", {"a": 1.3}, ((0.5, 1.3), (0.4, 1.2), (0.4, 2.6))),
        ("prolate_ii_minus", {"a": 1.3}, ((0.5, 1.3), (0.4, 1.2), (0.4, 2.6))),
        ("parabolic", {}, ((-0.6, 0.6), (-0.6, 0.6), (0.4, 2.6))),
        ("conical", {"k": 0.8}, BOXES["conical"]),
    ],
)
def test_separated_coulomb_solution_solves_pde(chart, kwargs, box):
    spec = coulomb_spec(chart, q=1.5, alpha=sinusoid(0.4, 1.1), **kwargs)
    sol = separate(spec, LAMBDAS, omega_ranges=box, t_range=(-1.0, 1.0))
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 15, 15)
    worst = worst_relative(lambda t, x, hint: evaluate_psi(sol, t, x, hint), spec, points)
    assert worst < 1e-5


def test_phase_modulation_cannot_be_faked():
    """Multiplying a rotating-frame solution by the electric-family phase
    must break the equation; the two mechanisms are not interchangeable."""
    system = make_system("spherical")
    frame = make_frame(
        "nonsplit",
        alpha=polynomial([0.0, 0.8]),
        h1=sinusoid(0.2, 0.9, 0.0, 1.4),
        w1=sinusoid(0.5, 1.2),
    )
    spec = magnetic_spec(system, frame)
    sol = separate(
        spec, SeparationConstants(0.5, -0.2, 0.3), omega_ranges=BOXES["spherical"],
        t_range=(-1.0, 1.0),
    )

    def fake_phase(t, x):
        acc = 0.0
        for i, (hp, wp) in enumerate(
            ((frame.h1, frame.w1), (frame.h2, frame.w2), (frame.h3, frame.w3))
        ):
            h, hd, _ = hp(t)
            w, wd, _ = wp(t)
            acc += (hd / h) * (0.5 * x[i] ** 2 - w * x[i]) + wd * x[i]
        return 0.5 * acc

    def field(t, x, hint):
        return evaluate_psi(sol, t, x, hint) * np.exp(1j * fake_phase(t, np.asarray(x)))

    points = chart_box_points(system, frame, BOXES["spherical"], (-1.0, 1.0), 10, 13)
    assert worst_relative(field, spec, points) > 1e-2


def test_envelope_removal_breaks_expanding_frame_solution():
    rate = 0.3

    def exp_profile(t):
        v = math.exp(rate * t)
        return (v, rate * v, rate * rate * v)

    frame = make_frame("nonsplit", h1=TimeProfile(exp_profile))
    spec = magnetic_spec(make_system("spherical"), frame)
    sol = separate(
        spec, SeparationConstants(0.5, -0.2, 0.3), omega_ranges=BOXES["spherical"],
        t_range=(-1.0, 1.0),
    )

    def stripped(t, x, hint):
        return evaluate_psi(sol, t, x, hint) / abs(sol.phi0(t))

    points = chart_box_points(make_system("spherical"), frame, BOXES["spherical"], (-1.0, 1.0), 10, 14)
    assert worst_relative(stripped, spec, points) > 1e-2


# ---------------------------------------------------------------------------
# Hamilton-Jacobi residuals


def test_hj_linear_action_exact():
    spec = free_particle()
    u = lambda t, x, hint: -3.0 * t + x[0] + x[1] + x[2]
    res, scale = hj_residual_with_scale(u, spec, 0.2, np.array([0.3, -0.5, 0.1]))
    assert abs(res) / scale < 1e-9


def test_hj_wrong_action_flagged():
    spec = free_particle()
    u = lambda t, x, hint: -t + 2.0 * x[0]
    res, scale = hj_residual_with_scale(u, spec, 0.2, np.array([0.3, -0.5, 0.1]))
    assert abs(res) / scale > 0.5


def test_hj_separated_coulomb_solves_pde():
    spec = coulomb_spec("spherical", q=-2.0, alpha=sinusoid(0.4, 1.1))
    constants = SeparationConstants(4.0, 3.0, 0.3)
    action = hj_solve(spec, constants, BOXES["spherical"], t_range=(-1.0, 1.0))
    u = lambda t, x, hint: evaluate_action(action, t, x, hint)
    worst = 0.0
    for t, x, omega in chart_box_points(
        spec.system, spec.frame, BOXES["spherical"], (-1.0, 1.0), 12, 22
    ):
        res, scale = hj_residual_with_scale(u, spec, t, x, omega_hint=omega)
        worst = max(worst, abs(res) / scale)
    assert worst < 1e-6


@pytest.mark.parametrize(
    "omega1, t_range",
    [
        ((-1.0, 1.0), (-1e308, 1e308)),
        ((-1e308, 1e308), (-1.0, 1.0)),
        ((0.0, float("nan")), (-1.0, 1.0)),
        ((1.0, 0.0), (-1.0, 1.0)),
        ((-1.0, 1.0), (1.0, -1.0)),
    ],
    ids=["overflowing_t_span", "overflowing_omega_span", "nan_omega", "reversed_omega",
         "reversed_t"],
)
def test_chart_box_points_rejects_bad_ranges(omega1, t_range):
    system = make_system("cartesian")
    box = (omega1,) + BOXES["cartesian"][1:]
    with pytest.raises(ConfigurationError, match="range"):
        chart_box_points(system, make_frame("complete"), box, t_range, 3, seed=1)


def test_chart_box_points_refuses_a_negative_count():
    # as sample_domain does; a count of zero gives no samples
    system, frame = make_system("cartesian"), make_frame("complete")
    with pytest.raises(ConfigurationError, match="sample count must be >= 0, got -1"):
        chart_box_points(system, frame, BOXES["cartesian"], (-1.0, 1.0), -1, seed=1)
    assert chart_box_points(system, frame, BOXES["cartesian"], (-1.0, 1.0), 0, seed=1) == []


@pytest.mark.parametrize("n, seed, message", [
    (2.5, 1, "sample count must be an integer, got 2.5"),
    (2, 1.5, "seed must be an integer, got 1.5"),
    (2, -1, "seed must be >= 0, got -1"),
])
def test_chart_box_points_refuses_a_count_or_seed_that_is_no_count(n, seed, message):
    system, frame = make_system("cartesian"), make_frame("complete")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        chart_box_points(system, frame, BOXES["cartesian"], (-1.0, 1.0), n, seed)


# ---------------------------------------------------------------------------
# Reports


def loop_record(index, channel, t, x, residual, scale):
    """The record of one sample as a per-sample loop builds it from its
    residual and scale: |residual|, the scale floored at ``SCALE_FLOOR``,
    and every field converted to a Python number on its own."""
    residual, scale = abs(residual), max(float(scale), SCALE_FLOOR)
    return PointRecord(index, channel, float(t), tuple(map(float, x)), float(residual), scale,
                       float(residual / scale))


def test_se_report_and_serialisation():
    k = np.array([1.0, 0.5, -0.3])
    kk = float(k @ k)
    spec = free_particle()
    field = lambda t, x, hint: np.exp(1j * (k @ np.asarray(x) - kk * t))
    points = [(0.1, (0.2, 0.3, -0.1)), (0.4, (-0.3, 0.1, 0.2))]
    rep = se_report(field, spec, points)
    assert len(rep.records) == 2
    assert rep.max_relative < 1e-8
    assert rep.mean_relative <= rep.max_relative

    d = report_to_dict(rep)
    assert d["summary"]["count"] == 2
    assert d["steps"] == {"ht": 1e-3, "hx": 1e-3}
    assert d["records"][0]["channel"] == "se"

    buf = io.StringIO()
    report_to_csv(rep, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,channel,t,x1,x2,x3,residual,scale,relative"
    assert len(lines) == 3
    assert float(lines[1].split(",")[8]) == rep.records[0].relative


def test_se_report_nonfinite_field_is_numeric_error():
    field = lambda t, x, hint: complex(math.nan, 0.0)  # noqa: E731
    with pytest.raises(NumericError, match="non-finite"):
        se_report(field, free_particle(), [(0.1, (0.2, 0.3, -0.1))])


def test_report_nonfinite_residual_stops_at_its_sample():
    # a field that is nan at every node of sample 2 of 4: the check runs per
    # sample, so the report raises at sample 2 and never calls the field at 3
    k = np.array([1.0, 0.5, -0.3])
    points = [(0.1 * (j + 1), (0.2, 0.3, -0.1)) for j in range(4)]
    calls = []

    def field(t, x, hint):
        calls.append(t)
        return math.nan if 34 < len(calls) <= 51 else np.exp(1j * (k @ np.asarray(x) - t))

    with pytest.raises(NumericError, match=re.escape(f"se sample 2 at t={points[2][0]!r}: non-finite")):
        se_report(field, free_particle(), points)
    assert len(calls) == 51  # 17 field calls for each of samples 0, 1 and 2


@pytest.mark.parametrize("report", [se_report, hj_report])
def test_report_of_a_vanishing_field_floors_the_scale(report):
    rep = report(lambda t, x, hint: 0.0, free_particle(), [GOOD, GOOD])
    assert rep.scale.tolist() == [SCALE_FLOOR] * 2
    assert rep.residual.tolist() == rep.relative.tolist() == [0.0, 0.0]


def test_hj_report_channel():
    spec = free_particle()
    u = lambda t, x, hint: -3.0 * t + x[0] + x[1] + x[2]
    rep = hj_report(u, spec, [(0.0, (0.1, 0.2, 0.3))])
    assert rep.records[0].channel == "hj"
    assert channel_max(rep, "hj") < 1e-9
    assert channel_max(rep, "se") == 0.0


@pytest.mark.parametrize("count", [3, 5])
@pytest.mark.parametrize("report", [se_report, hj_report])
def test_report_refuses_a_hint_count_other_than_the_point_count(report, count):
    # fewer hints than points, or more: refused before any field call
    calls = []

    def field(t, x, hint):
        calls.append(t)
        return 1.0

    points = [(0.1 * j, (0.2, 0.3, -0.1)) for j in range(4)]
    with pytest.raises(ConfigurationError, match=f"^{count} hints for 4 points"):
        report(field, free_particle(), points, hints=[(0.2, 0.3, -0.1)] * count)
    assert calls == []


@pytest.mark.parametrize("residual", [se_residual_with_scale, hj_residual_with_scale])
def test_residual_refuses_a_hint_that_is_not_one_start(residual):
    # a start of two numbers, or one per stencil node, is not a chart point
    # to start from: the centre's inversion refuses it before any field call
    calls = []

    def field(t, x, hint):
        calls.append(t)
        return 1.0

    for hint in ((0.2, 0.3), np.zeros((17, 3))):
        with pytest.raises(ConfigurationError, match="three numbers"):
            residual(field, free_particle(), 0.1, (0.2, 0.3, -0.1), omega_hint=hint)
    assert calls == []


def counting_field():
    """A field of constant value and the list of the times it is called at."""
    calls = []

    def field(t, x, hint):
        calls.append(t)
        return 1.0
    return field, calls


#: A valid residual sample.
GOOD = (0.1, (0.2, 0.3, -0.1))

#: Report inputs with one malformed part beside a valid sample, and the
#: start of the error each raises.
MALFORMED_REPORTS = {
    "point of one number": (dict(points=[GOOD, (0.1,)]), "sample 1: "),
    "x of two numbers": (dict(points=[GOOD, (0.1, (0.2, 0.3))]), "sample 1: "),
    "t a string": (dict(points=[GOOD, ("a", (0.2, 0.3, -0.1))]), "sample 1: "),
    "start a string": (dict(points=[GOOD, GOOD], hints=[(0.2, 0.3, -0.1), "abc"]), "sample 1: "),
    "t infinite": (dict(points=[GOOD, (math.inf, (0.2, 0.3, -0.1))]), "sample 1: "),
    "x with a nan": (dict(points=[GOOD, (0.1, (0.2, math.nan, -0.1))]), "sample 1: "),
    "one step": (dict(points=[GOOD, GOOD], steps=(1e-3,)), "steps must be two finite positive"),
    "a zero step": (dict(points=[GOOD, GOOD], steps=(0, 1e-3)), "steps must be two finite positive"),
    "a negative step": (dict(points=[GOOD], steps=(1e-3, -1e-3)), "steps must be two finite positive"),
}


@pytest.mark.parametrize("case", MALFORMED_REPORTS)
@pytest.mark.parametrize("report", [se_report, hj_report])
def test_report_refuses_a_malformed_sample_before_any_field_call(report, case):
    kwargs, message = MALFORMED_REPORTS[case]
    field, calls = counting_field()
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
        report(field, free_particle(), **kwargs)
    assert calls == []


@pytest.mark.parametrize("t, x", [(0.1, (0.2, 0.3)), (None, (0.2, 0.3, -0.1)),
                                  (math.inf, (0.2, 0.3, -0.1)), (0.1, (-math.inf, 0.3, -0.1))],
                         ids=["x of two numbers", "t None", "t infinite", "x infinite"])
@pytest.mark.parametrize("residual", [se_residual_with_scale, hj_residual_with_scale])
def test_residual_refuses_a_malformed_sample_before_any_field_call(residual, t, x):
    field, calls = counting_field()
    with pytest.raises(ConfigurationError, match="^sample 0: "):
        residual(field, free_particle(), t, x)
    assert calls == []


@pytest.mark.parametrize("engine", [se_report, hj_report, se_residual_with_scale, hj_residual_with_scale])
def test_sample_near_the_float_limit_ends_in_a_numeric_error_without_a_warning(engine):
    # x is finite, so the sample is well formed, but its stencil step
    # overflows: no node is solved, the centre's own inversion raises, and
    # no numpy warning escapes on the way
    field, _ = counting_field()
    x, start = (1e300, 1e300, 0.0), (0.2, 0.3, -0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            if engine in (se_report, hj_report):
                engine(field, free_particle(), [GOOD, (0.1, x)], hints=[start, start])
            else:
                engine(field, free_particle(), 0.1, x, omega_hint=start)


#: Malformed values of each part of a sample: a point that is not (t, x),
#: a t that is not a finite number, an x that is not three finite numbers,
#: a start that is not three numbers, and steps that are not two finite
#: positive numbers.
_THREE_WRONG = [None, "abc", 0.5, (), (0.2, 0.3), (0.2, 0.3, -0.1, 0.4), (0.2, "abc", -0.1),
                np.zeros((17, 3)), np.zeros((3, 1))]
_MALFORMED = {
    "point": [(0.1,), 0.1, None, "ab", (0.1, (0.2, 0.3, -0.1), 0.0)],
    "t": [None, "abc", "", (0.1, 0.2), [], math.inf, -math.inf, math.nan],
    "x": _THREE_WRONG + [(math.inf, 0.3, -0.1), (0.2, -math.inf, -0.1), (0.2, 0.3, math.nan)],
    "start": [v for v in _THREE_WRONG if v is not None],
    "steps": [(1e-3,), (0, 1e-3), (1e-3, 0.0), (-1e-3, 1e-3), (math.nan, 1e-3), (1e-3, math.inf),
              (1e-3, 1e-3, 1e-3), None, "ab", 1e-3],
}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_malformed_samples_end_in_a_configuration_error(data):
    # One malformed part of one sample, on a report among valid samples or
    # on a residual alone: ConfigurationError, and the field is not called.
    part = data.draw(st.sampled_from(sorted(_MALFORMED)))
    bad = data.draw(st.sampled_from(_MALFORMED[part]))
    engines = [se_report, hj_report] + [se_residual_with_scale, hj_residual_with_scale] * (part != "point")
    engine = data.draw(st.sampled_from(engines))
    sample = dict(t=GOOD[0], x=GOOD[1], start=None, steps=schrodsep.verify.DEFAULT_STEPS)
    sample[part] = bad
    point = bad if part == "point" else (sample["t"], sample["x"])
    field, calls = counting_field()
    with pytest.raises(ConfigurationError):
        if engine in (se_report, hj_report):
            n = data.draw(st.integers(1, 4))
            j = data.draw(st.integers(0, n - 1))
            points, hints = [GOOD] * n, [(0.2, 0.3, -0.1)] * n
            points[j], hints[j] = point, sample["start"]
            engine(field, free_particle(), points, sample["steps"], hints)
        else:
            engine(field, free_particle(), sample["t"], sample["x"], sample["steps"], sample["start"])
    assert calls == []


def per_sample_draws(box, t_range, n, seed):
    """The (t, omega) of each sample as a per-sample ``rng.uniform`` loop
    draws them: t, then omega, inside the margin of each range."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box).T
    pad = schrodsep.verify._BOX_MARGIN * (hi - lo)
    t_pad = schrodsep.verify._BOX_MARGIN * (t_range[1] - t_range[0])
    return [(float(rng.uniform(t_range[0] + t_pad, t_range[1] - t_pad)),
             rng.uniform(lo + pad, hi - pad)) for _ in range(n)]


@pytest.mark.parametrize("name", ["cartesian", "cylindrical", "spherical", "conical"])
@pytest.mark.parametrize("seed", [1, 7, 31])
def test_chart_box_points_keeps_the_draws_of_a_per_sample_loop(name, seed):
    # One array draw under Generator.uniform's affine map gives t and omega
    # the bits of a per-sample loop; x, embedded for all samples at once,
    # is embed's to rounding.
    system = build(name)
    frame = wiggly_frame(system.split_class.value)
    t_range = (-1.5, 0.5 + seed)
    points = chart_box_points(system, frame, BOXES[name], t_range, 12, seed)
    want = per_sample_draws(BOXES[name], t_range, 12, seed)
    assert len(points) == len(want) == 12
    for (t, x, omega), (want_t, want_omega) in zip(points, want):
        assert type(t) is float and np.float64(t).tobytes() == np.float64(want_t).tobytes()
        assert omega.tobytes() == want_omega.tobytes()
        want_x = embed(system, frame, t, omega)
        assert x.shape == (3,) and np.max(np.abs(x - want_x)) <= 1e-15 * np.max(np.abs(want_x))


@pytest.mark.parametrize("box, t_range, frame, error", [
    (((0.6, 1.4), (0.4, 1.2), (-2.0, 2.5)), (-1.0, 1.0), make_frame("nonsplit"), DomainError),
    (BOXES["spherical"], (0.0, 5.0), make_frame("nonsplit", h1=polynomial([1.0, -0.4])),
     ConfigurationError),
], ids=["omega_outside_the_domain", "frame_scale_reaches_zero"])
def test_chart_box_points_raises_the_error_of_the_first_sample_embed_refuses(
        box, t_range, frame, error):
    system = make_system("spherical")
    with pytest.raises(error) as info:
        chart_box_points(system, frame, box, t_range, 12, 5)
    with pytest.raises(error) as first:
        for t, omega in per_sample_draws(box, t_range, 12, 5):
            embed(system, frame, t, omega)
    assert str(info.value) == str(first.value)


# ---------------------------------------------------------------------------
# Stencil nodes solved per report

#: (spec, chart box, wave constants, action constants) of three inputs on
#: three charts: a rotating frame with per-axis profiles, a drifting
#: electrostatic one and a spinning point charge on an elliptic chart.
NODE_INPUTS = {
    "magnetic_spherical_rotating": lambda: (
        magnetic_spec(build("spherical"), wiggly_frame("nonsplit"),
                      t0_tilde=sinusoid(0.5, 0.8), **profile_trio()),
        BOXES["spherical"], LAMBDAS, SeparationConstants(12.0, 3.0, 0.8)),
    "electrostatic_parabolic": lambda: (
        electrostatic_spec(build("parabolic"), drift_frame("nonsplit"),
                           t0_tilde=sinusoid(0.5, 0.8), **profile_trio()),
        ((-0.6, 0.6), (-0.6, 0.6), (0.4, 2.6)), LAMBDAS, SeparationConstants(15.0, 0.3, 1.0)),
    "coulomb_conical": lambda: (
        coulomb_spec("conical", q=-1.5, alpha=sinusoid(0.4, 1.1), k=0.8),
        BOXES["conical"], LAMBDAS, SeparationConstants(-0.3, 0.3, 0.0)),
}


@pytest.fixture(scope="module", params=sorted(NODE_INPUTS))
def node_input(request):
    spec, box, wave, hj = NODE_INPUTS[request.param]()
    sol = separate(spec, wave, omega_ranges=box, t_range=(-1.0, 1.0))
    action = hj_solve(spec, hj, box, t_range=(-1.0, 1.0))
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 20, 31)
    fields = {
        "se": (se_report, se_residual_with_scale, lambda t, x, h: evaluate_psi(sol, t, x, h)),
        "hj": (hj_report, hj_residual_with_scale, lambda t, x, h: evaluate_action(action, t, x, h)),
    }
    return spec, points, fields


def recording(field, nodes):
    """``field`` that appends each node (t, x) it is called at to ``nodes``."""
    def wrapped(t, x, hint):
        nodes.append((t, tuple(x)))
        return field(t, x, hint)
    return wrapped


@pytest.mark.parametrize("channel", ["se", "hj"])
def test_report_solves_stencil_nodes_in_batches(node_input, channel, monkeypatch):
    # The report keeps the records and field nodes of a per-sample loop with
    # centre hints, and its residuals to within 1 %, while it inverts nodes
    # in batches per chunk and hands each field call its own node's point
    # as the start, so that the field's own inversion starts at the
    # solution.  A chart with a closed-form inverse solves all 17 nodes of
    # a chunk in one batch; conical, which has none, inverts the centres,
    # then the other 16 nodes of each.
    spec, points, fields = node_input
    points = points[:10]
    report, residual, field = fields[channel]
    loop_nodes, loop_worst = [], 0.0
    for t, x, omega in points:
        res, scale = residual(recording(field, loop_nodes), spec, t, x, omega_hint=omega)
        loop_worst = max(loop_worst, abs(res) / scale)

    batches, starts = [], []
    invert_batch = schrodsep.verify.invert_batch
    invert = schrodsep.separate.invert

    def counted(system, Z, G):
        batches.append(len(Z))
        return invert_batch(system, Z, G)

    def traced(system, z, guess):
        omega = invert(system, z, guess)
        starts.append(np.max(np.abs(omega - np.asarray(guess))))
        return omega

    monkeypatch.setattr(schrodsep.verify, "invert_batch", counted)
    monkeypatch.setattr(schrodsep.separate, "invert", traced)
    monkeypatch.setattr(schrodsep.verify, "_NODE_CHUNK", 4)
    nodes = []
    rep = report(recording(field, nodes), spec, [(t, x) for t, x, _ in points],
                 hints=[omega for _, _, omega in points])
    if spec.system.chart.inverse is None:
        assert batches == [4, 64, 4, 64, 2, 32]
    else:
        assert batches == [68, 68, 34]
    assert nodes == loop_nodes
    assert (np.array([x for _, x in nodes]).tobytes()
            == np.array([x for _, x in loop_nodes]).tobytes())
    assert [(r.index, r.channel, r.t, r.x) for r in rep.records] == [
        (j, channel, t, tuple(x)) for j, (t, x, _) in enumerate(points)]
    assert rep.max_relative == pytest.approx(loop_worst, rel=0.01)
    assert len(starts) == len(nodes) and max(starts) <= 1e-12


def assert_closed_form_nodes_agree_with_the_two_call_route(spec, points):
    """Every node of the samples (t, x, start) started from the chart's
    closed-form inverse and solved in one batch lands where the
    centre-seeded route of a chart without one puts it, to 1e-13 relative,
    and both routes solve every node; without an inverse both are that
    route, bit for bit."""
    verify = schrodsep.verify
    pairs, hints = [(t, x) for t, x, _ in points], [omega for _, _, omega in points]
    closed = verify._node_points(spec, pairs, verify.DEFAULT_STEPS, hints)
    system = dataclasses.replace(spec.system)
    object.__setattr__(system, "chart", dataclasses.replace(system.chart, inverse=None))
    assert system.chart.array_inverse is None
    two_call = verify._node_points(dataclasses.replace(spec, system=system), pairs,
                                   verify.DEFAULT_STEPS, hints)
    for got, want in zip(closed, two_call, strict=True):
        assert got.points.shape == want.points.shape == (17, 3)
        np.testing.assert_allclose(got.points, want.points, rtol=1e-13, atol=0.0)
        if spec.system.chart.inverse is None:
            assert got.points.tobytes() == want.points.tobytes()


def test_closed_form_node_starts_agree_with_the_two_call_route(node_input):
    spec, points, _ = node_input
    assert_closed_form_nodes_agree_with_the_two_call_route(spec, points)


#: A chart box inside the domain of each chart with a closed-form inverse.
ELEMENTARY_BOXES = {
    **{name: BOXES[name] for name in ("cartesian", "cylindrical", "parabolic_cylindrical",
                                      "spherical")},
    "elliptic_cylindrical": ((0.3, 1.3), (0.3, 2.5), (-1.0, 1.0)),
    **dict.fromkeys(("prolate_spheroidal", "prolate_spheroidal_ii_plus",
                     "prolate_spheroidal_ii_minus", "oblate_spheroidal"),
                    ((0.3, 1.3), (-1.0, 1.0), (0.5, 2.5))),
    "parabolic": ((-0.6, 0.6), (-0.6, 0.6), (0.4, 2.6)),
}


@pytest.mark.parametrize("name", sorted(ELEMENTARY_BOXES))
def test_closed_form_node_starts_agree_on_every_elementary_chart(name):
    # the same on each of the ten charts under a moving frame of its class
    system = build(name)
    assert system.chart.inverse is not None
    spec = magnetic_spec(system, wiggly_frame(system.split_class.value))
    points = chart_box_points(system, spec.frame, ELEMENTARY_BOXES[name], (-1.0, 1.0), 30, 3)
    assert_closed_form_nodes_agree_with_the_two_call_route(spec, points)


@pytest.mark.parametrize("channel", ["se", "hj"])
def test_per_sample_residual_equals_the_report_record(node_input, channel):
    # Given one chart point, the per-sample residual solves its stencil
    # nodes as the report does, so its record is the report's bit for bit.
    spec, points, fields = node_input
    report, residual, field = fields[channel]
    rep = report(field, spec, [(t, x) for t, x, _ in points],
                 hints=[omega for _, _, omega in points])
    for j, (t, x, omega) in enumerate(points):
        res, scale = residual(field, spec, t, x, omega_hint=omega)
        assert repr(loop_record(j, channel, t, x, res, scale)) == repr(rep.records[j])


def assert_records_view(report, want):
    """``report.records`` is ``want`` repr for repr, every field a Python
    int, str, float or tuple of floats, and one tuple kept across reads."""
    assert repr(list(report.records)) == repr(want)
    for r in report.records:
        assert [type(v) for v in (*r, *r.x)] == [int, str, float, tuple, float, float, float] + [float] * 3
    assert report.records is report.records


@pytest.mark.parametrize("channel", ["se", "hj"])
def test_report_records_view_is_the_per_sample_records(node_input, channel):
    spec, points, fields = node_input
    report, residual, field = fields[channel]
    rep = report(field, spec, [(t, x) for t, x, _ in points],
                 hints=[omega for _, _, omega in points])
    want = [loop_record(j, channel, t, x, *residual(field, spec, t, x, omega_hint=omega))
            for j, (t, x, omega) in enumerate(points)]
    assert_records_view(rep, want)


def test_audit_records_view_is_the_records_of_its_channel_array():
    # a curved chart under a moving frame: each sample's four rows hold its
    # position once per channel, the channel value as residual and relative
    # at scale 1, and the view is the records built one by one from those
    t = 0.37
    rep = geometry_audit(build("spherical"), wiggly_frame("nonsplit"), t, 30, seed=5)
    x, channels = rep.x[::4], rep.relative.reshape(-1, 4)
    assert rep.x.tobytes() == np.repeat(x, 4, axis=0).tobytes()
    assert rep.residual.tobytes() == rep.relative.tobytes()
    assert (rep.scale == 1.0).all() and (rep.t == t).all()
    want = [PointRecord(idx, channel, t, tuple(map(float, xi)), float(v), 1.0, float(v))
            for idx, (xi, values) in enumerate(zip(x, channels))
            for channel, v in zip(AUDIT_CHANNELS, values)]
    assert_records_view(rep, want)


def test_report_rows_share_one_x_tuple_per_run_of_equal_x():
    # an audit sample's four rows share its x tuple, and the records are
    # those of one tuple per row; rows whose x differ only in the sign of a
    # zero keep their own bits
    rep = geometry_audit(build("spherical"), wiggly_frame("nonsplit"), 0.37, 30, seed=5)
    want = [PointRecord(*row) for row in zip(
        rep.index.tolist(), rep.channel.tolist(), rep.t.tolist(), map(tuple, rep.x.tolist()),
        rep.residual.tolist(), rep.scale.tolist(), rep.relative.tolist())]
    assert repr(list(rep.records)) == repr(want)
    xs = [r.x for r in rep.records]
    assert all(x is xs[j - j % 4] for j, x in enumerate(xs))
    assert len({id(x) for x in xs}) == 30
    x = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]])
    signed = ResidualReport(np.arange(3), np.full(3, "se"), np.zeros(3), x, np.ones(3),
                            np.ones(3), np.ones(3), 1e-3, 1e-3)
    assert [repr(r.x) for r in signed.records] == ["(0.0, 1.0, 2.0)", "(-0.0, 1.0, 2.0)",
                                                   "(-0.0, 1.0, 2.0)"]
    assert signed.records[1].x is signed.records[2].x


def test_mean_relative_sums_left_to_right():
    # numpy's pairwise sum of these ten values differs from Python's
    # left-to-right sum, which the artifacts have always held
    relative = np.array([1.0] + [1e-16] * 9)
    n = len(relative)
    rep = ResidualReport(np.arange(n), np.full(n, "se"), np.zeros(n), np.zeros((n, 3)),
                         relative, np.ones(n), relative, 1e-3, 1e-3)
    left = 0.0
    for v in relative.tolist():
        left += v
    assert float(np.sum(relative)) != left
    assert rep.mean_relative == left / n


@pytest.mark.parametrize("channel", ["se", "hj"])
def test_reports_repeat_bit_for_bit_in_any_order(node_input, channel):
    # The frame and the time factor keep their values at the last time: a
    # report run again, or over its samples in reverse, gives every record
    # bit for bit.
    spec, points, fields = node_input
    report, _, field = fields[channel]
    pairs, hints = [(t, x) for t, x, _ in points], [omega for _, _, omega in points]

    def bits(records):
        return [np.array([r.t, *r.x, r.residual, r.scale, r.relative]).tobytes() for r in records]

    first = bits(report(field, spec, pairs, hints=hints).records)
    assert bits(report(field, spec, pairs, hints=hints).records) == first
    assert bits(report(field, spec, pairs[::-1], hints=hints[::-1]).records)[::-1] == first


@pytest.mark.parametrize("channel", ["se", "hj"])
def test_stencil_reads_the_frame_once_per_time(channel, monkeypatch):
    # The frame keeps its last reading: the 17 (SE) or 16 (HJ) field calls
    # of a stencil and the potentials after them read each profile once at
    # each of the stencil's five times, and every value has the bits of a
    # field and a residual whose frame is a fresh one at every call.  The
    # time factor keeps its value as well, so its table is evaluated once
    # at each of the five times.
    tally = Counter()
    frame = counted_frame("nonsplit", tally)
    spec = magnetic_spec(build("spherical"), frame, t0_tilde=sinusoid(0.5, 0.8), **profile_trio())
    box = BOXES["spherical"]
    if channel == "se":
        product = separate(spec, LAMBDAS, omega_ranges=box, t_range=(-1.0, 1.0))
        evaluate, residual = evaluate_psi, se_residual_with_scale
    else:
        product = hj_solve(spec, SeparationConstants(12.0, 3.0, 0.8), box, t_range=(-1.0, 1.0))
        evaluate, residual = evaluate_action, hj_residual_with_scale
    points = chart_box_points(spec.system, frame, box, (-1.0, 1.0), 3, 31)
    nodes = schrodsep.verify._node_points(spec, [(t, x) for t, x, _ in points],
                                          schrodsep.verify.DEFAULT_STEPS,
                                          [omega for _, _, omega in points])

    def fresh_spec():
        return dataclasses.replace(spec, frame=dataclasses.replace(frame))

    def field(fresh, values):
        def call(t, x, hint):
            spec_ = fresh_spec() if fresh else spec
            value = evaluate(dataclasses.replace(product, spec=spec_), t, x, hint)
            values.append(value)
            return value
        return call

    table_times = []
    hermite = schrodsep.separate._hermite

    def counted_hermite(grid, w, slope):
        if grid is product.phi0._table:
            table_times.append(w)
        return hermite(grid, w, slope)

    monkeypatch.setattr(schrodsep.separate, "_hermite", counted_hermite)
    for (t, x, _), hint in zip(points, nodes):
        kept, fresh = [], []
        tally.clear()
        table_times.clear()
        got = residual(field(False, kept), spec, t, x, omega_hint=hint)
        assert tally == {name: 5 for name in ("alpha", "beta", "gamma", "h1", "w1", "w2", "w3")}
        assert len(table_times) == len(set(table_times)) == 5
        want = residual(field(True, fresh), fresh_spec(), t, x, omega_hint=hint)
        assert len(kept) == (17 if channel == "se" else 16)
        assert np.array(kept).tobytes() == np.array(fresh).tobytes()
        assert np.array(got).tobytes() == np.array(want).tobytes()


def failures(spec, points, field, at_calls):
    """The error the per-sample loop with centre hints raises and the one
    the report raises, for ``field`` failing at the given field calls."""
    def failing():
        count = itertools.count()

        def wrapped(t, x, hint):
            if next(count) in at_calls:
                raise DomainError("refused at this node")
            return field(t, x, hint)
        return wrapped

    errors = []
    with pytest.raises(NumericError) as info:
        f = failing()
        for t, x, omega in points:
            se_residual_with_scale(f, spec, t, x, omega_hint=omega)
    errors.append(info.value)
    with pytest.raises(NumericError) as info:
        se_report(failing(), spec, [(t, x) for t, x, _ in points],
                  hints=[omega for _, _, omega in points])
    errors.append(info.value)
    return [(type(e), str(e)) for e in errors]


def test_report_node_failures_keep_their_order_and_text():
    spec, box, lam, _ = NODE_INPUTS["magnetic_spherical_rotating"]()
    sol = separate(spec, lam, omega_ranges=box, t_range=(-1.0, 1.0))
    field = lambda t, x, h: evaluate_psi(sol, t, x, h)  # noqa: E731
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 6, 32)

    # one node of sample 3 refuses: a time node, then a spatial one
    for at in (3 * 17 + 2, 3 * 17 + 11):
        loop, batched = failures(spec, points, field, {at})
        assert loop == batched
        assert loop[0] is StencilError and "refused at this node" in loop[1]
    # two samples fail: the earlier one's error wins
    loop, batched = failures(spec, points, field, {4 * 17 + 3, 2 * 17 + 9})
    assert loop == batched
    assert failures(spec, points, field, {2 * 17 + 9}) == [loop, loop]

    # sample 2 sits at the chart's centre, where no Newton inversion meets
    # the contract: its batch rows fail, and the per-sample path raises the
    # inversion error of today's centre inversion, which wins over a later
    # sample's node and loses to an earlier one's
    t = points[2][0]
    points[2] = (t, spec.frame.translation(t), points[2][2])
    loop, batched = failures(spec, points, field, {4 * 17 + 3})
    assert loop == batched and loop[0] is InversionError
    loop, batched = failures(spec, points, field, {17 + 5})
    assert loop == batched and loop[0] is StencilError


def test_report_solves_a_failed_sample_once(monkeypatch):
    # Sample 2 sits at the chart's centre, where its batch rows fail: the
    # report inverts its centre alone, without a second node solve, and
    # raises that inversion's error.
    spec, box, lam, _ = NODE_INPUTS["magnetic_spherical_rotating"]()
    sol = separate(spec, lam, omega_ranges=box, t_range=(-1.0, 1.0))
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 6, 32)
    t = points[2][0]
    points[2] = (t, spec.frame.translation(t), points[2][2])
    calls = []
    node_points = schrodsep.verify._node_points

    def counted(spec_, pts, steps, hints):
        calls.append(len(pts))
        return node_points(spec_, pts, steps, hints)

    monkeypatch.setattr(schrodsep.verify, "_node_points", counted)
    with pytest.raises(InversionError) as info:
        se_report(lambda t, x, h: evaluate_psi(sol, t, x, h), spec,
                  [(t, x) for t, x, _ in points], hints=[omega for _, _, omega in points])
    assert calls == [6]
    with pytest.raises(InversionError) as alone:
        se_residual_with_scale(lambda t, x, h: evaluate_psi(sol, t, x, h), spec,
                               t, points[2][1], omega_hint=points[2][2])
    assert str(alone.value) == str(info.value)
    assert calls == [6, 1]  # the per-sample residual solves its nodes first


def test_report_frame_failure_stays_with_its_sample():
    # h1 = 1 - 0.4 t reaches zero at t = 2.5: the node pass cannot read the
    # frame there, and the samples take the per-sample path in turn
    frame = make_frame("complete", h1=polynomial([1.0, -0.4]))
    spec = magnetic_spec(make_system("cartesian"), frame)
    k = np.array([1.0, 0.5, -0.3])
    field = lambda t, x, h: np.exp(1j * (k @ np.asarray(x) - float(k @ k) * t))  # noqa: E731
    points = [(0.5, (0.2, 0.3, -0.1), np.array([0.2, 0.3, -0.1])),
              (2.5, (0.1, 0.1, 0.1), np.array([0.1, 0.1, 0.1]))]
    for at_calls in ({3}, set()):
        errors = []
        for run in ("loop", "report"):
            count = itertools.count()

            def failing(t, x, h, count=count):
                if next(count) in at_calls:
                    raise DomainError("refused at this node")
                return field(t, x, h)

            with pytest.raises((NumericError, ConfigurationError)) as info:
                if run == "loop":
                    for t, x, omega in points:
                        se_residual_with_scale(failing, spec, t, x, omega_hint=omega)
                else:
                    se_report(failing, spec, [(t, x) for t, x, _ in points],
                              hints=[omega for _, _, omega in points])
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is (StencilError if at_calls else ConfigurationError)


def test_report_nodes_leave_unusable_samples_to_the_stencil():
    # A sample without a start or whose point is not finite gets its nodes
    # without chart points, so the stencil inverts its centre alone, and
    # the other samples are unchanged.
    spec, box, lam, _ = NODE_INPUTS["magnetic_spherical_rotating"]()
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 3, 33)
    pairs = [(t, x) for t, x, _ in points]
    hints = [omega for _, _, omega in points]
    verify = schrodsep.verify
    nodes = verify._node_points(spec, pairs, verify.DEFAULT_STEPS, hints)
    assert all(n.points.shape == n.nodes.shape == (17, 3) for n in nodes)
    pairs[1] = (pairs[1][0], np.array([math.nan, 0.0, 0.0]))
    bad = verify._node_points(spec, pairs, verify.DEFAULT_STEPS, [hints[0], hints[1], None])
    assert bad[1].points is None and bad[2].points is None
    for (t, x), stencil in zip(pairs, bad):
        times, own = verify._stencil_nodes(t, x, *verify._steps_at(t, x, verify.DEFAULT_STEPS))
        assert np.array(stencil.times).tobytes() == times.tobytes()
        assert stencil.nodes.tobytes() == own.tobytes()
    assert bad[0].points.tobytes() == nodes[0].points.tobytes()
    assert bad[0].nodes.tobytes() == nodes[0].nodes.tobytes()


@pytest.mark.parametrize("channel", ["se", "hj"])
def test_report_sample_without_a_start_takes_the_per_sample_route(channel):
    # A None among the hints: the chunk does not try that sample, which
    # builds its own nodes, so its record is the per-sample residual's
    # without a start, bit for bit; every other record is the all-hints
    # report's.  Without a start the field seeds its own inversions, so the
    # record differs from the hinted one.
    spec, box, wave, hj = NODE_INPUTS["coulomb_conical"]()
    if channel == "se":
        product = separate(spec, wave, omega_ranges=box, t_range=(-1.0, 1.0))
        report, residual, evaluate = se_report, se_residual_with_scale, evaluate_psi
    else:
        product = hj_solve(spec, hj, box, t_range=(-1.0, 1.0))
        report, residual, evaluate = hj_report, hj_residual_with_scale, evaluate_action
    field = lambda t, x, h: evaluate(product, t, x, h)  # noqa: E731
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 6, 31)
    pairs, hints = [(t, x) for t, x, _ in points], [omega for _, _, omega in points]
    full = report(field, spec, pairs, hints=hints)
    hints[3] = None
    got = report(field, spec, pairs, hints=hints)
    t, x = pairs[3]
    res, scale = residual(field, spec, t, x, omega_hint=None)
    want = list(full.records)
    want[3] = loop_record(3, channel, t, x, res, scale)
    assert [repr(r) for r in got.records] == [repr(r) for r in want]
    assert repr(want[3]) != repr(full.records[3])


@pytest.mark.parametrize("channel", ["se", "hj"])
def test_report_builds_node_positions_once_per_chunk(node_input, channel, monkeypatch):
    # The chunk's node build hands each sample its rows: one build per
    # chunk, and every field call sits, bit for bit, where a build for
    # its sample alone puts it.
    spec, points, fields = node_input
    report, _, field = fields[channel]
    verify = schrodsep.verify
    builds = []
    stencil_nodes = verify._stencil_nodes

    def counted(t, x, ht, hx):
        builds.append(np.shape(t))
        return stencil_nodes(t, x, ht, hx)

    monkeypatch.setattr(verify, "_stencil_nodes", counted)
    monkeypatch.setattr(verify, "_NODE_CHUNK", 8)
    called = []
    report(recording(field, called), spec, [(t, x) for t, x, _ in points],
           hints=[omega for _, _, omega in points])
    assert builds == [(8,), (8,), (4,)]
    want = []
    for t, x, _ in points:
        times, nodes = stencil_nodes(t, np.asarray(x), *verify._steps_at(t, np.asarray(x),
                                                                         verify.DEFAULT_STEPS))
        order = [k for k in verify._CALL_ORDER if k or channel == "se"]
        want += [(times.tolist()[verify._TIME_COLUMN[k]], tuple(nodes[k])) for k in order]
    assert called == want
    assert (np.array([x for _, x in called]).tobytes()
            == np.array([x for _, x in want]).tobytes())


# ---------------------------------------------------------------------------
# Geometry audit


def test_audit_cartesian_identity_machine_precision():
    rep = geometry_audit(make_system("cartesian"), make_frame("complete"), 0.0, 25, seed=3)
    for ch in ("orthogonality", "stackel", "colnorm", "harmonicity"):
        assert channel_max(rep, ch) < 1e-12, ch


@pytest.mark.parametrize("sid", all_system_ids())
def test_audit_all_systems_wiggly_frame(sid):
    system = build(sid)
    frame = wiggly_frame(system.split_class.value)
    rep = geometry_audit(system, frame, 0.37, 30, seed=5)
    assert channel_max(rep, "orthogonality") < 1e-9
    assert channel_max(rep, "stackel") < 1e-9
    assert channel_max(rep, "colnorm") < 1e-9
    assert channel_max(rep, "harmonicity") < 1e-5
    # every sample has a harmonicity record
    assert sum(r.channel == "harmonicity" for r in rep.records) == 30


def _audit_reference(system, frame, t, n, seed):
    """The analytic records (index, channel, value, x) of the audit, one
    sample at a time from the point functions."""
    records = []
    T = t_functions(system, frame, t)
    for idx, omega in enumerate(sample_domain(system, seed=seed, n=n)):
        grads = omega_gradients(system, frame, t, omega)
        R2 = metric_r_squared(system, frame, t, omega)
        F = stackel_values(system, omega)
        x = embed(system, frame, t, omega)
        norms = [math.sqrt(float(g @ g)) for g in grads]
        g2 = [v * v for v in norms]
        orth = max(
            abs(float(grads[i] @ grads[j])) / (norms[i] * norms[j])
            for i, j in ((0, 1), (0, 2), (1, 2))
        )
        stackel = max(
            abs(sum(F[i][j] * g2[i] for i in range(3)) - T[j])
            / max(abs(T[j]), *(abs(F[i][j] * g2[i]) for i in range(3)), 1.0)
            for j in range(3)
        )
        colnorm = max(abs(R2[a] * g2[a] - 1.0) for a in range(3))
        for channel, value in (("orthogonality", orth), ("stackel", stackel), ("colnorm", colnorm)):
            records.append((idx, channel, value, x))
    return records


@pytest.mark.parametrize("n", [0, 1, 30])
@pytest.mark.parametrize("sid", all_system_ids())
def test_audit_stack_matches_the_per_sample_reference(sid, n):
    system = build(sid)
    frame = wiggly_frame(system.split_class.value)
    rep = geometry_audit(system, frame, 0.37, n, seed=5)
    want = _audit_reference(system, frame, 0.37, n, seed=5)
    order = [
        (idx, channel)
        for idx in range(n)
        for channel in ("orthogonality", "stackel", "colnorm", "harmonicity")
    ]
    assert [(r.index, r.channel) for r in rep.records] == order
    analytic = [r for r in rep.records if r.channel != "harmonicity"]
    for r, (_, _, value, x) in zip(analytic, want):
        assert abs(r.relative - value) <= 1e-14, (r.index, r.channel)
        np.testing.assert_allclose(r.x, x, rtol=0.0, atol=1e-14 * (1.0 + np.abs(x).max()))


@pytest.mark.parametrize("n, seed", [(2.5, 1), (2, -1)])
def test_audit_refuses_a_count_or_seed_that_is_no_count(n, seed):
    with pytest.raises(ConfigurationError, match="must be"):
        geometry_audit(make_system("cartesian"), make_frame("complete"), 0.0, n, seed)


def test_audit_checks_the_frame_class_before_sampling():
    for n in (0, 1):
        with pytest.raises(ConfigurationError, match="cannot drive"):
            geometry_audit(make_system("spherical"), make_frame("complete"), 0.0, n, seed=1)
    rep = geometry_audit(make_system("spherical"), make_frame("nonsplit"), 0.0, 0, seed=1)
    assert rep.records == ()


#: Two samples of each chart that fail a point check: the elliptic
#: cylinder's focal segment (Jacobian guard), a radius outside the spherical
#: domain, and a parabolic chart map that overflows.
_FAILING = {
    "elliptic_cylindrical": ((0.0, 0.0, 0.3), (0.0, 0.0, -0.8)),
    "spherical": ((-0.5, 0.7, 1.0), (0.0, 0.2, 1.0)),
    "parabolic": ((400.0, 0.2, 1.0), (0.1, 500.0, 1.0)),
}


@pytest.mark.parametrize("sid", sorted(_FAILING))
def test_audit_raises_the_point_error_of_the_first_failing_sample(monkeypatch, sid):
    system = build(sid)
    frame, t = wiggly_frame(system.split_class.value), 0.37
    samples = sample_domain(system, seed=5, n=6)
    samples[3], samples[5] = _FAILING[sid]
    with pytest.raises((DomainError, SingularityError)) as want:
        omega_gradients(system, frame, t, samples[3])
    monkeypatch.setattr(schrodsep.verify, "sample_domain", lambda system, seed, n: samples)
    with pytest.raises(type(want.value)) as got:
        geometry_audit(system, frame, t, 6, seed=5)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_audit_flagged_sample_that_passes_ends_in_a_numeric_error(monkeypatch):
    # a stack flag from last-bit noise: the point checks pass, so nothing
    # typed explains the flag, and the audit names the sample
    system, frame = make_system("spherical"), wiggly_frame("nonsplit")
    near_singular = schrodsep.verify._near_singular_array

    def flag_sample_2(rows, det):
        near = near_singular(rows, det).copy()
        near[2] = True
        return near

    monkeypatch.setattr(schrodsep.verify, "_near_singular_array", flag_sample_2)
    with pytest.raises(NumericError, match=r"^audit sample 2 at t=0\.37: "):
        geometry_audit(system, frame, 0.37, 6, seed=5)


def test_audit_non_finite_harmonicity_ends_in_a_numeric_error(monkeypatch):
    # the point checks know no harmonicity, so they pass, and the audit
    # names the first sample whose value is not finite
    system, frame = make_system("spherical"), wiggly_frame("nonsplit")
    harmonicity = schrodsep.verify._harmonicity

    def nan_at_sample_4(system_, h, omega):
        z, J, value = harmonicity(system_, h, omega)
        value[4] = math.nan
        return z, J, value

    monkeypatch.setattr(schrodsep.verify, "_harmonicity", nan_at_sample_4)
    with pytest.raises(NumericError, match=r"^audit sample 4 at t=0\.37: .*'harmonicity': nan"):
        geometry_audit(system, frame, 0.37, 6, seed=5)


def test_audit_detects_corrupted_stackel_entry(monkeypatch):
    original = schrodsep.stackel.stackel_row

    def corrupted(system, axis, w):
        row = original(system, axis, w)
        if system.sid is SystemId.SPHERICAL and axis == 1:
            return (row[0], -row[1], row[2])
        return row

    monkeypatch.setattr(schrodsep.stackel, "stackel_row", corrupted)
    rep = geometry_audit(make_system("spherical"), wiggly_frame("nonsplit"), 0.37, 20, seed=5)
    assert channel_max(rep, "stackel") > 0.5
    # the defect is isolated: the chart itself is untouched
    assert channel_max(rep, "orthogonality") < 1e-9
    assert channel_max(rep, "colnorm") < 1e-9


def test_audit_colnorm_detects_a_metric_defect(monkeypatch):
    original = schrodsep.verify._r_squared

    def scaled(system, t, omega, J, scales):
        r1, r2, r3 = original(system, t, omega, J, scales)
        return (r1, r2 * (1.0 + 1e-6), r3)

    monkeypatch.setattr(schrodsep.verify, "_r_squared", scaled)
    rep = geometry_audit(make_system("spherical"), wiggly_frame("nonsplit"), 0.37, 20, seed=5)
    assert channel_max(rep, "colnorm") >= 1e-7
    # the gradients and the Stackel relation do not see the metric
    assert channel_max(rep, "orthogonality") < 1e-9
    assert channel_max(rep, "stackel") < 1e-9


def test_audit_needs_no_per_node_frame_evaluation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the audit inverted the frame at a stencil node")

    monkeypatch.setattr(schrodsep.verify, "unembed", refuse)
    rep = geometry_audit(make_system("spherical"), wiggly_frame("nonsplit"), 0.37, 20, seed=5)
    for ch in ("orthogonality", "stackel", "colnorm", "harmonicity"):
        assert any(r.channel == ch for r in rep.records), ch
    assert channel_max(rep, "harmonicity") < 1e-5


def test_audit_reads_the_frame_once_for_all_samples(monkeypatch):
    # positions, gradients and metric all come from the frame read at t
    calls = []
    call = TimeProfile.__call__
    monkeypatch.setattr(TimeProfile, "__call__", lambda self, t: calls.append(t) or call(self, t))
    counts = []
    for n in (4, 12):
        frame = wiggly_frame("nonsplit")  # a fresh frame keeps no reading of t
        calls.clear()
        geometry_audit(make_system("spherical"), frame, 0.37, n, seed=5)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_audit_harmonicity_sees_the_frame_scales(monkeypatch):
    # The rotation cancels from M = sqrt g E^-1 E^-T, so only the scales
    # can be checked this way: the cylindrical chart is conformal in its
    # first two axes, and stays harmonic only while they share one scale.
    system, frame, t = make_system("cylindrical"), wiggly_frame("partial"), 0.37
    intact = geometry_audit(system, frame, t, 20, seed=5)
    scales = type(frame).scales
    h1, _, h3 = scales(frame, t)
    assert abs(h1 - h3) > 0.1
    monkeypatch.setattr(type(frame), "scales", lambda self, t: tuple(reversed(scales(self, t))))
    permuted = geometry_audit(system, frame, t, 20, seed=5)
    assert channel_max(intact, "harmonicity") < 1e-9
    assert min(r.relative for r in permuted.records if r.channel == "harmonicity") > 1e-5


def test_audit_makes_no_newton_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the audit inverted the chart map")

    for module in (schrodsep.verify, schrodsep.coords):
        monkeypatch.setattr(module, "invert", refuse)
        monkeypatch.setattr(module, "invert_batch", refuse)
    rep = geometry_audit(make_system("spherical"), wiggly_frame("nonsplit"), 0.37, 20, seed=5)
    assert sum(r.channel == "harmonicity" for r in rep.records) == 20
    assert channel_max(rep, "harmonicity") < 1e-5


def test_audit_chunks_give_the_same_records(monkeypatch):
    # each sample's chart stencil is its own, so splitting the samples into
    # chunks changes no record
    system, frame = make_system("oblate_spheroidal", a=1.3), wiggly_frame("nonsplit")
    whole = geometry_audit(system, frame, 0.37, 40, seed=2)
    monkeypatch.setattr(schrodsep.verify, "_AUDIT_CHUNK", 3)
    chunked = geometry_audit(system, frame, 0.37, 40, seed=2)
    assert sum(r.channel == "harmonicity" for r in whole.records) == 40
    assert chunked.records == whole.records


def _harmonicity_by_axis(system, h, omega):
    """The harmonicity value as a loop over chart axes b and components a,
    one array expression per (a, b) pair, from the same chart points."""
    verify = schrodsep.verify
    lo, hi = np.array([
        (ax.lo if ax.singular_lo else -math.inf, ax.hi if ax.singular_hi else math.inf)
        for ax in system.domain]).T
    steps = (verify._CHART_STEP * np.minimum(1.0 + np.abs(omega), np.minimum(omega - lo, hi - omega))).T
    nodes = omega.T[:, None, :] + steps[:, None, :] * verify._CHART_NODES.T[:, :, None]
    z, J = system.chart.array_map(system, *nodes)
    E = h[:, None, None, None] * J
    adj = schrodsep.coords._adjugate(E)
    root_g = np.abs(schrodsep.coords._det3(E))
    lap, value = [0.0, 0.0, 0.0], 0.0
    for b in range(3):
        rows = slice(1 + 4 * b, 5 + 4 * b)
        for a in range(3):
            m_ab = verify._dot(adj[a][:, rows], adj[b][:, rows]) / root_g[rows]
            lap[a] = lap[a] + verify._d1(m_ab, steps[b])
        column = J[:, b, 0]
        miss = column - verify._d1(z[:, rows].swapaxes(0, 1), steps[b])
        value = np.maximum(value, np.sqrt(verify._dot(miss, miss) / verify._dot(column, column)))
    for a in range(3):
        value = np.maximum(value, np.abs(lap[a]) / root_g[0])
    return value


@pytest.mark.parametrize("sid", all_system_ids())
def test_harmonicity_equals_the_loop_over_axes_bit_for_bit(sid):
    # the stacked expressions do each element's arithmetic in the loop's
    # order, and the stencil centres give the chart map at the samples
    system = build(sid)
    omega = sample_domain(system, seed=4, n=50)
    h = np.array([1.3, 0.8, 1.1])
    z, J, value = schrodsep.verify._harmonicity(system, h, omega)
    assert value.tobytes() == _harmonicity_by_axis(system, h, omega).tobytes()
    z0, J0 = system.chart.array_map(system, *omega.T)
    assert z.tobytes() == np.ascontiguousarray(z0).tobytes()
    assert J.tobytes() == np.ascontiguousarray(J0).tobytes()


def _spherical_variant(s, w1, w2, w3, stretch=0.0, column=None):
    """The spherical chart map at omega_1 + stretch omega_1^2 with its
    consistent Jacobian; with ``column``, that column of the Jacobian is
    scaled by 1.01 and z is left as it is."""
    u = w1 + stretch * w1 * w1
    du = 1.0 + 2.0 * stretch * w1
    r = 1.0 / u
    se, th = 1.0 / math.cosh(w2), math.tanh(w2)
    c, sn = math.cos(w3), math.sin(w3)
    J = [
        [-r * r * se * c * du, -r * se * th * c, -r * se * sn],
        [-r * r * se * sn * du, -r * se * th * sn, r * se * c],
        [-r * r * th * du, r * se * se, 0.0],
    ]
    if column is not None:
        for row in J:
            row[column] = 1.01 * row[column]
    return (r * se * c, r * se * sn, r * th), J


def _cartesian_variant(s, w1, w2, w3, column):
    """The identity chart with column ``column`` of its Jacobian scaled by 1.01."""
    J = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    J[column][column] = 1.01
    return (w1, w2, w3), J


def _damaged(monkeypatch, name, chart_map):
    """The system ``name`` with its chart map replaced by ``chart_map``."""
    sid = SystemId(name)
    chart = dataclasses.replace(sid.chart, map=chart_map)
    monkeypatch.setitem(schrodsep.coords._CHARTS, sid, chart)
    return make_system(name)


def test_audit_harmonicity_sees_a_reparametrised_chart(monkeypatch):
    # omega_1 -> omega_1 + 0.1 omega_1^2 keeps the chart orthogonal and its
    # Jacobian consistent with its map, but omega_1 is no longer harmonic
    system = _damaged(monkeypatch, "spherical", partial(_spherical_variant, stretch=0.1))
    rep = geometry_audit(system, wiggly_frame("nonsplit"), 0.37, 100, seed=5)
    values = [r.relative for r in rep.records if r.channel == "harmonicity"]
    assert len(values) == 100
    assert sum(v > 1e-5 for v in values) >= 90


@pytest.mark.parametrize("column", range(3))
def test_audit_harmonicity_checks_the_jacobian_against_the_map(monkeypatch, column):
    # the identity chart's M is constant with any constant Jacobian, so only
    # the check of J against differences of z can see the scaled column:
    # it reads 0.01 / 1.01 on every sample
    system = _damaged(monkeypatch, "cartesian", partial(_cartesian_variant, column=column))
    rep = geometry_audit(system, make_frame("complete"), 0.0, 20, seed=3)
    values = [r.relative for r in rep.records if r.channel == "harmonicity"]
    assert len(values) == 20
    np.testing.assert_allclose(values, 0.01 / 1.01, rtol=1e-9)
    # a constant factor on a column keeps an orthogonal chart's coordinates
    # harmonic, so on a curved chart too only the Jacobian check reads it,
    # column by column, however small the column is against the others
    system = _damaged(monkeypatch, "spherical", partial(_spherical_variant, column=column))
    rep = geometry_audit(system, wiggly_frame("nonsplit"), 0.37, 100, seed=5)
    assert min(r.relative for r in rep.records if r.channel == "harmonicity") > 1e-5


@pytest.mark.parametrize("sid", all_system_ids())
def test_audit_harmonicity_at_the_ends_of_the_sampling_box(monkeypatch, sid):
    # Samples within 1e-4 of the box width from each end of the sampling
    # box: the singular ends of the domain (a radius at infinity, a focal
    # set) and the truncated ones, among them parabolic's focal end at
    # omega_1, omega_2 = -3.  The chart-space step along axis b is
    # 1e-3 * min(1 + |omega_b|, distance to a singular end of the axis),
    # so no stencil node crosses a singular end; every sample gets a record.
    system = build(sid)
    frame = wiggly_frame(system.split_class.value)
    box = sampling_box(system)
    for axis, end in itertools.product(range(3), (0, 1)):
        samples = sample_domain(system, seed=11, n=20)
        inward = 1.0 - 2.0 * end
        depth = np.random.default_rng(2 * axis + end).uniform(0.0, 1e-4, 20)
        samples[:, axis] = box[axis, end] + inward * depth * (box[axis, 1] - box[axis, 0])
        monkeypatch.setattr(schrodsep.verify, "sample_domain", lambda system, seed, n: samples)
        rep = geometry_audit(system, frame, 0.37, 20, seed=5)
        values = [r.relative for r in rep.records if r.channel == "harmonicity"]
        assert len(values) == 20, (axis, end)
        assert max(values) <= 1e-5, (axis, end)
