"""Tests for the finite-difference residual checks and the geometry audit."""

import dataclasses
import io
import itertools
import math
from collections import Counter

import numpy as np
import pytest

import schrodsep.separate
import schrodsep.stackel
import schrodsep.verify
from schrodsep.coords import SystemId, all_system_ids, make_system, sample_domain
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
    rotation_matrix,
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


# ---------------------------------------------------------------------------
# Reports


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


def test_hj_report_channel():
    spec = free_particle()
    u = lambda t, x, hint: -3.0 * t + x[0] + x[1] + x[2]
    rep = hj_report(u, spec, [(0.0, (0.1, 0.2, 0.3))])
    assert rep.records[0].channel == "hj"
    assert channel_max(rep, "hj") < 1e-9
    assert channel_max(rep, "se") == 0.0


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
    # in two batches per chunk and hands each field call its own node's
    # point as the start, so that the field's own inversion starts at the
    # solution.
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
    assert batches == [4, 64, 4, 64, 2, 32]  # centres, then the other 16 nodes of each
    assert nodes == loop_nodes
    assert (np.array([x for _, x in nodes]).tobytes()
            == np.array([x for _, x in loop_nodes]).tobytes())
    assert [(r.index, r.channel, r.t, r.x) for r in rep.records] == [
        (j, channel, t, tuple(x)) for j, (t, x, _) in enumerate(points)]
    assert rep.max_relative == pytest.approx(loop_worst, rel=0.01)
    assert len(starts) == len(nodes) and max(starts) <= 1e-12


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
        assert repr(schrodsep.verify._record(j, channel, t, x, res, scale)) == repr(rep.records[j])


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
    # A sample whose hint is not a chart point or whose point is not finite
    # takes the per-sample path, and the other samples are unchanged.
    spec, box, lam, _ = NODE_INPUTS["magnetic_spherical_rotating"]()
    points = chart_box_points(spec.system, spec.frame, box, (-1.0, 1.0), 3, 33)
    pairs = [(t, x) for t, x, _ in points]
    hints = [omega for _, _, omega in points]
    nodes = schrodsep.verify._node_points(spec, pairs, schrodsep.verify.DEFAULT_STEPS, hints)
    assert all(n is not None and n.points.shape == n.nodes.shape == (17, 3) for n in nodes)
    bad = schrodsep.verify._node_points(
        spec, [pairs[0], (pairs[1][0], (math.nan, 0.0, 0.0)), pairs[2]],
        schrodsep.verify.DEFAULT_STEPS, [hints[0], hints[1], None])
    assert bad[1] is None and bad[2] is None
    assert bad[0].points.tobytes() == nodes[0].points.tobytes()
    assert bad[0].nodes.tobytes() == nodes[0].nodes.tobytes()


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
    # the conditioning gate may drop samples but never the whole channel
    assert any(r.channel == "harmonicity" for r in rep.records)


def _audit_reference(system, frame, t, n, seed):
    """The analytic records (index, channel, value, x) of the audit and its
    harmonicity gate, one sample at a time from the point functions."""
    records, gated = [], set()
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
        if 0.3 <= 1.0 / max(norms) and 1.0 / min(norms) <= 20.0:
            gated.add(idx)
    return records, gated


@pytest.mark.parametrize("n", [0, 1, 30])
@pytest.mark.parametrize("sid", all_system_ids())
def test_audit_stack_matches_the_per_sample_reference(sid, n):
    system = build(sid)
    frame = wiggly_frame(system.split_class.value)
    rep = geometry_audit(system, frame, 0.37, n, seed=5)
    want, gated = _audit_reference(system, frame, 0.37, n, seed=5)
    order = [
        (idx, channel)
        for idx in range(n)
        for channel in ("orthogonality", "stackel", "colnorm", "harmonicity")
        if channel != "harmonicity" or idx in gated
    ]
    assert [(r.index, r.channel) for r in rep.records] == order
    analytic = [r for r in rep.records if r.channel != "harmonicity"]
    for r, (_, _, value, x) in zip(analytic, want):
        assert abs(r.relative - value) <= 1e-14, (r.index, r.channel)
        np.testing.assert_allclose(r.x, x, rtol=0.0, atol=1e-14 * (1.0 + np.abs(x).max()))


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


def test_audit_flagged_sample_that_passes_keeps_its_point_values(monkeypatch):
    # a stack flag from last-bit noise: the point checks pass, and the
    # sample's records are the point evaluation's
    system, frame = make_system("spherical"), wiggly_frame("nonsplit")
    clean = geometry_audit(system, frame, 0.37, 6, seed=5)
    det3 = schrodsep.verify._det3
    audit_point = schrodsep.verify._audit_point
    evaluated = []

    def flag_sample_2(m):
        det = det3(m)
        if isinstance(det, np.ndarray):
            det = det.copy()
            det[2] = 0.0
        return det

    def spy(system_, t, idx, *args):
        evaluated.append(idx)
        return audit_point(system_, t, idx, *args)

    monkeypatch.setattr(schrodsep.verify, "_det3", flag_sample_2)
    monkeypatch.setattr(schrodsep.verify, "_audit_point", spy)
    flagged = geometry_audit(system, frame, 0.37, 6, seed=5)
    assert evaluated == [2]
    assert [(r.index, r.channel) for r in flagged.records] == [
        (r.index, r.channel) for r in clean.records]
    for a, b in zip(flagged.records, clean.records):
        if a.index != 2:
            assert a == b
        elif a.channel != "harmonicity":
            assert abs(a.relative - b.relative) <= 1e-14


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


def test_audit_stencil_steps_along_the_cartesian_axes(monkeypatch):
    # Harmonicity cannot tell a wrong stencil basis: a harmonic coordinate
    # has zero Laplacian in any orthonormal basis, and under a split-class
    # frame mostly in the skewed ones too.  So check the geometry itself:
    # every Newton target, mapped back to x, is the sample plus a step
    # along one Cartesian axis.
    system, frame, t = make_system("cartesian"), wiggly_frame("complete"), 0.37
    rot, h, w = rotation_matrix(frame, t), np.array(frame.scales(t)), frame.translation(t)
    original = schrodsep.verify.invert_batch
    targets = []

    def recording(system_, Z, G):
        targets.extend(np.array(Z))
        return original(system_, Z, G)

    monkeypatch.setattr(schrodsep.verify, "invert_batch", recording)
    rep = geometry_audit(system, frame, t, 1, seed=5)
    [centre] = [np.array(r.x) for r in rep.records if r.channel == "harmonicity"]
    assert len(targets) >= 12
    for z in targets:
        d = np.abs(rot @ (h * z) + w - centre)
        assert np.sort(d)[1] <= 1e-13 * (1.0 + np.abs(centre).max()) < d.max()


def test_audit_makes_no_scalar_inversion(monkeypatch):
    # the ladder inverts its stencil nodes in batches, never one by one
    def refuse(*args, **kwargs):
        raise AssertionError("the audit inverted a stencil node on its own")

    monkeypatch.setattr(schrodsep.verify, "invert", refuse)
    rep = geometry_audit(make_system("spherical"), wiggly_frame("nonsplit"), 0.37, 20, seed=5)
    assert any(r.channel == "harmonicity" for r in rep.records)
    assert channel_max(rep, "harmonicity") < 1e-5


def test_audit_ladder_chunks_give_the_same_records(monkeypatch):
    # samples walk the ladder independently, so splitting them into chunks
    # of the lockstep walk changes no record
    system, frame = make_system("oblate_spheroidal", a=1.3), wiggly_frame("nonsplit")
    whole = geometry_audit(system, frame, 0.37, 40, seed=2)
    monkeypatch.setattr(schrodsep.verify, "_LADDER_CHUNK", 3)
    chunked = geometry_audit(system, frame, 0.37, 40, seed=2)
    assert sum(r.channel == "harmonicity" for r in whole.records) > 3
    assert chunked.records == whole.records
