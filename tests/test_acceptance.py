"""Acceptance suite: one check per shipped guarantee, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
metric lines for passing criteria too).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from schrodsep.cli import main as cli_main
from schrodsep.coords import base_system_ids, make_system, sample_domain
from schrodsep.elliptic import jacobi, modulus
from schrodsep.errors import TurningPointError
from schrodsep.frame import (
    TimeProfile,
    constant,
    make_frame,
    omega_gradients,
    rotation_rates,
    sinusoid,
)
from schrodsep.potential import (
    coulomb_spec,
    electrostatic_spec,
    magnetic_field,
    magnetic_spec,
    vector_potential,
)
from schrodsep.separate import (
    SeparationConstants,
    evaluate_action,
    evaluate_psi,
    hj_solve,
    separate,
)
from schrodsep.stackel import stackel_values, t_functions
from schrodsep.verify import (
    channel_max,
    chart_box_points,
    geometry_audit,
    hj_residual_with_scale,
    se_residual_with_scale,
)

from test_potential import exp_profile
from test_stackel import build, wiggly_frame
from test_verify import BOXES, profile_trio


@pytest.fixture
def verdict(capfd):
    """Print one pass/fail line per criterion, past pytest's capture."""

    def emit(num, label, ok, detail):
        with capfd.disabled():
            print(f"criterion {num:2d} {label:34s} {'PASS' if ok else 'FAIL'}  {detail}")
        return ok

    return emit


def worst_se(field, spec, points):
    worst = 0.0
    for t, x, omega in points:
        res, scale = se_residual_with_scale(field, spec, t, x, omega_hint=omega)
        worst = max(worst, abs(res) / scale)
    return worst


def test_criterion_01_geometry_audit(verdict):
    t0 = time.monotonic()
    worst = {"orthogonality": 0.0, "stackel": 0.0, "colnorm": 0.0, "harmonicity": 0.0}
    for name in base_system_ids():
        system = build(name)
        frame = make_frame(system.split_class.value)
        report = geometry_audit(system, frame, 0.0, 200, seed=1)
        for ch in worst:
            worst[ch] = max(worst[ch], channel_max(report, ch))
    elapsed = time.monotonic() - t0
    ok = (
        worst["orthogonality"] <= 1e-9
        and worst["stackel"] <= 1e-9
        and worst["colnorm"] <= 1e-9
        and worst["harmonicity"] <= 1e-5
        and elapsed <= 10.0
    )
    assert verdict(
        1, "geometry audit, 11 systems", ok,
        f"orth {worst['orthogonality']:.1e} stackel {worst['stackel']:.1e} "
        f"colnorm {worst['colnorm']:.1e} harmonic {worst['harmonicity']:.1e} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_02_frame_identity(verdict):
    def mixed_frame(cls):
        kwargs = dict(
            alpha=sinusoid(0.4, 1.1),
            beta=sinusoid(0.2, 0.8, 0.3),
            gamma=sinusoid(0.3, 0.7, 0.5),
            h1=exp_profile(0.25),
            w1=sinusoid(0.5, 1.2),
            w2=constant(-0.3),
        )
        if cls == "complete":
            kwargs["h2"] = exp_profile(-0.15)
            kwargs["h3"] = exp_profile(0.1)
        elif cls == "partial":
            kwargs["h3"] = exp_profile(0.1)
        return make_frame(cls, **kwargs)

    rng = np.random.default_rng(77)
    worst = 0.0
    for name in base_system_ids():
        system = build(name)
        frame = mixed_frame(system.split_class.value)
        for omega in sample_domain(system, seed=13, n=20):
            t = float(rng.uniform(-1.0, 1.0))
            F = stackel_values(system, omega)
            g2 = np.array([g @ g for g in omega_gradients(system, frame, t, omega)])
            T = t_functions(system, frame, t)
            for a in range(3):
                worst = max(worst, abs(float(F[:, a] @ g2) - T[a]) / max(abs(T[a]), 1.0))
    assert verdict(2, "frame split identity", worst <= 1e-8, f"worst rel {worst:.1e}")


@pytest.fixture(scope="module")
def criterion_03_run():
    """Criterion 3's separations and residuals: the worst relative residual
    per chart, the sample count, the seconds taken and the constants."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    lam = SeparationConstants(*rng.uniform(-1.0, 1.0, 3))
    names = ["cartesian", "cylindrical", "spherical", "ellipsoidal", "conical"]
    worst = {}
    total = 0
    for name in names:
        system = build(name)
        frame = wiggly_frame(system.split_class.value)
        spec = magnetic_spec(system, frame, t0_tilde=sinusoid(0.5, 0.8), **profile_trio())
        sol = separate(spec, lam, omega_ranges=BOXES[name], t_range=(-1.0, 1.0))
        points = chart_box_points(system, frame, BOXES[name], (-1.0, 1.0), 20, 11)
        total += len(points)
        worst[name] = worst_se(lambda t, x, h: evaluate_psi(sol, t, x, h), spec, points)
    return worst, total, time.monotonic() - t0, lam


def test_criterion_03_magnetic_forward(verdict, criterion_03_run):
    worst, total, elapsed, lam = criterion_03_run
    bad = max(worst.values())
    ok = bad <= 1e-5 and total >= 100 and elapsed <= 60.0
    assert verdict(
        3, "magnetic family solves the PDE", ok,
        f"worst rel {bad:.1e} over {total} samples in {elapsed:.1f}s "
        f"(lambda {tuple(round(v, 3) for v in lam.as_tuple())})",
    )


def test_criterion_03_residual_measures_psi_not_the_table(criterion_03_run):
    # The quintic factor tables take phi'' = c phi from the ODE, so the
    # Laplacian of the residual no longer reads the table's own second
    # derivative error: 3.4e-7 with cubic tables at NODE_SPACING, 3.4e-9
    # with quintic ones on their chosen grids.
    worst, _, _, _ = criterion_03_run
    assert max(worst.values()) <= 5e-8, worst


def test_criterion_04_electrostatic_forward(verdict):
    def expanding_frame(cls):
        kwargs = dict(
            h1=exp_profile(0.25),
            w1=sinusoid(0.5, 1.2),
            w2=constant(-0.3),
            w3=exp_profile(-0.2),
        )
        if cls == "complete":
            kwargs["h2"] = exp_profile(-0.15)
            kwargs["h3"] = exp_profile(0.1)
        elif cls == "partial":
            kwargs["h3"] = exp_profile(0.1)
        return make_frame(cls, **kwargs)

    lam = SeparationConstants(0.7, -0.4, 0.9)
    worst = 0.0
    for name in ("cartesian", "parabolic_cylindrical", "spherical"):
        system = build(name)
        frame = expanding_frame(system.split_class.value)
        spec = electrostatic_spec(
            system, frame, t0_tilde=sinusoid(0.5, 0.8), **profile_trio()
        )
        sol = separate(spec, lam, omega_ranges=BOXES[name], t_range=(-1.0, 1.0))
        points = chart_box_points(system, frame, BOXES[name], (-1.0, 1.0), 20, 12)
        worst = max(worst, worst_se(lambda t, x, h: evaluate_psi(sol, t, x, h), spec, points))

        if name == "spherical":
            stripped = lambda t, x, h: evaluate_psi(sol, t, x, h) / abs(sol.phi0(t))
            control = worst_se(stripped, spec, points[:10])
    ok = worst <= 1e-5 and control > 1e-2
    assert verdict(
        4, "electric family + phase factor", ok,
        f"worst rel {worst:.1e}; no-envelope control {control:.1e}",
    )


def test_criterion_05_uniform_field(verdict):
    system = make_system("spherical")
    frame = wiggly_frame("nonsplit")
    spec = magnetic_spec(system, frame)
    probes = np.linspace(-1.0, 1.0, 7)

    # (a) spatial uniformity is exact
    uniform = all(
        np.array_equal(magnetic_field(spec, t, x=np.array([0.3, -0.2, 0.9])),
                       magnetic_field(spec, t, x=np.array([-4.0, 2.0, 0.1])))
        for t in probes
    )

    # (b) analytic field matches a finite-difference curl of e A
    def fd_curl(t, x, h=1e-5):
        J = np.zeros((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            _, ap = vector_potential(spec, t, x + dp)
            _, am = vector_potential(spec, t, x - dp)
            J[:, j] = (ap - am) / (2.0 * h)
        return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])

    rng = np.random.default_rng(4)
    curl_err = max(
        float(np.max(np.abs(fd_curl(t, rng.uniform(-1, 1, 3)) - magnetic_field(spec, t))))
        for t in probes
    )

    # (c) the field vanishes exactly when the rotation rates do
    still = magnetic_spec(system, make_frame("nonsplit", h1=exp_profile(0.3),
                                             w1=sinusoid(0.5, 1.2)))
    vanishes = all(np.array_equal(magnetic_field(still, t), np.zeros(3)) for t in probes)
    linked = all(
        (np.linalg.norm(rotation_rates(spec.frame, t)) > 1e-12)
        == (np.linalg.norm(magnetic_field(spec, t)) > 1e-12)
        for t in probes
    )
    ok = uniform and curl_err <= 1e-8 and vanishes and linked
    assert verdict(
        5, "magnetic field uniform", ok,
        f"bitwise-uniform {uniform}; curl err {curl_err:.1e}; "
        f"zero-iff-static {vanishes and linked}",
    )


def test_criterion_06_coulomb_demo(tmp_path, verdict):
    assert cli_main(["coulomb-demo", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    residuals = report["max_relative"]
    limit = report["point_charge_limit_max_abs_diff"]
    ok = len(residuals) == 4 and all(v <= 1e-5 for v in residuals.values()) and limit == 0.0
    assert verdict(
        6, "coulomb demo, four charts", ok,
        f"worst rel {max(residuals.values()):.1e}; point-charge limit diff {limit:.1e}",
    )


def test_criterion_07_hamilton_jacobi(verdict):
    # cartesian: the separated action is linear, so the residual is exact
    free = magnetic_spec(make_system("cartesian"), make_frame("complete"))
    lam = SeparationConstants(1.0, 1.0, 1.0)
    action = hj_solve(free, lam, ((-1.0, 1.0),) * 3, t_range=(-1.0, 1.0))
    u = lambda t, x, h: evaluate_action(action, t, x, h)
    cart = 0.0
    for t, x, omega in chart_box_points(
        free.system, free.frame, ((-1.0, 1.0),) * 3, (-1.0, 1.0), 10, 31
    ):
        res, scale = hj_residual_with_scale(u, free, t, x, omega_hint=omega)
        cart = max(cart, abs(res) / scale)

    spec = coulomb_spec("spherical", q=-2.0, alpha=sinusoid(0.4, 1.1))
    constants = SeparationConstants(4.0, 3.0, 0.3)
    action = hj_solve(spec, constants, BOXES["spherical"], t_range=(-1.0, 1.0))
    uc = lambda t, x, h: evaluate_action(action, t, x, h)
    coul = 0.0
    for t, x, omega in chart_box_points(
        spec.system, spec.frame, BOXES["spherical"], (-1.0, 1.0), 12, 22
    ):
        res, scale = hj_residual_with_scale(uc, spec, t, x, omega_hint=omega)
        coul = max(coul, abs(res) / scale)

    with pytest.raises(TurningPointError):
        hj_solve(spec, SeparationConstants(4.0, 3.0, -0.3), BOXES["spherical"],
                 t_range=(-1.0, 1.0))
    ok = cart <= 1e-6 and coul <= 1e-5
    assert verdict(
        7, "hamilton-jacobi actions", ok,
        f"cartesian {cart:.1e}; coulomb-spherical {coul:.1e}; turning point rejected",
    )


def test_criterion_08_elliptic_identities(verdict):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        u = float(rng.uniform(-3.0, 3.0))
        k = float(rng.uniform(0.01, 0.95))
        sn, cn, dn = jacobi(u, k)
        worst = max(worst, abs(sn * sn + cn * cn - 1.0), abs(dn * dn + k * k * sn * sn - 1.0))
    m = modulus(0.8)
    sn, _, _ = jacobi(m.K / 2.0, 0.8)
    half = abs(sn - 1.0 / math.sqrt(1.0 + math.sqrt(1.0 - 0.64)))
    ok = worst <= 1e-12 and half <= 1e-12
    assert verdict(
        8, "elliptic function identities", ok,
        f"identity worst {worst:.1e}; half-argument diff {half:.1e}",
    )


def test_criterion_09_fd_order(verdict):
    k = np.array([3.0, 0.0, 0.0])
    kk = float(k @ k)
    free = magnetic_spec(make_system("cartesian"), make_frame("complete"))
    field = lambda t, x, h: np.exp(1j * (k @ np.asarray(x) - kk * t))
    steps = [2e-3, 4e-3, 8e-3]
    errs = []
    for h in steps:
        res, scale = se_residual_with_scale(
            field, free, 0.3, np.array([0.2, -0.1, 0.4]), steps=(h, h)
        )
        errs.append(abs(res) / scale)
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    assert verdict(9, "stencil order of accuracy", slope >= 3.5, f"slope {slope:.3f}")


def test_criterion_10_determinism(tmp_path, verdict):
    repo = Path(__file__).resolve().parent.parent
    runs = [
        ("audit-geometry", repo / "scenarios" / "audit_cartesian.json"),
        ("separate", repo / "scenarios" / "magnetic_spherical_rotating.json"),
        ("verify", repo / "scenarios" / "magnetic_spherical_rotating.json"),
        ("separate", repo / "scenarios" / "electrostatic_cartesian_drift.json"),
        ("verify", repo / "scenarios" / "electrostatic_cartesian_drift.json"),
        ("separate", repo / "scenarios" / "coulomb_parabolic.json"),
        ("verify", repo / "scenarios" / "coulomb_parabolic.json"),
        ("hj", repo / "scenarios" / "hj_coulomb_spherical.json"),
    ]
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        for command, scenario in runs:
            stage = out / scenario.stem
            code = cli_main([command, "--scenario", str(scenario), "--out", str(stage)])
            assert code == 0
    names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*") if p.is_file())
    mismatched = [
        name for name in names
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    ok = not mismatched and len(names) >= 20
    assert verdict(
        10, "byte-identical artifacts", ok,
        f"{len(names)} files compared" + (f"; mismatched {mismatched}" if mismatched else ""),
    )
