"""Tests for the potential builders and field diagnostics."""

import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from schrodsep.cli import load_scenario
from schrodsep.coords import make_system, sample_domain
from schrodsep.errors import (
    ConfigurationError,
    DomainError,
    InversionError,
    SingularityError,
    UsageError,
)
from schrodsep.frame import (
    TimeProfile,
    constant,
    embed,
    identity_frame,
    m_matrix,
    make_frame,
    polynomial,
    sinusoid,
)
from schrodsep.potential import (
    CoulombSystem,
    PotentialKind,
    coulomb_spec,
    electrostatic_spec,
    magnetic_field,
    magnetic_spec,
    phase_factor_S,
    profile_values,
    t0_profile,
    vector_divergence,
    vector_potential,
)

from test_frame import counted
from test_stackel import build, wiggly_frame

A_FOCAL = 1.3
K_MOD = 0.8


def exp_profile(rate):
    return TimeProfile(
        lambda t: (
            math.exp(rate * t),
            rate * math.exp(rate * t),
            rate * rate * math.exp(rate * t),
        )
    )


def spinning_frame():
    return make_frame(
        "nonsplit",
        alpha=sinusoid(0.4, 1.1),
        beta=polynomial([0.1, 0.2]),
        gamma=sinusoid(0.3, 0.7, 0.5),
    )


def curl_fd(spec, t, x, h=1e-5):
    J = np.zeros((3, 3))
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = h
        J[:, j] = (
            vector_potential(spec, t, x + dp)[1] - vector_potential(spec, t, x - dp)[1]
        ) / (2 * h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


def divergence_fd(spec, t, x, h=1e-5):
    s = 0.0
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = h
        s += (
            vector_potential(spec, t, x + dp)[1][j] - vector_potential(spec, t, x - dp)[1][j]
        ) / (2 * h)
    return s


# ---------------------------------------------------------------------------
# Builders and validation


def test_magnetic_class_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        magnetic_spec(make_system("spherical"), identity_frame("complete"))


def test_magnetic_static_frame_accepted_by_default():
    spec = magnetic_spec(make_system("cartesian"), identity_frame("complete"))
    assert spec.kind is PotentialKind.MAGNETIC


def test_magnetic_require_rotation_rejects_static():
    with pytest.raises(ConfigurationError):
        magnetic_spec(
            make_system("cartesian"), identity_frame("complete"), require_rotation=True
        )


def test_magnetic_require_rotation_accepts_spinning():
    frame = spinning_frame()
    spec = magnetic_spec(make_system("spherical"), frame, require_rotation=True)
    assert spec.frame is frame


def test_zero_charge_rejected():
    with pytest.raises(ConfigurationError):
        magnetic_spec(make_system("cartesian"), identity_frame("complete"), e_charge=0.0)


def test_noncallable_profile_rejected():
    with pytest.raises(ConfigurationError):
        magnetic_spec(make_system("cartesian"), identity_frame("complete"), f10=3.0)


def test_complex_t0_tilde_rejected():
    bad = TimeProfile(lambda t: (1.0 + 2.0j, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        magnetic_spec(make_system("cartesian"), identity_frame("complete"), t0_tilde=bad)


def test_electrostatic_rejects_rotating_frame():
    frame = make_frame("partial", alpha=polynomial([0.0, 0.5]))
    with pytest.raises(ConfigurationError):
        electrostatic_spec(make_system("cylindrical"), frame)


def test_electrostatic_rejects_constant_tilt():
    frame = make_frame("partial", beta=constant(0.3))
    with pytest.raises(ConfigurationError):
        electrostatic_spec(make_system("cylindrical"), frame)


def test_electrostatic_accepts_scaling_frame():
    frame = make_frame("complete", h1=exp_profile(0.2), h2=exp_profile(-0.1))
    spec = electrostatic_spec(make_system("cartesian"), frame)
    assert spec.kind is PotentialKind.ELECTROSTATIC


def test_coulomb_accepts_string_chart():
    spec = coulomb_spec("parabolic", q=2.0)
    assert spec.coulomb_system is CoulombSystem.PARABOLIC
    assert spec.system.sid.value == "parabolic"


def test_coulomb_conical_needs_modulus():
    with pytest.raises(ConfigurationError):
        coulomb_spec("conical", q=1.0)


def test_coulomb_frame_is_pure_rotation():
    spec = coulomb_spec("spherical", q=1.0, alpha=sinusoid(0.4, 1.1))
    for t in (-1.0, 0.0, 0.7):
        assert spec.frame.scales(t) == pytest.approx((1.0, 1.0, 1.0))
        assert np.all(spec.frame.translation(t) == 0.0)


# ---------------------------------------------------------------------------
# Magnetic family


def test_free_particle_is_trivial():
    spec = magnetic_spec(make_system("cartesian"), identity_frame("complete"))
    a0, a = vector_potential(spec, 0.3, (1.0, -2.0, 0.5))
    assert a0 == 0.0
    assert np.all(a == 0.0)
    assert np.all(magnetic_field(spec, 0.3) == 0.0)


def test_uniform_rotation_vector_potential():
    omega_rate = 0.7
    frame = make_frame("partial", alpha=polynomial([0.0, omega_rate]))
    spec = magnetic_spec(make_system("cylindrical"), frame)
    x = np.array([1.0, 2.0, -0.3])
    _, a = vector_potential(spec, 0.4, x)
    expected = 0.5 * omega_rate * np.array([-x[1], x[0], 0.0])
    np.testing.assert_allclose(a, expected, atol=1e-14)


def test_magnetic_vector_potential_evaluates_each_translation_once():
    tally = Counter()
    shifts = {f"w{i}": counted(sinusoid(0.2 * i, 0.9), tally, f"w{i}") for i in (1, 2, 3)}
    frame = make_frame("nonsplit", alpha=sinusoid(0.4, 1.1), **shifts)
    spec = magnetic_spec(make_system("spherical"), frame)
    tally.clear()  # make_frame probes every profile
    vector_potential(spec, 0.3, (0.9, -0.4, 1.3))
    assert tally == {"w1": 1, "w2": 1, "w3": 1}


def test_uniform_rotation_field_along_axis():
    omega_rate = 0.7
    frame = make_frame("partial", alpha=polynomial([0.0, omega_rate]))
    spec = magnetic_spec(make_system("cylindrical"), frame)
    np.testing.assert_allclose(
        magnetic_field(spec, 1.2), np.array([0.0, 0.0, omega_rate]), atol=1e-14
    )


def test_charge_scales_potential_and_field():
    frame = make_frame("partial", alpha=polynomial([0.0, 0.7]))
    x = np.array([1.0, 2.0, -0.3])
    unit = magnetic_spec(make_system("cylindrical"), frame)
    doubled = magnetic_spec(make_system("cylindrical"), frame, e_charge=2.0)
    np.testing.assert_allclose(
        vector_potential(doubled, 0.4, x)[1], vector_potential(unit, 0.4, x)[1] / 2.0
    )
    np.testing.assert_allclose(magnetic_field(doubled, 0.4), magnetic_field(unit, 0.4) / 2.0)


def test_field_is_uniform_bitwise():
    spec = magnetic_spec(make_system("spherical"), spinning_frame())
    t = 0.6
    base = magnetic_field(spec, t)
    for x in ((0.0, 0.0, 0.0), (1.0, -2.0, 3.0), (10.0, 10.0, -10.0)):
        again = magnetic_field(spec, t, x)
        assert np.array_equal(base, again)


@pytest.mark.parametrize("t", [-0.5, 0.2, 0.8])
def test_field_matches_curl_of_potential(t):
    frame = wiggly_frame("nonsplit")
    spec = magnetic_spec(make_system("spherical"), frame)
    for x in (np.array([0.7, -1.1, 0.4]), np.array([-0.2, 0.5, 1.3])):
        np.testing.assert_allclose(
            magnetic_field(spec, t), curl_fd(spec, t, x), atol=1e-8
        )


def test_divergence_matches_scale_rates():
    frame = wiggly_frame("nonsplit")
    spec = magnetic_spec(make_system("spherical"), frame)
    t = 0.6
    expected = sum(p(t)[1] / p(t)[0] for p in (frame.h1, frame.h2, frame.h3))
    got = 2.0 * spec.e_charge * divergence_fd(spec, t, np.array([0.4, 0.2, -0.9]))
    assert got == pytest.approx(expected, abs=1e-7)


def test_axis_profiles_enter_scalar_part():
    # Static cylindrical chart: the radial gradient norm is exp(-2 w1) and
    # the axial one is 1, so constant and quadratic profiles land directly.
    system = make_system("cylindrical")
    spec = magnetic_spec(
        system,
        identity_frame("partial"),
        f10=lambda w: 2.5,
        f30=lambda w: w * w,
        t0_tilde=constant(0.75),
    )
    z = np.array([math.cos(0.5), math.sin(0.5), 0.4])  # omega = (0, 0.5, 0.4)
    a0, a = vector_potential(spec, 0.0, z, omega_hint=(0.05, 0.45, 0.3))
    assert np.all(a == 0.0)
    assert a0 == pytest.approx(2.5 + 0.4**2 + 0.75, abs=1e-10)


def test_axis_profiles_need_hint():
    spec = magnetic_spec(
        make_system("cylindrical"), identity_frame("partial"), f10=lambda w: 1.0
    )
    with pytest.raises(ConfigurationError):
        vector_potential(spec, 0.0, (1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Electrostatic family


def test_electrostatic_has_no_vector_part():
    frame = make_frame("complete", h1=exp_profile(0.2), w1=sinusoid(0.5, 1.2))
    spec = electrostatic_spec(make_system("cartesian"), frame)
    _, a = vector_potential(spec, 0.7, (1.0, 2.0, 3.0))
    assert np.all(a == 0.0)
    assert np.all(magnetic_field(spec, 0.7) == 0.0)


def test_electrostatic_overflow_at_extreme_finite_input_is_typed():
    # The square of the drift term and the square of x_1 each leave the
    # float range; so does the square of x_1 in the phase S.
    drift = make_frame("complete", h1=polynomial([1.0, 0.1]), w1=constant(1e308))
    growing = make_frame("complete", h1=exp_profile(0.2))
    for frame, x in ((drift, (1.0, 0.0, 0.0)), (growing, (1e200, 0.0, 0.0))):
        spec = electrostatic_spec(make_system("cartesian"), frame)
        with pytest.raises(DomainError, match="overflow"):
            vector_potential(spec, 0.5, x)
    with pytest.raises(DomainError, match="electrostatic phase overflows"):
        phase_factor_S(spec, 0.5, x)


@pytest.mark.parametrize("translated", [True, False], ids=["far_translation", "far_point"])
def test_magnetic_overflow_at_extreme_finite_input_is_typed(translated):
    # |eA|^2 leaves the float range, from the translation w1 or from x
    # itself; A0 used to come back as -inf with only a RuntimeWarning.
    kwargs = {"w1": constant(1e200)} if translated else {}
    frame = make_frame("complete", alpha=polynomial([0.0, 0.5]), **kwargs)
    spec = magnetic_spec(make_system("cartesian"), frame)
    x = (1.0, 0.0, 0.0) if translated else (1e200, 0.0, 0.0)
    with pytest.raises(DomainError, match="magnetic potential overflows"):
        vector_potential(spec, 0.5, x)


def test_coulomb_overflow_at_extreme_finite_input_is_typed():
    spec = coulomb_spec("spherical", q=1.0, alpha=polynomial([0.0, 0.5]))
    with pytest.raises(DomainError, match="coulomb potential overflows"):
        vector_potential(spec, 0.5, (1e200, 0.0, 0.0))


#: The typed error of each shipped wave scenario's potential at a point
#: near the float limit, without a Newton start and with one.
_FAR_POINT_ERRORS = {
    "magnetic_spherical_rotating": (ConfigurationError, InversionError),
    "electrostatic_cartesian_drift": (ConfigurationError, InversionError),
    "coulomb_parabolic": (DomainError, DomainError),
}


@pytest.mark.parametrize("scenario", sorted(_FAR_POINT_ERRORS))
def test_potential_near_the_float_limit_ends_in_a_typed_error_without_a_warning(scenario):
    sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / f"{scenario}.json")
    start = np.mean(sc.omega_ranges, axis=1)
    for hint, error in zip((None, start), _FAR_POINT_ERRORS[scenario]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                vector_potential(sc.spec, 0.1, (1e300, 1e300, 0.0), omega_hint=hint)
        assert type(info.value) is error, (hint, info.value)


def test_profile_values_takes_floats_and_arrays():
    w = np.linspace(0.5, 1.5, 12).reshape(3, 4)
    assert profile_values(lambda v: 2.0 * v, 0.25) == 0.5
    np.testing.assert_array_equal(profile_values(lambda v: 2.0 * v, w), 2.0 * w)
    assert profile_values(lambda v: 3.0, w) == 3.0  # a constant broadcasts
    # a callable that takes floats only is called per element
    np.testing.assert_array_equal(
        profile_values(lambda v: math.exp(v), w), np.vectorize(math.exp)(w))


@pytest.mark.parametrize(
    "profile", [lambda v: np.ones(3), lambda v: v[:-1], lambda v: np.exp(1j * v), lambda v: "x"],
    ids=["wrong_length", "short", "complex", "text"])
def test_profile_values_rejects_other_results(profile):
    with pytest.raises(ConfigurationError, match="axis profile"):
        profile_values(profile, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("chart", list(CoulombSystem))
def test_builtin_profiles_take_arrays(chart):
    spec = coulomb_spec(chart, q=1.7, k=K_MOD if chart is CoulombSystem.CONICAL else None)
    w = np.linspace(0.6, 1.4, 9)
    for p in spec.f_profiles:
        if p is not None:
            got = p(w)
            assert got.shape == w.shape
            np.testing.assert_allclose(got, [p(float(v)) for v in w], rtol=1e-15, atol=0.0)


def test_phase_gradient_matches_frame_flow():
    frame = make_frame(
        "complete",
        h1=sinusoid(0.2, 0.9, 0.0, 1.4),
        h2=polynomial([1.1, 0.05, 0.02]),
        h3=constant(0.8),
        w1=sinusoid(0.5, 1.2),
        w2=constant(-0.3),
        w3=polynomial([0.1, 0.2]),
    )
    spec = electrostatic_spec(make_system("cartesian"), frame)
    t = 0.3
    x = np.array([0.9, -0.4, 1.3])
    grad = np.zeros(3)
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = 1e-6
        grad[j] = (
            phase_factor_S(spec, t, x + dp) - phase_factor_S(spec, t, x - dp)
        ) / 2e-6
    rhs = m_matrix(frame, t) @ (x - frame.translation(t)) + np.array(
        [frame.w1(t)[1], frame.w2(t)[1], frame.w3(t)[1]]
    )
    np.testing.assert_allclose(2.0 * grad, rhs, atol=1e-7)


def test_phase_for_exponential_dilation():
    # All scales e^t, no drift: S = |x|^2 / 4.
    ex = exp_profile(1.0)
    frame = make_frame("complete", h1=ex, h2=ex, h3=ex)
    spec = electrostatic_spec(make_system("cartesian"), frame)
    assert phase_factor_S(spec, 0.0, (1.0, 0.0, 0.0)) == pytest.approx(0.25)
    assert phase_factor_S(spec, 0.0, (1.0, 2.0, -2.0)) == pytest.approx(9.0 / 4.0)


def test_phase_vanishes_for_static_frame():
    spec = electrostatic_spec(make_system("cartesian"), identity_frame("complete"))
    assert phase_factor_S(spec, 0.5, (1.0, 2.0, 3.0)) == 0.0


def test_phase_rejected_outside_electrostatic():
    spec = magnetic_spec(make_system("cartesian"), identity_frame("complete"))
    with pytest.raises(UsageError):
        phase_factor_S(spec, 0.0, (1.0, 0.0, 0.0))


def test_quadratic_scalar_potential_from_drift():
    # Pure drift w1 = v t in a static frame: eA0 = -(v^2)/4, constant.
    v = 0.8
    frame = make_frame("complete", w1=polynomial([0.0, v]))
    spec = electrostatic_spec(make_system("cartesian"), frame)
    for x in ((0.0, 0.0, 0.0), (2.0, -1.0, 0.5)):
        a0, _ = vector_potential(spec, 0.3, x)
        assert a0 == pytest.approx(-0.25 * v * v, abs=1e-12)


# ---------------------------------------------------------------------------
# Coulomb family


def test_coulomb_static_is_pure_charge():
    spec = coulomb_spec("spherical", q=1.5)
    x = np.array([1.0, 2.0, -0.3])
    a0, a = vector_potential(spec, 0.0, x)
    assert np.all(a == 0.0)
    assert a0 == pytest.approx(1.5 / float(np.linalg.norm(x)), rel=1e-14)


def test_coulomb_singular_at_origin():
    spec = coulomb_spec("spherical", q=1.5)
    with pytest.raises(SingularityError):
        vector_potential(spec, 0.0, (0.0, 0.0, 0.0))


def test_coulomb_vector_part_from_half_rates():
    spec = coulomb_spec("spherical", q=1.0, alpha=polynomial([0.0, 0.7]))
    x = np.array([1.0, 2.0, -0.3])
    _, a = vector_potential(spec, 0.4, x)
    np.testing.assert_allclose(a, 0.35 * np.array([-x[1], x[0], 0.0]), atol=1e-14)
    np.testing.assert_allclose(
        magnetic_field(spec, 0.4), np.array([0.0, 0.0, 0.7]), atol=1e-14
    )


@pytest.mark.parametrize("chart", list(CoulombSystem))
def test_coulomb_agrees_with_magnetic_route(chart):
    """The q/|x| form and the per-axis profile route give the same fields."""
    al, be, ga = sinusoid(0.4, 1.1), polynomial([0.1, 0.2]), sinusoid(0.3, 0.7, 0.5)
    kwargs = {}
    if "prolate" in chart.value:
        kwargs["a"] = A_FOCAL
    if chart is CoulombSystem.CONICAL:
        kwargs["k"] = K_MOD
    cspec = coulomb_spec(chart, q=1.5, alpha=al, beta=be, gamma=ga, **kwargs)
    frame = make_frame("nonsplit", alpha=al, beta=be, gamma=ga)
    mspec = magnetic_spec(
        cspec.system,
        frame,
        f10=cspec.f_profiles[0],
        f20=cspec.f_profiles[1],
        f30=cspec.f_profiles[2],
    )
    rng = np.random.default_rng(5)
    for omega in sample_domain(cspec.system, seed=11, n=25):
        t = float(rng.uniform(-1.0, 1.0))
        x = embed(cspec.system, frame, t, omega)
        a0_c, a_c = vector_potential(cspec, t, x)
        a0_m, a_m = vector_potential(mspec, t, x, omega_hint=omega * 1.0005)
        assert abs(a0_c - a0_m) <= 1e-9 * (1.0 + abs(a0_c))
        np.testing.assert_allclose(a_c, a_m, atol=1e-9)


def test_coulomb_curl_matches_field():
    spec = coulomb_spec(
        "spherical", q=1.5, alpha=sinusoid(0.4, 1.1), beta=polynomial([0.1, 0.2])
    )
    for t in (-0.4, 0.9):
        np.testing.assert_allclose(
            magnetic_field(spec, t), curl_fd(spec, t, np.array([0.6, -0.8, 1.1])), atol=1e-8
        )


# ---------------------------------------------------------------------------
# phi0 driver


def test_t0_profile_static_is_plain_t0_tilde():
    spec = magnetic_spec(
        make_system("cartesian"), identity_frame("complete"), t0_tilde=constant(5.0)
    )
    assert t0_profile(spec, 0.2) == pytest.approx(5.0 + 0.0j)


def test_t0_profile_exponential_scales():
    rate = 0.4
    ex = exp_profile(rate)
    frame = make_frame("complete", h1=ex, h2=ex, h3=ex)
    spec = magnetic_spec(make_system("cartesian"), frame)
    got = t0_profile(spec, 1.1)
    assert got == pytest.approx(complex(0.0, -1.5 * rate))


def test_t0_profile_imaginary_part_tracks_each_scale():
    frame = make_frame(
        "complete", h1=exp_profile(0.2), h2=exp_profile(-0.1), h3=exp_profile(0.5)
    )
    spec = magnetic_spec(make_system("cartesian"), frame)
    assert t0_profile(spec, 0.0).imag == pytest.approx(-0.5 * (0.2 - 0.1 + 0.5))


def test_potentials_reject_mirrored_frame():
    # h1 = 1 - 0.2 t^2 passes the probe grid [-2, 2] and is negative at t = 2.5.
    frame = make_frame("complete", h1=polynomial([1.0, 0.0, -0.2]))
    system = make_system("cartesian")
    magnetic = magnetic_spec(system, frame)
    electric = electrostatic_spec(system, frame)
    x = np.array([0.3, -0.2, 0.5])
    assert np.isfinite(vector_divergence(magnetic, 1.0))
    assert np.isfinite(phase_factor_S(electric, 1.0, x))
    for call in (
        lambda: vector_divergence(magnetic, 2.5),
        lambda: vector_potential(magnetic, 2.5, x),
        lambda: vector_potential(electric, 2.5, x),
        lambda: phase_factor_S(electric, 2.5, x),
        lambda: t0_profile(magnetic, 2.5),
    ):
        with pytest.raises(ConfigurationError, match="non-positive"):
            call()


@pytest.mark.parametrize("e_charge", [0.0, math.nan, math.inf, -math.inf])
def test_charge_must_be_finite_and_nonzero(e_charge):
    system, frame = make_system("cartesian"), identity_frame("complete")
    for build_spec in (
        lambda: magnetic_spec(system, frame, e_charge=e_charge),
        lambda: electrostatic_spec(system, frame, e_charge=e_charge),
        lambda: coulomb_spec("spherical", q=1.0, e_charge=e_charge),
    ):
        with pytest.raises(ConfigurationError, match="e_charge"):
            build_spec()


def test_family_class_check_is_the_frame_check():
    with pytest.raises(ConfigurationError, match="cannot drive"):
        magnetic_spec(make_system("cartesian"), identity_frame("nonsplit"))
