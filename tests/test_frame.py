"""Tests for time-dependent frames and omega gradients."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from schrodsep.coords import all_system_ids, forward, make_system, sample_domain
from schrodsep.errors import ConfigurationError, SingularityError
from schrodsep.frame import (
    PROBE_TIMES,
    _gradients,
    TimeProfile,
    constant,
    embed,
    identity_frame,
    kept_per_time,
    m_matrix,
    make_frame,
    omega_gradients,
    polynomial,
    rotation_matrix,
    rotation_rate,
    rotation_rates,
    sinusoid,
    unembed,
)
from schrodsep.stackel import stackel_values, t_functions

from test_coords import triple_forms
from test_stackel import build, wiggly_frame


def exponential_profile(rate):
    r = float(rate)
    return TimeProfile(
        lambda t: (math.exp(r * t), r * math.exp(r * t), r * r * math.exp(r * t))
    )


def counted(profile, tally, name):
    """``profile`` with every evaluation counted in ``tally[name]``."""

    def fn(t):
        tally[name] += 1
        return profile(t)

    return TimeProfile(fn)


def counted_frame(class_of, tally):
    """:func:`wiggly_frame` with every profile read counted in ``tally``
    under its name; a tied scale stays tied, under the name h1."""
    frame = wiggly_frame(class_of)
    names = ("alpha", "beta", "gamma", "h1", "h2", "h3", "w1", "w2", "w3")
    profiles = {name: counted(getattr(frame, name), tally, name) for name in names}
    for tied in ("h2", "h3"):
        if getattr(frame, tied) is frame.h1:
            profiles[tied] = profiles["h1"]
    return make_frame(class_of, **profiles)


def test_profiles_evaluate():
    p = polynomial([1.0, 2.0, 3.0])
    assert p(2.0) == (17.0, 14.0, 6.0)
    q = sinusoid(2.0, 3.0, 0.0, 1.0)
    v, d1, d2 = q(0.0)
    assert (v, d1, d2) == (1.0, 6.0, 0.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_polynomial_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        coeffs = [float(c) for c in rng.uniform(-3.0, 3.0, n)]
        p = np.polynomial.Polynomial(coeffs)
        d1 = p.deriv()
        d2 = d1.deriv()
        profile = polynomial(coeffs)
        for t in (*rng.uniform(-2.0, 2.0, 5), 0.0, -0.0, 2.0):
            got = np.array(profile(t))
            want = np.array([float(p(t)), float(d1(t)), float(d2(t))])
            assert got.tobytes() == want.tobytes(), (coeffs, t)


def test_polynomial_without_coefficients_rejected():
    with pytest.raises(ConfigurationError):
        polynomial([])


def test_make_frame_rejects_inconsistent_derivatives():
    lying = TimeProfile(lambda t: (math.sin(t), 42.0, -math.sin(t)))
    with pytest.raises(ConfigurationError):
        make_frame("nonsplit", alpha=lying)


def test_make_frame_rejects_nonpositive_scale():
    with pytest.raises(ConfigurationError):
        make_frame("nonsplit", h1=constant(0.0))
    with pytest.raises(ConfigurationError):
        make_frame("complete", h1=sinusoid(2.0, 1.0, 0.0, 0.5))


def test_make_frame_enforces_class_ties():
    with pytest.raises(ConfigurationError):
        make_frame("partial", h1=constant(1.0), h2=constant(2.0))
    with pytest.raises(ConfigurationError):
        make_frame("nonsplit", h1=constant(1.0), h3=constant(2.0))
    # Complete split allows three independent scales.
    make_frame("complete", h1=constant(1.0), h2=constant(2.0), h3=constant(3.0))


def test_rotation_identity():
    fr = identity_frame("nonsplit")
    np.testing.assert_allclose(rotation_matrix(fr, 0.7), np.eye(3), atol=1e-15)


def test_rotation_quarter_turn():
    fr = make_frame("nonsplit", alpha=constant(math.pi / 2))
    T = rotation_matrix(fr, 0.0)
    np.testing.assert_allclose(T, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_rotation_orthogonality():
    fr = wiggly_frame("nonsplit")
    for t in PROBE_TIMES:
        T = rotation_matrix(fr, float(t))
        np.testing.assert_allclose(T @ T.T, np.eye(3), atol=1e-13)
        assert abs(abs(np.linalg.det(T)) - 1.0) < 1e-12


def test_rotation_matrix_evaluates_each_angle_once():
    tally = Counter()
    angles = {name: counted(sinusoid(0.4, 1.1), tally, name) for name in ("alpha", "beta", "gamma")}
    fr = make_frame("nonsplit", **angles)
    tally.clear()  # make_frame probes every profile
    rotation_matrix(fr, 0.3)
    assert tally == {"alpha": 1, "beta": 1, "gamma": 1}


def test_rotation_rate_static_frame():
    np.testing.assert_array_equal(rotation_rate(identity_frame("partial"), 1.0), np.zeros((3, 3)))


def test_rotation_rate_uniform_alpha():
    Om = 0.9
    fr = make_frame("nonsplit", alpha=polynomial([0.0, Om]))
    W = rotation_rate(fr, 0.3)
    np.testing.assert_allclose(W, [[0, -Om, 0], [Om, 0, 0], [0, 0, 0]], atol=1e-15)


def test_rotation_rate_matches_matrix_derivative():
    fr = wiggly_frame("nonsplit")
    h = 1e-6
    for t in np.linspace(-1.5, 1.5, 9):
        T = rotation_matrix(fr, float(t))
        Td = (rotation_matrix(fr, float(t) + h) - rotation_matrix(fr, float(t) - h)) / (2 * h)
        np.testing.assert_allclose(Td @ T.T, rotation_rate(fr, float(t)), atol=1e-9)


def test_rotation_rates_closed_forms():
    fr = wiggly_frame("nonsplit")
    t = 0.42
    a, da, _ = fr.alpha(t)
    _, db, _ = fr.beta(t)
    g, dg, _ = fr.gamma(t)
    s1, s2, s3 = rotation_rates(fr, t)
    assert 2 * s1 == pytest.approx(da + db * math.cos(g), rel=1e-14)
    assert 2 * s2 == pytest.approx(db * math.cos(a) * math.sin(g) - dg * math.sin(a), rel=1e-14)
    assert 2 * s3 == pytest.approx(db * math.sin(a) * math.sin(g) + dg * math.cos(a), rel=1e-14)


def test_m_matrix_static_zero():
    np.testing.assert_array_equal(m_matrix(identity_frame("complete"), 0.5), np.zeros((3, 3)))


def test_m_matrix_exponential_scales():
    fr = make_frame(
        "complete",
        h1=exponential_profile(0.3),
        h2=exponential_profile(-0.2),
        h3=exponential_profile(0.7),
    )
    np.testing.assert_allclose(m_matrix(fr, 0.8), np.diag([0.3, -0.2, 0.7]), atol=1e-13)


def test_m_matrix_skew_part_is_rotation_rate():
    fr = wiggly_frame("nonsplit")
    for t in (-0.9, 0.1, 1.3):
        M = m_matrix(fr, t)
        np.testing.assert_allclose(0.5 * (M - M.T), rotation_rate(fr, t), atol=1e-12)
        sym = 0.5 * (M + M.T)
        np.testing.assert_allclose(M - rotation_rate(fr, t), sym, atol=1e-12)


def test_m_matrix_symmetric_iff_rates_vanish():
    rotating = wiggly_frame("nonsplit")
    still = make_frame(
        "nonsplit",
        h1=sinusoid(0.2, 0.9, 0.0, 1.4),
        w1=sinusoid(0.5, 1.2),
    )
    for t in (-0.8, 0.0, 0.6):
        M = m_matrix(rotating, t)
        assert np.max(np.abs(M - M.T)) > 1e-10
        assert max(abs(v) for v in rotation_rates(rotating, t)) > 1e-10
        M = m_matrix(still, t)
        assert np.max(np.abs(M - M.T)) <= 1e-12
        assert max(abs(v) for v in rotation_rates(still, t)) <= 1e-10


def test_embed_identity_frame_is_forward():
    s = build("paraboloidal")
    fr = identity_frame("nonsplit")
    w = (0.6, 1.1, -0.4)
    np.testing.assert_allclose(embed(s, fr, 0.0, w), forward(s, w), atol=1e-15)


def test_embed_cartesian_example():
    s = build("cartesian")
    fr = make_frame(
        "complete",
        h1=constant(2.0),
        h2=constant(3.0),
        h3=constant(4.0),
        w1=constant(1.0),
    )
    np.testing.assert_allclose(embed(s, fr, 0.0, (1.0, 1.0, 1.0)), [3.0, 3.0, 4.0], atol=1e-15)


def test_embed_quarter_turn_rotates():
    s = build("cartesian")
    fr = make_frame(
        "complete",
        alpha=constant(math.pi / 2),
        h1=constant(2.0),
        h2=constant(3.0),
        h3=constant(4.0),
        w1=constant(1.0),
    )
    # Rotate the previous static example by 90 degrees about z, then
    # translate: R @ (2, 3, 4) + (1, 0, 0).
    np.testing.assert_allclose(embed(s, fr, 0.0, (1.0, 1.0, 1.0)), [-2.0, 2.0, 4.0], atol=1e-14)


def test_embed_rejects_class_mismatch():
    with pytest.raises(ConfigurationError):
        embed(build("spherical"), identity_frame("complete"), 0.0, (1.0, 0.0, 1.0))


def test_unembed_inverts_embed():
    s = build("prolate_spheroidal")
    fr = wiggly_frame("nonsplit")
    w = (0.8, -0.3, 2.5)
    for t in (-1.0, 0.2):
        x = embed(s, fr, t, w)
        np.testing.assert_allclose(unembed(fr, t, x), forward(s, w), atol=1e-13)


@pytest.mark.parametrize("class_of", ["complete", "partial", "nonsplit"])
def test_unembed_reads_each_profile_once(class_of):
    # nine profiles, a tied scale read once, and the matrix form to rounding
    frame = wiggly_frame(class_of)
    tally = Counter()
    tallied = counted_frame(class_of, tally)
    x = np.array([0.7, -1.2, 0.4])
    for t in (-0.8, 0.37):
        tally.clear()
        got = unembed(tallied, t, x)
        assert set(tally.values()) == {1}
        assert len(tally) == 9 - (frame.h2 is frame.h1) - (frame.h3 is frame.h1)
        want = rotation_matrix(frame, t).T @ (x - frame.translation(t)) / np.array(frame.scales(t))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=4e-16 * np.abs(want).max())


def test_omega_gradients_cartesian_identity():
    G = omega_gradients(build("cartesian"), identity_frame("complete"), 0.0, (0.1, 0.2, 0.3))
    np.testing.assert_allclose(G, np.eye(3), atol=1e-15)


def test_omega_gradients_cylindrical_norm():
    G = omega_gradients(build("cylindrical"), identity_frame("partial"), 0.0, (0.0, 0.0, 0.0))
    assert np.dot(G[0], G[0]) == pytest.approx(1.0, rel=1e-13)


def test_omega_gradients_at_unequal_column_lengths():
    # Spherical at omega1 = 1e-6 (radius 1e6): a regular point whose
    # Jacobian columns differ in length by a factor 1e6.
    s = make_system("spherical")
    w = (1e-6, 0.0, math.pi)
    G = omega_gradients(s, make_frame("nonsplit", h1=constant(2.0)), 0.0, w)
    J = 2.0 * np.array(s.chart.map(s, *w)[1])
    np.testing.assert_allclose(G @ J, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("name", all_system_ids())
def test_omega_gradients_orthogonal(name):
    s = build(name)
    fr = wiggly_frame(s.split_class.value)
    for w in sample_domain(s, seed=44, n=25):
        G = omega_gradients(s, fr, 0.35, w)
        norms = np.linalg.norm(G, axis=1)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.dot(G[i], G[j])) <= 1e-9 * norms[i] * norms[j]


@pytest.mark.parametrize("name", all_system_ids())
def test_gradients_of_a_stack_are_those_of_each_point(name):
    # one body: the (n, 3, 3) stack gives each point's gradients; the
    # rounding of a stacked matrix product may differ in the last bit
    s = build(name)
    fr = wiggly_frame(s.split_class.value)
    t = 0.37
    rot, h = rotation_matrix(fr, t), np.array(fr.scales(t))
    omega = sample_domain(s, seed=46, n=30)
    J = np.array([s.chart.map(s, *w)[1] for w in omega])
    stack = _gradients(s, t, omega, J, rot, h)
    for w, G in zip(omega, stack):
        want = omega_gradients(s, fr, t, w)
        np.testing.assert_allclose(G, want, rtol=0.0, atol=1e-15 * np.abs(want).max())


def test_gradients_of_a_stack_mark_a_singular_sample():
    # a Jacobian with nearly parallel columns fails the guard: the point
    # raises, the stack leaves NaN in that sample's rows only
    s, fr, t = build("spherical"), wiggly_frame("nonsplit"), 0.37
    rot, h = rotation_matrix(fr, t), np.array(fr.scales(t))
    J = np.array([np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1e-13, 0.0], [0.0, 0.0, 1.0]], np.diag([2.0, 3.0, 4.0])])
    omega = np.zeros((3, 3))
    with pytest.raises(SingularityError, match="embedded Jacobian singular"):
        _gradients(s, t, omega[1], J[1], rot, h)
    stack = _gradients(s, t, omega, J, rot, h)
    assert np.isnan(stack[1]).all() and np.isfinite(stack[[0, 2]]).all()
    for k in (0, 2):
        want = _gradients(s, t, omega[k], J[k], rot, h)
        np.testing.assert_allclose(stack[k], want, rtol=0.0, atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("name", all_system_ids())
def test_gradient_stackel_identity(name):
    # sum_i F[i][j] * |grad omega_i|^2 = T_j(t); an independent route to
    # the Stackel relation through the inverse embedded Jacobian.
    s = build(name)
    fr = wiggly_frame(s.split_class.value)
    for t in (-0.4, 0.8):
        Tf = np.array(t_functions(s, fr, t))
        for w in sample_domain(s, seed=45, n=20):
            G = omega_gradients(s, fr, t, w)
            g2 = np.sum(G * G, axis=1)
            F = stackel_values(s, w)
            lhs = F.T @ g2
            scale = np.maximum(np.abs(Tf), np.max(np.abs(F.T) * g2, axis=1))
            assert np.max(np.abs(lhs - Tf) / scale) <= 1e-8


def mirrored_frame(class_of="complete"):
    # h1 = 1 - 0.2 t^2 passes the probe grid [-2, 2] and is negative for |t| > sqrt(5).
    return make_frame(class_of, h1=polynomial([1.0, 0.0, -0.2]))


def test_scale_triples_reject_nonpositive_and_nan_scales():
    frame = mirrored_frame()
    assert frame.scale_triples(1.0) == (frame.h1(1.0), frame.h2(1.0), frame.h3(1.0))
    assert frame.scales(1.0) == (0.8, 0.8, 0.8)
    for t in (math.sqrt(5.0), 2.5, math.nan):
        with pytest.raises(ConfigurationError, match="non-positive"):
            frame.scale_triples(t)


def test_tied_scale_is_evaluated_once_per_time():
    # h2 and h3 of a nonsplit frame are h1 itself: one evaluation serves all three
    tally = Counter()
    base = sinusoid(0.2, 0.9, 0.4, 1.4)
    frame = make_frame("nonsplit", h1=counted(base, tally, "h"))
    for t in (-1.5, 0.0, 0.7):
        tally.clear()
        assert frame.scale_triples(t) == (base(t),) * 3
        assert tally["h"] == 1


ARRAY_TIMES = np.linspace(-2.5, 2.5, 401).reshape(1, 401)


@pytest.mark.parametrize(
    "profile",
    [
        constant(-0.3),
        polynomial([0.7]),
        polynomial([1.1, 0.05, 0.02]),
        sinusoid(0.2, 0.9, 0.4, 1.4),
        exponential_profile(0.4),  # math.exp: takes floats only
        TimeProfile(lambda t: (np.cosh(t), np.sinh(t), np.cosh(t))),  # numpy, no array_fn
    ],
    ids=["constant", "degree_0", "polynomial", "sinusoid", "scalar_only", "numpy_custom"],
)
def test_profile_on_array_equals_per_float(profile):
    got = profile.on_array(ARRAY_TIMES)
    per_float = [profile(t) for t in ARRAY_TIMES.ravel().tolist()]
    for k in range(3):
        assert got[k].shape == ARRAY_TIMES.shape
        assert got[k].tobytes() == np.array([triple[k] for triple in per_float]).tobytes()


@pytest.mark.parametrize(
    "fn",
    [lambda t: (t[:-1], t, t), lambda t: (np.exp(1j * t), t, t), lambda t: (t, t)],
    ids=["short", "complex", "two_parts"],
)
def test_profile_on_array_rejects_other_results(fn):
    with pytest.raises(ConfigurationError, match="time profile"):
        TimeProfile(fn).on_array(ARRAY_TIMES)


def test_scalar_only_profile_is_called_once_per_element():
    tally = Counter()
    profile = counted(exponential_profile(0.4), tally, "exp")
    profile.on_array(ARRAY_TIMES)
    assert tally["exp"] == 1 + ARRAY_TIMES.size  # the refused array call, then each element


@pytest.mark.parametrize("class_of", ["complete", "partial", "nonsplit"])
def test_scales_on_array_equal_per_float(class_of):
    frame = wiggly_frame(class_of)
    triples = frame.scale_triples(ARRAY_TIMES)
    scales = frame.scales(ARRAY_TIMES)
    for j, t in enumerate(ARRAY_TIMES.ravel().tolist()):
        assert tuple(tuple(float(v.flat[j]) for v in h) for h in triples) == frame.scale_triples(t)
        assert tuple(float(h.flat[j]) for h in scales) == frame.scales(t)


def test_scales_on_array_name_the_first_nonpositive_time():
    times = np.array([1.0, 2.0, 2.5, math.sqrt(5.0) + 0.5, -3.0])
    with pytest.raises(ConfigurationError, match=r"non-positive at t=2\.5: h = \(-0\.25,"):
        mirrored_frame().scale_triples(times)


def test_embed_and_unembed_reject_mirrored_frame():
    frame = mirrored_frame()
    system = make_system("cartesian")
    assert np.allclose(unembed(frame, 1.0, embed(system, frame, 1.0, (0.3, 0.2, 0.1))),
                       (0.3, 0.2, 0.1))
    with pytest.raises(ConfigurationError, match="non-positive"):
        embed(system, frame, 2.5, (0.3, 0.2, 0.1))
    with pytest.raises(ConfigurationError, match="non-positive"):
        unembed(frame, 2.5, (0.3, 0.2, 0.1))


@pytest.mark.parametrize("class_of", ["complete", "partial", "nonsplit"])
def test_float_time_readers_share_one_reading(class_of):
    # every reader at a float t takes its values from one reading of the
    # profiles, kept until another time is read; the values are a fresh
    # frame's bit for bit
    tally = Counter()
    frame = counted_frame(class_of, tally)
    x = np.array([0.7, -1.2, 0.4])
    for t in (-0.8, 0.37, -0.8):
        tally.clear()
        got = (frame.scale_triples(t), frame.translation_triples(t), frame.scales(t),
               frame.translation(t), rotation_matrix(frame, t), rotation_rates(frame, t),
               rotation_rate(frame, t), m_matrix(frame, t), unembed(frame, t, x))
        assert set(tally.values()) == {1}
        assert len(tally) == 9 - (frame.h2 is frame.h1) - (frame.h3 is frame.h1)
        fresh = dataclasses.replace(frame)
        want = (fresh.scale_triples(t), fresh.translation_triples(t), fresh.scales(t),
                fresh.translation(t), rotation_matrix(fresh, t), rotation_rates(fresh, t),
                rotation_rate(fresh, t), m_matrix(fresh, t), unembed(fresh, t, x))
        for a, b in zip(got, want):
            assert np.array(a).tobytes() == np.array(b).tobytes()


#: An angle 0.4 sin(1.1 t) that keeps the sign of a zero t (the built-in
#: sinusoid adds its phase, which turns -0.0 into 0.0).
ODD_ANGLE = TimeProfile(
    lambda t: (0.4 * math.sin(1.1 * t), 0.44 * math.cos(1.1 * t), -0.484 * math.sin(1.1 * t)))


def test_kept_reading_tells_minus_zero_from_zero():
    frame = make_frame("nonsplit", alpha=ODD_ANGLE)
    x = (-0.0, -0.0, -0.0)
    zeros = (0.0, -0.0)
    fresh = [unembed(dataclasses.replace(frame), t, x).tobytes() for t in zeros]
    assert fresh[0] != fresh[1]  # so a reading kept across the two would show
    for first, then in ((0, 1), (1, 0)):
        assert unembed(frame, zeros[first], x).tobytes() == fresh[first]
        assert unembed(frame, zeros[then], x).tobytes() == fresh[then]


def test_nan_time_is_read_every_time():
    tally = Counter()
    frame = make_frame("complete", w1=counted(constant(0.5), tally, "w1"))
    tally.clear()  # make_frame probes every profile
    for _ in range(3):
        frame.translation_triples(math.nan)  # constant scales pass the check at NaN
    assert tally["w1"] == 3


def test_failed_reading_is_not_kept():
    # a non-positive scale raises the same error at every call, and the
    # next good time reads normally
    tally = Counter()
    base = mirrored_frame()
    frame = make_frame("complete", h1=counted(base.h1, tally, "h1"))
    tally.clear()
    x = (0.3, 0.2, 0.1)
    texts = []
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="non-positive") as info:
            unembed(frame, 2.5, x)
        texts.append(str(info.value))
    assert texts[0] == texts[1] and tally["h1"] == 2
    assert frame.scale_triples(1.0) == base.scale_triples(1.0)
    assert unembed(frame, 1.0, x).tobytes() == unembed(base, 1.0, x).tobytes()


@pytest.mark.parametrize("t", [-0.0, 0.0, 0.37])
@pytest.mark.parametrize("moving", [True, False])
def test_unembed_takes_every_real_triple_as_a_float_array(t, moving):
    # Every input form gives the bits of the float64 array of its values,
    # and those are the float body H^-1 T^T (x - w), entry by entry in the
    # order of the rows; -0.0, non-finite and overflowing entries included.
    frame = wiggly_frame("nonsplit") if moving else identity_frame("complete")
    rows = rotation_matrix(frame, t).tolist()
    w = frame.translation(t).tolist()
    h = frame.scales(t)
    points = [(1, 2, 2), (0.5, 0.25, -0.75), (-0.0, 0.0, -0.0), (-0.0, 1.0, -0.0),
              (math.inf, 0.0, 1.0), (math.nan, 1.0, 1.0), (1e308, -1e308, 1e308)]
    for x in points:
        d = [x[i] - w[i] for i in range(3)]
        want = [(rows[0][j] * d[0] + rows[1][j] * d[1] + rows[2][j] * d[2]) / h[j]
                for j in range(3)]
        assert unembed(frame, t, np.array(x, dtype=float)).tobytes() == np.array(want).tobytes()
        for name, form in triple_forms(x).items():
            got = unembed(frame, t, form)
            assert got.dtype == float and got.shape == (3,)
            want = unembed(frame, t, np.asarray(form, dtype=float))
            assert got.tobytes() == want.tobytes(), (x, name)


#: make_frame's probe on frames that fail it, the error each raises and the
#: number of distinct profiles the frame holds: the first failing probe
#: time wins, and at one time a non-positive scale comes before the h1 = h2
#: tie, which comes before the h1 = h3 tie.
PROBE_FAILURES = {
    # the tie fails from t = -2, a scale from t = 1.05 on
    "tie, then a scale": (
        dict(class_of="partial", h1=polynomial([1.0, 1e-9]), h2=constant(1.0),
             h3=polynomial([0.5, -0.5])),
        "partial class requires h1 = h2; differ by -2.000e-09 at t=-2.0", 4),
    "a scale and a tie": (
        dict(class_of="partial", h1=polynomial([1.0, 1e-9]), h2=constant(1.0),
             h3=polynomial([-0.5, 0.5])),
        "frame scale non-positive at t=-2.0: h = (0.999999998, 1.0, -1.5)", 4),
    "both ties": (
        dict(class_of="nonsplit", h1=constant(1.0), h2=polynomial([1.0, 1e-9]),
             h3=polynomial([1.0, -1e-9])),
        "nonsplit class requires h1 = h2; differ by 2.000e-09 at t=-2.0", 4),
    "a scale, late": (
        dict(class_of="nonsplit", h1=polynomial([0.5, -0.5])),
        "frame scale non-positive at t=1.0476190476190474: h = "
        "(-0.023809523809523725, -0.023809523809523725, -0.023809523809523725)", 2),
}


def counting_calls(monkeypatch):
    """Count every ``TimeProfile`` call at a float from now on."""
    calls = Counter()
    call = TimeProfile.__call__

    def counted_call(self, t):
        calls["profile"] += 1
        return call(self, t)

    monkeypatch.setattr(TimeProfile, "__call__", counted_call)
    return calls


@pytest.mark.parametrize("case", PROBE_FAILURES)
def test_make_frame_raises_at_the_first_failing_probe_time(case, monkeypatch):
    # Each distinct profile is checked once, with three calls per probe
    # time, and the scales and ties are tested on the values those calls
    # read: the failing time is not read again.
    kwargs, message, distinct = PROBE_FAILURES[case]
    calls = counting_calls(monkeypatch)
    with pytest.raises(ConfigurationError) as info:
        make_frame(**kwargs)
    assert str(info.value) == message
    assert calls["profile"] == 3 * distinct * len(PROBE_TIMES)


@pytest.mark.parametrize("class_of", ["complete", "partial", "nonsplit"])
def test_make_frame_probe_makes_no_profile_call(class_of, monkeypatch):
    # Every profile call of an admissible frame is one of the derivative
    # checks, three per distinct profile and probe time (a class tie shares
    # h1's object); the scale and tie probe reads the values they read.
    distinct = {"complete": 9, "partial": 8, "nonsplit": 7}[class_of]
    calls = counting_calls(monkeypatch)
    frame = wiggly_frame(class_of)
    assert calls["profile"] == 3 * distinct * len(PROBE_TIMES)
    assert frame._kept == (b"", None)


def test_kept_per_time_keys_the_bits_of_t():
    # The last time's value is kept: -0.0 and 0.0 are two keys, a NaN is
    # computed at every call, a call that raised keeps nothing, and a
    # replaced instance starts empty.
    @dataclasses.dataclass(frozen=True)
    class Square:
        calls: list
        _kept: tuple = dataclasses.field(default=(b"", None), init=False)

        @kept_per_time
        def __call__(self, t):
            self.calls.append(t)
            if t > 1.0:
                raise ValueError(t)
            return t * t

    square = Square([])
    for t in (0.0, 0.0, -0.0, -0.0, 0.0, math.nan, math.nan, 0.0):
        square(t)
    assert [math.copysign(1.0, t) for t in square.calls[:3]] == [1.0, -1.0, 1.0]
    assert len(square.calls) == 5 and math.isnan(square.calls[3])
    with pytest.raises(ValueError):
        square(2.0)
    square(0.0)
    assert len(square.calls) == 6
    fresh = dataclasses.replace(square)
    assert fresh._kept == (b"", None)
    fresh(0.0)
    assert len(square.calls) == 7
